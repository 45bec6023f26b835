"""The unified exponentiation engine.

Every public-key operation the paper costs out — torus exponentiation
(CEILIDH), RSA in the Montgomery domain, ECC scalar multiplication — is one
exponentiation loop over some group.  This package provides that loop once:

* :mod:`repro.exp.group` — the minimal :class:`Group` protocol plus adapters
  for each arithmetic layer (Fp, extension fields, the F2 tower, polynomial
  quotient rings, T6(Fp), the Montgomery domain and Jacobian ECC),
* :mod:`repro.exp.strategies` — the strategy registry (binary, NAF, wNAF,
  sliding window, fixed window, Montgomery ladder, fixed-base tables and
  Shamir double exponentiation) behind :func:`exponentiate`,
* :mod:`repro.exp.trace` — the single :class:`OpTrace` tally all strategies
  emit.

Each layer reaches the loop through one call that takes a strategy name:
:meth:`repro.torus.t6.T6Group.exponentiate`,
:func:`repro.ecc.scalar.scalar_mult` and
:func:`repro.montgomery.exponent.montgomery_power`.
"""

from repro.exp.group import (
    ExtensionExpGroup,
    FieldExpGroup,
    Group,
    JacobianExpGroup,
    MontgomeryExpGroup,
    PolyModExpGroup,
    TorusExpGroup,
    TowerExpGroup,
)
from repro.exp.strategies import (
    STRATEGIES,
    FixedBaseTable,
    available_strategies,
    default_window_bits,
    double_exponentiate,
    expected_counts,
    exponentiate,
    exponentiate_many,
    exponentiate_shared_base,
    get_strategy,
    naf_digits,
    register_strategy,
    select_strategy,
    wnaf_digits,
)
from repro.exp.trace import OpTrace

__all__ = [
    "Group",
    "FieldExpGroup",
    "ExtensionExpGroup",
    "TowerExpGroup",
    "PolyModExpGroup",
    "TorusExpGroup",
    "MontgomeryExpGroup",
    "JacobianExpGroup",
    "OpTrace",
    "STRATEGIES",
    "available_strategies",
    "register_strategy",
    "get_strategy",
    "select_strategy",
    "default_window_bits",
    "exponentiate",
    "exponentiate_many",
    "exponentiate_shared_base",
    "double_exponentiate",
    "expected_counts",
    "FixedBaseTable",
    "naf_digits",
    "wnaf_digits",
]

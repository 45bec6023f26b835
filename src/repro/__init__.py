"""Reproduction of "FPGA Design for Algebraic Tori-Based Public-Key Cryptography".

Fan, Batina, Sakiyama and Verbauwhede (DATE 2008) implement the CEILIDH
torus-based cryptosystem, prime-field ECC and RSA on a MicroBlaze-controlled
multicore FPGA coprocessor.  This package rebuilds the whole stack in Python:

* :mod:`repro.nt`, :mod:`repro.field` — number theory and the Fp / Fp2 / Fp3 /
  Fp6 tower (with the paper's 18M Fp6 multiplication),
* :mod:`repro.exp` — the unified exponentiation engine: one strategy kernel
  (binary, NAF, wNAF, sliding/fixed window, Montgomery ladder, fixed-base
  tables, Shamir double exponentiation) powering the field, torus,
  Montgomery/RSA and ECC layers,
* :mod:`repro.montgomery` — FIOS Montgomery multiplication and the multi-core
  carry-local schedule of Fig. 5,
* :mod:`repro.torus` — T6(Fp), the factor-3 compression maps and the CEILIDH
  protocols (the paper's primary subject),
* :mod:`repro.ecc`, :mod:`repro.rsa` — the two baselines of Table 3,
* :mod:`repro.pkc` — the unified protocol layer: one KeyAgreement /
  PublicKeyEncryption / Signature interface and a string-keyed registry
  (``get_scheme("ceilidh-170")``, ``"ecdh-p160"``, ``"rsa-1024"``,
  ``"xtr-170"``) with uniform Table 3 profiling and batched serving runs,
* :mod:`repro.serve` — the online serving layer: an asyncio TCP server
  speaking a framed wire protocol over the registry schemes, a batching
  request scheduler with bounded admission and one crypto thread, a
  multi-process cluster sharing one port, and a concurrent load-generator
  client (``python -m repro.serve serve|cluster|load``),
* :mod:`repro.soc` — the cycle-accurate platform simulator (7-instruction
  cores, single-port DataRAM, Type-A/Type-B hierarchies, MicroBlaze interface
  cost model, area model),
* :mod:`repro.analysis` — regeneration of every table and figure.
"""

__version__ = "1.0.0"

from repro import errors
from repro.pkc import available_schemes, build_profile, get_scheme
from repro.torus.ceilidh import CeilidhSystem
from repro.torus.params import get_parameters, generate_parameters
from repro.torus.t6 import T6Group
from repro.soc.system import Platform, PlatformConfig

__all__ = [
    "__version__",
    "errors",
    "CeilidhSystem",
    "get_parameters",
    "generate_parameters",
    "T6Group",
    "Platform",
    "PlatformConfig",
    "get_scheme",
    "available_schemes",
    "build_profile",
]

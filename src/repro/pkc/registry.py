"""The string-keyed scheme registry.

``get_scheme("ceilidh-170")`` / ``"ecdh-p160"`` / ``"rsa-1024"`` /
``"xtr-170"`` return ready adapter instances; a generic loop over
:func:`available_schemes` is all a benchmark or example needs to compare
every cryptosystem the library implements.  Instances are cached per
``(name, backend)`` so per-scheme amortised state (CEILIDH's and ECDH's
fixed-base generator tables, RSA's lazily generated key material) is shared
by every caller — the behaviour the batched serving harness in
:mod:`repro.pkc.bench` relies on; pass ``fresh=True`` for an isolated
instance.  Both caches are guarded by one module lock, so the serving
layer's worker threads (:mod:`repro.serve.scheduler`) can resolve schemes
concurrently with the event loop without ever constructing duplicates.

``backend`` selects the field-arithmetic substrate underneath the scheme
(see :mod:`repro.field.backend`): ``"plain"`` (the default fast path),
``"montgomery"`` (elements resident in Montgomery form across whole
protocol runs) or ``"word-counting"`` (word-level FIOS with streamed
tallies).  With no explicit backend the ``REPRO_FIELD_BACKEND`` environment
variable decides, so one CI leg can run the whole protocol stack on the
resident-Montgomery substrate.
"""

from __future__ import annotations

import inspect
import threading
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ParameterError
from repro.field.backend import BACKENDS, default_backend_name
from repro.pkc.base import PkcScheme

__all__ = ["register_scheme", "get_scheme", "available_schemes"]

_FACTORIES: Dict[str, Callable[..., PkcScheme]] = {}
_INSTANCES: Dict[Tuple[str, str], PkcScheme] = {}

#: One lock guards both caches.  The serving layer resolves schemes from
#: its crypto thread and from HELLO's executor keygen concurrently with the
#: event loop; without the lock two threads could construct (and then
#: diverge on) separate "cached" instances of the same scheme, splitting the
#: amortised fixed-base tables and long-lived key material the cache exists
#: to share.  Construction
#: happens inside the lock: factories are cheap (expensive state like RSA
#: key material is generated lazily on first use, not at construction).
_REGISTRY_LOCK = threading.RLock()


def register_scheme(
    name: str, factory: Callable[..., PkcScheme], replace: bool = False
) -> None:
    """Register a scheme factory under a wire-format-stable name.

    The factory may accept a ``backend`` keyword (all built-in factories
    do); zero-argument factories remain valid and are simply constructed
    as-is for every backend.
    """
    with _REGISTRY_LOCK:
        if not replace and name in _FACTORIES:
            raise ParameterError(f"scheme {name!r} is already registered")
        _FACTORIES[name] = factory
        for key in [key for key in _INSTANCES if key[0] == name]:
            _INSTANCES.pop(key, None)


def _construct(factory: Callable[..., PkcScheme], backend: str) -> PkcScheme:
    try:
        accepts_backend = "backend" in inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/partials
        accepts_backend = False
    if accepts_backend:
        return factory(backend=backend)
    if backend != "plain":
        raise ParameterError(
            "this scheme's factory does not accept a backend; "
            "re-register it with a 'backend' keyword parameter"
        )
    return factory()


def get_scheme(
    name: str, fresh: bool = False, backend: Optional[str] = None
) -> PkcScheme:
    """Look up a scheme adapter by name (cached per backend unless ``fresh``).

    ``backend=None`` resolves through ``REPRO_FIELD_BACKEND`` (default
    plain), so existing call sites keep their behaviour while the whole
    stack can be steered onto another substrate from the environment.
    """
    resolved = default_backend_name(backend)
    if resolved not in BACKENDS:
        raise ParameterError(
            f"unknown field backend {resolved!r}; available: {sorted(BACKENDS)}"
        )
    with _REGISTRY_LOCK:
        try:
            factory = _FACTORIES[name]
        except KeyError:
            raise ParameterError(
                f"unknown scheme {name!r}; available: {list(available_schemes())}"
            ) from None
        if fresh:
            return _construct(factory, resolved)
        key = (name, resolved)
        if key not in _INSTANCES:
            _INSTANCES[key] = _construct(factory, resolved)
        return _INSTANCES[key]


def available_schemes() -> Tuple[str, ...]:
    """Registered scheme names, sorted."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_FACTORIES))

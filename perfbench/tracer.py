"""Spans around the public entry points of each layer, for the traced pass.

The server launcher calls :func:`install` before any scheme instance or key
is built.  Modules import functions by name (``from repro.exp.strategies
import exponentiate``), so each wrapper is installed in every namespace its
callers look the name up in; methods are wrapped on their class.

A span records name, layer, wall start/end, thread CPU start/end, the
innermost open span on its thread as parent, and the request ids it served.
Self time is a span's CPU time minus its children's.  Thread CPU time, not
wall time, is what is attributed: the event loop and the executor thread
share one interpreter lock, so a span's wall time includes time its thread
waited for the lock.  Field-level calls (Fp6 products, inversions) are too
frequent for one span each; they are counted and timed per parent span.
Spans stay in memory and are written out at shutdown.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

_wall = time.perf_counter
_cpu = time.thread_time


class Span:
    __slots__ = ("id", "name", "layer", "parent", "t0", "t1", "c0", "c1", "rids", "field")

    def row(self) -> list:
        return [
            self.id, self.name, self.layer, self.parent,
            self.t0, self.t1, self.c0, self.c1, self.rids, self.field,
        ]


class Tracer:
    def __init__(self):
        self.spans: list = []
        #: ``(request id, scheme, kind, submit time, done time, outcome)``.
        self.submits: list = []
        #: ``id(payload) -> request id`` while a request is queued or running;
        #: the payload object itself travels from ``submit`` to execution.
        self.request_ids: dict = {}
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.in_field = False
        return local

    def span(self, fn, name: str, layer: str, rids=None):
        """Wrap a synchronous entry point in a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._state().stack
            span = Span()
            span.id = next(tracer._span_ids)
            span.name = name
            span.layer = layer
            span.parent = stack[-1].id if stack else 0
            span.rids = rids(args) if rids is not None else None
            span.field = None
            stack.append(span)
            span.t0 = _wall()
            span.c0 = _cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                span.c1 = _cpu()
                span.t1 = _wall()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def counted(self, fn, key: str):
        """Wrap a field-level call: count and CPU time per parent span.

        Calls nested in another counted call (``inv`` inside ``inv_many``)
        run unrecorded, so nothing is counted twice.
        """
        tracer = self

        @functools.wraps(fn)
        def counted_call(*args, **kwargs):
            local = tracer._state()
            if local.in_field:
                return fn(*args, **kwargs)
            local.in_field = True
            started = _cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _cpu() - started
                local.in_field = False
                stack = local.stack
                if stack:
                    parent = stack[-1]
                    if parent.field is None:
                        parent.field = {}
                    entry = parent.field.get(key)
                    if entry is None:
                        parent.field[key] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed

        return counted_call

    def submit(self, fn):
        """Wrap ``BatchScheduler.submit``: assign the request id, time the wait.

        An awaiting coroutine is not on any thread's stack, so this is a
        record of its own rather than a span.
        """
        tracer = self

        @functools.wraps(fn)
        async def traced_submit(scheduler, scheme_name, kind, payload):
            rid = next(tracer._request_ids)
            key = id(payload)
            tracer.request_ids[key] = rid
            started = _wall()
            outcome = "ok"
            try:
                return await fn(scheduler, scheme_name, kind, payload)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                tracer.request_ids.pop(key, None)
                tracer.submits.append((rid, scheme_name, kind, started, _wall(), outcome))

        return traced_submit

    def dump(self, path: str) -> int:
        with open(path, "w") as out:
            for record in self.submits:
                out.write(json.dumps(["submit", *record]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span.row()) + "\n")
        return len(self.spans)


def _patch(tracer, owner, attr, name, layer, also=(), rids=None, counted=None):
    """Wrap ``owner.attr`` once and install the wrapper at every lookup site."""
    original = getattr(owner, attr)
    if counted is not None:
        wrapper = tracer.counted(original, counted)
    else:
        wrapper = tracer.span(original, name, layer, rids)
    for target, target_attr in ((owner, attr),) + tuple(also):
        setattr(target, target_attr, wrapper)


def install() -> Tracer:
    """Install every wrapper; returns the tracer that collects the spans."""
    import repro.ecc.ecdh as ecdh
    import repro.ecc.pkc as ecc_pkc
    import repro.ecc.point as ecc_point
    import repro.ecc.scalar as ecc_scalar
    import repro.exp as exp_pkg
    import repro.exp.strategies as strategies
    import repro.field.fp as fp
    import repro.field.fp6 as fp6
    import repro.montgomery.exponent as mont_exp
    import repro.pkc.base as pkc_base
    import repro.rsa.pkc as rsa_pkc
    import repro.rsa.rsa as rsa
    import repro.serve as serve_pkg
    import repro.serve.channel as channel
    import repro.serve.scheduler as scheduler
    import repro.serve.session as session
    import repro.torus.compression as compression
    import repro.torus.pkc as torus_pkc
    import repro.torus.t6 as t6
    import repro.xtr.pkc as xtr_pkc
    import repro.xtr.trace as xtr_trace

    tracer = Tracer()
    ids = tracer.request_ids
    one_id = lambda args: [ids.get(id(args[3]))]  # noqa: E731
    batch_ids = lambda args: [ids.get(id(p)) for p in args[3]]  # noqa: E731

    scheduler.BatchScheduler.submit = tracer.submit(scheduler.BatchScheduler.submit)

    # repro.serve.session: the scheduler's executor calls these by name.
    _patch(tracer, session, "serve_request", "serve_request", "repro.serve.session",
           also=[(scheduler, "serve_request"), (serve_pkg, "serve_request")], rids=one_id)
    _patch(tracer, session, "serve_request_batch", "serve_request_batch",
           "repro.serve.session", also=[(scheduler, "serve_request_batch")], rids=batch_ids)

    for method in ("seal", "open"):
        _patch(tracer, channel.ChannelCrypto, method, f"ChannelCrypto.{method}",
               "repro.serve.channel")

    # repro.pkc: the adapter methods the workloads reach, and the KDF.
    adapters = (
        (torus_pkc.CeilidhScheme, ("key_agreement", "key_agreement_many", "sign")),
        (ecc_pkc.EcdhScheme, ("key_agreement", "key_agreement_many")),
        (rsa_pkc.RsaScheme, ("decrypt",)),
        (xtr_pkc.XtrScheme, ("key_agreement",)),
        (pkc_base.PkcScheme, ("key_agreement_many", "sign_many")),
    )
    for cls, methods in adapters:
        for method in methods:
            _patch(tracer, cls, method, f"{cls.__name__}.{method}", "repro.pkc")
    _patch(tracer, pkc_base, "kdf", "kdf", "repro.pkc",
           also=[(ecc_pkc, "kdf"), (channel, "kdf")])

    for method in ("compress", "decompress", "compress_many", "decompress_many"):
        _patch(tracer, compression.TorusCompressor, method,
               f"TorusCompressor.{method}", "repro.torus")
    for method in ("exponentiate", "exponentiate_many", "exponentiate_shared_base",
                   "generator_power", "double_exponentiate"):
        _patch(tracer, t6.T6Group, method, f"T6Group.{method}", "repro.torus")

    for fn in ("scalar_mult", "scalar_mult_many", "scalar_mult_shared_point",
               "double_scalar_mult"):
        _patch(tracer, ecc_scalar, fn, fn, "repro.ecc", also=[(ecdh, fn)])
    _patch(tracer, ecc_point, "to_affine_many", "to_affine_many", "repro.ecc",
           also=[(ecc_pkc, "to_affine_many")])

    _patch(tracer, rsa, "rsa_decrypt_int_crt", "rsa_decrypt_int_crt", "repro.rsa",
           also=[(rsa_pkc, "rsa_decrypt_int_crt")])
    _patch(tracer, xtr_trace.XtrContext, "exponentiate", "XtrContext.exponentiate",
           "repro.xtr")

    # repro.exp: the engine's front doors, at each module that imported them.
    exp_sites = {
        "exponentiate": [(t6, "exponentiate"), (mont_exp, "exponentiate"),
                         (fp, "exponentiate"), (ecc_scalar, "_exponentiate")],
        "exponentiate_many": [(t6, "exponentiate_many"), (mont_exp, "exponentiate_many"),
                              (ecc_scalar, "_exponentiate_many")],
        "exponentiate_shared_base": [(t6, "exponentiate_shared_base"),
                                     (ecc_scalar, "_exponentiate_shared_base")],
        "double_exponentiate": [(t6, "double_exponentiate"),
                                (ecc_scalar, "_double_exponentiate")],
    }
    for fn, sites in exp_sites.items():
        _patch(tracer, strategies, fn, fn, "repro.exp", also=[(exp_pkg, fn)] + sites)
    _patch(tracer, strategies.FixedBaseTable, "power", "FixedBaseTable.power", "repro.exp")

    _patch(tracer, fp6.Fp6Field, "mul", "", "", counted="fp6_mul")
    _patch(tracer, fp6.Fp6Field, "sqr", "", "", counted="fp6_sqr")
    _patch(tracer, fp.PrimeField, "inv", "", "", counted="inv")
    _patch(tracer, fp.PrimeField, "inv_many", "", "", counted="inv_many")
    return tracer

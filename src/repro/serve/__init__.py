"""``repro.serve`` — the online serving layer over the unified PKC registry.

The fifth layer of the stack (backends → towers/groups → exp engine → PKC
registry → **serve**): everything the offline harness measures with
``run_batch`` loops, turned into a concurrent network service —

* :mod:`repro.serve.protocol` — a length-prefixed, versioned framing of the
  schemes' existing wire bytes, with opcodes for scheme negotiation, key
  agreement, hybrid encrypt/decrypt and sign/verify;
* :mod:`repro.serve.session` — per-connection state plus the canonical
  per-session protocol logic, shared verbatim with the offline harness
  (``repro.pkc.bench`` runs the same session functions);
* :mod:`repro.serve.scheduler` — admission bounded by ``queue_size`` with
  explicit backpressure, same-scheme batching (the amortisation story,
  online) and one crypto thread for the CPU-bound group arithmetic;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the asyncio TCP
  server and the verifying client (one connection, full sessions);
* ``python -m repro.serve serve|cluster|load`` — run a server or cluster,
  or drive one through the traffic engine (:mod:`repro.traffic`) as a
  correctness gate that prints throughput + latency percentiles and
  writes no file.

This module keeps its imports light (protocol + session only); the server,
client and scheduler — which pull in the whole PKC stack — load lazily on
first attribute access, so ``repro.pkc`` can import the shared session
logic from here without a cycle.
"""

from repro.serve.protocol import (
    MAX_FRAME_PAYLOAD,
    PROTOCOL_VERSION,
    Frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serve.session import (
    OFFLINE_SESSION_RUNNERS,
    ConnectionSession,
    serve_request,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_PAYLOAD",
    "Frame",
    "encode_frame",
    "read_frame",
    "write_frame",
    "ConnectionSession",
    "serve_request",
    "OFFLINE_SESSION_RUNNERS",
    # lazily loaded:
    "ServeServer",
    "ServeClient",
    "BatchScheduler",
    "SchemeHost",
    "ClusterSupervisor",
]

_LAZY = {
    "ServeServer": ("repro.serve.server", "ServeServer"),
    "ServeClient": ("repro.serve.client", "ServeClient"),
    "BatchScheduler": ("repro.serve.scheduler", "BatchScheduler"),
    "SchemeHost": ("repro.serve.scheduler", "SchemeHost"),
    "ClusterSupervisor": ("repro.serve.cluster", "ClusterSupervisor"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)

"""Seeded traffic models and the one load generator for the serving stack.

A deployed key-exchange service is not a steady stream of identical
requests: a few schemes dominate (Zipf popularity), requests arrive in
bursts, and most traffic rides long-lived secure channels whose handshake
cost is spread over many records.  A capacity run wants the opposite: one
operation, back to back.  Both are *data plus one engine*:

* :mod:`repro.traffic.model` — declarative :class:`~repro.traffic.model.TrafficMix`
  descriptions (scheme popularity, arrival process, operation mix, channel
  lifetimes), the named ``zipf-bursty`` preset and the closed-loop
  :func:`~repro.traffic.model.one_shot_mix`;
* :mod:`repro.traffic.engine` — :func:`~repro.traffic.engine.run_traffic`,
  which compiles a mix into per-client seeded schedules and drives a live
  server, producing a :class:`~repro.traffic.engine.TrafficReport` with
  per-scheme latency percentiles, a handshake vs steady-state split, and
  strict accounting (every submitted request is a response or an explicit
  error frame).

Everything is deterministically seeded: two runs with the same mix, seed
and client count generate identical request schedules, so traffic results
are comparable across commits the same way the offline benchmarks are.
"""

from repro.traffic.model import (  # noqa: F401
    MIXES,
    ArrivalModel,
    ChannelProfile,
    TrafficMix,
    get_mix,
    one_shot_mix,
    zipf_weights,
)
from repro.traffic.engine import (  # noqa: F401
    TrafficEntry,
    TrafficReport,
    run_traffic,
)

__all__ = [
    "MIXES",
    "ArrivalModel",
    "ChannelProfile",
    "TrafficMix",
    "get_mix",
    "one_shot_mix",
    "zipf_weights",
    "TrafficEntry",
    "TrafficReport",
    "run_traffic",
]

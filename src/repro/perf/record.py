"""Perf records — the measurement vocabulary of ``repro.perf``.

A :class:`PerfRecord` is one benchmarked ``scheme x operation`` cell: the
throughput and wall-clock of a batched run, the group-operation tally it
executed, the wire bytes it moved, and (when a platform is supplied) the
projected SoC cycle cost of the same work on the paper's hardware.  Records
are JSON-shaped by construction so the emitter can persist them to
``BENCH_pkc.json`` without a serialisation layer in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["SCHEMA_VERSION", "PerfRecord", "record_from_batch"]

#: Bumped when the on-disk shape of a record changes incompatibly.
SCHEMA_VERSION = 1


@dataclass
class PerfRecord:
    """One benchmarked ``scheme x operation`` cell.

    ``ops_per_second`` / ``ms_per_op`` treat one protocol session as the
    unit of work (a full key agreement, an encrypt+decrypt round trip, a
    sign+verify round trip).  ``projected_cycles`` is the whole batch's
    group-operation tally priced through the simulated platform's
    per-operation cycle costs — the bridge from wall-clock trends back to
    the paper's hardware numbers.
    """

    scheme: str
    operation: str
    sessions: int
    wall_seconds: float
    ops_per_second: float
    ms_per_op: float
    squarings: int = 0
    multiplications: int = 0
    inversions: int = 0
    wire_bytes: int = 0
    projected_cycles: Optional[int] = None
    #: Sessions per vectorised batch call when the run executed coalesced
    #: (the batch entry points served all sessions in one call); ``None``
    #: for per-session loop runs and for records predating the field.
    batch_size: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """The ``entries`` key this record lives under: ``scheme:operation``."""
        return f"{self.scheme}:{self.operation}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "operation": self.operation,
            "sessions": self.sessions,
            "wall_seconds": self.wall_seconds,
            "ops_per_second": self.ops_per_second,
            "ms_per_op": self.ms_per_op,
            "squarings": self.squarings,
            "multiplications": self.multiplications,
            "inversions": self.inversions,
            "wire_bytes": self.wire_bytes,
            "projected_cycles": self.projected_cycles,
            "batch_size": self.batch_size,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfRecord":
        known = {name for name in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{key: value for key, value in data.items() if key in known})


def record_from_batch(result, scheme=None, platform=None, **meta: Any) -> PerfRecord:
    """Build a :class:`PerfRecord` from a ``repro.pkc.bench.BatchResult``.

    ``result`` is duck-typed (this module never imports the PKC layer).
    With both ``scheme`` and ``platform`` given, the batch's executed
    squarings/multiplications are priced through
    ``scheme.platform_cycles_per_operation`` into ``projected_cycles``.
    Extra keyword arguments land in ``meta`` (e.g. ``quick=True``,
    ``samples=15``).
    """
    projected: Optional[int] = None
    if scheme is not None and platform is not None:
        cost_sq, cost_mul = scheme.platform_cycles_per_operation(platform)
        projected = result.ops.squarings * cost_sq + result.ops.multiplications * cost_mul
    return PerfRecord(
        scheme=result.scheme,
        operation=result.operation,
        sessions=result.sessions,
        wall_seconds=result.wall_seconds,
        ops_per_second=result.sessions_per_second,
        ms_per_op=result.ms_per_session,
        squarings=result.ops.squarings,
        multiplications=result.ops.multiplications,
        inversions=result.ops.inversions,
        wire_bytes=result.wire_bytes,
        projected_cycles=projected,
        batch_size=getattr(result, "batch_size", None),
        meta=dict(meta),
    )

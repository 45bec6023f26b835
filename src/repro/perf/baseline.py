"""Baseline comparison: is this run slower than the committed trajectory?

:func:`compare` takes the entries of a fresh run and of a baseline
``BENCH_pkc.json`` and reports every shared ``scheme:operation`` cell whose
throughput fell by more than the tolerance.  Because absolute ops/sec moves
with the host machine, ``calibrate=True`` first scales the baseline by the
median speed ratio across all shared cells — a per-scheme regression (one
code path got slower) still sticks out, while a uniformly faster or slower
host cancels.  CI runs with calibration on; a developer comparing two runs
on one machine can compare raw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.perf.record import PerfRecord

__all__ = ["Regression", "compare", "format_regressions"]


@dataclass
class Regression:
    """One cell that fell below the tolerated fraction of the baseline."""

    key: str
    baseline_ops_per_second: float
    current_ops_per_second: float
    #: current / (possibly calibrated) baseline throughput; < 1 is slower.
    ratio: float

    def describe(self) -> str:
        return (
            f"{self.key}: {self.current_ops_per_second:.2f} ops/s vs "
            f"baseline {self.baseline_ops_per_second:.2f} ops/s "
            f"(x{self.ratio:.2f})"
        )


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def compare(
    current: Dict[str, PerfRecord],
    baseline: Dict[str, PerfRecord],
    tolerance: float = 0.2,
    calibrate: bool = False,
) -> List[Regression]:
    """Regressions of ``current`` against ``baseline``.

    A cell regresses when its throughput is below ``(1 - tolerance)`` times
    the (calibrated) baseline throughput.  Every ``scheme:operation`` cell
    present in both runs is compared.  Cells missing from either side are
    skipped — a new scheme has no baseline yet, and a baseline-only cell
    just was not re-measured.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    shared = [
        key
        for key in sorted(current)
        if key in baseline and baseline[key].ops_per_second > 0
    ]
    if not shared:
        return []
    scale = 1.0
    if calibrate:
        scale = _median(
            [current[key].ops_per_second / baseline[key].ops_per_second for key in shared]
        )
        if scale <= 0:  # pragma: no cover - throughput is never negative
            scale = 1.0
    regressions: List[Regression] = []
    for key in shared:
        reference = baseline[key].ops_per_second * scale
        ratio = current[key].ops_per_second / reference
        if ratio < 1 - tolerance:
            regressions.append(
                Regression(
                    key=key,
                    baseline_ops_per_second=reference,
                    current_ops_per_second=current[key].ops_per_second,
                    ratio=ratio,
                )
            )
    regressions.sort(key=lambda r: r.ratio)
    return regressions


def format_regressions(regressions: Sequence[Regression], tolerance: float = 0.2) -> str:
    """A human-readable regression report (empty string when clean)."""
    if not regressions:
        return ""
    lines = [f"throughput regressions beyond {tolerance:.0%} tolerance:"]
    lines.extend(f"  - {regression.describe()}" for regression in regressions)
    return "\n".join(lines)

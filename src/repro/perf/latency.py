"""Latency distributions — the serving layer's measurement vocabulary.

Throughput alone cannot describe an online service: the serving acceptance
story is written in percentiles (how slow the slowest clients were), so the
perf layer gains a :class:`LatencyHistogram` — per-request latency samples
with percentile extraction and a summary digest.  The traffic engine keeps
one per ``(scheme, kind)`` cell, and ``python -m repro.serve load`` prints
their percentiles.

The implementation keeps the raw samples (a serving-harness run is at most
a few thousand requests) and computes exact percentiles by linear
interpolation over the sorted sample set — no bucketing error at the scale
this library measures.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = ["LatencyHistogram", "SUMMARY_PERCENTILES"]

#: The percentiles a summary reports, as (label, quantile) pairs.  p999
#: is the traffic engine's tail metric — with bursty arrivals the p99 sits
#: inside the burst plateau and only the 99.9th exposes the queue spikes.
SUMMARY_PERCENTILES = (
    ("p50_ms", 0.50),
    ("p90_ms", 0.90),
    ("p99_ms", 0.99),
    ("p999_ms", 0.999),
)


class LatencyHistogram:
    """Per-request latency samples with percentile extraction.

    >>> hist = LatencyHistogram()
    >>> for seconds in (0.010, 0.020, 0.030):
    ...     hist.add(seconds)
    >>> hist.percentile(0.5)
    0.02
    >>> hist.summary()["count"]
    3
    """

    __slots__ = ("_samples", "_sorted")

    def __init__(self, samples: Optional[Iterable[float]] = None):
        self._samples: List[float] = list(samples or ())
        self._sorted = False

    def add(self, seconds: float) -> None:
        """Record one request's latency in seconds."""
        self._samples.append(seconds)
        self._sorted = False

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's samples into this one."""
        self._samples.extend(other._samples)
        self._sorted = False

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean_seconds(self) -> float:
        return sum(self._samples) / len(self._samples) if self._samples else 0.0

    @property
    def max_seconds(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, quantile: float) -> float:
        """The ``quantile``-th latency in seconds (linear interpolation).

        ``quantile`` is a fraction in [0, 1]; an empty histogram reports 0.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile {quantile} outside [0, 1]")
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        position = quantile * (len(self._samples) - 1)
        low = int(position)
        high = min(low + 1, len(self._samples) - 1)
        fraction = position - low
        return self._samples[low] * (1 - fraction) + self._samples[high] * fraction

    def summary(self) -> Dict[str, float]:
        """The percentile digest of the samples.

        Milliseconds throughout: ``p50_ms`` / ``p90_ms`` / ``p99_ms`` /
        ``p999_ms`` / ``max_ms`` / ``mean_ms``, plus the sample ``count``.
        """
        digest: Dict[str, float] = {
            label: round(self.percentile(quantile) * 1e3, 4)
            for label, quantile in SUMMARY_PERCENTILES
        }
        digest["max_ms"] = round(self.max_seconds * 1e3, 4)
        digest["mean_ms"] = round(self.mean_seconds * 1e3, 4)
        digest["count"] = len(self._samples)
        return digest

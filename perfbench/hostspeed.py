"""How fast the host runs the benchmark's vCPU, sampled while the server works.

The virtual machine the benchmark runs on shares its host, and each of its
vCPUs flips, second by second, between two speeds about 1.6 times apart: a
fixed pure-Python kernel pinned to one vCPU took its quiet time in one
second and 1.6-1.8 times as long in the next, independently on each vCPU,
with no steal to show for it.  How long a run spends in the slow state
drifts from minute to minute, so ten runs of the same code spread by a
quarter of their median on ceilidh-170 key agreement.

The probe measures that state where the timed work runs.  ``run.Run`` pins
itself to one vCPU, and the servers and this probe inherit the pinning.
Every ``INTERVAL`` seconds the probe wakes, times one short run of the
kernel and records ``(perf_counter at the start, seconds)``.  A woken
process preempts the busy server at once, so the kernel runs under the same
host conditions as the server around it; it costs the vCPU about 2.5 % of
its time, the same in every run.  Over 0.5 s slices of a ka-ceilidh run the
server's rate moved by 0.24 of its median (quartile spread) and the rate
times the probe's factor by 0.03.

The kernel is the benchmark's own code, never the program's, so a change to
the program cannot move it: 170-bit modular products and sums in pure
Python, like the prime field under the ceilidh-170 and xtr-170 towers.

``harness.HostProbe`` runs it::

    python3 perfbench/hostspeed.py

and it prints its samples as one JSON list when its standard input closes.
"""

from __future__ import annotations

import bisect
import json
import select
import sys
import time
from typing import List, Tuple

#: An odd 170-bit modulus, the size of the ceilidh-170 and xtr-170 fields.
_MODULUS = (1 << 170) - 0x5A3
_ITERATIONS = 800
#: Seconds between two samples.
INTERVAL = 0.02
#: Seconds one run of the kernel took on the 2-vCPU machine the bounds were
#: set on (an Intel Xeon VM, Python 3.11) in its fast state.  Calibrated
#: figures are what that machine would have measured in that state.
NOMINAL_SECONDS = 0.0005


def kernel() -> float:
    """Seconds one run of the kernel takes now."""
    x, y = 0x1234567890ABCDEF1234567890ABCDEF12345678, 0xFEDCBA0987654321FEDCBA
    start = time.perf_counter()
    for _ in range(_ITERATIONS):
        x = (x * y + x) % _MODULUS
        y = (y * y - x) % _MODULUS
    return time.perf_counter() - start


def factor(samples: List[Tuple[float, float]], start: float, end: float) -> float:
    """How many times slower than nominal the host ran from ``start`` to
    ``end``, from the samples taken then (if there are none, the ones just
    before and after).

    The mean follows the share of the time spent in each state; the slowest
    tenth of the samples is left out first, because now and then the
    scheduler splits one run of the kernel and it reads several times too
    slow.  ``samples`` is the probe's output, sorted by time.
    """
    times = [t for t, _ in samples]
    lo, hi = bisect.bisect_left(times, start), bisect.bisect_left(times, end)
    chosen = sorted(seconds for _, seconds in samples[lo:hi] or samples[max(lo - 1, 0):lo + 1])
    kept = chosen[:len(chosen) - len(chosen) // 10]
    return sum(kept) / len(kept) / NOMINAL_SECONDS


def main() -> None:
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL)[0]:
        samples.append((time.perf_counter(), kernel()))
    sys.stdout.write(json.dumps(samples))


if __name__ == "__main__":
    main()

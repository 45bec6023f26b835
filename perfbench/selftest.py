"""Checks that the benchmark fails a run when one reply byte is wrong.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it prepares the inputs of a short run, flips one byte in
one expected reply, drives a real server and checks the window reports a
failure; the same run without the flip must report none.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import PINNED_ENV, WORKLOADS  # noqa: E402


def _flip(work, closed: bool):
    """Flip the last byte of the fifth expected reply on connection 0."""
    if closed:
        pool = work[0][0]
        frame, expected, payload = pool[4]
        pool[4] = (frame, expected[:-1] + bytes([expected[-1] ^ 1]), payload)
    else:
        script = work[0]
        kind, frame, expected = script[4]
        script[4] = (kind, frame, expected[:-1] + bytes([expected[-1] ^ 1]))


def failures(name: str, flip: bool, seconds: float = 1.0) -> int:
    from run import Run

    workload = WORKLOADS[name]
    if hasattr(workload, "phases"):
        # One KA phase: every SIGN reply is randomized and has no expected bytes.
        workload = type(workload)(workload.name, workload.why, workload.phases[:1])
    run = Run(workload, seed=99, seconds=seconds)
    try:
        work = run.timed_inputs("selftest", warmup=0.0)
        if flip:
            _flip(work, run.closed)
        server, _ = run.spawn(run.probe_steps("selftest-probe"))
        run.drive(server, work, warmup=0.0)
        server.stop()
    finally:
        run.close()
    return run.failed


def main() -> int:
    import os

    os.environ.update(PINNED_ENV)
    ok = True
    for name in WORKLOADS:
        clean, flipped = failures(name, flip=False), failures(name, flip=True)
        passed = clean == 0 and flipped >= 1
        ok &= passed
        print(f"{name}: {clean} failures as generated, {flipped} with one flipped byte "
              f"-> {'ok' if passed else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

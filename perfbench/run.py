"""Wire-to-wire serving benchmark for ``repro.serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ka-ceilidh --seed 1 --seconds 25 --trace 0

``--trace 0`` starts the server several times (``setup_s`` is the median
spawn-to-first-verified-answer time), then drives one timed run and prints
the end-to-end metrics.  ``--trace 1`` drives an untraced run and then a
traced one (a second server with spans around each layer's entry points)
and prints the per-layer metrics.  Times are calibrated by the host probe
(``hostspeed.py``) that samples the vCPU the run is pinned to.  Every line
before the last is for people; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run with any
wrong reply exits 1.  See ``perfbench/README.md`` for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Above these the generator, not the server, may have set the pace, and
#: the run is marked failed.
MAX_GEN_CPU_SHARE = 0.8
MAX_GEN_LAG_P99_MS = 10.0


def _environment(args) -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        commit = result.stdout.strip() or commit
    return (
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}\n"
        f"# cpu_count={os.cpu_count()} python={platform.python_version()} backend=plain "
        f"gmpy2={'yes' if importlib.util.find_spec('gmpy2') else 'no'} "
        f"c_compiler={'yes' if shutil.which('cc') else 'no'} (native kernel pinned off)\n"
        f"# commit={commit} src_sha256={digest.hexdigest()[:16]}"
    )


class Run:
    """One invocation: inputs, server processes and the windows driven."""

    def __init__(self, workload, seed: int, seconds: float):
        from harness import HostProbe
        from inputs import Inputs, server_keys
        from loadgen import new_loop

        # One vCPU for the generator, every server and the host probe (they
        # inherit it), so the probe measures the vCPU every timed
        # instruction runs on (``hostspeed.py``).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.workload = workload
        self.closed = hasattr(workload, "phases")
        self.seconds = seconds
        self.schemes = (
            sorted({phase.scheme for phase in workload.phases}) if self.closed
            else [workload.scheme]
        )
        self.keys = server_keys(seed, self.schemes)
        self.inputs = Inputs(seed, self.keys)
        self.servers = []
        self.failed = 0
        self.failures = []
        self.loop = new_loop()
        asyncio.set_event_loop(self.loop)
        self.probe = HostProbe(ROOT)

    def probe_steps(self, label: str):
        """One request of every (scheme, kind) the workload sends."""
        if self.closed:
            return [
                (phase.scheme, [r[:2] for r in self.inputs.requests(phase, 1, label)])
                for phase in self.workload.phases
            ]
        script = self.inputs.channel_probe(self.workload, label)
        return [(self.workload.scheme, [(frame, expected) for _, frame, expected in script])]

    def timed_inputs(self, label: str, warmup: float):
        """Per connection: request pools (closed loops) or channel scripts."""
        workload = self.workload
        connections = range(workload.connections)
        if self.closed:
            return [
                [
                    self.inputs.requests(phase, math.ceil(
                        phase.rate_cap / workload.connections
                        * (self.seconds * phase.share + warmup)
                    ), f"{label}-{c}")
                    for c in connections
                ]
                for phase in workload.phases
            ]
        frames = math.ceil(workload.frames_per_second * (self.seconds + warmup + 0.1)) + 1
        return [self.inputs.channel_script(workload, frames, f"{label}-{c}") for c in connections]

    def spawn(self, steps, trace: bool = False, spans_path: str = ""):
        """Start a server; returns it and its set-up seconds."""
        from harness import ServerProcess, setup_probe

        server = ServerProcess(ROOT, self.keys, self.schemes, trace, spans_path)
        self.servers.append(server)
        server.start()
        return server, self.loop.run_until_complete(setup_probe(server, steps, self.keys))

    def drive(self, server, work, warmup: float):
        from harness import drive_channels, drive_closed, verify_signatures

        drive = drive_closed if self.closed else drive_channels
        windows = self.loop.run_until_complete(asyncio.wait_for(
            drive(server, self.workload, work, self.keys, self.seconds, warmup),
            timeout=self.seconds * 2 + 30,
        ))
        for window in windows:
            self.fail(window.tally.failed, *window.tally.failures)
        if self.closed:
            bad = verify_signatures(windows, self.workload, self.keys)
            self.fail(bad, f"{bad} SIGN replies failed verification")
        return windows

    def fail(self, count: int, *reasons: str) -> None:
        if count:
            self.failed += count
            self.failures.extend(reasons)

    def host_factors(self, windows, spans=()):
        """Stop the host probe and set every window's slice factors; returns
        the factor of each ``(start, end)`` in ``spans``."""
        from hostspeed import factor

        samples = self.probe.stop()
        for window in windows:
            window.factors = [factor(samples, start, end) for start, end in window.slices]
        return [factor(samples, start, end) for start, end in spans]

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        self.probe.kill()
        self.loop.close()


def measure_end_to_end(run: Run, args, lines):
    from report import end_to_end
    from workloads import SETUP_ROUNDS, WARMUP_SECONDS

    probes = [run.probe_steps(f"probe{r}") for r in range(SETUP_ROUNDS)]
    work = run.timed_inputs("timed", WARMUP_SECONDS)
    spans = []
    for steps in probes:
        if spans:
            server.stop()
        server, seconds = run.spawn(steps)
        spans.append((server.spawned, server.spawned + seconds))
    windows = run.drive(server, work, WARMUP_SECONDS)
    server.stop()
    factors = run.host_factors(windows, spans)
    setups = [(end - start) / f for (start, end), f in zip(spans, factors)]
    lines.append("setup_s rounds: " + ", ".join(
        f"{end - start:.3f} s at host x{f:.2f}" for (start, end), f in zip(spans, factors)))
    return end_to_end(run.workload, windows, setups), windows, windows


def measure_per_layer(run: Run, args, lines):
    from report import per_layer
    from workloads import WARMUP_SECONDS

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = str(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    probes = [run.probe_steps(f"probe{r}") for r in range(2)]
    work_plain = run.timed_inputs("untraced", WARMUP_SECONDS)
    work_traced = run.timed_inputs("traced", WARMUP_SECONDS)
    server, _ = run.spawn(probes[0])
    untraced = run.drive(server, work_plain, WARMUP_SECONDS)
    server.stop()
    server, _ = run.spawn(probes[1], trace=True, spans_path=spans_path)
    traced = run.drive(server, work_traced, WARMUP_SECONDS)
    final = server.stop()
    run.host_factors(untraced + traced)
    metrics, missing, layers, busy = per_layer(run.workload, untraced, traced, spans_path)
    lines.append(f"spans: {final.get('spans', 0)} written to {spans_path}")
    lines.append(f"server busy CPU in the traced windows: {busy * 1e3:.1f} ms")
    for layer, cpu in layers.items():
        lines.append(f"  self CPU {layer:<24} {cpu * 1e3:10.1f} ms  {cpu / busy:7.1%}")
    lines.append(
        f"  {'unattributed':<33} {(busy - sum(layers.values())) * 1e3:10.1f} ms  "
        f"{metrics['trace.unattributed_share']:7.1%}"
    )
    run.fail(len(missing), *(f"wrapper never fired: {name}" for name in missing))
    run.fail(int(metrics["trace.unattributed_share"] < -0.1),
             "attributed self time exceeds the server's busy CPU by more than 10%")
    return metrics, untraced, traced


def measure(args) -> int:
    from report import UNITS, by_phase, generator_guards, phase_figures, server_cpu_per_response
    from workloads import WORKLOADS

    print(_environment(args), flush=True)
    # The traced run measures twice (untraced, then traced), half as long each.
    seconds = args.seconds / 2 if args.trace else args.seconds
    run = Run(WORKLOADS[args.workload], args.seed, seconds)
    lines = []
    try:
        measure_fn = measure_per_layer if args.trace else measure_end_to_end
        metrics, untraced, windows = measure_fn(run, args, lines)
    finally:
        run.close()
    for name, phase_windows in by_phase(windows).items():
        for calibrated in (True, False):
            f = phase_figures(phase_windows, run.workload, calibrated)
            lines.append(
                f"{name} [{'calibrated' if calibrated else 'as timed'}, host x{f['host']:.2f} "
                f"over {f['slices']} slices]: "
                f"{f['rate']:.2f} /s, p50 {f['p50']:.3f} ms, "
                f"p{run.workload.tail_percentile:g} {f['tail']:.3f} ms "
                f"({f['samples']} samples), handshake p50 {f['handshake_p50']:.3f} ms "
                f"({f['handshakes']})"
                + (" -- inputs ran out before the window ended" if f["exhausted"] else "")
            )
    guards = generator_guards(untraced)
    lines.append(
        f"untraced: server.cpu_ms_per_response {server_cpu_per_response(untraced):.3f} ms, "
        f"gen.lag_p99_ms {guards['gen.lag_p99_ms']:.3f} ms, "
        f"gen.cpu_share {guards['gen.cpu_share']:.3f}"
    )
    run.fail(
        int(guards["gen.cpu_share"] > MAX_GEN_CPU_SHARE
            or guards["gen.lag_p99_ms"] > MAX_GEN_LAG_P99_MS),
        f"invalid run: the generator may have set the pace (CPU share above "
        f"{MAX_GEN_CPU_SHARE} or lag p99 above {MAX_GEN_LAG_P99_MS} ms)",
    )
    attempted = sum(w.tally.attempted for w in {id(w): w for w in untraced + windows}.values())
    lines.append(f"failure_ratio {run.failed / max(attempted, 1):.6f} "
                 f"({run.failed} of {attempted})")
    lines.extend(f"FAILED: {reason}" for reason in run.failures)
    lines.extend(f"{name} {value:.6g} {UNITS[name]}" for name, value in metrics.items())
    print("\n".join(lines))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }), flush=True)
    return 0 if run.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serve" / "server.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import PINNED_ENV, WORKLOADS

    os.environ.update(PINNED_ENV)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

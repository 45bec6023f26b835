"""Runs the server process and drives one workload's windows against it."""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import select
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from inputs import check_signatures, hello_frame, welcome_frame
from loadgen import Connection, Tally, closed_loop, now, paced_loop, reply_ok
from workloads import PINNED_ENV, ChannelWorkload, ClosedLoopWorkload

#: Seconds to wait for the server to answer a control command.
CONTROL_TIMEOUT = 60.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class HostProbe:
    """``hostspeed.py`` sampling the benchmark's vCPU for the whole run."""

    def __init__(self, root: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "hostspeed.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def stop(self) -> List[tuple]:
        """Stop sampling; the samples, sorted by time."""
        out, _ = self.proc.communicate(timeout=CONTROL_TIMEOUT)
        return [tuple(sample) for sample in json.loads(out)]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class ServerProcess:
    """The server under test, started through ``launcher.py``."""

    def __init__(self, root: Path, keys: dict, schemes, trace: bool, spans_path: str = ""):
        self.root = root
        self.keys = keys
        self.spec = {"schemes": list(schemes), "trace": trace, "spans_path": spans_path}
        self.proc: Optional[subprocess.Popen] = None
        self.address = ("", 0)
        self.spawned = 0.0

    def start(self) -> None:
        env = dict(os.environ)
        env.update(PINNED_ENV)
        env["PYTHONPATH"] = str(self.root / "src")
        blob = pickle.dumps(self.keys)
        self.spawned = now()
        self.proc = subprocess.Popen(
            [sys.executable, str(self.root / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(self.root),
            env=env,
        )
        self.proc.stdin.write(struct.pack(">Q", len(blob)) + blob)
        self.proc.stdin.write(json.dumps(self.spec).encode() + b"\n")
        self.proc.stdin.flush()
        host, port = self._read("ready")
        self.address = (host, port)

    def _read(self, key: str):
        ready, _, _ = select.select([self.proc.stdout], [], [], CONTROL_TIMEOUT)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"server process gave no {key!r} line")
        return json.loads(line)[key]

    def stats(self) -> dict:
        self.proc.stdin.write(b"stats\n")
        self.proc.stdin.flush()
        return self._read("stats")

    def cpu_seconds(self) -> float:
        """User + system CPU of the server process, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> dict:
        self.proc.stdin.write(b"stop\n")
        self.proc.stdin.flush()
        final = self._read("final")
        self.proc.stdin.close()
        self.proc.wait(timeout=CONTROL_TIMEOUT)
        self.proc.stdout.close()
        return final

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


#: Timed windows are cut into slices of about this many seconds, and each
#: slice's times are divided by the host factor measured in it
#: (``report.phase_figures``); the host's speed flips within seconds.
SLICE_SECONDS = 0.5


@dataclass
class Window:
    """One timed window: the generator's tally, CPU on both sides, and the
    host factor of each slice (``hostspeed.factor``; set after the run)."""

    name: str
    tally: Tally
    slices: List[tuple] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)
    server_cpu: float = 0.0
    gen_cpu: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)

    @classmethod
    def open(cls, name: str, start: float, seconds: float) -> "Window":
        count = max(1, round(seconds / SLICE_SECONDS))
        width = seconds / count
        return cls(
            name,
            Tally(start=start, end=start + seconds),
            slices=[(start + i * width, start + (i + 1) * width) for i in range(count)],
        )

    @property
    def seconds(self) -> float:
        return self.tally.end - self.tally.start

    def stat_delta(self, *path) -> float:
        before, after = self.stats_before, self.stats_after
        for key in path:
            before, after = before[key], after[key]
        return after - before


async def _marks(window: Window, server: ServerProcess) -> None:
    """Sample CPU on both sides at the window's edges."""
    tally = window.tally
    await asyncio.sleep(max(0.0, tally.start - now()))
    server_start, gen_start = server.cpu_seconds(), time.process_time()
    await asyncio.sleep(max(0.0, tally.end - now()))
    window.server_cpu = server.cpu_seconds() - server_start
    window.gen_cpu = time.process_time() - gen_start


async def _negotiate(conns: List[Connection], scheme: str, key) -> None:
    expected = welcome_frame(scheme, key)
    for conn in conns:
        reply = await conn.roundtrip(hello_frame(scheme))
        if reply != expected:
            raise RuntimeError(f"HELLO {scheme}: unexpected reply {reply[:16].hex()}")


async def setup_probe(server: ServerProcess, steps, keys) -> float:
    """Seconds from spawn to the first verified answer of every request kind.

    ``steps`` is ``[(scheme, [(frame, expected), ...]), ...]``; an expected
    reply of ``None`` (SIGN) only has its opcode checked here.
    """
    conn = await Connection.open(*server.address)
    try:
        for scheme, requests in steps:
            await _negotiate([conn], scheme, keys[scheme])
            for frame, expected in requests:
                reply = await conn.roundtrip(frame)
                if not reply_ok(reply, expected):
                    raise RuntimeError(f"set-up probe of {scheme}: wrong reply {reply[:16].hex()}")
        return now() - server.spawned
    finally:
        await conn.close()


async def drive_closed(
    server: ServerProcess,
    workload: ClosedLoopWorkload,
    pools,
    keys,
    seconds: float,
    warmup: float,
) -> List[Window]:
    """Every round runs each phase in turn: negotiate, then one timed
    window (after a warm-up in the first round)."""
    conns = [await Connection.open(*server.address) for _ in range(workload.connections)]
    # Each round continues where the previous one stopped in every pool.
    pools = [[iter(pool) for pool in phase_pools] for phase_pools in pools]
    windows = []
    try:
        for round_index in range(workload.rounds):
            for phase, phase_pools in zip(workload.phases, pools):
                await _negotiate(conns, phase.scheme, keys[phase.scheme])
                stats = server.stats()
                window = Window.open(
                    phase.rate_name,
                    now() + (warmup if round_index == 0 else 0.0),
                    seconds * phase.share / workload.rounds,
                )
                window.stats_before = stats
                await asyncio.gather(
                    _marks(window, server),
                    *(closed_loop(c, pool, phase.op, window.tally)
                      for c, pool in zip(conns, phase_pools)),
                )
                window.stats_after = server.stats()
                windows.append(window)
    finally:
        for conn in conns:
            await conn.close()
    return windows


async def drive_channels(
    server: ServerProcess,
    workload: ChannelWorkload,
    scripts,
    keys,
    seconds: float,
    warmup: float,
) -> List[Window]:
    """Paced channel conversations on every connection, one timed window."""
    conns = [await Connection.open(*server.address) for _ in range(workload.connections)]
    try:
        await _negotiate(conns, workload.scheme, keys[workload.scheme])
        stats = server.stats()
        first_due = now() + 0.05
        window = Window.open("channels", first_due + warmup, seconds)
        window.stats_before = stats
        rate = workload.frames_per_second
        # Offset the connections' schedules so their frames interleave
        # evenly instead of arriving in pairs.
        offsets = [i / (rate * len(conns)) for i in range(len(conns))]
        await asyncio.gather(
            _marks(window, server),
            *(
                paced_loop(c, script, first_due + offset, rate, window.tally)
                for c, script, offset in zip(conns, scripts, offsets)
            ),
        )
        window.stats_after = server.stats()
    finally:
        for conn in conns:
            await conn.close()
    return [window]


def verify_signatures(windows: List[Window], workload, keys) -> int:
    """Check every randomized SIGN reply after the timed windows."""
    failures = 0
    for window in windows:
        if window.tally.signed:
            phase = next(p for p in workload.phases if p.rate_name == window.name)
            failures += check_signatures(phase.scheme, keys[phase.scheme], window.tally.signed)
    return failures

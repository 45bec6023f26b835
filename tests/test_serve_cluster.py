"""Tests of the multi-process cluster serving layer.

The pure pieces (configuration validation) run everywhere; the
process-spawning pieces boot real worker clusters on loopback and drive
them with the traffic engine's closed-loop one-shot mixes, keeping worker
counts and session counts small — every spawn pays an interpreter start
plus the package import.  They need ``SO_REUSEPORT``, the cluster's only
way to share its port, and skip on a platform without it.

The lifecycle tests are the acceptance story: a SIGKILLed worker comes
back and the load sees zero client-visible errors; a SIGTERM drain loses
zero in-flight requests; a rolling restart keeps the port serving
throughout.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import queue
import random
import re
import signal
import subprocess
import sys
import threading
from typing import Optional

import pytest

import repro
from repro.errors import ParameterError
from repro.serve.client import ServeClient
from repro.serve.cluster import ClusterSupervisor, reuseport_available
from repro.serve.scheduler import SchemeHost
from repro.traffic import one_shot_mix, run_traffic

#: The lifecycle tests' load: ceilidh-toy32 key agreements back to back.
KA_MIX = one_shot_mix("ceilidh-toy32", "key-agreement")

#: Every test that spawns workers needs the kernel's port sharing.
needs_reuseport = pytest.mark.skipif(
    not reuseport_available(), reason="SO_REUSEPORT not available"
)


def run(coroutine):
    return asyncio.run(coroutine)


def _cluster(**overrides) -> ClusterSupervisor:
    options = dict(
        workers=2,
        schemes=("ceilidh-toy32",),
        rng=random.Random(0xC1045E8),
    )
    options.update(overrides)
    return ClusterSupervisor(**options)


class TestClusterConfiguration:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ParameterError):
            ClusterSupervisor(workers=0)

    def test_refuses_a_platform_without_reuseport(self, monkeypatch):
        """Without ``SO_REUSEPORT`` the workers cannot share the port, so
        construction fails at once and names the missing option."""
        from repro.serve import cluster as cluster_module

        monkeypatch.setattr(cluster_module, "reuseport_available", lambda: False)
        with pytest.raises(ParameterError, match="SO_REUSEPORT"):
            ClusterSupervisor(workers=2)

    def test_cluster_counts_are_sorted_deduplicated_and_start_at_one(self):
        """``load --cluster`` efficiency is relative to one worker, so the
        sweep always measures a single-worker run first."""
        from repro.serve.__main__ import _parse_cluster_counts

        assert _parse_cluster_counts("4,2,4") == [1, 2, 4]
        assert _parse_cluster_counts("1, 3") == [1, 3]
        for raw in ("", " , ", "0,2", "-1"):
            with pytest.raises(SystemExit):
                _parse_cluster_counts(raw)

    def test_preset_keys_pin_the_host_identity(self):
        """A SchemeHost built with preset keys serves them verbatim — the
        mechanism that gives every cluster worker one shared identity."""
        rng = random.Random(11)
        donor = SchemeHost(schemes=("ceilidh-toy32",), rng=rng)
        key = donor.server_key("ceilidh-toy32")
        clone = SchemeHost(
            schemes=("ceilidh-toy32",), preset_keys={"ceilidh-toy32": key}
        )
        assert clone.server_key("ceilidh-toy32") is key


@needs_reuseport
class TestReuseportCluster:
    def test_load_balances_with_zero_errors_and_one_identity(self):
        """Two schemes through one port: every request is accounted for,
        and each scheme advertises one server key on every worker."""
        schemes = ("ceilidh-toy32", "xtr-toy32")

        async def scenario():
            async with _cluster(schemes=schemes) as cluster:
                host, port = cluster.address
                reports = [
                    await run_traffic(
                        host, port, one_shot_mix(scheme, "key-agreement"),
                        clients=3, sessions_per_client=2,
                    )
                    for scheme in schemes
                ]
                # However the kernel spread the connections, every WELCOME
                # must advertise the scheme's one long-lived server key.
                publics = {scheme: set() for scheme in schemes}
                for _ in range(6):
                    for scheme in schemes:
                        async with ServeClient(host, port) as client:
                            publics[scheme].add(await client.negotiate(scheme))
                return reports, publics, cluster.worker_pids()

        reports, publics, pids = run(scenario())
        assert all(report.accounted for report in reports)
        # 2 mixes x 3 clients x 2 sessions
        assert sum(report.responses for report in reports) == 12
        assert {scheme: len(keys) for scheme, keys in publics.items()} == {
            scheme: 1 for scheme in schemes
        }
        assert len(pids) == 2 and all(pids)


@needs_reuseport
class TestWorkerLifecycle:
    def test_crash_restart_is_invisible_to_clients(self):
        """SIGKILL one of two workers mid-load: zero client-visible errors
        (retry/reconnect absorbs the blip) and the worker comes back."""

        async def scenario():
            async with _cluster() as cluster:
                host, port = cluster.address
                load = asyncio.ensure_future(
                    run_traffic(host, port, KA_MIX,
                                clients=4, sessions_per_client=25)
                )
                await asyncio.sleep(0.3)
                await cluster.kill_worker(0)
                report = await load
                # Wait for the monitor to notice the death and for the
                # respawn (backoff + spawn + import) to report ready.
                for _ in range(200):
                    if (cluster.total_restarts >= 1
                            and cluster.worker_phases() == ["running", "running"]):
                        break
                    await asyncio.sleep(0.05)
                return report, cluster.total_restarts, cluster.worker_phases()

        report, restarts, phases = run(scenario())
        assert report.accounted
        assert report.responses == 100
        assert restarts >= 1
        assert phases == ["running", "running"]

    def test_graceful_drain_loses_zero_inflight_requests(self):
        """SIGTERM one of two workers mid-load: its in-flight requests are
        answered and flushed; late arrivals get explicit refusals the
        client absorbs by reconnecting — zero errors either way."""

        async def scenario():
            async with _cluster() as cluster:
                host, port = cluster.address
                load = asyncio.ensure_future(
                    run_traffic(host, port, KA_MIX,
                                clients=4, sessions_per_client=25)
                )
                await asyncio.sleep(0.3)
                pid = cluster.worker_pids()[1]
                assert pid is not None
                os.kill(pid, signal.SIGTERM)
                report = await load
                return report

        report = run(scenario())
        assert report.accounted
        assert report.responses == 100

    def test_rolling_restart_keeps_the_port_serving(self):
        async def scenario():
            async with _cluster() as cluster:
                host, port = cluster.address
                before = list(cluster.worker_pids())
                load = asyncio.ensure_future(
                    run_traffic(host, port, KA_MIX,
                                clients=4, sessions_per_client=30)
                )
                await asyncio.sleep(0.2)
                await cluster.rolling_restart()
                report = await load
                after = list(cluster.worker_pids())
                # The port answers after the restart too.
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    await client.key_agreement_session(random.Random(5))
                return report, before, after

        report, before, after = run(scenario())
        assert report.accounted
        assert report.responses == 120
        # Every worker was actually replaced.
        assert set(before).isdisjoint(after)


class TestClusterLoadCLI:
    @needs_reuseport
    def test_cluster_sweep_emits_scaling_rows(self, tmp_path, monkeypatch, capsys):
        from repro.perf import load_bench
        from repro.serve.__main__ import main

        bench_file = tmp_path / "BENCH_cluster_test.json"
        monkeypatch.setenv("REPRO_BENCH_PATH", str(bench_file))
        monkeypatch.delenv("REPRO_FIELD_BACKEND", raising=False)
        status = main([
            "load", "--quick",
            "--cluster", "2",  # 1 is prepended as the efficiency reference
            "--schemes", "ceilidh-toy32",
            "--clients", "4",
        ])
        assert status == 0
        entries = load_bench(bench_file)
        assert set(entries) == {
            "serve-cluster:ceilidh-toy32:key-agreement@w1",
            "serve-cluster:ceilidh-toy32:key-agreement@w2",
        }
        single = entries["serve-cluster:ceilidh-toy32:key-agreement@w1"]
        doubled = entries["serve-cluster:ceilidh-toy32:key-agreement@w2"]
        assert single.meta["workers"] == 1
        assert single.meta["scaling_efficiency"] is None
        assert doubled.meta["workers"] == 2
        assert doubled.meta["cpu_count"] == os.cpu_count()
        assert all("mode" not in entry.meta for entry in entries.values())
        assert doubled.meta["scaling_efficiency"] == pytest.approx(
            doubled.ops_per_second / (2 * single.ops_per_second)
        )

        # The perf CLI renders the dedicated scaling table for these rows.
        from repro.perf.__main__ import main as perf_main

        capsys.readouterr()
        assert perf_main(["show", str(bench_file)]) == 0
        shown = capsys.readouterr().out
        assert "Cluster scaling" in shown
        assert "efficiency" in shown

    def test_compare_skips_serve_prefixes(self, tmp_path):
        """The CI gate must never fail on serving rows: they are gated on
        correctness at measurement time, not on throughput afterwards."""
        import json

        from repro.perf.__main__ import main as perf_main

        def bench(path, ops):
            payload = {
                "schema": "repro-bench-v1",
                "generated_unix": 0,
                "entries": {
                    "serve-cluster:x:key-agreement@w2": {
                        "scheme": "serve-cluster:x",
                        "operation": "key-agreement@w2",
                        "sessions": 4,
                        "wall_seconds": 1.0,
                        "ops_per_second": ops,
                        "ms_per_op": 1.0,
                    }
                },
            }
            path.write_text(json.dumps(payload))

        current, baseline = tmp_path / "cur.json", tmp_path / "base.json"
        bench(current, 10.0)   # 10x slower than baseline
        bench(baseline, 100.0)
        assert perf_main(["compare", str(current), str(baseline)]) == 1
        assert perf_main([
            "compare", str(current), str(baseline),
            "--skip-prefix", "serve:", "--skip-prefix", "serve-cluster:",
        ]) == 0


@needs_reuseport
class TestClusterCommand:
    def test_cluster_serves_then_drains_on_sigterm(self):
        """``python -m repro.serve cluster`` end to end: it prints the port
        it bound, answers a key agreement, and exits 0 after a SIGTERM
        drain."""
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "cluster", "--workers", "2",
             "--port", "0", "--schemes", "ceilidh-toy32"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        # A reader thread, so a wedged child fails the test instead of
        # blocking it on readline; None marks the end of the output.
        lines: "queue.Queue[Optional[str]]" = queue.Queue()

        def pump() -> None:
            assert process.stdout is not None
            for line in process.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        output = []
        try:
            address = None
            while address is None:
                line = lines.get(timeout=60)
                assert line is not None, "exited early:\n" + "".join(output)
                output.append(line)
                address = re.search(r"listening on ([\d.]+):(\d+)", line)
            host, port = address.group(1), int(address.group(2))

            async def key_agreement():
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    return await client.key_agreement_session(random.Random(3))

            assert run(key_agreement()) > 0
            process.send_signal(signal.SIGTERM)
            status = process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        reader.join(timeout=10)
        assert not reader.is_alive()
        output.extend(iter(lines.get_nowait, None))
        assert status == 0, "".join(output)
        assert "cluster drained and stopped" in "".join(output)

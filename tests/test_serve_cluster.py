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

import argparse
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
        for raw in ("", " , ", "0,2", "-1", "x", "2,x"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_cluster_counts(raw)

    def test_load_rejects_a_malformed_cluster_before_any_process(
        self, monkeypatch, capsys
    ):
        """A malformed ``load --cluster`` is a usage error: exit 2 before
        the load command, which spawns every worker, runs."""
        from repro.serve import __main__ as cli

        monkeypatch.setattr(
            cli, "_run_load_command", lambda args: pytest.fail("load started")
        )
        for raw in ("x", "2,x", "0,2", ","):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["load", "--cluster", raw])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:")
            assert f"expected positive worker counts N[,N...], got {raw!r}" in err

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
    def test_cluster_sweep_emits_scaling_rows(self, capsys):
        """``load --cluster 2`` prints a 1-worker and a 2-worker row; the
        2-worker row carries its efficiency, stated next to the core
        count."""
        from repro.serve.__main__ import main

        status = main([
            "load", "--quick",
            "--cluster", "2",  # 1 is prepended as the efficiency reference
            "--schemes", "ceilidh-toy32",
            "--clients", "4",
        ])
        out = capsys.readouterr().out
        assert status == 0
        rows = {
            fields[0]: fields
            for fields in map(str.split, out.splitlines())
            if fields[1:3] == ["ceilidh-toy32", "key-agreement"]
        }
        assert set(rows) == {"1", "2"}
        single, doubled = rows["1"], rows["2"]
        assert len(single) == 9  # the reference row has no efficiency
        single_rate, doubled_rate, eff = (
            float(single[5]), float(doubled[5]), float(doubled[9])
        )
        assert single_rate > 0 and doubled_rate > 0
        assert eff == pytest.approx(doubled_rate / (2 * single_rate), abs=0.01)
        assert f"measured on {os.cpu_count() or 1} core(s)" in out
        for tag in ("[1 workers]", "[2 workers]"):
            assert re.search(
                rf"^ceilidh-toy32:key-agreement {re.escape(tag)}: (\d+) "
                rf"submitted = \1 responses \+ 0 explicit errors",
                out, re.M,
            ), out


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

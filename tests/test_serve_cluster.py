"""Tests of the multi-process cluster serving layer.

The pure pieces (consistent-hash ring, configuration validation) are
tested exhaustively; the process-spawning pieces boot real worker clusters
on loopback and drive them with the traffic engine's closed-loop one-shot
mixes, keeping worker counts and session counts small — every spawn pays
an interpreter start plus the package import.

The lifecycle tests are the acceptance story: a SIGKILLed worker comes
back and the load sees zero client-visible errors; a SIGTERM drain loses
zero in-flight requests; a rolling restart keeps the port serving
throughout.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal

import pytest

from repro.errors import ParameterError
from repro.serve.client import ServeClient
from repro.serve.cluster import ClusterSupervisor, reuseport_available
from repro.serve.router import HashRing
from repro.serve.scheduler import SchemeHost
from repro.traffic import one_shot_mix, run_traffic

#: The lifecycle tests' load: ceilidh-toy32 key agreements back to back.
KA_MIX = one_shot_mix("ceilidh-toy32", "key-agreement")


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


class TestHashRing:
    def test_lookup_is_deterministic_and_covers_all_slots(self):
        ring = HashRing(range(4))
        keys = [f"scheme-{i}" for i in range(64)]
        first = [ring.lookup(key) for key in keys]
        again = [ring.lookup(key) for key in keys]
        assert first == again
        # With 64 keys over 4 slots every slot should own something.
        assert set(first) == {0, 1, 2, 3}

    def test_preference_orders_every_slot_exactly_once(self):
        ring = HashRing(range(5))
        order = ring.preference("ceilidh-170")
        assert sorted(order) == [0, 1, 2, 3, 4]

    def test_lookup_respects_liveness(self):
        ring = HashRing(range(3))
        owner = ring.lookup("xtr-170")
        fallback = ring.lookup("xtr-170", alive=set(range(3)) - {owner})
        assert fallback != owner
        assert ring.lookup("xtr-170", alive=()) is None

    def test_removing_one_slot_only_remaps_its_keys(self):
        """The consistent-hashing property: keys not owned by the dead slot
        keep their placement when it drops out."""
        ring = HashRing(range(4))
        keys = [f"key-{i}" for i in range(128)]
        before = {key: ring.lookup(key) for key in keys}
        dead = 2
        alive = set(range(4)) - {dead}
        for key in keys:
            after = ring.lookup(key, alive=alive)
            if before[key] != dead:
                assert after == before[key]
            else:
                assert after in alive

    def test_restart_keeps_the_map(self):
        """Two rings over the same slots agree — a respawned worker (same
        index, new pid) reclaims exactly the schemes it owned."""
        one, two = HashRing(range(3)), HashRing(range(3))
        for i in range(32):
            assert one.lookup(f"s{i}") == two.lookup(f"s{i}")

    def test_rejects_empty_and_bad_vnodes(self):
        with pytest.raises(ParameterError):
            HashRing(())
        with pytest.raises(ParameterError):
            HashRing(range(2), vnodes=0)


class TestClusterConfiguration:
    def test_rejects_bad_worker_count_and_mode(self):
        with pytest.raises(ParameterError):
            ClusterSupervisor(workers=0)
        with pytest.raises(ParameterError):
            ClusterSupervisor(mode="sharded")

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


@pytest.mark.skipif(not reuseport_available(), reason="SO_REUSEPORT not available")
class TestReuseportCluster:
    def test_load_balances_with_zero_errors_and_one_identity(self):
        async def scenario():
            async with _cluster(mode="reuseport") as cluster:
                host, port = cluster.address
                report = await run_traffic(
                    host, port, KA_MIX, clients=4, sessions_per_client=3
                )
                # However the kernel spread the connections, every WELCOME
                # must advertise the same long-lived server key.
                publics = set()
                for _ in range(6):
                    async with ServeClient(host, port) as client:
                        publics.add(await client.negotiate("ceilidh-toy32"))
                return report, publics, cluster.worker_pids()

        report, publics, pids = run(scenario())
        assert report.accounted
        assert report.responses == 12
        assert len(publics) == 1
        assert len(pids) == 2 and all(pids)


class TestRouterCluster:
    def test_scheme_affinity_and_zero_errors(self):
        async def scenario():
            async with _cluster(
                mode="router", schemes=("ceilidh-toy32", "xtr-toy32")
            ) as cluster:
                host, port = cluster.address
                reports = [
                    await run_traffic(
                        host, port, one_shot_mix(scheme, "key-agreement"),
                        clients=3, sessions_per_client=2,
                    )
                    for scheme in ("ceilidh-toy32", "xtr-toy32")
                ]
                assert cluster.router is not None
                ring = cluster.router.ring
                expected = {
                    ring.lookup(scheme)
                    for scheme in ("ceilidh-toy32", "xtr-toy32")
                }
                return reports, dict(cluster.router.stats.routed), expected

        reports, routed, expected = run(scenario())
        assert all(report.accounted for report in reports)
        # 2 mixes x 3 clients x 2 sessions
        assert sum(report.responses for report in reports) == 12
        # Affinity: frames only ever reached the ring owners of the two
        # schemes — nothing leaked onto other workers.
        assert set(routed) == expected
        assert sum(routed.values()) > 0


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
        assert doubled.meta["mode"] in ("reuseport", "router")
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

"""End-to-end tests of the serving subsystem.

Every protocol a scheme supports is driven through a real loopback server
with the client half executing locally (the same split the traffic engine
measures); the scheduler's batching and backpressure are exercised
directly; and the registry's thread-safety — which the threaded
worker pool depends on — gets a hammering regression test.
"""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro.errors import (
    OverloadedError,
    ParameterError,
    ProtocolError,
    UnavailableError,
    UnsupportedOperationError,
)
from repro.pkc.registry import _INSTANCES, get_scheme
from repro.serve.client import ServeClient
from repro.serve.scheduler import BatchScheduler, SchemeHost, classify_error
from repro.serve.server import ServeServer
from repro.serve.session import serve_request
from repro.serve.protocol import (
    OP_KA_CONFIRM,
    OP_SIGNATURE,
    confirmation_tag,
)
from repro.traffic import one_shot_mix, run_traffic


def run(coroutine):
    return asyncio.run(coroutine)


def _server(**overrides) -> ServeServer:
    options = dict(
        schemes=("ceilidh-toy32", "ceilidh-toy64", "xtr-toy32", "rsa-512"),
        rng=random.Random(0x5E581),
        workers=2,
    )
    options.update(overrides)
    return ServeServer(**options)


class TestServeRequest:
    """The shared server-side execution unit, off the wire."""

    def test_key_agreement_matches_direct_derivation(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        server_key = scheme.keygen(rng)
        client_key = scheme.keygen(rng)
        opcode, payload = serve_request(
            scheme, server_key, "key-agreement", client_key.public_wire
        )
        assert opcode == OP_KA_CONFIRM
        shared = scheme.key_agreement(client_key, server_key.public_wire)
        assert payload == confirmation_tag(shared)

    def test_sign_kind_produces_a_verifying_signature(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        server_key = scheme.keygen(rng)
        opcode, signature = serve_request(scheme, server_key, "sign", b"message")
        assert opcode == OP_SIGNATURE
        assert scheme.verify(server_key.public_wire, b"message", signature)

    def test_unknown_kind_rejected(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        server_key = scheme.keygen(rng)
        with pytest.raises(Exception):
            serve_request(scheme, server_key, "handshake", b"")


class TestEndToEndSessions:
    def test_every_capability_of_every_served_scheme(self):
        """KA/encryption/signature round trips for each toy scheme."""

        async def scenario():
            rng = random.Random(0xA11CE)
            completed = []
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    for name, operations in (
                        ("ceilidh-toy32", ("ka", "enc", "sig")),
                        ("xtr-toy32", ("ka",)),
                        ("rsa-512", ("enc", "sig")),
                    ):
                        await client.negotiate(name)
                        if "ka" in operations:
                            latency = await client.key_agreement_session(rng)
                            assert latency > 0
                            completed.append((name, "ka"))
                        if "enc" in operations:
                            await client.encryption_session(b"serve me", rng)
                            completed.append((name, "enc"))
                        if "sig" in operations:
                            await client.signature_session(b"sign me", rng)
                            completed.append((name, "sig"))
                return completed, server.protocol_errors

        completed, protocol_errors = run(scenario())
        assert len(completed) == 6
        assert protocol_errors == 0

    def test_server_side_verify_round_trip(self):
        async def scenario():
            rng = random.Random(0xB0B)
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    frame = await client.request(
                        0x05, b"message to sign"  # OP_SIGN
                    )
                    good = await client.verify_session(b"message to sign", frame.payload)
                    bad = await client.verify_session(b"another message", frame.payload)
                return good, bad

        good, bad = run(scenario())
        assert good is True
        assert bad is False

    def test_server_side_encrypt_round_trip(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    return await client.encrypt_roundtrip_session(b"both halves remote")

        assert run(scenario()) > 0

    def test_unsupported_capability_raises_cleanly(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("xtr-toy32")  # key agreement only
                    with pytest.raises(UnsupportedOperationError):
                        await client.signature_session(b"nope")
                    # The connection survives the rejection.
                    await client.key_agreement_session(random.Random(9))

        run(scenario())

    def test_sessions_deterministic_under_seeded_rng(self):
        """Same client seed, same server key -> byte-identical confirmation."""

        async def tag_for(seed):
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    client_pair = client.scheme.keygen(random.Random(seed))
                    frame = await client.request(0x02, client_pair.public_wire)
                    return frame.payload

        assert run(tag_for(42)) == run(tag_for(42))
        assert run(tag_for(42)) != run(tag_for(43))


class TestScheduler:
    def test_batches_fill_under_concurrent_pressure(self):
        async def scenario():
            async with _server(max_batch=8) as server:
                host, port = server.address
                report = await run_traffic(
                    host, port,
                    one_shot_mix("ceilidh-toy32", "key-agreement"),
                    clients=8, sessions_per_client=3,
                )
                stats = server.scheduler.stats
                group = stats.group("ceilidh-toy32", "key-agreement")
                return report, stats, group

        report, stats, group = run(scenario())
        assert report.accounted
        assert report.responses == 24
        assert group.served == 24
        assert group.busy_seconds > 0
        assert group.served_per_second > 0
        # Concurrent clients force at least one multi-request batch, and
        # every multi-request key-agreement batch runs coalesced (one
        # key_agreement_many call, batched inversions).
        assert group.largest_batch > 1
        assert group.coalesced >= 1
        assert stats.batches < stats.served

    def test_bounded_queue_rejects_with_overloaded(self):
        async def scenario():
            host = SchemeHost(schemes=("ceilidh-toy32",), rng=random.Random(5))
            scheduler = BatchScheduler(host, queue_size=1, workers=1)
            await scheduler.start()
            # Park an item in the queue without letting the dispatcher drain
            # it: stuff the queue synchronously before ever yielding.
            parked = asyncio.get_running_loop().create_future()
            try:
                scheduler._queue.put_nowait(
                    type(
                        "Item", (), {
                            "group": ("ceilidh-toy32", "key-agreement"),
                            "payload": b"",
                            "future": parked,
                        },
                    )()
                )
                with pytest.raises(OverloadedError):
                    await scheduler.submit("ceilidh-toy32", "key-agreement", b"")
                return scheduler.stats.rejected
            finally:
                await scheduler.stop()
                if parked.done() and not parked.cancelled():
                    parked.exception()  # retrieved; no un-awaited warning

        assert run(scenario()) == 1

    def test_rejects_bad_configuration(self):
        host = SchemeHost(schemes=("ceilidh-toy32",))
        with pytest.raises(ParameterError):
            BatchScheduler(host, max_batch=0)
        with pytest.raises(ParameterError):
            BatchScheduler(host, queue_size=0)

    def test_classify_error_maps_capability_and_internal(self):
        from repro.serve.protocol import ERR_BAD_REQUEST, ERR_INTERNAL, ERR_UNSUPPORTED

        assert classify_error(UnsupportedOperationError("x"))[0] == ERR_UNSUPPORTED
        assert classify_error(ParameterError("x"))[0] == ERR_BAD_REQUEST
        assert classify_error(RuntimeError("x"))[0] == ERR_INTERNAL


class TestGracefulDrain:
    """Shutdown must answer every accepted request — never drop it silently."""

    def test_scheduler_drain_resolves_every_accepted_future(self):
        async def scenario():
            host = SchemeHost(schemes=("ceilidh-toy32",), rng=random.Random(7))
            scheduler = BatchScheduler(host, workers=2, max_batch=8)
            await scheduler.start()
            scheme = host.scheme("ceilidh-toy32")
            host.server_key("ceilidh-toy32")  # what HELLO would have done
            client_pair = scheme.keygen(random.Random(8))
            tasks = [
                asyncio.ensure_future(
                    scheduler.submit(
                        "ceilidh-toy32", "key-agreement", client_pair.public_wire
                    )
                )
                for _ in range(12)
            ]
            await asyncio.sleep(0)  # every submit enqueues before the drain
            stop_task = asyncio.ensure_future(scheduler.stop(drain=True))
            await asyncio.sleep(0)  # the drain flag is up; queue still full
            with pytest.raises(UnavailableError):
                await scheduler.submit(
                    "ceilidh-toy32", "key-agreement", client_pair.public_wire
                )
            results = await asyncio.gather(*tasks)
            await stop_task
            return results, scheduler.stats

        results, stats = run(scenario())
        # Every accepted request resolved with a real result — none were
        # cancelled, none raised, and the counters agree.
        assert len(results) == 12
        assert all(ok for ok, _, _ in results)
        assert stats.submitted == 12
        assert stats.served == 12
        assert stats.errors == 0

    def test_server_drain_flushes_responses_and_never_drops_silently(self):
        async def scenario():
            server = _server(max_batch=4)
            await server.start()
            host, port = server.address
            clients = []
            try:
                for _ in range(6):
                    client = ServeClient(host, port)
                    await client.connect()
                    await client.negotiate("ceilidh-toy32")
                    clients.append(client)
                rng = random.Random(21)
                tasks = [
                    asyncio.ensure_future(client.key_agreement_session(rng))
                    for client in clients
                ]
                await asyncio.sleep(0.002)  # requests are in flight
                await server.stop(drain=True)
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return outcomes, server.scheduler.stats
            finally:
                for client in clients:
                    await client.close()

        outcomes, stats = run(scenario())
        completed = [o for o in outcomes if isinstance(o, float)]
        refused = [o for o in outcomes if isinstance(o, UnavailableError)]
        # Every session either finished (response flushed before close) or
        # was refused with an *explicit* ERR_UNAVAILABLE frame; a silently
        # closed connection would surface as ProtocolError here.
        assert len(completed) + len(refused) == 6
        assert not any(isinstance(o, ProtocolError) for o in outcomes)
        # The scheduler answered exactly what it accepted.
        assert stats.submitted == stats.served + stats.errors
        assert len(completed) == stats.served

    def test_draining_server_refuses_new_work_with_explicit_frame(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    server._draining = True  # mid-drain, listener still up
                    with pytest.raises(UnavailableError):
                        await client.key_agreement_session(random.Random(3))

        run(scenario())


class TestSchemeHost:
    def test_allowlist_and_key_reuse(self, rng):
        host = SchemeHost(schemes=("ceilidh-toy32",), rng=rng)
        assert host.allowed("ceilidh-toy32")
        assert not host.allowed("rsa-512")
        assert host.scheme_names() == ("ceilidh-toy32",)
        with pytest.raises(ParameterError):
            host.scheme("rsa-512")
        first = host.server_key("ceilidh-toy32")
        assert host.server_key("ceilidh-toy32") is first  # long-lived

    def test_concurrent_key_creation_yields_one_key(self):
        host = SchemeHost(schemes=("ceilidh-toy32",))
        keys, barrier = [], threading.Barrier(6)

        def grab():
            barrier.wait()
            keys.append(host.server_key("ceilidh-toy32"))

        threads = [threading.Thread(target=grab) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(key) for key in keys}) == 1


class TestRegistryThreadSafety:
    def test_concurrent_get_scheme_returns_one_instance(self):
        """The worker pool resolves schemes concurrently; the cache must not fork."""
        _INSTANCES.pop(("ceilidh-toy64", "plain"), None)  # force reconstruction
        results, barrier = [], threading.Barrier(8)

        def resolve():
            barrier.wait()
            results.append(get_scheme("ceilidh-toy64"))

        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(scheme) for scheme in results}) == 1


class TestLoadHarness:
    def test_scheme_mixes_pick_each_schemes_first_supported_operation(self):
        """``load --schemes`` runs one closed-loop mix per scheme, under the
        first of key-agreement, encryption, signature the scheme offers."""
        from repro.serve.__main__ import _scheme_mixes

        mixes = _scheme_mixes(["ceilidh-toy32", "rsa-512", "xtr-toy32"], None)
        assert [mix.name for mix in mixes] == [
            "ceilidh-toy32:key-agreement",
            "rsa-512:encryption",
            "xtr-toy32:key-agreement",
        ]
        assert all(mix.channel_weight == 0.0 for mix in mixes)
        with pytest.raises(ParameterError):
            _scheme_mixes(["no-such-scheme"], None)

    def test_mixed_scheme_load_with_eight_clients(self):
        mixes = [
            one_shot_mix("ceilidh-toy32", "key-agreement"),
            one_shot_mix("xtr-toy32", "key-agreement"),
            one_shot_mix("rsa-512", "encryption"),
        ]

        async def scenario():
            async with _server() as server:
                host, port = server.address
                reports = [
                    await run_traffic(
                        host, port, mix, clients=8, sessions_per_client=2
                    )
                    for mix in mixes
                ]
                return reports, server.protocol_errors

        reports, protocol_errors = run(scenario())
        assert protocol_errors == 0
        assert [report.mix for report in reports] == [
            "ceilidh-toy32:key-agreement",
            "xtr-toy32:key-agreement",
            "rsa-512:encryption",
        ]
        for report in reports:
            assert report.clients == 8
            assert report.accounted
            # A one-shot mix has exactly one cell, keyed like the mix.
            assert list(report.entries) == [report.mix]
            entry = report.entries[report.mix]
            assert entry.count == 16
            assert entry.histogram.count == 16
            assert entry.rate(report.wall_seconds) > 0
            digest = entry.histogram.summary()
            assert 0 < digest["p50_ms"] <= digest["max_ms"]

    def test_load_cli_emits_serve_keys(self, tmp_path, monkeypatch):
        from repro.perf import load_bench
        from repro.serve.__main__ import main

        bench_file = tmp_path / "BENCH_serve_test.json"
        monkeypatch.setenv("REPRO_BENCH_PATH", str(bench_file))
        # Pin the plain backend so the emitted keys are the unsuffixed ones
        # even when the suite runs on the REPRO_FIELD_BACKEND=montgomery leg.
        monkeypatch.delenv("REPRO_FIELD_BACKEND", raising=False)
        status = main([
            "load", "--quick",
            "--schemes", "ceilidh-toy32,rsa-512",
            "--clients", "8",
        ])
        assert status == 0
        entries = load_bench(bench_file)
        assert set(entries) == {
            "serve:ceilidh-toy32:key-agreement",
            "serve:rsa-512:encryption",
        }
        record = entries["serve:ceilidh-toy32:key-agreement"]
        assert record.sessions == 16
        assert record.ops_per_second > 0
        assert record.latency_ms["count"] == 16
        assert record.latency_ms["p50_ms"] <= record.latency_ms["max_ms"]
        assert record.meta["clients"] == 8

    def test_load_cli_mix_emits_traffic_and_channel_rows(
        self, tmp_path, monkeypatch
    ):
        from repro.perf import load_bench
        from repro.serve.__main__ import main

        bench_file = tmp_path / "BENCH_traffic_test.json"
        monkeypatch.setenv("REPRO_BENCH_PATH", str(bench_file))
        monkeypatch.delenv("REPRO_FIELD_BACKEND", raising=False)
        # Seed 0's schedule opens channels on rsa-1024 and ceilidh-170.
        status = main([
            "load", "--quick", "--mix", "zipf-bursty",
            "--clients", "2", "--sessions", "2", "--seed", "0",
        ])
        assert status == 0
        entries = load_bench(bench_file)
        meta = entries["traffic:zipf-bursty:all"].meta
        assert meta["seed"] == 0
        assert meta["submitted"] == meta["responses"] + meta["explicit_errors"]
        assert meta["channels_opened"] > 0
        channel_keys = {key for key in entries if key.startswith("serve-channel:")}
        schemes = {key.rsplit(":", 1)[0] for key in channel_keys}
        assert schemes
        assert channel_keys == {
            f"{scheme}:{operation}"
            for scheme in schemes
            for operation in ("open", "message")
        }

    def test_load_cli_connect_drives_an_external_server(
        self, tmp_path, monkeypatch
    ):
        from repro.serve.__main__ import main

        bench_file = tmp_path / "BENCH_connect_test.json"
        monkeypatch.setenv("REPRO_BENCH_PATH", str(bench_file))

        async def scenario():
            async with _server() as server:
                host, port = server.address
                # main() runs its own event loop, so it gets a thread.
                status = await asyncio.get_running_loop().run_in_executor(
                    None, main, [
                        "load", "--connect", f"{host}:{port}",
                        "--schemes", "ceilidh-toy32,rsa-512",
                        "--clients", "2", "--sessions", "2", "--no-emit",
                    ],
                )
                return status, server.scheduler.stats.served, server.protocol_errors

        status, served, protocol_errors = run(scenario())
        assert status == 0
        assert served == 8  # 2 schemes x 2 clients x 2 sessions
        assert protocol_errors == 0
        assert not bench_file.exists()

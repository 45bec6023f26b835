"""End-to-end tests of the serving subsystem.

Every protocol a scheme supports is driven through a real loopback server
with the client half executing locally (the same split the traffic engine
measures); the scheduler's batching, admission bound and thread lifecycle
are exercised directly; and the registry's thread-safety — the crypto
thread and HELLO's key creation resolve schemes concurrently — gets a
hammering regression test.
"""

from __future__ import annotations

import asyncio
import random
import re
import sys
import threading

import pytest

from repro.errors import (
    OverloadedError,
    ParameterError,
    ProtocolError,
    QuotaError,
    UnavailableError,
    UnsupportedOperationError,
)
from repro.perf import PerfRecord, update_bench
from repro.pkc.registry import _INSTANCES, get_scheme
from repro.serve import scheduler as scheduler_module
from repro.serve.channel import ChannelPolicy
from repro.serve.client import ServeClient
from repro.serve.cluster import reuseport_available
from repro.serve.scheduler import BatchScheduler, SchemeHost
from repro.serve.server import ServeServer
from repro.serve.session import serve_request
from repro.serve.protocol import (
    ERR_UNAVAILABLE,
    OP_CHAN_OPEN,
    OP_ERROR,
    OP_HELLO,
    OP_KA_CONFIRM,
    OP_KA_INIT,
    OP_OVERLOADED,
    OP_SIGNATURE,
    REFUSAL_CODES,
    classify_error,
    confirmation_tag,
    encode_frame,
    pack_channel,
    parse_error,
    read_frame,
)
from repro.traffic import one_shot_mix, run_traffic
from repro.traffic.model import ArrivalModel, ChannelProfile, TrafficMix


#: ``load --cluster`` workers share their port through ``SO_REUSEPORT``.
needs_reuseport = pytest.mark.skipif(
    not reuseport_available(), reason="SO_REUSEPORT not available"
)

#: A row of ``load``'s table: workers (``-`` for one server), scheme, kind,
#: count, refusals, rate/s, p50/p99/p999 ms and, past 1 worker, the eff.
LOAD_ROW = re.compile(r"^ *(-|\d+) +\S+ +\S+ +\d+ +\d+ +[\d.]+ ")


def run(coroutine):
    return asyncio.run(coroutine)


def _load_table(out: str) -> list:
    """The rows of ``load``'s printed table, split on whitespace."""
    return [line.split() for line in out.splitlines() if LOAD_ROW.match(line)]


def _server(**overrides) -> ServeServer:
    options = dict(
        schemes=("ceilidh-toy32", "ceilidh-toy64", "xtr-toy32", "rsa-512"),
        rng=random.Random(0x5E581),
    )
    options.update(overrides)
    return ServeServer(**options)


def _admission_host() -> SchemeHost:
    host = SchemeHost(schemes=("ceilidh-toy32",), rng=random.Random(5))
    host.server_key("ceilidh-toy32")  # what HELLO would have done
    return host


def _ka_request(host: SchemeHost):
    """``submit`` arguments for one ceilidh-toy32 key agreement."""
    public = host.scheme("ceilidh-toy32").keygen(random.Random(6)).public_wire
    return "ceilidh-toy32", "key-agreement", public


class _HeldCryptoThread:
    """``_execute_batch`` patched to park the crypto thread until released."""

    def __init__(self, monkeypatch):
        self._entered = threading.Event()
        self._released = threading.Event()
        execute_batch = scheduler_module._execute_batch

        def held(*args):
            self._entered.set()
            self._released.wait(timeout=30)
            return execute_batch(*args)

        monkeypatch.setattr(scheduler_module, "_execute_batch", held)

    async def entered(self) -> None:
        """Return once the crypto thread is parked inside a batch."""
        entered = await asyncio.get_running_loop().run_in_executor(
            None, self._entered.wait, 10
        )
        assert entered, "the crypto thread never started a batch"

    def release(self) -> None:
        self._released.set()


@pytest.fixture
def held_crypto_thread(monkeypatch):
    return _HeldCryptoThread(monkeypatch)


def _crypto_threads(exclude=()) -> list:
    return [
        thread for thread in threading.enumerate()
        if thread.name == "repro-serve-crypto" and thread not in exclude
    ]


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

    def test_bounded_queue_rejects_with_overloaded(self, held_crypto_thread):
        """One request executing on the held thread fills ``queue_size=1``:
        the next submission is refused at once, and the held one still
        answers after the release."""

        async def scenario():
            host = _admission_host()
            scheduler = BatchScheduler(host, queue_size=1)
            await scheduler.start()
            try:
                accepted = asyncio.ensure_future(scheduler.submit(*_ka_request(host)))
                await held_crypto_thread.entered()
                with pytest.raises(OverloadedError):
                    await scheduler.submit(*_ka_request(host))
                held_crypto_thread.release()
                ok, _, _ = await accepted
                return ok, scheduler.stats
            finally:
                held_crypto_thread.release()
                await scheduler.stop()

        ok, stats = run(scenario())
        assert ok
        assert (stats.submitted, stats.rejected, stats.served) == (1, 1, 1)

    def test_admission_counts_executing_and_queued_requests(
        self, held_crypto_thread
    ):
        """Exactly ``queue_size`` unanswered requests are admitted, whether
        they wait in the queue or already execute; the k beyond them are
        refused with OverloadedError, and every admitted one answers after
        the release."""
        queue_size, extra = 4, 3

        async def scenario():
            host = _admission_host()
            scheduler = BatchScheduler(host, max_batch=2, queue_size=queue_size)
            await scheduler.start()
            try:
                admitted = [
                    asyncio.ensure_future(scheduler.submit(*_ka_request(host)))
                    for _ in range(queue_size)
                ]
                # The thread has drained the first batch and holds it: the
                # queue itself no longer holds every admitted request.
                await held_crypto_thread.entered()
                refused = [
                    asyncio.ensure_future(scheduler.submit(*_ka_request(host)))
                    for _ in range(extra)
                ]
                outcomes = await asyncio.gather(*refused, return_exceptions=True)
                held_crypto_thread.release()
                results = await asyncio.gather(*admitted)
                return outcomes, results, scheduler.stats
            finally:
                held_crypto_thread.release()
                await scheduler.stop()

        outcomes, results, stats = run(scenario())
        assert all(isinstance(outcome, OverloadedError) for outcome in outcomes)
        assert len(outcomes) == extra
        assert len(results) == queue_size and all(ok for ok, _, _ in results)
        assert stats.rejected == extra
        assert stats.submitted == stats.served == queue_size

    def test_counters_balance_under_thread_switch_stress(self):
        """Retrying submitters against a tiny bound while the interpreter
        switches threads every microsecond: every submission ends answered
        or refused, and the counters the loop and the crypto thread's
        callbacks keep agree with what the submitters saw."""
        submitters, answers_each = 6, 8

        async def submitter(scheduler, request, seen):
            while seen["ok"] < answers_each:
                try:
                    ok, _, _ = await scheduler.submit(*request)
                except OverloadedError:
                    seen["refused"] += 1
                    await asyncio.sleep(0)
                    continue
                assert ok
                seen["ok"] += 1

        async def scenario():
            host = _admission_host()
            scheduler = BatchScheduler(host, max_batch=2, queue_size=3)
            await scheduler.start()
            seen = [{"ok": 0, "refused": 0} for _ in range(submitters)]
            try:
                await asyncio.wait_for(
                    asyncio.gather(
                        *(submitter(scheduler, _ka_request(host), s) for s in seen)
                    ),
                    timeout=60,
                )
            finally:
                await scheduler.stop()
            return seen, scheduler.stats

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seen, stats = run(scenario())
        finally:
            sys.setswitchinterval(switch_interval)
        assert stats.served == stats.submitted == submitters * answers_each
        assert stats.rejected == sum(s["refused"] for s in seen) > 0
        assert stats.errors == 0

    def test_server_answers_overloaded_past_queue_size(self, held_crypto_thread):
        """The same bound through a live server: ``queue_size`` + k clients
        each send one key agreement while the crypto thread is held; exactly
        k get an OP_OVERLOADED frame at once, and the ``queue_size``
        admitted ones get their confirmations after the release."""
        queue_size, extra = 3, 2

        async def scenario():
            server = _server(queue_size=queue_size)
            await server.start()
            host, port = server.address
            clients = []
            try:
                for _ in range(queue_size + extra):
                    client = ServeClient(host, port)
                    await client.connect()
                    await client.negotiate("ceilidh-toy32")
                    clients.append(client)
                rng = random.Random(31)
                admitted = []
                for client in clients[:queue_size]:
                    admitted.append(
                        asyncio.ensure_future(client.key_agreement_session(rng))
                    )
                    # Admit in order: each request reaches the scheduler
                    # before the next client sends.
                    while server.scheduler.stats.submitted < len(admitted):
                        await asyncio.sleep(0.001)
                await held_crypto_thread.entered()
                refused = await asyncio.gather(
                    *(client.key_agreement_session(rng) for client in clients[queue_size:]),
                    return_exceptions=True,
                )
                held_crypto_thread.release()
                completed = await asyncio.gather(*admitted)
                return refused, completed, server.scheduler.stats
            finally:
                held_crypto_thread.release()
                for client in clients:
                    await client.close()
                await server.stop()

        refused, completed, stats = run(scenario())
        assert len(refused) == extra
        assert all(isinstance(outcome, OverloadedError) for outcome in refused)
        assert len(completed) == queue_size
        assert all(latency > 0 for latency in completed)
        assert stats.rejected == extra
        assert stats.submitted == stats.served == queue_size

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


def _ka_init_or_chan_open(opcode: int) -> bytes:
    """A well-formed ceilidh-toy32 KA_INIT or CHAN_OPEN payload."""
    public = get_scheme("ceilidh-toy32").keygen(random.Random(14)).public_wire
    return public if opcode == OP_KA_INIT else pack_channel(b"\x07" * 8, public)


async def _raw_exchange(host, port, opcode, payload):
    """HELLO then one frame on a raw connection: ``(reply, reader, writer)``."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(encode_frame(OP_HELLO, b"ceilidh-toy32"))
    await read_frame(reader)
    writer.write(encode_frame(opcode, payload))
    return await read_frame(reader), reader, writer


class TestOneRefusalPath:
    """Every refusal is decided before any work or state change, answered
    on one path, and retried by the client in one counted loop."""

    def test_rekey_refused_for_overload_consumes_no_sequence(self, monkeypatch):
        """With the crypto thread held and ``queue_size`` 1 filled, a
        CHAN_REKEY is answered OP_OVERLOADED before its sealed record is
        opened: the same session's retried rekey lands, a record
        round-trips after it, and no channel is evicted as hostile."""

        async def scenario():
            server = _server(queue_size=1)
            await server.start()
            host, port = server.address
            owner, filler = ServeClient(host, port), ServeClient(host, port)
            held_crypto_thread = None
            try:
                for client in (owner, filler):
                    await client.connect()
                    await client.negotiate("ceilidh-toy32")
                channel = await owner.open_channel(rng=random.Random(12))
                held_crypto_thread = _HeldCryptoThread(monkeypatch)
                held = asyncio.ensure_future(
                    filler.key_agreement_session(random.Random(13))
                )
                await held_crypto_thread.entered()
                with pytest.raises(OverloadedError):
                    await channel.rekey()
                held_crypto_thread.release()
                await held
                await channel.rekey()
                await channel.send(b"after the refused rekey")
                return channel, server.channels.stats, server.scheduler.stats
            finally:
                if held_crypto_thread is not None:
                    held_crypto_thread.release()
                for client in (owner, filler):
                    await client.close()
                await server.stop()

        channel, channels, scheduler = run(scenario())
        assert (channel.rekeys, channel.messages) == (1, 1)
        assert channel.crypto.epoch == 1
        assert channels.evicted_hostile == 0
        assert channels.rekeys == 1
        assert scheduler.rejected == 1

    def test_open_refused_at_channel_cap_costs_no_key_agreement(self):
        async def scenario():
            policy = ChannelPolicy(max_channels_per_client=1)
            async with _server(channel_policy=policy) as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    await client.open_channel(rng=random.Random(15))
                    before = server.scheduler.stats.submitted
                    with pytest.raises(QuotaError):  # ERR_OVER_QUOTA
                        await client.open_channel(rng=random.Random(16))
                    return before, server.scheduler.stats.submitted, server.channels
        before, after, channels = run(scenario())
        assert after == before
        assert channels.stats.rejected_quota == 1

    @pytest.mark.parametrize(
        "opcode", [OP_KA_INIT, OP_CHAN_OPEN], ids=["KA_INIT", "CHAN_OPEN"]
    )
    def test_overload_answers_overloaded_and_keeps_the_connection(
        self, opcode, held_crypto_thread
    ):
        async def scenario():
            server = _server(queue_size=1)
            await server.start()
            host, port = server.address
            filler = ServeClient(host, port)
            writer = None
            try:
                await filler.connect()
                await filler.negotiate("ceilidh-toy32")
                held = asyncio.ensure_future(
                    filler.key_agreement_session(random.Random(17))
                )
                await held_crypto_thread.entered()
                payload = _ka_init_or_chan_open(opcode)
                refusal, reader, writer = await _raw_exchange(
                    host, port, opcode, payload
                )
                held_crypto_thread.release()
                await held
                # The refused connection is still open: the resend lands.
                writer.write(encode_frame(opcode, payload))
                return refusal, await read_frame(reader), server.scheduler.stats
            finally:
                held_crypto_thread.release()
                if writer is not None:
                    writer.close()
                await filler.close()
                await server.stop()

        refusal, retried, stats = run(scenario())
        assert refusal.opcode == OP_OVERLOADED
        assert retried is not None and retried.opcode not in (OP_ERROR, OP_OVERLOADED)
        assert stats.rejected == 1

    @pytest.mark.parametrize(
        "opcode", [OP_KA_INIT, OP_CHAN_OPEN], ids=["KA_INIT", "CHAN_OPEN"]
    )
    def test_scheduler_unavailable_answers_and_closes_the_connection(self, opcode):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                server.scheduler._draining = True  # the scheduler refuses
                refusal, reader, writer = await _raw_exchange(
                    host, port, opcode, _ka_init_or_chan_open(opcode)
                )
                closed = await read_frame(reader)
                writer.close()
                server.scheduler._draining = False
                return refusal, closed, server.scheduler.stats

        refusal, closed, stats = run(scenario())
        assert refusal.opcode == OP_ERROR
        assert parse_error(refusal.payload)[0] == ERR_UNAVAILABLE
        assert closed is None  # EOF: the server closed the connection
        assert stats.submitted == 0

    @pytest.mark.parametrize("site", ["event-loop", "crypto-thread"])
    @pytest.mark.parametrize(
        "refusal", list(REFUSAL_CODES), ids=lambda refusal: refusal.__name__
    )
    def test_every_refusal_round_trips_to_the_same_client_type(
        self, refusal, site, monkeypatch
    ):
        """A refusal raised on the server, on the loop before admission or
        on the crypto thread mid-request, reaches the client as its code
        and is raised there as the same type."""
        def raise_refusal(*args):
            raise refusal(f"{refusal.__name__} probe")

        if site == "event-loop":
            monkeypatch.setattr(BatchScheduler, "check_admission", raise_refusal)
        else:
            monkeypatch.setattr(scheduler_module, "_execute_batch", raise_refusal)

        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    with pytest.raises(refusal, match="probe"):
                        await client.key_agreement_session(random.Random(18))

        run(scenario())

    def test_traffic_counts_and_retries_a_refused_rekey(self, monkeypatch):
        """In a run_traffic run whose one channel's first rekey is refused
        for overload, the refusal is counted like any other and resent."""
        mix = TrafficMix(
            name="one-channel",
            schemes=("ceilidh-toy32",),
            channel_weight=1.0,
            arrivals=ArrivalModel(mean_burst=1.0, mean_gap_seconds=0.0),
            channels=ChannelProfile(
                mean_messages=4.0, min_messages=4, rekey_after_messages=2
            ),
        )
        check_admission = BatchScheduler.check_admission
        refused = []

        async def scenario():
            async with _server() as server:
                channels = server.channels.stats

                def refuse_first_rekey(scheduler):
                    # The only submission after the open and before any
                    # rekey is the channel's first CHAN_REKEY.
                    if channels.opened == 1 and channels.rekeys == 0 and not refused:
                        refused.append(scheduler.stats.submitted)
                        scheduler.stats.rejected += 1
                        raise OverloadedError("refused once")
                    check_admission(scheduler)

                monkeypatch.setattr(BatchScheduler, "check_admission", refuse_first_rekey)
                host, port = server.address
                report = await asyncio.wait_for(
                    run_traffic(host, port, mix, clients=1, sessions_per_client=1),
                    timeout=60,
                )
                return report, channels

        report, channels = run(scenario())
        assert refused == [1]  # after the open's one submission
        assert report.overload_rejections == report.explicit_errors == 1
        assert report.submitted == report.responses + report.explicit_errors
        assert report.channel_messages == 4
        assert report.rekeys == channels.rekeys >= 1
        assert channels.evicted_hostile == 0


class TestGracefulDrain:
    """Shutdown must answer every accepted request — never drop it silently."""

    def test_scheduler_drain_resolves_every_accepted_future(self):
        async def scenario():
            host = SchemeHost(schemes=("ceilidh-toy32",), rng=random.Random(7))
            scheduler = BatchScheduler(host, max_batch=8)
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


class TestSchedulerLifecycle:
    """``stop`` joins the crypto thread: a thread left running would keep a
    server process from exiting."""

    @pytest.mark.parametrize("drain", [False, True], ids=["stop", "drain"])
    def test_no_crypto_thread_outlives_stop(self, drain):
        async def scenario():
            before = _crypto_threads()
            server = _server()
            await server.start()
            host, port = server.address
            async with ServeClient(host, port) as client:
                await client.negotiate("ceilidh-toy32")
                await client.key_agreement_session(random.Random(4))
            started = _crypto_threads(exclude=before)
            await server.stop(drain=drain)
            return started

        started = run(scenario())
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_plain_stop_cancels_requests_the_thread_never_took(
        self, held_crypto_thread
    ):
        async def scenario():
            host = _admission_host()
            scheduler = BatchScheduler(host, max_batch=1)
            await scheduler.start()
            executing = asyncio.ensure_future(scheduler.submit(*_ka_request(host)))
            await held_crypto_thread.entered()
            queued = asyncio.ensure_future(scheduler.submit(*_ka_request(host)))
            await asyncio.sleep(0)  # queued behind the held batch
            stopping = asyncio.ensure_future(scheduler.stop())
            await asyncio.sleep(0.01)
            held_crypto_thread.release()
            await stopping
            return await executing, queued

        (ok, _, _), queued = run(scenario())
        assert ok  # the batch already executing finishes
        assert queued.cancelled()


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
        """Threads resolve schemes concurrently; the cache must not fork."""
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

    def test_load_cli_emits_serve_keys(self, capsys):
        """``load --schemes`` prints one table row per scheme and one
        accounting line per mix."""
        from repro.serve.__main__ import main

        status = main([
            "load", "--quick",
            "--schemes", "ceilidh-toy32,rsa-512",
            "--clients", "8",
        ])
        out = capsys.readouterr().out
        assert status == 0
        rows = _load_table(out)
        assert [(row[1], row[2]) for row in rows] == [
            ("ceilidh-toy32", "key-agreement"),
            ("rsa-512", "encryption"),
        ]
        for row in rows:
            assert row[0] == "-"  # the in-process server, not a cluster
            assert int(row[3]) == 16  # 8 clients x 2 quick sessions
            assert float(row[5]) > 0
        for mix in ("ceilidh-toy32:key-agreement", "rsa-512:encryption"):
            assert re.search(
                rf"^{mix}: 16 submitted = 16 responses \+ 0 explicit errors",
                out, re.M,
            ), out

    def test_load_cli_mix_emits_traffic_and_channel_rows(self, capsys):
        from repro.serve.__main__ import main

        # Seed 0's schedule opens channels on rsa-1024 and ceilidh-170.
        status = main([
            "load", "--quick", "--mix", "zipf-bursty",
            "--clients", "2", "--sessions", "2", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert status == 0
        accounting = re.search(
            r"^zipf-bursty: (\d+) submitted = (\d+) responses \+ (\d+) "
            r"explicit errors", out, re.M,
        )
        assert accounting, out
        submitted, responses, errors = map(int, accounting.groups())
        assert submitted == responses + errors > 0
        channels = re.search(r"^zipf-bursty: (\d+) channels, ", out, re.M)
        assert channels and int(channels.group(1)) > 0, out
        rows = _load_table(out)
        opened = {row[1] for row in rows if row[2] == "channel-open"}
        messaged = {row[1] for row in rows if row[2] == "channel-message"}
        assert opened and opened == messaged
        assert all(float(row[5]) > 0 for row in rows)

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
                        "--clients", "2", "--sessions", "2",
                    ],
                )
                return status, server.scheduler.stats.served, server.protocol_errors

        status, served, protocol_errors = run(scenario())
        assert status == 0
        assert served == 8  # 2 schemes x 2 clients x 2 sessions
        assert protocol_errors == 0
        assert not bench_file.exists()

    def test_load_rejects_a_malformed_connect_before_any_socket(
        self, monkeypatch, capsys
    ):
        """A ``--connect`` without a host or a valid port is a usage error:
        exit 2 before the load command, which opens every socket, runs."""
        from repro.serve import __main__ as cli

        monkeypatch.setattr(
            cli, "_run_load_command", lambda args: pytest.fail("load started")
        )
        for raw in ("65000", "localhost:", "localhost:99999", ":9876", "h:x"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["load", "--connect", raw])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage:")
            assert f"expected HOST:PORT, got {raw!r}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["load", "--clients", "0"],
            ["load", "--clients", "-1"],
            ["load", "--sessions", "0"],
            ["serve", "--max-batch", "0"],
            ["load", "--max-batch", "0"],
            ["serve", "--queue-size", "-5"],
            ["load", "--queue-size", "-5"],
            ["cluster", "--workers", "0"],
            ["cluster", "--max-batch", "0"],
            ["cluster", "--queue-size", "-5"],
            ["load", "--cluster", "2", "--connect", "127.0.0.1:9"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_counts_and_targets_are_usage_errors(self, argv, monkeypatch, capsys):
        """A count below 1, or ``--cluster`` next to ``--connect``, exits 2
        with a usage message before any command, and so any socket or
        process, starts."""
        from repro.serve import __main__ as cli

        for runner in ("_run_serve_command", "_run_cluster_command", "_run_load_command"):
            monkeypatch.setattr(cli, runner, lambda args: pytest.fail(f"{args.command} started"))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("usage:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--schemes", "ceilidh-toy32,rsa-512", "--clients", "2"],
            ["--mix", "zipf-bursty", "--clients", "2", "--sessions", "2"],
            pytest.param(
                ["--cluster", "2", "--schemes", "ceilidh-toy32", "--clients", "2"],
                marks=needs_reuseport,
            ),
        ],
        ids=["in-process", "mix", "cluster"],
    )
    def test_load_leaves_an_existing_bench_file_untouched(
        self, argv, tmp_path, monkeypatch
    ):
        """``load`` checks and writes nothing: a bench file already at
        ``$REPRO_BENCH_PATH`` keeps every byte."""
        from repro.serve.__main__ import main

        bench_file = tmp_path / "BENCH_pkc.json"
        update_bench(bench_file, [PerfRecord(
            scheme="ceilidh-170", operation="key-agreement", sessions=16,
            wall_seconds=0.07, ops_per_second=234.0, ms_per_op=4.27,
        )])
        before = bench_file.read_bytes()
        monkeypatch.setenv("REPRO_BENCH_PATH", str(bench_file))
        assert main(["load", "--quick", *argv]) == 0
        assert bench_file.read_bytes() == before

"""Tests of the stateful secure-channel subsystem.

Three layers: the sans-IO record crypto and server-side table policy
(deterministic fake clocks, no sockets), the live end-to-end behaviour over
a loopback server (every registry scheme, transparent rekeys, hostile
records, quotas, idle timeout), and the cluster story (channels surviving
a worker crash-restart with zero client-visible errors).
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import (
    ProtocolError,
    QuotaError,
    RekeyRequiredError,
    ReplayError,
    TamperedRecordError,
    UnavailableError,
    UnknownChannelError,
)
from repro.pkc.registry import available_schemes
from repro.serve.channel import (
    CLIENT_TO_SERVER,
    SERVER_TO_CLIENT,
    ChannelCrypto,
    ChannelPolicy,
    ChannelTable,
    TokenBucket,
    derive_channel_keys,
    open_record,
    seal_record,
)
from repro.serve.client import ServeClient
from repro.serve.cluster import reuseport_available
from repro.serve.protocol import (
    CHANNEL_ID_LEN,
    CHANNEL_OPS,
    OP_CHAN_MSG,
    OP_CHAN_OPEN,
    encode_frame,
    pack_channel,
)
from repro.serve.server import ServeServer


def run(coroutine):
    return asyncio.run(coroutine)


def _server(**overrides) -> ServeServer:
    options = dict(
        schemes=("ceilidh-toy32", "ceilidh-toy64", "xtr-toy32", "rsa-512"),
        rng=random.Random(0x5E55),
    )
    options.update(overrides)
    return ServeServer(**options)


CHANNEL_ID = bytes(range(CHANNEL_ID_LEN))


class TestRecordCrypto:
    """The sans-IO seal/open construction."""

    def test_round_trip_and_keystream_depends_on_seq(self):
        keys = derive_channel_keys(b"secret", CHANNEL_ID, 0, CLIENT_TO_SERVER)
        first = seal_record(keys, CHANNEL_ID, 0, 0, b"hello channel")
        second = seal_record(keys, CHANNEL_ID, 0, 1, b"hello channel")
        assert open_record(keys, CHANNEL_ID, 0, 0, first) == b"hello channel"
        # Same plaintext, different sequence: different keystream and tag.
        assert first[8:] != second[8:]

    def test_directions_and_epochs_never_share_keys(self):
        c2s = derive_channel_keys(b"secret", CHANNEL_ID, 0, CLIENT_TO_SERVER)
        s2c = derive_channel_keys(b"secret", CHANNEL_ID, 0, SERVER_TO_CLIENT)
        next_epoch = derive_channel_keys(b"secret", CHANNEL_ID, 1, CLIENT_TO_SERVER)
        assert len({c2s.stream_key, s2c.stream_key, next_epoch.stream_key}) == 3
        assert len({c2s.tag_key, s2c.tag_key, next_epoch.tag_key}) == 3

    def test_tampered_body_and_tag_rejected(self):
        keys = derive_channel_keys(b"secret", CHANNEL_ID, 0, CLIENT_TO_SERVER)
        record = bytearray(seal_record(keys, CHANNEL_ID, 0, 0, b"payload"))
        record[10] ^= 0x01  # flip one body bit
        with pytest.raises(TamperedRecordError):
            open_record(keys, CHANNEL_ID, 0, 0, bytes(record))
        record = bytearray(seal_record(keys, CHANNEL_ID, 0, 0, b"payload"))
        record[-1] ^= 0x80  # flip one tag bit
        with pytest.raises(TamperedRecordError):
            open_record(keys, CHANNEL_ID, 0, 0, bytes(record))

    def test_authentic_but_out_of_sequence_is_replay(self):
        keys = derive_channel_keys(b"secret", CHANNEL_ID, 0, CLIENT_TO_SERVER)
        record = seal_record(keys, CHANNEL_ID, 0, 3, b"payload")
        with pytest.raises(ReplayError):
            open_record(keys, CHANNEL_ID, 0, 4, record)

    def test_tag_binds_channel_id_and_epoch(self):
        keys = derive_channel_keys(b"secret", CHANNEL_ID, 0, CLIENT_TO_SERVER)
        record = seal_record(keys, CHANNEL_ID, 0, 0, b"payload")
        other_id = bytes(reversed(CHANNEL_ID))
        with pytest.raises(TamperedRecordError):
            open_record(keys, other_id, 0, 0, record)
        with pytest.raises(TamperedRecordError):
            open_record(keys, CHANNEL_ID, 1, 0, record)

    def test_truncated_record_is_a_protocol_error(self):
        keys = derive_channel_keys(b"secret", CHANNEL_ID, 0, CLIENT_TO_SERVER)
        with pytest.raises(ProtocolError):
            open_record(keys, CHANNEL_ID, 0, 0, b"short")

    def test_channel_crypto_endpoints_interoperate_and_rekey(self):
        client = ChannelCrypto(b"boot", CHANNEL_ID, CLIENT_TO_SERVER, SERVER_TO_CLIENT)
        server = ChannelCrypto(b"boot", CHANNEL_ID, SERVER_TO_CLIENT, CLIENT_TO_SERVER)
        for index in range(5):
            assert server.open(client.seal(b"up %d" % index)) == b"up %d" % index
            assert client.open(server.seal(b"dn %d" % index)) == b"dn %d" % index
        client.rekey(b"fresh")
        server.rekey(b"fresh")
        assert client.epoch == server.epoch == 1
        assert server.open(client.seal(b"after")) == b"after"
        # Old-epoch record no longer opens after the rekey.
        stale = ChannelCrypto(b"boot", CHANNEL_ID, CLIENT_TO_SERVER, SERVER_TO_CLIENT)
        with pytest.raises(TamperedRecordError):
            server.open(stale.seal(b"stale"))

    def test_failed_open_does_not_advance_the_expected_sequence(self):
        client = ChannelCrypto(b"boot", CHANNEL_ID, CLIENT_TO_SERVER, SERVER_TO_CLIENT)
        server = ChannelCrypto(b"boot", CHANNEL_ID, SERVER_TO_CLIENT, CLIENT_TO_SERVER)
        record = client.seal(b"legit")
        with pytest.raises(TamperedRecordError):
            server.open(record[:-1] + bytes([record[-1] ^ 1]))
        assert server.open(record) == b"legit"  # honest retry still lands


def test_every_channel_opcode_has_a_handler():
    assert set(ServeServer._CHANNEL_HANDLERS) == set(CHANNEL_OPS)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_capacity_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=3, refill_per_second=2, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True, False]
        clock.advance(1.0)  # two tokens back
        assert bucket.try_take() and bucket.try_take() and not bucket.try_take()

    def test_refill_never_exceeds_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_per_second=100, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 2.0


class TestChannelTable:
    def _table(self, clock, **policy) -> ChannelTable:
        defaults = dict(
            max_channels_per_client=2,
            max_channels_total=3,
            idle_seconds=10.0,
            bucket_capacity=100.0,
            bucket_refill_per_second=100.0,
            max_messages_per_key=4,
            max_bytes_per_key=1 << 20,
        )
        defaults.update(policy)
        return ChannelTable(ChannelPolicy(**defaults), clock=clock)

    def test_admission_caps_per_client_and_total(self):
        table = self._table(FakeClock())
        table.admit("a", b"A" * 8, "ceilidh-toy32", b"s")
        table.admit("a", b"B" * 8, "ceilidh-toy32", b"s")
        with pytest.raises(QuotaError):
            table.admit("a", b"C" * 8, "ceilidh-toy32", b"s")
        table.admit("b", b"A" * 8, "ceilidh-toy32", b"s")  # other client, own cap
        with pytest.raises(QuotaError):
            table.admit("b", b"B" * 8, "ceilidh-toy32", b"s")  # total cap of 3
        assert table.stats.rejected_quota == 2

    def test_claims_hold_room_until_admitted_or_released(self):
        """A handshake in flight holds its room against the total cap, so
        the cap refuses before a second handshake spends a key agreement."""
        table = self._table(FakeClock())
        table.admit("a", b"A" * 8, "ceilidh-toy32", b"s")
        table.claim("a", b"B" * 8)
        table.claim("b", b"A" * 8)  # total cap of 3 now fully held
        with pytest.raises(QuotaError):
            table.claim("c", b"A" * 8)
        table.release("b", b"A" * 8)
        table.admit("a", b"B" * 8, "ceilidh-toy32", b"s")  # takes its claim
        table.release("a", b"B" * 8)  # no-op once admitted
        table.admit("c", b"A" * 8, "ceilidh-toy32", b"s")
        assert len(table) == 3 and table.stats.rejected_quota == 1

    def test_duplicate_open_is_a_protocol_error(self):
        table = self._table(FakeClock())
        table.admit("a", b"A" * 8, "ceilidh-toy32", b"s")
        with pytest.raises(ProtocolError):
            table.admit("a", b"A" * 8, "ceilidh-toy32", b"s")

    def test_idle_eviction_is_lazy_and_explicit(self):
        clock = FakeClock()
        table = self._table(clock)
        table.admit("a", b"A" * 8, "ceilidh-toy32", b"s")
        clock.advance(11.0)
        with pytest.raises(UnknownChannelError):
            table.get("a", b"A" * 8)
        assert table.stats.evicted_idle == 1 and len(table) == 0

    def test_key_budget_demands_rekey_and_rekey_resets_it(self):
        clock = FakeClock()
        table = self._table(clock)
        channel = table.admit("a", b"A" * 8, "ceilidh-toy32", b"s")
        for _ in range(4):
            table.require_key_budget(channel)
            channel.record_message(10, clock())
        with pytest.raises(RekeyRequiredError):
            table.require_key_budget(channel)
        assert table.stats.rekey_required == 1
        channel.rekeyed(b"fresh", clock())
        table.require_key_budget(channel)  # budget is back
        assert channel.crypto.epoch == 1

    def test_drop_client_forgets_channels_and_bucket(self):
        table = self._table(FakeClock())
        table.admit("a", b"A" * 8, "ceilidh-toy32", b"s")
        table.admit("a", b"B" * 8, "ceilidh-toy32", b"s")
        assert table.drop_client("a") == 2
        assert len(table) == 0
        table.admit("a", b"A" * 8, "ceilidh-toy32", b"s")  # cap is clean again

    def test_token_bucket_rejection_counts(self):
        table = self._table(FakeClock(), bucket_capacity=2.0,
                            bucket_refill_per_second=0.0)
        table.take_token("a")
        table.take_token("a")
        with pytest.raises(QuotaError):
            table.take_token("a")
        assert table.stats.rejected_quota == 1


class TestEndToEndChannels:
    def test_channel_on_every_registry_scheme_with_transparent_rekey(self):
        """Acceptance: every registry scheme carries an authenticated
        channel — KA schemes bootstrap via key agreement, RSA via its
        KEM-style encryption — with >= 100 messages and transparent rekeys
        across the run."""

        async def scenario():
            rng = random.Random(0xC4A2)
            totals = {"messages": 0, "rekeys": 0}
            async with ServeServer(rng=random.Random(0xBEE)) as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    for name in available_schemes():
                        await client.negotiate(name)
                        channel = await client.open_channel(
                            rng=rng, rekey_after_messages=5
                        )
                        messages = 100 if name == "ceilidh-toy32" else 6
                        for index in range(messages):
                            await channel.send(b"record %d" % index)
                        assert channel.rekeys >= 1, name
                        totals["messages"] += channel.messages
                        totals["rekeys"] += channel.rekeys
                        await channel.close()
                stats = server.channels.stats
                return totals, stats, server.protocol_errors

        totals, stats, protocol_errors = run(scenario())
        assert totals["messages"] >= 100 + 6 * 9
        assert totals["rekeys"] >= len(available_schemes())
        assert stats.messages == totals["messages"]
        assert stats.rekeys == totals["rekeys"]
        assert stats.evicted_hostile == 0
        assert protocol_errors == 0

    def test_server_demands_rekey_when_client_skips_its_budget(self):
        """A client that never rekeys hits the explicit ERR_REKEY_REQUIRED
        frame, and ChannelSession.send absorbs it by rekeying."""

        async def scenario():
            policy = ChannelPolicy(max_messages_per_key=3)
            async with _server(channel_policy=policy) as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    # Client-side proactive budget far above the server's.
                    channel = await client.open_channel(
                        rng=random.Random(1), rekey_after_messages=10_000
                    )
                    for index in range(8):
                        await channel.send(b"m%d" % index)
                    return channel.rekeys, server.channels.stats.rekey_required

        rekeys, demanded = run(scenario())
        assert demanded >= 1  # the server refused at least once
        assert rekeys >= 1  # ...and the client recovered transparently

    def test_replayed_record_torn_down_and_reply_is_explicit(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    channel = await client.open_channel(rng=random.Random(2))
                    record = channel.crypto.seal(b"original")
                    payload = pack_channel(channel.channel_id, record)
                    await client.request(OP_CHAN_MSG, payload)
                    with pytest.raises(ReplayError):
                        await client.request(OP_CHAN_MSG, payload)  # replay
                    # The channel was evicted as hostile: explicit
                    # ERR_NO_CHANNEL, not a silent close.
                    fresh = channel.crypto.seal(b"after")
                    with pytest.raises(UnknownChannelError):
                        await client.request(
                            OP_CHAN_MSG,
                            pack_channel(channel.channel_id, fresh),
                        )
                    return server.channels.stats

        stats = run(scenario())
        assert stats.evicted_hostile == 1

    def test_tampered_record_torn_down_with_explicit_error(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    channel = await client.open_channel(rng=random.Random(3))
                    record = bytearray(channel.crypto.seal(b"payload"))
                    record[-1] ^= 0x40
                    with pytest.raises(TamperedRecordError):
                        await client.request(
                            OP_CHAN_MSG,
                            pack_channel(channel.channel_id, bytes(record)),
                        )
                    return server.channels.stats

        stats = run(scenario())
        assert stats.evicted_hostile == 1

    def test_quota_exhaustion_answers_err_over_quota(self):
        async def scenario():
            policy = ChannelPolicy(
                bucket_capacity=4.0, bucket_refill_per_second=0.001
            )
            async with _server(channel_policy=policy) as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    channel = await client.open_channel(rng=random.Random(4))
                    sent = 0
                    with pytest.raises(QuotaError):
                        for index in range(20):
                            await channel.send(b"m%d" % index)
                            sent += 1
                    # The refusal was explicit; the channel state is intact
                    # and the connection still open.
                    assert client.connected
                    return sent, server.channels.stats.rejected_quota

        sent, rejected = run(scenario())
        assert sent == 3  # open took one token, then three sends
        assert rejected >= 1

    def test_channel_cap_refuses_new_opens_explicitly(self):
        async def scenario():
            policy = ChannelPolicy(max_channels_per_client=1)
            async with _server(channel_policy=policy) as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    first = await client.open_channel(rng=random.Random(5))
                    with pytest.raises(QuotaError):
                        await client.open_channel(rng=random.Random(6))
                    await first.send(b"still works")
                    return server.channels.stats.rejected_quota

        assert run(scenario()) >= 1

    def test_unknown_channel_is_explicit(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    with pytest.raises(UnknownChannelError):
                        await client.request(
                            OP_CHAN_MSG, pack_channel(b"\x00" * 8, b"x" * 24)
                        )
                    return True

        assert run(scenario())

    def test_malformed_channel_payload_is_bad_request_not_crash(self):
        async def scenario():
            from repro.errors import ServeError

            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    for payload in (b"", b"\x01", b"1234567"):
                        with pytest.raises(ServeError):
                            await client.request(OP_CHAN_OPEN, payload)
                    # Connection survives every malformed payload.
                    await client.key_agreement_session(random.Random(7))
                    return server.protocol_errors

        assert run(scenario()) == 0

    def test_rekey_mid_stream_keeps_both_directions_aligned(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy64")
                    channel = await client.open_channel(rng=random.Random(8))
                    for index in range(3):
                        await channel.send(b"pre %d" % index)
                    await channel.rekey()  # explicit mid-stream rotation
                    for index in range(3):
                        await channel.send(b"post %d" % index)
                    await channel.close()
                    return channel.rekeys, channel.crypto is None

        rekeys, closed = run(scenario())
        assert rekeys == 1 and closed


class TestIdleTimeout:
    def test_idle_connection_gets_explicit_error_frame(self):
        """Satellite: a connection idle past the timeout receives
        ERR_IDLE_TIMEOUT (never a silent close) and its channels die."""

        async def scenario():
            async with _server(idle_timeout=0.15) as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    await client.open_channel(rng=random.Random(9))
                    opened = len(server.channels)
                    await asyncio.sleep(0.5)
                    # The next request reads the idle-timeout error frame.
                    with pytest.raises(UnavailableError):
                        await client.key_agreement_session(random.Random(10))
                    return opened, len(server.channels), server.idle_closes

        opened, remaining, idle_closes = run(scenario())
        assert opened == 1
        assert remaining == 0  # drop_client reclaimed the channel state
        assert idle_closes == 1

    def test_active_connection_is_never_idle_closed(self):
        async def scenario():
            async with _server(idle_timeout=0.3) as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    for _ in range(4):
                        await asyncio.sleep(0.1)  # under the timeout each time
                        await client.key_agreement_session(random.Random(11))
                    return server.idle_closes

        assert run(scenario()) == 0


class TestReadFrameChannelFuzz:
    """Satellite: ``read_frame`` over mangled channel frames."""

    def _valid_frames(self) -> list:
        frames = []
        for opcode in (OP_CHAN_OPEN, OP_CHAN_MSG):
            for blob in (b"", b"x" * 24, b"y" * 512):
                frames.append(encode_frame(opcode, pack_channel(CHANNEL_ID, blob)))
        return frames

    def test_truncations_never_yield_a_frame_or_crash(self, read_frames):
        async def scenario():
            for wire in self._valid_frames():
                for cut in range(len(wire)):
                    # The stream ends at the cut: nothing at a frame
                    # boundary, an explicit ProtocolError inside a frame.
                    if cut == 0:
                        assert await read_frames([wire[:cut]]) == []
                    else:
                        with pytest.raises(ProtocolError):
                            await read_frames([wire[:cut]])
                    # The remainder arriving later completes exactly one frame.
                    frames = await read_frames([wire[:cut], wire[cut:]])
                    assert len(frames) == 1
                    assert frames[0].payload[:CHANNEL_ID_LEN] == CHANNEL_ID

        run(scenario())

    def test_random_split_points_reassemble_identically(self, read_frames):
        rng = random.Random(0xF22)
        wire = b"".join(self._valid_frames())

        async def scenario():
            for _ in range(50):
                chunks = []
                position = 0
                while position < len(wire):
                    step = rng.randint(1, 37)
                    chunks.append(wire[position:position + step])
                    position += step
                frames = await read_frames(chunks)
                assert b"".join(
                    encode_frame(frame.opcode, frame.payload) for frame in frames
                ) == wire

        run(scenario())

    def test_oversized_channel_frame_rejected(self, read_frames):
        from repro.serve.protocol import HEADER, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION

        # The length field covers version + opcode + payload, so the first
        # oversized advertisement is MAX_FRAME_PAYLOAD + 3.
        oversized = HEADER.pack(MAX_FRAME_PAYLOAD + 3, PROTOCOL_VERSION, OP_CHAN_MSG)
        with pytest.raises(ProtocolError):
            run(read_frames([oversized]))

    def test_mutated_headers_raise_or_parse_but_never_crash(self, read_frames):
        rng = random.Random(0xFADE)
        base = encode_frame(OP_CHAN_MSG, pack_channel(CHANNEL_ID, b"z" * 32))

        async def scenario():
            for _ in range(200):
                mutated = bytearray(base)
                for _ in range(rng.randint(1, 4)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                try:
                    await read_frames([bytes(mutated)])
                except ProtocolError:
                    pass  # an explicit rejection is a correct outcome

        run(scenario())


@pytest.mark.skipif(not reuseport_available(), reason="SO_REUSEPORT not available")
class TestClusterChannelSurvival:
    def test_channels_survive_worker_crash_restart(self):
        """Acceptance: kill cluster workers mid-stream; every channel
        session completes with zero client-visible errors (reopens are
        counted, not surfaced).

        The kernel may balance every connection onto one worker, so killing
        a single worker proves nothing about the clients.  Both workers are
        killed in turn, after every client has opened its channel and
        before any has sent its last ten records: whichever worker held a
        connection, that connection dies under a live stream."""
        from repro.serve.cluster import ClusterSupervisor

        async def scenario():
            cluster = ClusterSupervisor(
                workers=2,
                schemes=("ceilidh-toy32",),
                rng=random.Random(0xC1),
            )
            host, port = await cluster.start()
            opened = 0
            all_opened = asyncio.Event()
            kills_done = asyncio.Event()

            async def restarted(count: int) -> None:
                for _ in range(200):
                    if (cluster.total_restarts >= count
                            and cluster.worker_phases() == ["running", "running"]):
                        return
                    await asyncio.sleep(0.05)

            try:
                async def one_client(index: int) -> tuple:
                    nonlocal opened
                    rng = random.Random(1000 + index)
                    client = ServeClient(host, port)
                    await client.connect()
                    try:
                        await client.negotiate("ceilidh-toy32")
                        channel = await client.open_channel(
                            rng=rng, rekey_after_messages=20
                        )
                        opened += 1
                        if opened == 4:
                            all_opened.set()
                        for message in range(40):
                            if message == 30:
                                await kills_done.wait()
                            await channel.send(b"m%d" % message)
                            await asyncio.sleep(0.01)
                        return channel.messages, channel.reopens
                    finally:
                        await client.close()

                clients = [asyncio.ensure_future(one_client(i)) for i in range(4)]
                await asyncio.wait_for(all_opened.wait(), timeout=30)
                await asyncio.sleep(0.1)
                await cluster.kill_worker(0)
                await restarted(1)
                await cluster.kill_worker(1)
                await restarted(2)
                kills_done.set()
                results = await asyncio.gather(*clients)
                return results, cluster.total_restarts, cluster.worker_phases()
            finally:
                kills_done.set()
                await cluster.stop()

        results, restarts, phases = run(scenario())
        assert [messages for messages, _ in results] == [40] * 4
        assert restarts >= 2
        assert phases == ["running", "running"]
        # Every client's worker died under it, so every client rode through
        # a crash by reopening.
        assert sum(reopens for _, reopens in results) >= 1
        assert all(reopens >= 1 for _, reopens in results)

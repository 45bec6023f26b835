"""Wire-protocol edge cases of the serving layer.

:func:`~repro.serve.protocol.read_frame` is exercised on a stream reader fed
raw bytes (truncation, arbitrary chunking, hostile length prefixes); the server
state machine is exercised over real loopback sockets for the failure modes
only a live connection shows: unknown scheme names, protocol-version
mismatches, and mid-stream connection drops that must never take the server
(or its other connections) down.
"""

from __future__ import annotations

import asyncio
import random
import struct

import pytest

from repro.errors import ProtocolError, ServeError
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    ERR_NO_SESSION,
    ERR_UNKNOWN_OPCODE,
    ERR_UNKNOWN_SCHEME,
    ERR_VERSION,
    MAX_FRAME_PAYLOAD,
    OP_ERROR,
    OP_HELLO,
    OP_KA_INIT,
    OP_WELCOME,
    PROTOCOL_VERSION,
    Frame,
    encode_frame,
    pack_error,
    pack_verify,
    pack_welcome,
    parse_error,
    parse_verify,
    parse_welcome,
    read_frame,
)
from repro.serve.server import ServeServer


def run(coroutine):
    return asyncio.run(coroutine)


# -- sans-IO framing -----------------------------------------------------------


class TestFraming:
    def test_round_trip(self, read_frames):
        frames = run(read_frames([encode_frame(OP_HELLO, b"ceilidh-170")]))
        assert frames == [Frame(PROTOCOL_VERSION, OP_HELLO, b"ceilidh-170")]

    def test_empty_payload_and_coalesced_frames(self, read_frames):
        wire = encode_frame(OP_HELLO) + encode_frame(OP_KA_INIT, b"\x01\x02")
        frames = run(read_frames([wire]))
        assert [f.opcode for f in frames] == [OP_HELLO, OP_KA_INIT]
        assert frames[0].payload == b""
        assert frames[1].payload == b"\x01\x02"

    def test_byte_at_a_time_chunking(self, read_frames):
        wire = encode_frame(OP_KA_INIT, b"chunked-payload")
        chunks = [wire[index : index + 1] for index in range(len(wire))]
        frames = run(read_frames(chunks))
        assert frames == [Frame(PROTOCOL_VERSION, OP_KA_INIT, b"chunked-payload")]

    def test_truncated_frame_stays_pending(self):
        async def scenario():
            reader = asyncio.StreamReader()
            wire = encode_frame(OP_KA_INIT, b"x" * 40)
            reader.feed_data(wire[:-7])
            pending = asyncio.ensure_future(read_frame(reader))
            for _ in range(5):
                await asyncio.sleep(0)
            waited = not pending.done()
            reader.feed_data(wire[-7:])
            return waited, await pending

        waited, frame = run(scenario())
        assert waited
        assert frame == Frame(PROTOCOL_VERSION, OP_KA_INIT, b"x" * 40)

    def test_oversized_length_rejected_before_buffering(self):
        async def scenario():
            reader = asyncio.StreamReader()
            hostile = struct.pack(">IBB", MAX_FRAME_PAYLOAD + 3, PROTOCOL_VERSION, OP_HELLO)
            reader.feed_data(hostile + b"more")
            reader.feed_eof()
            with pytest.raises(ProtocolError, match="frame length"):
                await read_frame(reader)
            return await reader.read()

        # Only the length prefix was consumed; nothing of the body was read.
        assert run(scenario()) == bytes([PROTOCOL_VERSION, OP_HELLO]) + b"more"

    def test_undersized_length_rejected(self, read_frames):
        with pytest.raises(ProtocolError, match="frame length"):
            run(read_frames([struct.pack(">IBB", 1, PROTOCOL_VERSION, OP_HELLO)]))

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(ProtocolError, match="cap"):
            encode_frame(OP_KA_INIT, b"x" * (MAX_FRAME_PAYLOAD + 1))

    def test_read_frame_eof_at_boundary_is_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(OP_HELLO, b"abc"))
            reader.feed_eof()
            first = await read_frame(reader)
            second = await read_frame(reader)
            return first, second

        first, second = run(scenario())
        assert first.payload == b"abc"
        assert second is None

    def test_read_frame_eof_mid_header_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"\x00\x00")  # half a length prefix
            reader.feed_eof()
            await read_frame(reader)

        with pytest.raises(ProtocolError, match="header"):
            run(scenario())

    def test_read_frame_eof_mid_body_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(OP_KA_INIT, b"x" * 32)[:-5])
            reader.feed_eof()
            await read_frame(reader)

        with pytest.raises(ProtocolError, match="body"):
            run(scenario())


class TestPayloadShapes:
    def test_welcome_round_trip(self):
        payload = pack_welcome("ceilidh-toy32", b"\x04public-bytes")
        assert parse_welcome(payload) == ("ceilidh-toy32", b"\x04public-bytes")

    def test_welcome_truncated_name_rejected(self):
        with pytest.raises(ProtocolError):
            parse_welcome(b"")
        with pytest.raises(ProtocolError):
            parse_welcome(bytes([200]) + b"short")

    def test_verify_round_trip(self):
        payload = pack_verify(b"message", b"signature")
        assert parse_verify(payload) == (b"message", b"signature")

    def test_verify_truncated_rejected(self):
        with pytest.raises(ProtocolError):
            parse_verify(b"\x00\x00")
        with pytest.raises(ProtocolError):
            parse_verify(struct.pack(">I", 100) + b"too short")

    def test_error_round_trip(self):
        code, detail = parse_error(pack_error(ERR_UNKNOWN_SCHEME, "no such scheme"))
        assert code == ERR_UNKNOWN_SCHEME
        assert detail == "no such scheme"


# -- live-server edge cases ----------------------------------------------------


def _server(**overrides) -> ServeServer:
    options = dict(
        schemes=("ceilidh-toy32", "xtr-toy32", "rsa-512"),
        rng=random.Random(0x5E58E),
    )
    options.update(overrides)
    return ServeServer(**options)


class TestServerEdgeCases:
    def test_unknown_scheme_name_keeps_the_connection(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    with pytest.raises(ServeError, match="unknown-scheme"):
                        await client.negotiate("ceilidh-9999")
                    # The connection survives and a served scheme still works.
                    await client.negotiate("ceilidh-toy32")
                    await client.key_agreement_session(random.Random(1))
                return server.protocol_errors

        assert run(scenario()) == 0

    def test_version_mismatch_errors_and_closes(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(OP_HELLO, b"ceilidh-toy32", version=99))
                await writer.drain()
                frame = await read_frame(reader)
                closed = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return frame, closed, server.protocol_errors

        frame, closed, protocol_errors = run(scenario())
        assert frame.opcode == OP_ERROR
        code, detail = parse_error(frame.payload)
        assert code == ERR_VERSION
        assert "version" in detail
        assert closed is None  # server hung up after the version error
        assert protocol_errors == 1

    def test_operation_before_hello_rejected(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(OP_KA_INIT, b"\x00" * 8))
                await writer.drain()
                frame = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return frame

        frame = run(scenario())
        assert frame.opcode == OP_ERROR
        assert parse_error(frame.payload)[0] == ERR_NO_SESSION

    def test_unknown_opcode_rejected(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(0x7F, b""))
                await writer.drain()
                frame = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return frame

        frame = run(scenario())
        assert frame.opcode == OP_ERROR
        assert parse_error(frame.payload)[0] == ERR_UNKNOWN_OPCODE

    def test_oversized_frame_from_client_closes_only_that_connection(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(struct.pack(">I", MAX_FRAME_PAYLOAD + 1000))
                await writer.drain()
                frame = await read_frame(reader)  # best-effort error frame
                closed = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                # The server keeps serving other clients afterwards.
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    await client.key_agreement_session(random.Random(2))
                return frame, closed, server.protocol_errors

        frame, closed, protocol_errors = run(scenario())
        assert frame.opcode == OP_ERROR
        assert closed is None
        assert protocol_errors == 1

    def test_mid_stream_drop_leaves_the_server_serving(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                # A client that dies inside a frame: half a KA_INIT, then gone.
                _, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(OP_HELLO, b"ceilidh-toy32"))
                await writer.drain()
                partial = encode_frame(OP_KA_INIT, b"y" * 64)[:10]
                writer.write(partial)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)  # let the server observe the drop
                # Every other connection is unaffected.
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    await client.key_agreement_session(random.Random(3))
                return server.protocol_errors

        # The drop is counted against the dropped connection only.
        assert run(scenario()) == 1

    def test_malformed_public_key_answers_bad_request(self):
        async def scenario():
            async with _server() as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(OP_HELLO, b"ceilidh-toy32"))
                await writer.drain()
                welcome = await read_frame(reader)
                writer.write(encode_frame(OP_KA_INIT, b"\xff" * 3))  # junk public
                await writer.drain()
                frame = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return welcome, frame

        welcome, frame = run(scenario())
        assert welcome.opcode == OP_WELCOME
        assert frame.opcode == OP_ERROR
        assert parse_error(frame.payload)[0] == protocol.ERR_BAD_REQUEST

"""The constant-time tag comparison fix (audit rule CT103).

``python -m repro.audit`` flagged the serving layer's confirmation-tag and
digest checks as short-circuiting ``==``/``!=`` on secret-derived bytes —
the canonical remote timing oracle.  These tests pin the fix: the vetted
comparator exists, behaves, and the live key-agreement path still both
accepts correct tags and rejects tampered ones through it.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.errors import ParameterError, ServeError
from repro.pkc import get_scheme
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.serve.session import offline_encryption_session, offline_key_agreement_session


def run(coroutine):
    return asyncio.run(coroutine)


class TestConstantTimeEqual:
    def test_equal_and_unequal(self):
        assert protocol.constant_time_equal(b"\x01\x02", b"\x01\x02")
        assert not protocol.constant_time_equal(b"\x01\x02", b"\x01\x03")

    def test_length_mismatch_is_unequal_not_an_error(self):
        assert not protocol.constant_time_equal(b"\x01", b"\x01\x02")
        assert not protocol.constant_time_equal(b"", b"\x00")

    def test_matches_the_tag_path_shapes(self):
        tag = protocol.confirmation_tag(b"shared-secret-bytes")
        assert protocol.constant_time_equal(tag, protocol.confirmation_tag(b"shared-secret-bytes"))
        assert not protocol.constant_time_equal(tag, protocol.confirmation_tag(b"other"))


class TestTagCheckRegression:
    """The comparison sites the analyzer flagged keep working after the fix."""

    def test_offline_sessions_still_accept_honest_runs(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        server = scheme.keygen(rng)
        assert offline_key_agreement_session(scheme, server, rng) > 0
        assert offline_encryption_session(scheme, server, rng, payload=b"hi") > 0

    def test_client_rejects_a_tampered_confirmation_tag(self):
        async def scenario():
            server = ServeServer(
                schemes=("ceilidh-toy32",), rng=random.Random(0xC7)
            )
            async with server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    await client.negotiate("ceilidh-toy32")
                    honest = client.request

                    async def tampered(opcode, payload):
                        frame = await honest(opcode, payload)
                        if frame.opcode == protocol.OP_KA_CONFIRM:
                            flipped = bytes([frame.payload[0] ^ 0x01]) + frame.payload[1:]
                            return protocol.Frame(frame.version, frame.opcode, flipped)
                        return frame

                    client.request = tampered
                    with pytest.raises(ServeError, match="tags disagree"):
                        await client.key_agreement_session(random.Random(1))
                    client.request = honest
                    assert await client.key_agreement_session(random.Random(2)) >= 0

        run(scenario())

    def test_offline_session_raises_on_forced_mismatch(self, rng):
        scheme = get_scheme("ceilidh-toy32")
        server = scheme.keygen(rng)

        class MismatchedScheme:
            name = scheme.name

            def keygen(self, rng=None, trace=None):
                return scheme.keygen(rng, trace=trace)

            def key_agreement(self, pair, public_wire, trace=None):
                shared = scheme.key_agreement(pair, public_wire, trace=trace)
                # Perturb one side only: pair identity decides the flip.
                if pair is server:
                    return bytes([shared[0] ^ 0x01]) + shared[1:]
                return shared

        with pytest.raises(ParameterError, match="mismatch"):
            offline_key_agreement_session(MismatchedScheme(), server, rng)

"""Seeded inputs: server keys, every request frame and every expected reply.

Everything the load generator sends or compares is made here, before any
timing starts, from ``--seed`` alone.  The timed loop then only writes
frames and compares bytes, so the generator spends almost no CPU and the
timings measure ``repro.serve`` and the layers under it, not the client's
half of the cryptography.

Client keys for key agreement are consecutive exponents ``x0, x0+1, ...``
from a seeded ``x0``.  Each step advances the client's public value by one
group operation with the generator and the shared value by one group
operation with the server's public key (for XTR, one step of the trace
recurrence), which makes thousands of distinct requests cheap.  The server
cannot tell: it sees a distinct, valid public key per request and does the
full key agreement for each.  The first and last key of every batch are
checked against the scheme's own ``key_agreement`` on the server key, so the
stepping can never silently produce a wrong expected reply.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.pkc.base import kdf
from repro.pkc.registry import get_scheme
from repro.serve.channel import CLIENT_TO_SERVER, SERVER_TO_CLIENT, ChannelCrypto
from repro.serve.protocol import (
    OP_CHAN_ACCEPT,
    OP_CHAN_CLOSE,
    OP_CHAN_CLOSED,
    OP_CHAN_MSG,
    OP_CHAN_OPEN,
    OP_CHAN_REKEY,
    OP_CHAN_REKEYED,
    OP_CHAN_REPLY,
    OP_DECRYPT,
    OP_HELLO,
    OP_KA_CONFIRM,
    OP_KA_INIT,
    OP_PLAINTEXT_DIGEST,
    OP_SIGN,
    OP_SIGNATURE,
    OP_WELCOME,
    confirmation_tag,
    encode_frame,
    pack_channel,
    pack_welcome,
    plaintext_digest,
)

from workloads import ChannelWorkload, Phase

BACKEND = "plain"

#: Opcode each closed-loop operation sends.
OPCODES = {"KA_INIT": OP_KA_INIT, "DECRYPT": OP_DECRYPT, "SIGN": OP_SIGN}


def _rng(seed: int, *labels: str) -> random.Random:
    """An independent stream per purpose, so adding one never shifts another."""
    return random.Random("|".join(("perfbench", str(seed)) + labels))


def server_keys(seed: int, schemes) -> Dict[str, object]:
    """The long-lived server key pair of each scheme, derived from the seed.

    Made in the benchmark process and handed to the server as
    ``preset_keys``, the way the cluster supervisor provisions workers.
    """
    keys = {}
    for name in schemes:
        scheme = get_scheme(name, backend=BACKEND)
        rng = _rng(seed, "server-key", name)
        if name.startswith("rsa-"):
            # RSA adapters cache one key pair per instance; ask for a fresh
            # one so the seed, not an earlier caller, decides it.
            keys[name] = scheme.keygen(rng, fresh=True)
        else:
            keys[name] = scheme.keygen(rng)
    return keys


def hello_frame(scheme: str) -> bytes:
    return encode_frame(OP_HELLO, scheme.encode("utf-8"))


def welcome_frame(scheme: str, key) -> bytes:
    return encode_frame(OP_WELCOME, pack_welcome(scheme, key.public_wire))


# -- key-agreement material by stepping consecutive client exponents ----------


class _KeyStream:
    """Distinct ``(client public wire, derived 32-byte key)`` pairs."""

    def __init__(self, scheme_name: str, server_key, rng: random.Random):
        self.scheme = get_scheme(scheme_name, backend=BACKEND)
        self.server_key = server_key
        self._start(rng)

    def take(self, count: int) -> List[Tuple[bytes, bytes]]:
        items: List[Tuple[bytes, bytes]] = []
        while len(items) < count:
            items.extend(self._step(count - len(items)))
        for wire, secret in {items[0], items[-1]}:
            # The server's own derivation must agree with the stepped one.
            if self.scheme.key_agreement(self.server_key, wire) != secret:
                raise AssertionError(f"{self.scheme.name}: stepped key material is wrong")
        return items


class _CeilidhStream(_KeyStream):
    def _start(self, rng):
        system = self.scheme.system
        group = system.group
        self.params = system.params
        self.compressor = system.compressor
        self.g = group.generator()
        server_public = system.public_element(self.scheme.decode_public(self.server_key.public_wire))
        self.y = server_public
        x0 = rng.randrange(1, system.params.q - (1 << 40))
        self.public = group.generator_power(x0)
        self.shared = group.exponentiate(server_public, x0)

    def _step(self, count):
        from repro.errors import CompressionError
        from repro.torus.encoding import encode_compressed

        values = []
        for _ in range(min(count, 256)):
            self.public = self.public * self.g
            self.shared = self.shared * self.y
            values.extend((self.public.value, self.shared.value))
        try:  # one batch inversion for the whole chunk
            compressed = self.compressor.compress_many(values)
        except CompressionError:  # O(1/p) exceptional element: skip this chunk
            return []
        return [
            (
                self.scheme.encode_public(public),
                kdf(encode_compressed(self.params, shared), b"", 32),
            )
            for public, shared in zip(compressed[0::2], compressed[1::2])
        ]


class _EcdhStream(_KeyStream):
    def _start(self, rng):
        scheme = self.scheme
        self.g = scheme.generator_power(1)
        self.y = scheme.decode_public(self.server_key.public_wire)
        self.width = (scheme.curve.p.bit_length() + 7) // 8
        x0 = rng.randrange(1, scheme.curve.order - (1 << 40))
        self.public = scheme.generator_power(x0)
        self.shared = self.y * x0

    def _step(self, count):
        out = []
        for _ in range(count):
            self.public = self.public + self.g
            self.shared = self.shared + self.y
            if self.public.is_infinity() or self.shared.is_infinity():
                continue
            x = self.shared.curve.field.exit(self.shared.x).to_bytes(self.width, "big")
            out.append((self.scheme.encode_public(self.public), kdf(x, b"", 32)))
        return out


class _XtrStream(_KeyStream):
    """Steps the trace recurrence c_(n+1) = c*c_n - c^p*c_(n-1) + c_(n-2).

    Traces live in Fp2 = Fp[x]/(x^2 + x + 1) as plain coefficient pairs, the
    representation ``XtrSystem.encode_trace`` writes on the wire.
    """

    def _start(self, rng):
        system = self.scheme.system
        context = system.context
        self.system = system
        self.p = system.params.p
        server_trace = system.decode_trace(self.server_key.public_wire)
        generator_trace = context.generator_trace()
        x0 = rng.randrange(3, system.params.q - (1 << 40))

        def window(base):
            return [
                context.exponentiate(base, x0 + offset).coefficients
                for offset in (-2, -1, 0)
            ]

        self.c = generator_trace.coefficients
        self.d = server_trace.coefficients
        self.publics = window(generator_trace)
        self.shareds = window(server_trace)

    def _mul(self, a, b):
        p = self.p
        a0, a1 = a
        b0, b1 = b
        t = a1 * b1
        return ((a0 * b0 - t) % p, (a0 * b1 + a1 * b0 - t) % p)

    def _next(self, base, window):
        p = self.p
        c_prev2, c_prev, c_cur = window
        base_conj = ((base[0] - base[1]) % p, (-base[1]) % p)
        first = self._mul(base, c_cur)
        second = self._mul(base_conj, c_prev)
        return (
            (first[0] - second[0] + c_prev2[0]) % p,
            (first[1] - second[1] + c_prev2[1]) % p,
        )

    def _step(self, count):
        from repro.xtr.trace import XtrTrace

        out = []
        for _ in range(count):
            public = self._next(self.c, self.publics)
            shared = self._next(self.d, self.shareds)
            self.publics = self.publics[1:] + [public]
            self.shareds = self.shareds[1:] + [shared]
            wire = self.system.encode_trace(XtrTrace(public))
            secret = self.system.encode_trace(XtrTrace(shared))
            out.append((wire, kdf(secret, b"", 32)))
        return out


_STREAMS = {"ceilidh-170": _CeilidhStream, "ecdh-p160": _EcdhStream, "xtr-170": _XtrStream}


# -- requests ---------------------------------------------------------------


#: One request: ``(frame, expected reply frame or None, payload)``.  Only
#: SIGN replies (randomized) have no expected bytes; their payload (the
#: message) is kept so the signature can be verified after the window.
Request = Tuple[bytes, Optional[bytes], bytes]


@dataclass
class Inputs:
    """Everything one run sends, made before any timing starts."""

    seed: int
    keys: Dict[str, object]
    streams: Dict[str, _KeyStream] = field(default_factory=dict)

    def stream(self, scheme: str) -> _KeyStream:
        if scheme not in self.streams:
            self.streams[scheme] = _STREAMS[scheme](
                scheme, self.keys[scheme], _rng(self.seed, "client-keys", scheme)
            )
        return self.streams[scheme]

    def requests(self, phase: Phase, count: int, label: str) -> List[Request]:
        """``count`` distinct closed-loop requests for one phase."""
        rng = _rng(self.seed, "requests", phase.scheme, phase.op, label)
        opcode = OPCODES[phase.op]
        if phase.op == "KA_INIT":
            return [
                (
                    encode_frame(opcode, wire),
                    encode_frame(OP_KA_CONFIRM, confirmation_tag(secret)),
                    wire,
                )
                for wire, secret in self.stream(phase.scheme).take(count)
            ]
        scheme = get_scheme(phase.scheme, backend=BACKEND)
        public = self.keys[phase.scheme].public_wire
        out = []
        for _ in range(count):
            message = rng.randbytes(32)
            if phase.op == "DECRYPT":
                ciphertext = scheme.encrypt(public, message, rng)
                expected = encode_frame(OP_PLAINTEXT_DIGEST, plaintext_digest(message))
                out.append((encode_frame(opcode, ciphertext), expected, message))
            else:  # SIGN: the reply is randomized; verified after the window
                out.append((encode_frame(opcode, message), None, message))
        return out

    def channel_script(
        self, workload: ChannelWorkload, frames: int, label: str
    ) -> List[Tuple[str, bytes, bytes]]:
        """At least ``frames`` frames of one connection's channel conversation.

        Returns ``(kind, frame, expected reply)`` with kind one of ``open``,
        ``msg``, ``rekey``, ``close``; the script always ends on a close.
        """
        rng = _rng(self.seed, "channels", label)
        stream = self.stream(workload.scheme)
        lo, hi = (math.log(b) for b in workload.record_bytes)
        stop = 1.0 - 1.0 / workload.mean_records_per_channel
        script: List[Tuple[str, bytes, bytes]] = []
        while len(script) < frames:
            lifetime = 1 + int(math.log(1.0 - rng.random()) / math.log(stop))
            script.extend(self._one_channel(workload, rng, stream, lifetime, lo, hi))
        return script

    def channel_probe(self, workload: ChannelWorkload, label: str):
        """One short channel that sends every channel opcode once:
        open, record, rekey, record, close."""
        rng = _rng(self.seed, "channels", label)
        lo, hi = (math.log(b) for b in workload.record_bytes)
        probe = replace(workload, rekey_after_messages=1)
        return self._one_channel(probe, rng, self.stream(workload.scheme), 2, lo, hi)

    @staticmethod
    def _one_channel(workload, rng, stream, lifetime, lo, hi):
        channel_id = rng.randbytes(8)
        kex, secret = stream.take(1)[0]
        out = [(
            "open",
            encode_frame(OP_CHAN_OPEN, pack_channel(channel_id, kex)),
            encode_frame(OP_CHAN_ACCEPT, pack_channel(channel_id, confirmation_tag(secret))),
        )]
        client = ChannelCrypto(secret, channel_id, CLIENT_TO_SERVER, SERVER_TO_CLIENT)
        # The server's side of the channel only seals replies here; its
        # receive sequence never matters for the bytes it sends back.
        server = ChannelCrypto(secret, channel_id, SERVER_TO_CLIENT, CLIENT_TO_SERVER)
        messages = sent_bytes = 0
        for _ in range(lifetime):
            size = int(math.exp(rng.uniform(lo, hi)))
            if (
                messages + 1 > workload.rekey_after_messages
                or sent_bytes + size > workload.rekey_after_bytes
            ):
                kex, fresh = stream.take(1)[0]
                record = client.seal(kex)
                ack = server.seal(confirmation_tag(fresh))
                out.append((
                    "rekey",
                    encode_frame(OP_CHAN_REKEY, pack_channel(channel_id, record)),
                    encode_frame(OP_CHAN_REKEYED, pack_channel(channel_id, ack)),
                ))
                client.rekey(fresh)
                server.rekey(fresh)
                messages = sent_bytes = 0
            body = rng.randbytes(size)
            record = client.seal(body)
            reply = server.seal(plaintext_digest(body))
            out.append((
                "msg",
                encode_frame(OP_CHAN_MSG, pack_channel(channel_id, record)),
                encode_frame(OP_CHAN_REPLY, pack_channel(channel_id, reply)),
            ))
            messages += 1
            sent_bytes += size
        record = client.seal(b"")
        out.append((
            "close",
            encode_frame(OP_CHAN_CLOSE, pack_channel(channel_id, record)),
            encode_frame(OP_CHAN_CLOSED, pack_channel(channel_id)),
        ))
        return out


def check_signatures(scheme_name: str, key, signed) -> int:
    """Verify ``(message, reply frame)`` pairs after the window; count failures."""
    scheme = get_scheme(scheme_name, backend=BACKEND)
    failures = 0
    for message, reply in signed:
        if reply[5] != OP_SIGNATURE or not scheme.verify(key.public_wire, message, reply[6:]):
            failures += 1
    return failures

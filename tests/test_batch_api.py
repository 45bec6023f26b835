"""Tests for the vectorised batch field API and its consumers.

Covers the :class:`~repro.field.backend.FieldOps` array methods on every
backend (per-item loop equivalence, empty and singleton batches, mixed
exponent widths, exponents 0/1 and negatives), the resident-Montgomery
shared-base table, the ``exponentiate_many`` seam, scheme-level
batch-vs-loop byte identity for every registry scheme on every backend,
and the serve scheduler's batch routing: which kinds coalesce, and the
per-item loop that answers every request of a mixed good/bad batch once.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ParameterError
from repro.field import PrimeField
from repro.pkc import get_scheme
from repro.pkc.base import KEY_AGREEMENT, SIGNATURE
from repro.pkc.registry import available_schemes

P32 = 2494740737  # toy-32 CEILIDH prime (p = 2 mod 9)
P127 = (1 << 127) - 1  # multi-word: exercises the Montgomery word paths
P170 = 1109485483118704838530651968604888341434144398802927  # ceilidh-170 p

BACKENDS = ("plain", "montgomery", "word-counting")


def _fields(p):
    plain = PrimeField(p, check_prime=False)
    return plain, {name: PrimeField(p, check_prime=False, backend=name) for name in BACKENDS}


# ---------------------------------------------------------------------------
# FieldOps array methods: batch == loop on every backend.
# ---------------------------------------------------------------------------


class TestFieldOpsBatch:
    @pytest.mark.parametrize("p", [P32, P127, P170])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pairwise_many_match_loops(self, backend, p):
        field = PrimeField(p, check_prime=False, backend=backend)
        rng = random.Random(41)
        a = [field.enter(rng.randrange(p)) for _ in range(9)]
        b = [field.enter(rng.randrange(p)) for _ in range(9)]
        assert field.backend.add_many(a, b) == [field.add(x, y) for x, y in zip(a, b)]
        assert field.backend.sub_many(a, b) == [field.sub(x, y) for x, y in zip(a, b)]
        assert field.backend.mul_many(a, b) == [field.mul(x, y) for x, y in zip(a, b)]
        assert field.backend.sqr_many(a) == [field.sqr(x) for x in a]

    @pytest.mark.parametrize("p", [P32, P127, P170])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pow_many_matches_loop(self, backend, p):
        field = PrimeField(p, check_prime=False, backend=backend)
        rng = random.Random(42)
        # Mixed widths on purpose: tiny, huge, and the 0/1 edge exponents.
        exponents = [0, 1, 2, rng.randrange(p), rng.getrandbits(8), rng.getrandbits(200)]
        bases = [field.enter(rng.randrange(1, p)) for _ in exponents]
        assert field.pow_many(bases, exponents) == [
            field.pow(base, e) for base, e in zip(bases, exponents)
        ]

    @pytest.mark.parametrize("p", [P32, P127, P170])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pow_many_shared_base_matches_loop(self, backend, p):
        field = PrimeField(p, check_prime=False, backend=backend)
        rng = random.Random(43)
        base = field.enter(rng.randrange(2, p))
        exponents = [0, 1, rng.getrandbits(30), rng.randrange(p), rng.getrandbits(190)]
        assert field.pow_many_shared_base(base, exponents) == [
            field.pow(base, e) for e in exponents
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_exponents(self, backend):
        field = PrimeField(P127, check_prime=False, backend=backend)
        rng = random.Random(44)
        bases = [field.enter(rng.randrange(1, P127)) for _ in range(4)]
        exponents = [-1, -rng.getrandbits(60), 5, -3]
        assert field.pow_many(bases, exponents) == [
            field.pow(base, e) for base, e in zip(bases, exponents)
        ]
        assert field.pow_many_shared_base(bases[0], exponents) == [
            field.pow(bases[0], e) for e in exponents
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_values_match_python_pow(self, backend):
        # An oracle outside the field layer: whatever path each backend's
        # batch methods take, the exited values are Python's pow.
        field = PrimeField(P170, check_prime=False, backend=backend)
        rng = random.Random(48)
        base = rng.randrange(2, P170)
        bases = [rng.randrange(1, P170) for _ in range(5)]
        exponents = [rng.getrandbits(90) for _ in range(5)]
        shared = field.pow_many_shared_base(field.enter(base), exponents)
        many = field.pow_many([field.enter(b) for b in bases], exponents)
        assert [field.exit(v) for v in shared] == [pow(base, e, P170) for e in exponents]
        assert [field.exit(v) for v in many] == [
            pow(b, e, P170) for b, e in zip(bases, exponents)
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_and_singleton(self, backend):
        field = PrimeField(P32, check_prime=False, backend=backend)
        assert field.pow_many([], []) == []
        assert field.pow_many_shared_base(field.enter(7), []) == []
        one = field.pow_many([field.enter(5)], [123])
        assert one == [field.pow(field.enter(5), 123)]

    def test_length_mismatch_raises(self):
        field = PrimeField(P32, check_prime=False)
        with pytest.raises(ParameterError):
            field.pow_many([1, 2], [3])
        with pytest.raises(ParameterError):
            field.backend.mul_many([1], [2, 3])

    def test_word_counting_pow_many_still_tallies(self):
        from repro.field import WordCountingBackend

        spec = WordCountingBackend()
        field = PrimeField(P32, check_prime=False, backend=spec)
        bases = [field.enter(123456), field.enter(654321)]
        spec.stream.reset()
        field.pow_many(bases, [1 << 20, (1 << 20) + 7])
        assert spec.stream.word_mults > 0

    def test_montgomery_cross_check_against_plain(self):
        plain = PrimeField(P127, check_prime=False)
        mont = PrimeField(P127, check_prime=False, backend="montgomery")
        rng = random.Random(45)
        base = rng.randrange(2, P127)
        exponents = [rng.getrandbits(100) for _ in range(6)]
        resident = mont.pow_many_shared_base(mont.enter(base), exponents)
        assert [mont.exit(value) for value in resident] == plain.pow_many_shared_base(
            base, exponents
        )

    def test_montgomery_shared_base_builds_one_table(self, monkeypatch):
        from repro.exp import strategies

        calls = {"tables": 0}
        real = strategies.FixedBaseTable

        class Counting(real):
            def __init__(self, *args, **kwargs):
                calls["tables"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(strategies, "FixedBaseTable", Counting)
        # The resident-Montgomery backend is the one whose shared-base path
        # builds a fixed-base table: one for the whole batch.
        field = PrimeField(P127, check_prime=False, backend="montgomery")
        base = field.enter(3)
        exponents = [random.Random(49).getrandbits(80) for _ in range(4)]
        field.pow_many_shared_base(base, exponents)
        assert calls["tables"] == 1


# ---------------------------------------------------------------------------
# The exponentiation-engine seam.
# ---------------------------------------------------------------------------


class TestExponentiateMany:
    def test_matches_per_item_and_groups_shared_bases(self):
        from repro.exp.group import FieldExpGroup
        from repro.exp.strategies import exponentiate, exponentiate_many
        from repro.exp.trace import OpTrace

        group = FieldExpGroup(PrimeField(P127, check_prime=False))
        rng = random.Random(50)
        shared = rng.randrange(2, P127)
        bases = [shared, rng.randrange(2, P127), shared, shared, rng.randrange(2, P127)]
        exponents = [rng.getrandbits(120) for _ in bases]
        results = exponentiate_many(group, bases, exponents)
        assert results == [
            exponentiate(group, base, e) for base, e in zip(bases, exponents)
        ]
        # The three shared-base items ride one table: fewer squarings than
        # the per-item loop.
        batched, looped = OpTrace(), OpTrace()
        exponentiate_many(group, bases, exponents, trace=batched)
        for base, e in zip(bases, exponents):
            exponentiate(group, base, e, trace=looped)
        assert batched.squarings < looped.squarings

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_python_pow_on_every_backend(self, backend):
        from repro.exp.group import FieldExpGroup
        from repro.exp.strategies import exponentiate_many

        field = PrimeField(P127, check_prime=False, backend=backend)
        group = FieldExpGroup(field)
        rng = random.Random(56)
        shared, other, narrow = (rng.randrange(2, P127) for _ in range(3))
        # A shared base with wide and negative exponents (one table), a
        # shared base whose exponents are all too narrow for a table, and a
        # lone base: every guard of the shared-base path on one call.
        plan = [
            (shared, rng.getrandbits(120)),
            (narrow, 5),
            (shared, -rng.getrandbits(70)),
            (other, rng.getrandbits(100)),
            (narrow, 0),
            (shared, 1),
        ]
        results = exponentiate_many(
            group, [field.enter(b) for b, _ in plan], [e for _, e in plan]
        )
        assert [field.exit(v) for v in results] == [pow(b, e, P127) for b, e in plan]

    def test_length_mismatch_and_empty(self):
        from repro.exp.group import FieldExpGroup
        from repro.exp.strategies import exponentiate_many

        group = FieldExpGroup(PrimeField(P32, check_prime=False))
        assert exponentiate_many(group, [], []) == []
        with pytest.raises(ParameterError):
            exponentiate_many(group, [2], [3, 4])

    def test_montgomery_power_many(self):
        from repro.montgomery.domain import MontgomeryDomain
        from repro.montgomery.exponent import montgomery_power, montgomery_power_many

        domain = MontgomeryDomain(P127)
        rng = random.Random(51)
        bases = [rng.randrange(P127) for _ in range(5)]
        exps = [0, 1, rng.getrandbits(60), rng.getrandbits(126), 2]
        assert montgomery_power_many(domain, bases, exps) == [
            montgomery_power(domain, base, e) for base, e in zip(bases, exps)
        ]
        with pytest.raises(ParameterError):
            montgomery_power_many(domain, [2], [-1])


# ---------------------------------------------------------------------------
# Scheme-level batch == loop, byte for byte, on every backend.
# ---------------------------------------------------------------------------


class TestSchemeBatchDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", available_schemes())
    def test_key_agreement_with_many_matches_loop(self, name, backend):
        scheme = get_scheme(name, fresh=True, backend=backend)
        if KEY_AGREEMENT not in scheme.capabilities:
            pytest.skip(f"{name} has no key agreement")
        rng = random.Random(52)
        server = scheme.keygen(rng)
        clients = scheme.keygen_many(5, rng)
        batched = scheme.key_agreement_with_many(clients, server.public_wire)
        assert batched == [
            scheme.key_agreement(client, server.public_wire) for client in clients
        ]
        assert scheme.key_agreement_with_many([], server.public_wire) == []
        assert scheme.key_agreement_with_many(clients[:1], server.public_wire) == batched[:1]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", available_schemes())
    def test_sign_many_matches_loop(self, name, backend):
        scheme = get_scheme(name, fresh=True, backend=backend)
        if SIGNATURE not in scheme.capabilities:
            pytest.skip(f"{name} has no signatures")
        rng = random.Random(53)
        server = scheme.keygen(rng)
        messages = [b"msg-%d" % i for i in range(4)]
        # Identical RNG draw order: same seed for the batch and the loop.
        batched = scheme.sign_many(server, messages, rng=random.Random(54))
        loop_rng = random.Random(54)
        looped = [scheme.sign(server, message, rng=loop_rng) for message in messages]
        assert batched == looped
        for message, signature in zip(messages, batched):
            assert scheme.verify(server.public_wire, message, signature)

    @pytest.mark.parametrize("name", available_schemes())
    def test_run_batch_coalesced_wire_identity(self, name):
        from repro.pkc.bench import run_batch

        scheme = get_scheme(name, fresh=True)
        if KEY_AGREEMENT not in scheme.capabilities:
            pytest.skip(f"{name} has no key agreement")
        loop = run_batch(
            get_scheme(name, fresh=True), "key-agreement", 4,
            rng=random.Random(55), coalesce=False,
        )
        coalesced = run_batch(
            get_scheme(name, fresh=True), "key-agreement", 4,
            rng=random.Random(55), coalesce=True,
        )
        assert coalesced.wire_bytes == loop.wire_bytes
        assert coalesced.coalesced and coalesced.batch_size == 4
        assert loop.batch_size is None


# ---------------------------------------------------------------------------
# Serve: which kinds coalesce, and the per-item loop for the rest.
# ---------------------------------------------------------------------------


class TestServeBatchRouting:
    def _scheme_and_key(self, name="ecdh-p160"):
        scheme = get_scheme(name, fresh=True)
        return scheme, scheme.keygen(random.Random(57))

    def test_sign_kind_routes_through_sign_many(self):
        from repro.serve.session import serve_request, serve_request_batch

        scheme, server = self._scheme_and_key("rsa-1024")
        payloads = [b"sign-me-%d" % i for i in range(3)]
        batched = serve_request_batch(scheme, server, "sign", payloads)
        assert batched == [
            serve_request(scheme, server, "sign", payload) for payload in payloads
        ]

    def test_kind_without_batch_entry_point_is_not_coalesced(self):
        from repro.serve.session import serve_request_batch

        scheme, server = self._scheme_and_key()
        good = scheme.encrypt(server.public_wire, b"ok", random.Random(58))
        assert serve_request_batch(scheme, server, "decrypt", [good, good]) is None

    @pytest.mark.parametrize(
        "kind, name, coalesces",
        [
            ("key-agreement", "ecdh-p160", True),
            ("channel-secret", "ceilidh-toy32", True),
            ("channel-secret", "rsa-512", False),
            ("sign", "rsa-512", True),
            ("encrypt", "ecdh-p160", False),
            ("decrypt", "rsa-512", False),
            ("verify", "ecdh-p160", False),
        ],
    )
    def test_batch_routing_by_kind(self, kind, name, coalesces):
        """Exactly the kinds with a batch entry point coalesce — key
        agreement, the key-agreement channel bootstrap and sign — each
        byte-identical to its per-item replies; every other kind (the KEM
        bootstrap included) returns ``None``."""
        from repro.serve.protocol import pack_verify
        from repro.serve.session import serve_request, serve_request_batch

        scheme, server = self._scheme_and_key(name)
        rng = random.Random(61)
        if kind in ("key-agreement", "channel-secret") and coalesces:
            payloads = [scheme.keygen(rng).public_wire for _ in range(3)]
        elif kind in ("channel-secret", "decrypt"):
            payloads = [
                scheme.encrypt(server.public_wire, bytes([i]) * 32, rng) for i in range(3)
            ]
        elif kind == "verify":
            payloads = [
                pack_verify(message, scheme.sign(server, message, rng))
                for message in (b"a", b"b", b"c")
            ]
        else:
            payloads = [b"payload-%d" % i for i in range(3)]
        batched = serve_request_batch(scheme, server, kind, payloads)
        if not coalesces:
            assert batched is None
            return
        assert batched == [
            serve_request(scheme, server, kind, payload) for payload in payloads
        ]

    @pytest.mark.parametrize("kind", ["decrypt", "key-agreement", "channel-secret"])
    def test_execute_batch_runs_each_item_once(self, kind, monkeypatch):
        """A decrypt batch never coalesces; a key-agreement or channel
        bootstrap batch coalesces, raises on the garbage item and falls
        back.  Either way the per-item loop runs each request of ``[good,
        garbage, good]`` exactly once and each answers on its own."""
        from repro.serve import scheduler as sched

        scheme, server = self._scheme_and_key()
        rng = random.Random(59)
        if kind == "decrypt":
            good = scheme.encrypt(server.public_wire, b"ok", rng)
        else:
            good = scheme.keygen(rng).public_wire
        payloads = [good, b"\x00garbage", good]
        expected_ok = sched.serve_request(scheme, server, kind, good)

        calls = {"per_item": 0}
        real = sched.serve_request

        def counting(*args, **kwargs):
            calls["per_item"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(sched, "serve_request", counting)
        results, busy, coalesced = sched._execute_batch(scheme, server, kind, payloads)
        assert not coalesced
        assert calls["per_item"] == 3
        assert results[0] == (True,) + expected_ok
        assert results[0] == results[2]
        ok, code, detail = results[1]
        assert not ok and detail

    def test_fully_successful_batch_reports_coalesced(self):
        from repro.serve.scheduler import _execute_batch

        scheme, server = self._scheme_and_key()
        rng = random.Random(60)
        payloads = [scheme.keygen(rng).public_wire for _ in range(4)]
        results, busy, coalesced = _execute_batch(
            scheme, server, "key-agreement", payloads
        )
        assert coalesced
        assert all(ok for ok, _, _ in results)

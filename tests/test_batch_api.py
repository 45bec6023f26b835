"""Tests for the batch entry points above the field layer.

Covers the ``exponentiate_many`` seam, its shared-base path on every
backend at one-, eight- and eleven-word moduli (batch == loop, exponents
0/1 and negatives, empty and singleton batches, when the one fixed-base
table is built) and through the torus group, scheme-level batch-vs-loop
byte identity for every registry scheme on every backend, and the serve
scheduler's batch routing: which kinds coalesce, and the per-item loop
that answers every request of a mixed good/bad batch once.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import ParameterError
from repro.exp.group import FieldExpGroup
from repro.exp.strategies import exponentiate_many, exponentiate_shared_base
from repro.exp.trace import OpTrace
from repro.field import PrimeField, WordCountingBackend
from repro.montgomery.domain import MontgomeryDomain
from repro.montgomery.fios import fios_word_mult_count
from repro.pkc import get_scheme
from repro.pkc.base import KEY_AGREEMENT, SIGNATURE
from repro.pkc.registry import available_schemes
from repro.torus.t6 import T6Group

P32 = 2494740737  # toy-32 CEILIDH prime (p = 2 mod 9)
P127 = (1 << 127) - 1  # multi-word: exercises the Montgomery word paths
P170 = 1109485483118704838530651968604888341434144398802927  # ceilidh-170 p

BACKENDS = ("plain", "montgomery", "word-counting")


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
# The shared-base path: batch == loop on every backend and width.
# ---------------------------------------------------------------------------


def _fp_group(p, backend):
    field = PrimeField(p, check_prime=False, backend=backend)
    return field, FieldExpGroup(field)


class TestSharedBaseBatch:
    @pytest.mark.parametrize("p", [P32, P127, P170])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exponentiate_many_matches_loop(self, backend, p):
        field, group = _fp_group(p, backend)
        rng = random.Random(42)
        shared = field.enter(rng.randrange(2, p))
        # Mixed widths on purpose: the shared base takes the table path with
        # 0 among its wide exponents; three distinct bases take the per-item
        # path with 1, 2 and an 8-bit exponent.
        bases = [shared] + [field.enter(rng.randrange(1, p)) for _ in range(3)]
        bases += [shared, shared]
        exponents = [0, 1, 2, rng.getrandbits(8), rng.randrange(p), rng.getrandbits(200)]
        results = exponentiate_many(group, bases, exponents)
        assert results == [field.pow(base, e) for base, e in zip(bases, exponents)]
        assert [field.exit(v) for v in results] == [
            pow(field.exit(base), e, p) for base, e in zip(bases, exponents)
        ]

    @pytest.mark.parametrize("p", [P32, P127, P170])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exponentiate_shared_base_matches_loop(self, backend, p):
        field, group = _fp_group(p, backend)
        rng = random.Random(43)
        base = field.enter(rng.randrange(2, p))
        exponents = [0, 1, rng.getrandbits(30), rng.randrange(p), rng.getrandbits(190)]
        results = exponentiate_shared_base(group, base, exponents)
        assert results == [field.pow(base, e) for e in exponents]
        assert [field.exit(v) for v in results] == [
            pow(field.exit(base), e, p) for e in exponents
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_exponents(self, backend):
        field, group = _fp_group(P127, backend)
        rng = random.Random(44)
        bases = [field.enter(rng.randrange(1, P127)) for _ in range(4)]
        exponents = [-1, -rng.getrandbits(60), 5, -3]
        assert exponentiate_many(group, bases, exponents) == [
            field.pow(base, e) for base, e in zip(bases, exponents)
        ]
        assert exponentiate_shared_base(group, bases[0], exponents) == [
            field.pow(bases[0], e) for e in exponents
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_and_singleton(self, backend):
        field, group = _fp_group(P32, backend)
        base = field.enter(5)
        assert exponentiate_shared_base(group, base, []) == []
        assert exponentiate_shared_base(group, base, [123]) == [field.pow(base, 123)]
        assert exponentiate_many(group, [base], [1 << 40]) == [field.pow(base, 1 << 40)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_table_only_for_wide_batches(self, backend, monkeypatch):
        from repro.exp import strategies

        tables = []
        real = strategies.FixedBaseTable

        class Counting(real):
            def __init__(self, *args, **kwargs):
                tables.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(strategies, "FixedBaseTable", Counting)
        field, group = _fp_group(P127, backend)
        base = field.enter(3)
        wide = [random.Random(49).getrandbits(80) for _ in range(4)]
        # Two or more exponents of 17+ bits share one table...
        assert exponentiate_shared_base(group, base, wide) == [
            field.pow(base, e) for e in wide
        ]
        assert len(tables) == 1
        # ...while a lone wide exponent or a batch of narrow ones builds none.
        exponentiate_shared_base(group, base, wide[:1])
        exponentiate_shared_base(group, base, [0, 5, (1 << 16) - 1])
        assert len(tables) == 1

    def test_word_counting_batch_still_tallies(self):
        spec = WordCountingBackend()
        field = PrimeField(P32, check_prime=False, backend=spec)
        group = FieldExpGroup(field)
        a, b = field.enter(123456), field.enter(654321)
        spec.stream.reset()
        exponentiate_many(group, [a, b, a], [1 << 20, (1 << 20) + 7, 1 << 19])
        assert spec.stream.modular_mults > 20
        assert spec.stream.word_mults == spec.stream.modular_mults * fios_word_mult_count(
            MontgomeryDomain(P32).num_words
        )


class TestTorusBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exponentiate_many_matches_loop(self, backend, toy32_params):
        group = T6Group(toy32_params, backend=backend)
        rng = random.Random(57)
        shared, other = group.random_element(rng), group.random_element(rng)
        q = group.subgroup_order
        # The shared base gets a subgroup-wide, a negative and a wider-than-p
        # exponent (one table); the other base rides the per-item path.
        bases = [shared, other, shared, shared, other]
        exponents = [rng.randrange(q), 7, -rng.randrange(q), rng.getrandbits(80), 0]
        assert group.exponentiate_many(bases, exponents) == [
            group.exponentiate(base, e) for base, e in zip(bases, exponents)
        ]
        batched, looped = OpTrace(), OpTrace()
        group.exponentiate_many(bases, exponents, count=batched)
        for base, e in zip(bases, exponents):
            group.exponentiate(base, e, count=looped)
        assert batched.squarings < looped.squarings

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exponentiate_shared_base_matches_loop(self, backend, toy32_params):
        group = T6Group(toy32_params, backend=backend)
        rng = random.Random(58)
        base = group.random_element(rng)
        exponents = [0, 1, -5, rng.randrange(group.subgroup_order), rng.getrandbits(70)]
        assert group.exponentiate_shared_base(base, exponents) == [
            group.exponentiate(base, e) for e in exponents
        ]


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

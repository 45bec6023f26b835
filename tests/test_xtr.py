"""Tests for the XTR extension (trace representation, ladder, key agreement).

The trace recurrences are validated against *direct* computation of
Tr(g^n) through full Fp6 arithmetic, which makes these tests an independent
check of both the ladder and the tower/trace machinery.
"""

import random

import pytest

from repro.errors import ParameterError
from repro.exp.trace import OpTrace
from repro.field.backend import get_backend
from repro.torus.params import get_parameters
from repro.torus.t6 import T6Group
from repro.xtr.keyagreement import XtrSystem
from repro.xtr.trace import XtrContext


@pytest.fixture(scope="module")
def context32():
    return XtrContext(get_parameters("toy-32"))


@pytest.fixture(scope="module")
def group32():
    return T6Group(get_parameters("toy-32"))


class TestTraceIdentities:
    def test_trace_of_identity_is_three(self, context32, group32):
        trace = context32.trace_of_fp6(group32.identity().value)
        assert trace.coefficients == (3, 0)

    def test_ladder_matches_direct_traces_small_exponents(self, context32, group32):
        g = group32.generator()
        base = context32.trace_of_fp6(g.value)
        for exponent in range(0, 20):
            direct = context32.trace_of_fp6((g ** exponent).value)
            laddered = context32.exponentiate(base, exponent)
            assert laddered == direct, f"mismatch at exponent {exponent}"

    def test_ladder_matches_direct_traces_random_exponents(self, context32, group32, rng):
        g = group32.generator()
        base = context32.trace_of_fp6(g.value)
        for _ in range(5):
            exponent = rng.randrange(1, 1 << 28)
            direct = context32.trace_of_fp6((g ** exponent).value)
            assert context32.exponentiate(base, exponent) == direct

    def test_negative_exponent_is_conjugate(self, context32, group32):
        g = group32.generator()
        base = context32.trace_of_fp6(g.value)
        minus = context32.exponentiate(base, -7)
        direct = context32.trace_of_fp6((g ** -7).value)
        assert minus == direct

    def test_trace_is_invariant_on_conjugates(self, context32, group32, rng):
        g = group32.generator()
        element = g ** rng.randrange(2, 1 << 20)
        conjugate = element.frobenius(2)
        assert context32.trace_of_fp6(element.value) == context32.trace_of_fp6(conjugate.value)

    def test_ladder_at_170_bits(self):
        params = get_parameters("ceilidh-170")
        context = XtrContext(params)
        group = T6Group(params)
        g = group.generator()
        base = context.trace_of_fp6(g.value)
        exponent = 0xDEADBEEFCAFEBABE
        direct = context.trace_of_fp6((g ** exponent).value)
        assert context.exponentiate(base, exponent) == direct

    def test_operation_count_estimate(self, context32):
        assert context32.ladder_multiplication_count(170) == 680


#: Per exponent on toy-32, as the ExtElement ladder this one replaced counted
#: them: (OpTrace squarings, OpTrace multiplications, and the word-counting
#: stream's modular_mults, modular_adds, modular_subs, word_mults,
#: word_adds, final_subtractions).  A ladder that skips, reorders or adds a
#: step moves one of them.
_Q32 = get_parameters("toy-32").q
_RANDOM32 = random.Random(2100)
LADDER_TALLIES = {
    0: (0, 0, (0, 0, 1, 0, 4, 0)),
    1: (0, 0, (0, 0, 1, 0, 4, 0)),
    2: (1, 0, (3, 4, 8, 30, 82, 1)),
    3: (3, 4, (21, 24, 46, 210, 482, 5)),
    _Q32 - 1: (54, 156, (630, 684, 1315, 6300, 13856, 88)),
    -7: (5, 8, (39, 44, 85, 390, 868, 7)),
}
for _tallies in (
    (60, 152, (636, 696, 1333, 6360, 14034, 90)),
    (57, 152, (627, 684, 1312, 6270, 13772, 99)),
    (59, 152, (633, 692, 1326, 6330, 13940, 102)),
):
    LADDER_TALLIES[_RANDOM32.randrange(4, _Q32)] = _tallies


class TestLadderOnCoefficientPairs:
    """The pair ladder on every backend: Fp6 truth, tallies and word stream."""

    @pytest.mark.parametrize("backend", ["plain", "montgomery", "word-counting"])
    def test_matches_fp6_power_with_unchanged_counts(self, backend):
        params = get_parameters("toy-32")
        spec = get_backend(backend)
        context = XtrContext(params, backend=spec)
        g = T6Group(params, backend=spec).generator()
        base = context.trace_of_fp6(g.value)
        for exponent, (squarings, multiplications, stream) in LADDER_TALLIES.items():
            direct = context.trace_of_fp6((g ** exponent).value)
            trace = OpTrace()
            if backend == "word-counting":
                spec.stream.reset()
            assert context.exponentiate(base, exponent, trace=trace) == direct, exponent
            assert (trace.squarings, trace.multiplications) == (squarings, multiplications)
            if backend == "word-counting":
                counted = spec.stream.as_dict()
                assert counted["inversions"] == 0
                assert tuple(
                    counted[key]
                    for key in (
                        "modular_mults", "modular_adds", "modular_subs",
                        "word_mults", "word_adds", "final_subtractions",
                    )
                ) == stream, exponent


class TestXtrKeyAgreement:
    def test_shared_secret(self):
        system = XtrSystem(get_parameters("toy-32"))
        rng = random.Random(1)
        alice = system.generate_keypair(rng)
        bob = system.generate_keypair(rng)
        assert system.shared_trace(alice, bob.public) == system.shared_trace(bob, alice.public)

    def test_derived_keys_agree(self):
        system = XtrSystem(get_parameters("toy-32"))
        rng = random.Random(2)
        alice = system.generate_keypair(rng)
        bob = system.generate_keypair(rng)
        assert system.derive_key(alice, bob.public) == system.derive_key(bob, alice.public)

    def test_third_party_disagrees(self):
        system = XtrSystem(get_parameters("toy-32"))
        rng = random.Random(3)
        alice, bob, eve = (system.generate_keypair(rng) for _ in range(3))
        assert system.shared_trace(eve, bob.public) != system.shared_trace(alice, bob.public)

    def test_wire_encoding_roundtrip(self):
        system = XtrSystem(get_parameters("toy-32"))
        rng = random.Random(4)
        keypair = system.generate_keypair(rng)
        data = system.encode_trace(keypair.public)
        assert len(data) == system.public_size_bytes()
        assert system.decode_trace(data) == keypair.public

    def test_decode_rejects_bad_lengths_and_ranges(self):
        system = XtrSystem(get_parameters("toy-32"))
        with pytest.raises(ParameterError):
            system.decode_trace(b"\x00")
        width = system.public_size_bytes() // 2
        too_big = system.params.p.to_bytes(width, "big") * 2
        with pytest.raises(ParameterError):
            system.decode_trace(too_big)

    def test_same_bandwidth_as_ceilidh(self):
        from repro.torus.encoding import compressed_size_bytes

        params = get_parameters("ceilidh-170")
        assert XtrSystem(params).public_size_bytes() == compressed_size_bytes(params)

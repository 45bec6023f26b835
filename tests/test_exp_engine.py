"""Tests for the unified exponentiation engine (repro.exp).

Covers the strategy registry, cross-strategy/cross-group agreement against a
naive square-and-multiply reference, the batch entry points on every group
kind, the unified OpTrace, fixed-base tables, Shamir double
exponentiation, the torus's Frobenius split, and the headline cost claims:
wNAF uses >= 20% fewer general multiplications than binary at 160-bit
exponents on both T6 and ECC, and one Shamir double exponentiation beats two
independent exponentiations.
"""

import random

import pytest

from repro.errors import ParameterError
from repro.exp import (
    FieldExpGroup,
    FixedBaseTable,
    JacobianExpGroup,
    MontgomeryExpGroup,
    OpTrace,
    PolyModExpGroup,
    TorusExpGroup,
    available_strategies,
    double_exponentiate,
    expected_counts,
    exponentiate,
    exponentiate_many,
    exponentiate_shared_base,
    get_strategy,
    select_strategy,
)
from repro.exp.strategies import CACHED_TABLE_WIDTH, fixed_base_width
from repro.field import poly as P
from repro.field.fp import PrimeField
from repro.field.fp6 import make_fp6
from repro.field.opcount import CountingPrimeField, OperationCounts
from repro.field.towers import TowerFp6
from repro.montgomery.domain import MontgomeryDomain


# ---------------------------------------------------------------------------
# Reference: naive square-and-multiply written directly against the group.
# ---------------------------------------------------------------------------


def naive_power(group, base, exponent):
    if exponent < 0:
        return naive_power(group, group.inverse(base), -exponent)
    result = group.identity()
    acc = base
    while exponent:
        if exponent & 1:
            result = group.op(result, acc)
        acc = group.square(acc)
        exponent >>= 1
    return result


def make_groups(toy32_group, toy_curve, rng):
    """(group, random-element, equality) triples spanning every layer."""
    fp = PrimeField(10007)
    fp6 = make_fp6(PrimeField(toy32_group.params.p, check_prime=False))
    tower = TowerFp6(PrimeField(toy32_group.params.p, check_prime=False))
    domain = MontgomeryDomain(10007, word_bits=8)
    curve, generator = toy_curve.build()
    poly_field = PrimeField(10007)
    poly_modulus = [2, 0, 1]  # t^2 + 2, irreducible mod 10007 (-2 is a non-residue)

    def poly_sample():
        while True:
            candidate = [rng.randrange(10007), rng.randrange(10007)]
            if P.trim(candidate):
                return candidate

    jacobian = JacobianExpGroup(curve)
    return [
        (FieldExpGroup(fp), lambda: rng.randrange(1, 10007), lambda a, b: a == b),
        (
            ExtensionGroupForTest(fp6),
            lambda: fp6.random_nonzero(rng),
            lambda a, b: a == b,
        ),
        (
            TowerGroupForTest(tower),
            lambda: tower.element(tower.fp3.random_nonzero(rng), tower.fp3.random_element(rng)),
            lambda a, b: a == b,
        ),
        (
            PolyModExpGroup(poly_field, poly_modulus),
            poly_sample,
            lambda a, b: P.trim(a) == P.trim(b),
        ),
        (
            TorusExpGroup(toy32_group),
            lambda: toy32_group.random_element(rng).value,
            lambda a, b: a == b,
        ),
        (
            MontgomeryExpGroup(domain),
            lambda: domain.to_montgomery(rng.randrange(1, 10007)),
            lambda a, b: a == b,
        ),
        (
            jacobian,
            lambda: generator.to_jacobian(),
            lambda a, b: a == b,
        ),
    ]


#: ``make_groups`` order, for parametrizing over one group kind per test.
GROUP_KINDS = ("fp", "fp6", "tower", "poly", "torus", "montgomery", "jacobian")


def ExtensionGroupForTest(fp6):
    from repro.exp.group import ExtensionExpGroup

    return ExtensionExpGroup(fp6)


def TowerGroupForTest(tower):
    from repro.exp.group import TowerExpGroup

    return TowerExpGroup(tower)


# ---------------------------------------------------------------------------
# Cross-strategy x cross-group agreement.
# ---------------------------------------------------------------------------


class TestCrossStrategyAgreement:
    def test_every_strategy_on_every_group(self, toy32_group, toy_curve, rng):
        """Property test: all strategies match naive square-and-multiply on
        random inputs in Fp, Fp6, the tower, a polynomial ring, T6(Fp), the
        Montgomery domain and E(Fp)."""
        strategies = available_strategies()
        assert set(strategies) >= {
            "binary",
            "naf",
            "wnaf",
            "sliding",
            "window",
            "ladder",
            "fixed_base",
        }
        for group, sample, equal in make_groups(toy32_group, toy_curve, rng):
            for _ in range(3):
                base = sample()
                exponent = rng.randrange(1, 1 << rng.randrange(4, 48))
                reference = naive_power(group, base, exponent)
                for strategy in strategies:
                    result = exponentiate(group, base, exponent, strategy=strategy)
                    assert equal(result, reference), (group.name, strategy, exponent)

    def test_edge_exponents(self, toy32_group, toy_curve, rng):
        for group, sample, equal in make_groups(toy32_group, toy_curve, rng):
            base = sample()
            for strategy in available_strategies():
                assert group.is_identity(
                    exponentiate(group, base, 0, strategy=strategy)
                ), (group.name, strategy)
                assert equal(exponentiate(group, base, 1, strategy=strategy), base)

    def test_negative_exponents_where_invertible(self, toy32_group, rng):
        group = TorusExpGroup(toy32_group)
        base = toy32_group.random_element(rng).value
        inverse_ref = naive_power(group, base, toy32_group.order - 5)
        for strategy in ("binary", "naf", "wnaf", "sliding"):
            assert exponentiate(group, base, -5, strategy=strategy) == inverse_ref

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ParameterError):
            get_strategy("bogus")

    def test_bad_window_rejected(self, rng):
        group = FieldExpGroup(PrimeField(10007))
        for strategy in ("wnaf", "sliding", "window"):
            with pytest.raises(ParameterError):
                exponentiate(group, 3, 99, strategy=strategy, window_bits=0)

    def test_auto_selection(self, toy32_group):
        field_group = FieldExpGroup(PrimeField(10007))
        torus_group = TorusExpGroup(toy32_group)
        p_bits = toy32_group.params.p.bit_length()
        assert select_strategy(field_group, 7) == "binary"
        assert select_strategy(field_group, 1 << 100) == "sliding"
        # The torus splits over its Frobenius only when bits(e) > bits(p).
        assert select_strategy(torus_group, 7) == "binary"
        assert select_strategy(torus_group, (1 << p_bits) - 1) == "wnaf"
        assert select_strategy(torus_group, 1 << p_bits) == "split"
        assert select_strategy(torus_group, 1 << 100) == "split"


# ---------------------------------------------------------------------------
# Batch entry points == a loop of single exponentiations, on every group.
# ---------------------------------------------------------------------------


class TestBatchEntryPoints:
    @pytest.mark.parametrize("kind", range(len(GROUP_KINDS)), ids=GROUP_KINDS)
    def test_exponentiate_many_matches_loop(self, kind, toy32_group, toy_curve, rng):
        group, sample, equal = make_groups(toy32_group, toy_curve, rng)[kind]
        shared, other = sample(), sample()
        # Runs of the shared base are found by element equality and take
        # the one-table path (two wide exponents, one of them negative);
        # the other base takes the per-item path.
        bases = [shared, other, shared, shared]
        exponents = [rng.getrandbits(40), rng.getrandbits(12), -rng.getrandbits(30), 1]
        batch = exponentiate_many(group, bases, exponents)
        assert len(batch) == len(bases)
        for value, base, e in zip(batch, bases, exponents):
            assert equal(value, naive_power(group, base, e)), (group.name, e)

    @pytest.mark.parametrize("kind", range(len(GROUP_KINDS)), ids=GROUP_KINDS)
    def test_exponentiate_shared_base_matches_loop(
        self, kind, toy32_group, toy_curve, rng
    ):
        group, sample, equal = make_groups(toy32_group, toy_curve, rng)[kind]
        base = sample()
        exponents = [0, 1, rng.getrandbits(48), -rng.getrandbits(24), rng.getrandbits(20)]
        batch = exponentiate_shared_base(group, base, exponents)
        assert len(batch) == len(exponents)
        for value, e in zip(batch, exponents):
            assert equal(value, naive_power(group, base, e)), (group.name, e)


# ---------------------------------------------------------------------------
# The Frobenius split: k = k0 + k1*p on one squaring chain.
# ---------------------------------------------------------------------------


def split_exponents(params, rng):
    p, q = params.p, params.q
    fixed = [0, 1, p - 1, p, p + 1, 3 * p, q - 1, p * p, p ** 3 + 5]
    drawn = [rng.randrange(q) for _ in range(4)]
    return fixed + drawn + [-e for e in (1, p + 1, q - 1, drawn[0])]


class TestSplit:
    @pytest.mark.parametrize("name", ["toy32_group", "ceilidh170_group"])
    def test_matches_wnaf_and_binary(self, name, request, rng):
        t6 = request.getfixturevalue(name)
        group = t6.exp_group()
        base = t6.random_subgroup_element(rng).value
        for exponent in split_exponents(t6.params, rng):
            split = exponentiate(group, base, exponent, strategy="split")
            assert split == exponentiate(group, base, exponent, strategy="wnaf"), exponent
            assert split == exponentiate(group, base, exponent, strategy="binary"), exponent

    def test_outside_the_order_q_subgroup(self, toy32_group, rng):
        """The split is an integer identity: it needs no subgroup membership."""
        group = toy32_group.exp_group()
        for _ in range(3):
            element = toy32_group.random_element(rng)
            outside = toy32_group.exponentiate(element, toy32_group.params.q, "binary")
            assert not outside.is_identity()
            base = element.value
            for exponent in split_exponents(toy32_group.params, rng):
                assert exponentiate(group, base, exponent, strategy="split") == (
                    naive_power(group, base, exponent)
                ), exponent

    def test_falls_back_to_auto_without_an_endomorphism(self, toy32_group, rng):
        field_group = FieldExpGroup(PrimeField(10007))
        exponent = rng.getrandbits(64)
        split, auto = OpTrace(), OpTrace()
        assert exponentiate(field_group, 3, exponent, strategy="split", trace=split) == (
            pow(3, exponent, 10007)
        )
        exponentiate(field_group, 3, exponent, trace=auto)
        assert split == auto
        # Exponents no wider than p run wNAF on the torus, op for op.
        torus = toy32_group.exp_group()
        base = toy32_group.random_element(rng).value
        narrow = toy32_group.params.p - 2
        split, wnaf = OpTrace(), OpTrace()
        exponentiate(torus, base, narrow, strategy="split", trace=split)
        exponentiate(torus, base, narrow, strategy="wnaf", trace=wnaf)
        assert split == wnaf

    def test_server_key_agreement_squares_at_most_bits_p_plus_one(self, ceilidh170_params):
        from repro.pkc.registry import get_scheme

        scheme = get_scheme("ceilidh-170")
        keys = random.Random(312)
        server, client = scheme.keygen(keys), scheme.keygen(keys)
        trace = OpTrace()
        secret = scheme.key_agreement(server, client.public_wire, trace=trace)
        assert secret == scheme.key_agreement(client, server.public_wire)
        # The private exponent is as wide as q (311 bits); p has 170.
        assert trace.squarings <= ceilidh170_params.p.bit_length() + 1


class TestSignedFixedBaseTable:
    """The signed fixed-window table against binary exponentiation, on every
    kind of group it serves and at every width it can pick."""

    #: Batch sizes spanning every width the cost model picks, then ``None``
    #: (a table cached with its base).
    USES = tuple(range(2, 400)) + (None,)

    @classmethod
    def tables(cls, group, base, max_bits):
        """One table per distinct width the group's tables can take."""
        tables = {}
        for uses in cls.USES:
            width = fixed_base_width(group, max_bits, uses)
            if width not in tables:
                tables[width] = FixedBaseTable(group, base, max_bits, uses=uses)
                assert tables[width].window_bits == width
        return tables

    def check(self, group, base, max_bits, exponents):
        tables = self.tables(group, base, max_bits)
        for width, table in tables.items():
            for exponent in exponents:
                expected = exponentiate(group, base, exponent, strategy="binary")
                assert table.power(exponent) == expected, (width, exponent)
        return tables

    def test_torus_split(self, toy32_group, rng):
        group = toy32_group.exp_group()
        params = toy32_group.params
        p, q = params.p, params.q
        base = toy32_group.random_element(rng).value
        wide = rng.getrandbits(3 * q.bit_length()) | 1 << (3 * q.bit_length())
        exponents = [0, 1, -1, q - 1, 1 - q, p - 1, p, p + 1, rng.randrange(q), wide,
                     p * p, p * p + rng.randrange(p), p ** 3 - 1, -(p ** 4 + 7)]
        assert sorted(self.check(group, base, q.bit_length(), exponents)) == [1, 3, 4, 5, 6]
        # The rows cover bits(p) only, not bits(q); a wider e1 extends them.
        table = FixedBaseTable(group, base, q.bit_length())
        rows = -(-p.bit_length() // CACHED_TABLE_WIDTH) + 1
        assert len(table._rows) == rows
        assert table.power(wide) == exponentiate(group, base, wide, strategy="binary")
        assert len(table._rows) > rows

    def test_jacobian(self, toy_curve, rng):
        curve, generator = toy_curve.build()
        group = JacobianExpGroup(curve)
        order = toy_curve.order
        exponents = [0, 1, -1, order - 1, order, rng.getrandbits(40), -rng.getrandbits(40)]
        tables = self.check(group, generator.to_jacobian(), order.bit_length(), exponents)
        assert sorted(tables) == [1, 4, 5, 6]

    @pytest.mark.parametrize("kind", ["fp", "montgomery"])
    def test_groups_without_free_inversion(self, kind, rng):
        p = 10007
        if kind == "fp":
            group, base = FieldExpGroup(PrimeField(p)), 5
        else:
            domain = MontgomeryDomain(p, word_bits=8)
            group, base = MontgomeryExpGroup(domain), domain.to_montgomery(5)
        exponents = [0, 1, -1, p - 2, rng.getrandbits(14), rng.getrandbits(60)]
        tables = self.check(group, base, 14, exponents)
        # Width 1 with unsigned digits: such tables never invert.
        assert sorted(tables) == [1]
        trace = OpTrace()
        tables[1].power(rng.getrandbits(90), trace=trace)
        assert trace.inversions == 0 and trace.squarings > 0  # the rows extended

    def test_cheapest_width_for_two_powers_is_one(self, ceilidh170_group):
        group = ceilidh170_group.exp_group()
        assert fixed_base_width(group, 311, 2) == 1
        assert fixed_base_width(group, 311, None) == CACHED_TABLE_WIDTH == 4

    @pytest.mark.parametrize("bits", [160, 311])
    def test_mean_products_match_the_model(self, bits, ceilidh170_group):
        """200 seeded powers from the cached-width table average within 5%
        of expected_counts("fixed_base", n); 311 bits takes the split."""
        table = FixedBaseTable(
            ceilidh170_group.exp_group(), ceilidh170_group.generator().value, bits
        )
        rng = random.Random(bits)
        online = OpTrace()
        for _ in range(200):
            table.power(rng.getrandbits(bits) | 1 << (bits - 1), trace=online)
        model = expected_counts("fixed_base", bits)
        assert online.squarings == model.squarings == 0
        assert abs(online.multiplications / 200 - model.multiplications) <= (
            0.05 * model.multiplications
        )


# ---------------------------------------------------------------------------
# The unified trace.
# ---------------------------------------------------------------------------


class TestOpTrace:
    def test_arithmetic_and_merge(self):
        a = OpTrace(3, 2, 1)
        b = OpTrace(1, 1, 0)
        assert (a + b).as_dict() == {"squarings": 4, "multiplications": 3, "inversions": 1}
        assert (a - b).squarings == 2
        a.merge(b)
        assert a.squarings == 4
        a.reset()
        assert a.total == 0

    def test_to_operation_counts_default(self):
        trace = OpTrace(squarings=10, multiplications=4)
        counts = trace.to_operation_counts()
        assert isinstance(counts, OperationCounts)
        assert counts.mul == 14

    def test_to_operation_counts_with_costs(self):
        # One Fp6 multiplication is 18M + ~60A (the paper's Table 2 unit).
        fp6_mul = OperationCounts(mul=18, add=30, sub=30)
        trace = OpTrace(squarings=2, multiplications=1)
        counts = trace.to_operation_counts(mul_cost=fp6_mul)
        assert counts.mul == 3 * 18
        assert counts.additions_total == 3 * 60

    def test_counting_field_pow_binary_charge(self):
        field = CountingPrimeField(10007)
        field.reset_counts()
        field.pow(3, 0b101101)
        assert field.counts.mul == (6 - 1) + (4 - 1)

    def test_operation_counts_sub_keeps_extra(self):
        a = OperationCounts(mul=5, extra={"frobenius": 3})
        b = OperationCounts(mul=2, extra={"frobenius": 1})
        delta = a - b
        assert delta.mul == 3
        assert delta.extra == {"frobenius": 2}
        total = a + b
        assert total.extra == {"frobenius": 4}
        assert a.scaled(2).extra == {"frobenius": 6}


# ---------------------------------------------------------------------------
# Cost claims: the reason the engine exists.
# ---------------------------------------------------------------------------


class TestCostClaims:
    def test_wnaf_beats_binary_on_torus_160bit(self, toy32_group):
        rng = random.Random(160)
        element = toy32_group.random_element(rng)
        exponent = rng.randrange(1 << 159, 1 << 160)
        binary, wnaf = OpTrace(), OpTrace()
        reference = toy32_group.exponentiate(element, exponent, "binary", count=binary)
        fast = toy32_group.exponentiate(element, exponent, "wnaf", count=wnaf)
        assert fast == reference
        # >= 20% fewer general Fp6 multiplications (squarings stay ~equal).
        assert wnaf.multiplications <= 0.8 * binary.multiplications
        assert wnaf.total < binary.total

    def test_wnaf_beats_binary_on_ecc_160bit(self, toy_curve):
        from repro.ecc.scalar import scalar_mult

        rng = random.Random(161)
        _, generator = toy_curve.build()
        scalar = rng.randrange(1 << 159, 1 << 160)
        binary, wnaf = OpTrace(), OpTrace()
        reference = scalar_mult(generator, scalar, "binary", binary)
        fast = scalar_mult(generator, scalar, "wnaf", wnaf)
        assert fast == reference
        assert wnaf.multiplications <= 0.8 * binary.multiplications
        assert wnaf.total < binary.total

    def test_sliding_beats_binary_at_rsa_sizes(self):
        domain = MontgomeryDomain(10007, word_bits=8)
        rng = random.Random(1024)
        exponent = rng.randrange(1 << 1023, 1 << 1024)
        from repro.montgomery.exponent import montgomery_power

        binary, sliding = OpTrace(), OpTrace()
        ref = montgomery_power(domain, 1234, exponent, strategy="binary", trace=binary)
        fast = montgomery_power(domain, 1234, exponent, strategy="sliding", trace=sliding)
        assert ref == fast == pow(1234, exponent, 10007)
        assert sliding.multiplications <= 0.8 * binary.multiplications

    def test_shamir_beats_two_exponentiations(self, toy32_group):
        rng = random.Random(77)
        a = toy32_group.random_element(rng).value
        b = toy32_group.random_element(rng).value
        ea = rng.randrange(1 << 159, 1 << 160)
        eb = rng.randrange(1 << 159, 1 << 160)
        group = toy32_group.exp_group()
        shamir, separate = OpTrace(), OpTrace()
        combined = double_exponentiate(group, a, ea, b, eb, trace=shamir)
        left = exponentiate(group, a, ea, strategy="binary", trace=separate)
        right = exponentiate(group, b, eb, strategy="binary", trace=separate)
        assert combined == left * right
        assert shamir.total < separate.total

    def test_fixed_base_table_has_no_online_squarings(self, toy32_group):
        rng = random.Random(99)
        group = toy32_group.exp_group()
        generator = toy32_group.generator()
        q_bits = toy32_group.params.q.bit_length()
        table = FixedBaseTable(group, generator.value, q_bits)
        online = OpTrace()
        exponent = rng.randrange(1, toy32_group.params.q)
        result = table.power(exponent, trace=online)
        assert result == toy32_group.exponentiate(generator, exponent, "binary").value
        assert online.squarings == 0
        assert online.multiplications < exponent.bit_length()

    def test_generator_power_matches_exponentiate(self, toy32_group, rng):
        exponent = rng.randrange(1, toy32_group.params.q)
        assert toy32_group.generator_power(exponent) == toy32_group.exponentiate(
            toy32_group.generator(), exponent
        )

    def test_expected_counts_model(self):
        binary = expected_counts("binary", 170)
        wnaf = expected_counts("wnaf", 170, window_bits=4)
        assert binary.squarings == 169 and binary.multiplications == 84
        assert wnaf.multiplications < 0.8 * binary.multiplications
        shamir = expected_counts("shamir", 170)
        assert shamir.total < 2 * binary.total
        with pytest.raises(ParameterError):
            expected_counts("bogus", 170)


# ---------------------------------------------------------------------------
# Protocol integration: the new scenarios the engine unlocks.
# ---------------------------------------------------------------------------


class TestProtocolIntegration:
    def test_ecdsa_verify_uses_double_scalar_mult(self, rng):
        from repro.ecc.curves import get_curve
        from repro.ecc.ecdh import ecdh_generate, ecdsa_sign, ecdsa_verify
        from repro.ecc.scalar import double_scalar_mult, scalar_mult

        named = get_curve("secp160r1")
        keypair = ecdh_generate(named, rng)
        signature = ecdsa_sign(keypair, b"engine", rng)
        assert ecdsa_verify(named, keypair.public, b"engine", signature)
        assert not ecdsa_verify(named, keypair.public, b"tampered", signature)

        # Degenerate scalars fall back to single multiplications.
        _, generator = named.build()
        assert double_scalar_mult(generator, 0, keypair.public, 5) == scalar_mult(
            keypair.public, 5
        )
        assert double_scalar_mult(generator, 5, keypair.public, 0) == scalar_mult(
            generator, 5
        )

    def test_ceilidh_roundtrip_still_works(self, toy32_params, rng):
        from repro.torus.ceilidh import CeilidhSystem

        system = CeilidhSystem(toy32_params)
        keypair = system.generate_keypair(rng)
        signature = system.sign(keypair, b"fixed-base", rng)
        assert system.verify(keypair.public, b"fixed-base", signature)
        ciphertext = system.encrypt(keypair.public, b"hello torus", rng)
        assert system.decrypt(keypair, ciphertext) == b"hello torus"

    def test_torus_shamir_helper(self, toy32_group, rng):
        a = toy32_group.random_element(rng)
        b = toy32_group.random_element(rng)
        ea, eb = rng.randrange(1 << 40), rng.randrange(1 << 40)
        combined = toy32_group.double_exponentiate(a, ea, b, eb)
        assert combined == toy32_group.exponentiate(a, ea) * toy32_group.exponentiate(b, eb)

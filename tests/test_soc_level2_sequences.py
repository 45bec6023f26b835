"""Tests for the level-2 IR and the Fp6 / ECC operation sequences."""

import pytest

from repro.errors import ParameterError
from repro.field.fp import PrimeField
from repro.field.fp6 import make_fp6
from repro.montgomery.domain import MontgomeryDomain
from repro.soc.level2 import Level2Program, SoftwareBackend
from repro.soc.sequences import (
    ecc_point_addition_program,
    ecc_point_doubling_program,
    ecc_point_from_memory,
    ecc_point_memory,
    fp6_multiplication_program,
    lazy_mode_headroom_ok,
    run_fp6_multiplication,
)


class TestLevel2Ir:
    def test_program_building_and_counts(self):
        program = Level2Program(name="demo", inputs=("a", "b"), outputs=("c",))
        program.mm("t", "a", "b")
        program.ma("c", "t", "a")
        program.ms("c", "c", "b")
        counts = program.counts()
        assert counts.mm == 1 and counts.ma == 1 and counts.ms == 1
        assert counts.total == 3 and counts.additions_total == 2
        assert len(program) == 3
        assert program.operand_names() == ["t", "a", "b", "c"]

    def test_execute_with_software_backend(self, toy32_params, rng):
        domain = MontgomeryDomain(toy32_params.p, word_bits=16)
        backend = SoftwareBackend(domain)
        program = Level2Program(name="demo", inputs=("a", "b"))
        program.ma("c", "a", "b")
        memory = {"a": 5, "b": 7}
        program.execute(backend, memory)
        assert memory["c"] == 12

    def test_missing_input_detected(self, toy32_params):
        domain = MontgomeryDomain(toy32_params.p, word_bits=16)
        program = Level2Program(name="demo", inputs=("a",))
        program.ma("c", "a", "a")
        with pytest.raises(ParameterError):
            program.execute(SoftwareBackend(domain), {})

    def test_modop_repr(self):
        program = Level2Program(name="demo")
        program.mm("c", "a", "b", comment="product")
        assert "MM c, a, b" in repr(program.operations[0])


class TestFp6Sequence:
    def test_operation_counts_match_paper(self):
        counts = fp6_multiplication_program().counts()
        assert counts.mm == 18  # the paper's 18M
        assert 55 <= counts.additions_total <= 70  # the paper quotes ~60A

    def test_matches_field_arithmetic(self, toy32_params, rng):
        field = PrimeField(toy32_params.p)
        fp6 = make_fp6(field)
        domain = MontgomeryDomain(toy32_params.p, word_bits=16)
        backend = SoftwareBackend(domain)
        for _ in range(10):
            a, b = fp6.random_element(rng), fp6.random_element(rng)
            result = run_fp6_multiplication(backend, domain, fp6, a, b)
            assert result == fp6.mul(a, b)

    def test_matches_field_arithmetic_170(self, ceilidh170_params, rng):
        field = PrimeField(ceilidh170_params.p)
        fp6 = make_fp6(field)
        domain = MontgomeryDomain(ceilidh170_params.p, word_bits=16)
        backend = SoftwareBackend(domain)
        a, b = fp6.random_element(rng), fp6.random_element(rng)
        assert run_fp6_multiplication(backend, domain, fp6, a, b) == fp6.mul(a, b)

    def test_headroom_analysis(self, ceilidh170_params):
        assert lazy_mode_headroom_ok(MontgomeryDomain(ceilidh170_params.p, word_bits=16))
        from repro.ecc.curves import SECP160R1

        assert not lazy_mode_headroom_ok(MontgomeryDomain(SECP160R1.p, word_bits=16))


class TestEccSequences:
    def test_doubling_matches_reference(self, toy_curve, rng):
        curve, generator = toy_curve.build()
        domain = MontgomeryDomain(curve.field.p, word_bits=16)
        backend = SoftwareBackend(domain)
        program = ecc_point_doubling_program()
        jacobian = generator.to_jacobian()
        memory = ecc_point_memory(
            domain, {"X1": jacobian.x, "Y1": jacobian.y, "Z1": jacobian.z, "a": curve.a}
        )
        program.execute(backend, memory)
        x3, y3, z3 = ecc_point_from_memory(domain, memory)
        expected = jacobian.double()
        from repro.ecc.point import JacobianPoint

        assert JacobianPoint(curve, x3, y3, z3) == expected

    def test_addition_matches_reference(self, toy_curve, rng):
        curve, generator = toy_curve.build()
        domain = MontgomeryDomain(curve.field.p, word_bits=16)
        backend = SoftwareBackend(domain)
        program = ecc_point_addition_program()
        p1 = generator.to_jacobian()
        p2 = generator.double().double().to_jacobian()
        memory = ecc_point_memory(
            domain,
            {"X1": p1.x, "Y1": p1.y, "Z1": p1.z, "X2": p2.x, "Y2": p2.y, "Z2": p2.z},
        )
        program.execute(backend, memory)
        x3, y3, z3 = ecc_point_from_memory(domain, memory)
        from repro.ecc.point import JacobianPoint

        assert JacobianPoint(curve, x3, y3, z3) == p1.add(p2)

    def test_addition_matches_on_160_bit_curve(self, rng):
        from repro.ecc.curves import SECP160R1
        from repro.ecc.point import JacobianPoint
        from repro.ecc.scalar import scalar_mult

        curve, generator = SECP160R1.build()
        domain = MontgomeryDomain(curve.field.p, word_bits=16)
        backend = SoftwareBackend(domain)
        p1 = scalar_mult(generator, 12345, "binary").to_jacobian()
        p2 = scalar_mult(generator, 67890, "binary").to_jacobian()
        memory = ecc_point_memory(
            domain,
            {"X1": p1.x, "Y1": p1.y, "Z1": p1.z, "X2": p2.x, "Y2": p2.y, "Z2": p2.z},
        )
        ecc_point_addition_program().execute(backend, memory)
        x3, y3, z3 = ecc_point_from_memory(domain, memory)
        assert JacobianPoint(curve, x3, y3, z3) == p1.add(p2)

    def test_operation_counts(self):
        pa = ecc_point_addition_program().counts()
        pd = ecc_point_doubling_program().counts()
        assert pa.mm == 16 and pa.additions_total == 7
        assert pd.mm == 10 and pd.additions_total == 13
        # Point addition is more multiplication-heavy than doubling, as in Table 2.
        assert pa.mm > pd.mm

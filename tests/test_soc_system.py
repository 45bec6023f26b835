"""Tests for the top-level Platform object."""

import pytest

from repro.errors import ParameterError
from repro.ecc.curves import SECP160R1
from repro.ecc.point import JacobianPoint
from repro.field.fp import PrimeField
from repro.field.fp6 import make_fp6
from repro.soc.sequences import fp6_multiplication_program
from repro.soc.system import OperationTiming, Platform, PlatformConfig, default_rsa_modulus
from repro.torus.params import CEILIDH_170


class TestDefaults:
    def test_default_rsa_modulus_is_deterministic(self):
        assert default_rsa_modulus(1024) == default_rsa_modulus(1024)
        assert default_rsa_modulus(1024).bit_length() == 1024
        assert default_rsa_modulus(1024) % 2 == 1

    def test_engines_are_cached(self, platform, toy64_params):
        assert platform.engine_for(toy64_params.p) is platform.engine_for(toy64_params.p)

    def test_interrupt_round_trip(self, platform):
        assert platform.interrupt_round_trip_cycles == 184


class TestTable1Measurements:
    def test_operation_costs_shape(self, platform, toy64_params):
        costs = platform.measure_operation_costs(toy64_params.p, label="toy")
        assert costs.modular_mult > costs.modular_sub >= costs.modular_add > 0

    def test_torus_operation_costs(self, platform):
        costs = platform.measure_operation_costs(CEILIDH_170.p)
        # Within a factor ~2 of the paper's Table 1 values and with its shape.
        assert 150 <= costs.modular_mult <= 400
        assert 35 <= costs.modular_add <= 100
        assert costs.modular_mult > 4 * costs.modular_add


class TestTable2Composition:
    def test_fp6_sequence_costs(self, platform):
        cost = platform.fp6_multiplication_cost(CEILIDH_170.p)
        assert cost.operations == 82
        assert cost.type_b_cycles < cost.type_a_cycles
        assert 2.0 < cost.speedup < 5.0  # paper: 3.78

    def test_ecc_point_costs(self, platform):
        pa, pd = platform.ecc_point_costs(SECP160R1.p)
        assert pa.type_a_cycles > pd.type_a_cycles  # PA has more multiplications
        assert pa.type_b_cycles > pd.type_b_cycles
        assert pd.type_a_cycles / pd.type_b_cycles > 1.5


class TestTable3Composition:
    def test_torus_timing(self, platform):
        timing = platform.torus_exponentiation_timing(CEILIDH_170)
        assert isinstance(timing, OperationTiming)
        assert timing.group_operations == 253
        assert 15 < timing.milliseconds < 50  # paper: 20 ms
        assert timing.area_slices == 5419

    def test_rsa_timing(self, platform):
        timing = platform.rsa_exponentiation_timing(1024)
        assert 80 < timing.milliseconds < 160  # paper: 96 ms

    def test_ecc_timing(self, platform):
        timing = platform.ecc_scalar_multiplication_timing(SECP160R1)
        assert 7 < timing.milliseconds < 25  # paper: 9.4 ms

    def test_paper_orderings_hold(self, platform):
        torus = platform.torus_exponentiation_timing(CEILIDH_170)
        rsa = platform.rsa_exponentiation_timing(1024)
        ecc = platform.ecc_scalar_multiplication_timing(SECP160R1)
        # The paper's qualitative result: ECC < torus < RSA.
        assert ecc.milliseconds < torus.milliseconds < rsa.milliseconds
        assert rsa.milliseconds / torus.milliseconds > 2.5
        assert 1.5 < torus.milliseconds / ecc.milliseconds < 3.5

    def test_type_a_slower_than_type_b(self, platform):
        type_a = platform.torus_exponentiation_timing(CEILIDH_170, hierarchy="type-a")
        type_b = platform.torus_exponentiation_timing(CEILIDH_170, hierarchy="type-b")
        assert type_a.milliseconds > 2 * type_b.milliseconds


class TestHierarchyTraces:
    def test_type_a_dominated_by_interface(self, platform):
        trace = platform.hierarchy_trace(
            fp6_multiplication_program(), CEILIDH_170.p, "type-a"
        )
        assert trace.communication_fraction() > 0.5

    def test_type_b_dominated_by_compute(self, platform):
        trace = platform.hierarchy_trace(
            fp6_multiplication_program(), CEILIDH_170.p, "type-b"
        )
        assert trace.communication_fraction() < 0.2

    def test_unknown_hierarchy_rejected(self, platform):
        with pytest.raises(ParameterError):
            platform.hierarchy_trace(fp6_multiplication_program(), CEILIDH_170.p, "type-c")

    def test_trace_render(self, platform):
        trace = platform.hierarchy_trace(
            fp6_multiplication_program(), CEILIDH_170.p, "type-b"
        )
        text = trace.render()
        assert "compute" in text and "cycle breakdown" in text


class TestFunctionalExecution:
    def test_fp6_multiplication_through_coprocessor(self, toy64_params, rng):
        platform = Platform(PlatformConfig(num_cores=4))
        field = PrimeField(toy64_params.p)
        fp6 = make_fp6(field)
        a, b = fp6.random_element(rng), fp6.random_element(rng)
        result, cycles = platform.run_fp6_multiplication(fp6, a, b, cycle_accurate=True)
        assert result == fp6.mul(a, b)
        assert cycles > 0

    def test_fp6_multiplication_software_backend(self, toy64_params, rng):
        platform = Platform()
        field = PrimeField(toy64_params.p)
        fp6 = make_fp6(field)
        a, b = fp6.random_element(rng), fp6.random_element(rng)
        result, cycles = platform.run_fp6_multiplication(fp6, a, b, cycle_accurate=False)
        assert result == fp6.mul(a, b)
        assert cycles == platform.fp6_multiplication_cost(toy64_params.p).type_b_cycles

    def test_ecc_point_operations_through_coprocessor(self, toy_curve):
        platform = Platform()
        curve, generator = toy_curve.build()
        jacobian = generator.to_jacobian()
        (x3, y3, z3), cycles = platform.run_ecc_point_operation(
            curve.field.p,
            curve.a,
            {"X1": jacobian.x, "Y1": jacobian.y, "Z1": jacobian.z},
            operation="double",
            cycle_accurate=True,
        )
        assert JacobianPoint(curve, x3, y3, z3) == jacobian.double()
        assert cycles > 0

    def test_ecc_addition_through_coprocessor(self, toy_curve):
        platform = Platform()
        curve, generator = toy_curve.build()
        p1 = generator.to_jacobian()
        p2 = generator.double().to_jacobian()
        (x3, y3, z3), _ = platform.run_ecc_point_operation(
            curve.field.p,
            curve.a,
            {"X1": p1.x, "Y1": p1.y, "Z1": p1.z, "X2": p2.x, "Y2": p2.y, "Z2": p2.z},
            operation="add",
            cycle_accurate=True,
        )
        assert JacobianPoint(curve, x3, y3, z3) == p1.add(p2)

    def test_unknown_point_operation_rejected(self, toy_curve):
        platform = Platform()
        curve, generator = toy_curve.build()
        with pytest.raises(ParameterError):
            platform.run_ecc_point_operation(curve.field.p, curve.a, {}, operation="triple")

"""Tests for the MicroBlaze interface model, the cost model and the area model."""

import pytest

from repro.soc.area import AreaModel
from repro.soc.cost import CostModel, PAPER_TABLE1
from repro.soc.level2 import Level2Program, ModOpKind
from repro.soc.microblaze import MicroBlazeInterfaceModel
from repro.soc.sequences import fp6_multiplication_program


class TestMicroBlazeInterface:
    def test_default_round_trip_matches_paper(self):
        assert MicroBlazeInterfaceModel().round_trip_cycles == 184

    def test_type_a_overhead_scales_with_operations(self):
        interface = MicroBlazeInterfaceModel()
        assert interface.type_a_overhead(78) == 78 * 184
        assert interface.type_b_overhead(1) == 184

    def test_scaled_copy(self):
        interface = MicroBlazeInterfaceModel().scaled(0.5)
        assert interface.round_trip_cycles < 184
        assert interface.round_trip_cycles >= 5


class TestCostModel:
    @pytest.fixture
    def paper_costs(self):
        return PAPER_TABLE1[170]

    def test_cost_lookup(self, paper_costs):
        assert paper_costs.cost_of(ModOpKind.MM) == 193
        assert paper_costs.cost_of(ModOpKind.MA) == 47
        assert paper_costs.cost_of(ModOpKind.MS) == 61

    def test_sequence_cost_with_paper_numbers(self, paper_costs):
        # Composing the paper's own Table 1 numbers through the hierarchy
        # reproduces the order of magnitude of its Table 2 row.
        model = CostModel(paper_costs)
        cost = model.sequence_cost(fp6_multiplication_program())
        assert cost.operations == 82
        assert 20_000 < cost.type_a_cycles < 26_000   # paper: 22348
        assert 5_000 < cost.type_b_cycles < 8_000     # paper: 5908
        assert cost.speedup > 2.9  # paper: 3.78 (our sequence has a few more A)

    def test_type_b_always_faster(self, paper_costs):
        model = CostModel(paper_costs)
        program = Level2Program(name="tiny")
        program.mm("c", "a", "b")
        program.ma("c", "c", "a")
        cost = model.sequence_cost(program)
        assert cost.type_b_cycles < cost.type_a_cycles

    def test_exponentiation_and_time_conversion(self, paper_costs):
        model = CostModel(paper_costs, clock_mhz=74.0)
        cycles = model.exponentiation_cycles(6092, squarings=169, multiplications=84)
        assert cycles == 253 * 6092
        assert model.cycles_to_ms(74_000_000) == pytest.approx(1000.0)
        assert model.cycles_to_seconds(74_000_000) == pytest.approx(1.0)

    def test_paper_composition_reproduces_table3_torus(self, paper_costs):
        # 253 group operations at the paper's Type-B cost + round trip = ~20 ms.
        model = CostModel(paper_costs, clock_mhz=74.0)
        per_op = 5908 + 184
        milliseconds = model.cycles_to_ms(model.exponentiation_cycles(per_op, 169, 84))
        assert milliseconds == pytest.approx(20.8, abs=1.0)


class TestAreaModel:
    def test_default_matches_paper(self):
        report = AreaModel().report(4)
        assert report.coprocessor_slices == 3285
        assert report.total_slices == 5419
        assert report.frequency_mhz == pytest.approx(74.0)

    def test_scaling_with_cores(self):
        model = AreaModel()
        small = model.report(2)
        large = model.report(8)
        assert small.total_slices < large.total_slices
        assert small.frequency_mhz > large.frequency_mhz
        assert large.block_rams > small.block_rams

    def test_as_dict(self):
        d = AreaModel().report(4).as_dict()
        assert d["total_slices"] == 5419
        assert d["num_cores"] == 4

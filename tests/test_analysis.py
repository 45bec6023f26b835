"""Tests for the table/figure regeneration layer."""

import pytest

from repro.analysis.figures import (
    bandwidth_comparison,
    fig1_operation_counts,
    fig2_platform_inventory,
    fig34_hierarchy_breakdown,
    fig5_parallel_speedup,
)
from repro.analysis.report import paper_vs_measured, render_table
from repro.analysis.tables import table1, table2, table3


class TestTables:
    def test_table1_rows_and_shape(self, platform):
        rows = table1(platform)
        operations = {(r.bit_length, r.operation) for r in rows}
        assert (170, "modular multiplication") in operations
        assert (160, "modular multiplication") in operations
        assert (1024, "modular multiplication") in operations
        assert (0, "interrupt handling") in operations
        for row in rows:
            assert row.measured_cycles > 0
            if row.paper_cycles:
                assert 0.5 < row.ratio < 2.5  # within ~2x of every paper figure

    def test_table2_rows(self, platform):
        rows = table2(platform)
        assert len(rows) == 6
        by_key = {(r.architecture, r.operation): r.measured_cycles for r in rows}
        # Type-B is faster than Type-A for every operation.
        for operation in ("T6 multiplication", "ECC point addition", "ECC point doubling"):
            assert by_key[("Type-B", operation)] < by_key[("Type-A", operation)]

    def test_table3_rows(self, platform):
        rows = table3(platform)
        assert len(rows) == 3
        by_name = {r.system: r for r in rows}
        torus = by_name["170-bit torus (CEILIDH)"]
        rsa = by_name["1024-bit RSA"]
        ecc = by_name["160-bit ECC"]
        assert ecc.measured_ms < torus.measured_ms < rsa.measured_ms
        assert torus.area_slices == rsa.area_slices == ecc.area_slices
        for row in rows:
            assert row.ratio is not None and 0.5 < row.ratio < 2.5


class TestFigures:
    def test_fig1_counts(self, toy32_params):
        profiles = fig1_operation_counts(toy32_params)
        by_key = {(p.level, p.operation): p.counts for p in profiles}
        assert by_key[("Fp6 (F1)", "mul (18M)")].mul == 18
        assert by_key[("Fp", "mul")].mul == 1
        assert by_key[("Fp", "add")].additions_total == 1
        # The conversion maps are linear: no Fp inversions.
        assert by_key[("F1 <-> F2", "tau")].inv == 0
        # The closed forms: the Fp3 adjugate inverts once in Fp, rho once
        # (clearing 1/(1 - alpha) through the adjugate), psi at most twice.
        assert by_key[("Fp3", "inv")].inv == 1
        assert by_key[("T6", "rho (compress)")].inv == 1
        assert by_key[("T6", "psi (decompress)")].inv <= 2

    def test_fig2_inventory(self, platform):
        inventory = fig2_platform_inventory(platform)
        assert inventory["core_instruction_count"] == 7
        assert inventory["num_cores"] == platform.config.num_cores
        assert inventory["area_slices_total"] == 5419

    def test_fig34_breakdown(self, platform):
        breakdowns = fig34_hierarchy_breakdown(platform)
        by_key = {(b.hierarchy, b.operation): b for b in breakdowns}
        t6_a = by_key[("type-a", "T6 multiplication")]
        t6_b = by_key[("type-b", "T6 multiplication")]
        assert t6_a.communication_fraction > 0.4
        assert t6_b.communication_fraction < 0.2
        assert t6_a.total_cycles > t6_b.total_cycles

    def test_fig5_speedup(self):
        points = fig5_parallel_speedup(128, [1, 2, 4])
        assert [p.num_cores for p in points] == [1, 2, 4]
        assert points[0].speedup_vs_single_core == pytest.approx(1.0)
        assert points[-1].speedup_vs_single_core > 1.5
        assert points[-1].cycles < points[0].cycles
        # Transfers appear only with more than one core.
        assert points[0].inter_core_transfers_per_mult == 0
        assert points[-1].inter_core_transfers_per_mult > 0

    def test_bandwidth_comparison(self, ceilidh170_params):
        rows = bandwidth_comparison(ceilidh170_params)
        by_system = {r.system: r for r in rows}
        ceilidh = by_system["CEILIDH (compressed T6)"]
        raw = by_system["raw Fp6 element"]
        assert ceilidh.transmitted_bits * 3 == raw.transmitted_bits
        assert ceilidh.compression_vs_fp6 == pytest.approx(3.0)
        assert ceilidh.transmitted_bits == 340


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "b"], [(1, 2.5), ("x", None)], title="demo")
        assert "demo" in text and "2.50" in text and "-" in text

    def test_paper_vs_measured(self):
        line = paper_vs_measured("MM", 300, 193)
        assert "x1.55" in line
        assert "no paper value" in paper_vs_measured("MM", 300, None)

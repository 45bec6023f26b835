"""Reproduction of the paper's tables and figures.

Each function regenerates one evaluation artefact from the simulated
platform and pairs it with the paper's published numbers so the benchmark
harness can report paper-vs-measured side by side (for Table 1 in
``benchmarks/results/table1_modular_ops.txt``).
"""

from repro.analysis.tables import (
    TABLE3_SCHEMES,
    Table1Row,
    Table2Row,
    Table3Row,
    table1,
    table2,
    table3,
    table3_profiles,
)
from repro.analysis.figures import (
    fig1_operation_counts,
    fig2_platform_inventory,
    fig34_hierarchy_breakdown,
    fig5_parallel_speedup,
    bandwidth_comparison,
)
from repro.analysis.report import render_table, paper_vs_measured

__all__ = [
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "table1",
    "table2",
    "table3",
    "table3_profiles",
    "TABLE3_SCHEMES",
    "fig1_operation_counts",
    "fig2_platform_inventory",
    "fig34_hierarchy_breakdown",
    "fig5_parallel_speedup",
    "bandwidth_comparison",
    "render_table",
    "paper_vs_measured",
]

"""repro.bench — the experiment harness regenerating the paper's results.

One entry point per table/figure (see DESIGN.md §4):

>>> from repro.bench import run_table1
>>> result = run_table1(n_queries=10)   # doctest: +SKIP
"""

from repro.bench.experiments import (
    Fig1Result,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig5Result,
    Fig6Result,
    Fig7Result,
    Table1Result,
    Table2Result,
    Table3Result,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table1,
    run_table2,
    run_table3,
)
from repro.bench.perf import (
    HotpathReport,
    LinearScanAdmission,
    LinearScanCache,
    run_equivalence,
    run_hotpaths,
)
from repro.bench.reporting import format_table
from repro.bench.semsql import SemanticSQLReport, run_semantic_sql

__all__ = [
    "HotpathReport",
    "LinearScanAdmission",
    "LinearScanCache",
    "SemanticSQLReport",
    "run_equivalence",
    "run_hotpaths",
    "run_semantic_sql",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "format_table",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table1",
    "run_table2",
    "run_table3",
]

"""Perf bench: semantic SQL operators — optimized plan vs per-row reference.

Builds two identical databases, runs the semantic-operator workload
(SEMANTIC_FILTER / SEMANTIC_JOIN...MATCHES / LLM_CLASSIFY / LLM_EXTRACT)
under the optimized pipeline (conjunct reordering + predicate pushdown +
set-at-a-time batched dispatch + exact-match semantic cache) and under the
naive per-row reference evaluator, and writes ``BENCH_semsql.json``
(``--smoke``: ``BENCH_semsql.smoke.json``, so the committed full-size
artifact is never clobbered by a CI-sized run).
Every query's rows are compared bit-exactly; any divergence fails the run:
the plan rewrite must not cost correctness.

Run standalone for the full sweep, or in CI smoke mode:

    PYTHONPATH=src python benchmarks/bench_semantic_sql.py
    PYTHONPATH=src python benchmarks/bench_semantic_sql.py --smoke

Acceptance: zero divergence, strictly fewer provider items, and lower
simulated latency than the naive evaluator.
"""

import json
import os
import sys

from repro.bench.semsql import DEFAULT_SEMSQL_REPORT_PATH, run_semantic_sql


def _report_path(smoke: bool = False) -> str:
    default = (
        DEFAULT_SEMSQL_REPORT_PATH.replace(".json", ".smoke.json")
        if smoke
        else DEFAULT_SEMSQL_REPORT_PATH
    )
    return os.environ.get("REPRO_BENCH_SEMSQL_PATH", default)


def _run(smoke: bool, write: bool = True):
    report = run_semantic_sql(
        n_products=4 if smoke else 8,
        n_reviews=12 if smoke else 48,
    )
    if write:
        report.write(_report_path(smoke))
    return report


def test_semantic_sql_equivalence_and_wins(once):
    report = once(_run, smoke=True, write=False)
    print()
    print(report.render())
    assert report.diverged == 0
    totals = report.totals
    assert totals["optimized_items"] < totals["naive_items"]
    assert totals["optimized_ms"] < totals["naive_ms"]
    # The re-run query must be answered entirely from the semantic cache.
    assert report.queries["filter_cached_rerun"]["optimized_items"] == 0
    # Every semantic join pair the naive evaluator paid for, minus the
    # relationally-pruned ones, in one batch:
    join = report.queries["semantic_join"]
    assert join["optimized_items"] < join["naive_items"]
    assert join["optimized_batches"] >= 1


def main(argv) -> int:
    smoke = "--smoke" in argv
    report = _run(smoke)
    print(report.render())
    print(f"wrote {_report_path(smoke)}")
    if report.diverged != 0:
        print(
            "FAIL: optimized semantic plan diverged from the per-row "
            "reference evaluator",
            file=sys.stderr,
        )
        return 1
    totals = report.totals
    if not totals["optimized_items"] < totals["naive_items"]:
        print("FAIL: optimized plan did not reduce provider items", file=sys.stderr)
        return 1
    if not totals["optimized_ms"] < totals["naive_ms"]:
        print("FAIL: optimized plan did not reduce simulated latency", file=sys.stderr)
        return 1
    # Validate the report round-trips as JSON.
    with open(_report_path(smoke), "r", encoding="utf-8") as handle:
        json.load(handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

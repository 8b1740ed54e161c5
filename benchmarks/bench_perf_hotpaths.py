"""Perf bench: vectorized similarity hot paths vs the seed linear scans.

Times ``SemanticCache`` lookup/put, ``AdmissionPredictor`` probes, and
few-shot selection at several cache sizes against the frozen linear-scan
references (:mod:`repro.bench.perf`), plus puts into a *full* cache (every
put evicts: seed ``min()`` scan vs eviction heap, every policy) and
embedding a text (seed per-feature loop vs direction table, 1k and 10k
texts), the edit distance of a record pair (seed dynamic program vs
bit-parallel kernel, 500 pairs) and a SQL statement reading a 40-row
primary-key window (``id + 0`` full scan vs key range, 2,000 and 20,000
rows), asserts decision-for-decision, victim-for-victim, byte-for-byte,
distance-for-distance and row-for-row equivalence, and writes
``BENCH_hotpaths.json`` so future PRs have a perf trajectory to compare
against. BLAS is pinned to one thread before numpy loads (a multi-threaded
gemv stalls for milliseconds on a shared 2-vCPU box); the artifact records
``blas_threads``.

Run standalone for the full size ladder (1k/10k/50k/100k; full-cache puts
at 1,024/8,192/65,536):

    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py
    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py --smoke  # CI

Under pytest the bench uses 1k/10k (the acceptance size) to stay fast.
"""

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

from repro.bench.perf import DEFAULT_REPORT_PATH, run_equivalence, run_hotpaths

# The headline acceptance: one vectorized probe replaces a 10k-entry Python
# loop at >= this factor, with zero decision divergence.
ACCEPTANCE_SIZE = 10_000
ACCEPTANCE_SPEEDUP = 10.0
PUT_FULL_SIZES = (1024, 8192, 65536)


def _report_path(smoke: bool = False) -> str:
    # Smoke/pytest runs time a reduced size ladder; writing them to the
    # committed artifact path would clobber the full sweep, so they get a
    # sibling .smoke.json (gitignored) instead.
    default = (
        DEFAULT_REPORT_PATH.replace(".json", ".smoke.json")
        if smoke
        else DEFAULT_REPORT_PATH
    )
    return os.environ.get("REPRO_BENCH_HOTPATHS_PATH", default)


def test_equivalence_all_policies(once):
    report = once(run_equivalence)
    assert report["diverged"] == 0
    for policy, cell in report["policies"].items():
        assert cell["diverged"] == 0, f"{policy} diverged"
        assert cell["evictions"] > 0, f"{policy} workload never evicted"
    assert report["admission"]["diverged"] == 0
    assert report["selection"]["diverged"] == 0


def test_hotpath_speedups(once):
    report = once(
        run_hotpaths, sizes=(1000, ACCEPTANCE_SIZE), write_path=_report_path(smoke=True)
    )
    print()
    print(report.render())
    assert report.diverged == 0
    assert report.speedup("cache_lookup", ACCEPTANCE_SIZE) >= ACCEPTANCE_SPEEDUP
    assert report.speedup("admission", ACCEPTANCE_SIZE) >= ACCEPTANCE_SPEEDUP
    assert report.speedup("selection_mmr", ACCEPTANCE_SIZE) >= ACCEPTANCE_SPEEDUP
    # Top-k selection is embed-bound rather than scan-bound, so the bar is
    # lower — but vectorized scoring must never lose to the Python loop.
    assert report.speedup("selection_topk", ACCEPTANCE_SIZE) >= 1.0


def main(argv) -> int:
    smoke = "--smoke" in argv
    sizes = (1000,) if smoke else (1000, 10_000, 50_000, 100_000)
    report = run_hotpaths(
        sizes=sizes,
        write_path=_report_path(smoke=smoke),
        put_full_sizes=PUT_FULL_SIZES[:2] if smoke else PUT_FULL_SIZES,
    )
    print(report.render())
    print(f"wrote {_report_path(smoke=smoke)}")
    if report.diverged != 0:
        print("FAIL: vectorized hot paths diverged from the linear scan", file=sys.stderr)
        return 1
    if not smoke and report.speedup("cache_lookup", ACCEPTANCE_SIZE) < ACCEPTANCE_SPEEDUP:
        print(
            f"FAIL: cache_lookup speedup at {ACCEPTANCE_SIZE} below "
            f"{ACCEPTANCE_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    # Smoke mode still validates the report round-trips as JSON.
    with open(_report_path(smoke=smoke), "r", encoding="utf-8") as handle:
        json.load(handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

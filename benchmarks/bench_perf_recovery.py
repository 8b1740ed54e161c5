"""Recovery bench: kill the durable serving stack at every crash index.

Runs the :func:`~repro.bench.recovery.run_recovery` sweep — an uncrashed
reference run, then a :class:`~repro.llm.faults.CrashPoint` kill at every
provider-level request index with snapshot+journal recovery and resumed
execution, plus recovery-time-vs-journal-length scaling and a warm-start
check — and writes ``BENCH_recovery.json``.

Run standalone for the full sweep, or in CI smoke mode:

    PYTHONPATH=src python benchmarks/bench_perf_recovery.py
    PYTHONPATH=src python benchmarks/bench_perf_recovery.py --smoke

Acceptance: every crashed-and-recovered run is bit-identical to the
reference (``diverged == 0`` across completions *and* state snapshots),
and a warm-started stack answers all repeat queries from its restored
cache with zero new provider calls.
"""

import json
import os
import sys

from repro.bench.recovery import DEFAULT_RECOVERY_REPORT_PATH, run_recovery


def _report_path(smoke: bool = False) -> str:
    # Smoke runs measure a reduced sweep; keep them off the committed
    # full-size artifact path.
    default = (
        DEFAULT_RECOVERY_REPORT_PATH.replace(".json", ".smoke.json")
        if smoke
        else DEFAULT_RECOVERY_REPORT_PATH
    )
    return os.environ.get("REPRO_BENCH_RECOVERY_PATH", default)


def _run(smoke: bool, write: bool = True):
    return run_recovery(
        n_distinct=6 if smoke else 12,
        n_repeats=3 if smoke else 6,
        checkpoint_every=4 if smoke else 5,
        scaling_lengths=(2, 5, 9) if smoke else (2, 6, 12, 18),
        write_path=_report_path(smoke=smoke) if write else None,
    )


def _check(report) -> str:
    """Return an error message, or '' if the report passes acceptance."""
    if report.diverged != 0:
        return (
            f"{report.diverged} crashed-and-recovered runs diverged from the "
            "uncrashed reference — recovery must be bit-identical"
        )
    if report.warm_start_provider_calls != 0:
        return (
            f"warm-started stack made {report.warm_start_provider_calls} "
            "provider calls on repeat queries — the restored cache must "
            "answer all of them"
        )
    if not report.warm_start.get("answers_match_reference"):
        return "warm-started answers differ from the reference completions"
    if not report.crash_points:
        return "crash sweep produced no crash points"
    return ""


def test_recovery_bit_identical_and_warm(once):
    report = once(_run, smoke=True, write=False)
    print()
    print(report.render())
    assert _check(report) == ""
    # The sweep must actually cover every provider-level index, including
    # crashes that land mid-cascade and after checkpoints.
    assert len(report.crash_points) == report.provider_requests
    assert any(p["journal_len"] == 0 for p in report.crash_points)
    assert any(p["journal_len"] > 0 for p in report.crash_points)


def main(argv) -> int:
    smoke = "--smoke" in argv
    report = _run(smoke)
    print(report.render())
    print(f"wrote {_report_path(smoke=smoke)}")
    error = _check(report)
    if error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    # Validate the report round-trips as JSON.
    with open(_report_path(smoke=smoke), "r", encoding="utf-8") as handle:
        json.load(handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

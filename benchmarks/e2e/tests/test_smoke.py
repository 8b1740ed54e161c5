"""``--smoke`` drives every workload for real, tiny sizes: the last line of
each run must be the result object with exactly the declared metrics."""

import json
import subprocess
import sys

import pytest

import run
from conftest import E2E, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--smoke"],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and isinstance(got["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("# env nproc=") and " seed=3 " in line for line in lines)
    assert any(line.startswith("validity: ") for line in lines)


def test_traced_smoke_shows_each_workloads_layers():
    """sql_batch never enters the serving tier; tenant_churn is the one
    that evicts."""

    def traced(workload):
        done = subprocess.run(
            [sys.executable, str(E2E / "run.py"), "--workload", workload, "--trace", "1",
             "--smoke"],  # fmt: skip
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        return {k: v["value"] for k, v in json.loads(done.stdout.splitlines()[-1])["metrics"].items()}

    sql = traced("sql_batch")
    assert all(value == 0 for name, value in sql.items() if name.startswith("serving."))
    assert sql["sqldb.execute_ms_mean"] > 0 and sql["llm.provider.calls"] > 0
    churn = traced("tenant_churn")
    assert churn["core.cache.evictions"] > 0 and churn["core.cache.put_ms_mean"] > 0
    assert churn["serving.cluster.ledger_mismatch"] == 0
    assert abs(churn["bench.attributed_share"] - 1.0) < 0.05
    trace_file = E2E / "traces" / "tenant_churn-seed1.jsonl"
    first = json.loads(trace_file.read_text(encoding="utf-8").splitlines()[0])
    assert sorted(first) == ["end", "episode", "id", "name", "parent", "rid", "start"]


def test_without_the_system_the_benchmark_fails_and_prints_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("traces", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],  # fmt: skip
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_agreement_distance_is_symmetric():
    assert run.worse_by(100.0, 110.0) == pytest.approx(0.10)
    assert run.worse_by(110.0, 100.0) == pytest.approx(0.10)
    assert run.worse_by(5.0, 5.0) == 0.0

"""The perf gate must fail loudly and legibly — never with a traceback.

check_perf_gate.py is a standalone script (no package), so load it via
importlib and drive ``check_report``/``main`` directly against synthetic
artifacts: missing files, pre-schema payloads, and hotpaths reports on
both sides of each floor and ceiling.
"""

import importlib.util
import json
import pathlib

import pytest

GATE_PATH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "check_perf_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_perf_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


class TestArtifactHygiene:
    def test_missing_file_is_one_clear_line(self, gate):
        problems = gate.check_report("BENCH_does_not_exist.json")
        assert len(problems) == 1
        assert "missing bench artifact" in problems[0]
        assert "regenerate" in problems[0]

    def test_invalid_json_named_not_raised(self, gate, tmp_path):
        path = _write(tmp_path, "BENCH_bad.json", "{not json")
        problems = gate.check_report(path)
        assert len(problems) == 1
        assert "not valid JSON" in problems[0]

    def test_non_object_report(self, gate, tmp_path):
        path = _write(tmp_path, "BENCH_list.json", "[1, 2, 3]")
        problems = gate.check_report(path)
        assert "not a JSON object" in problems[0]

    def test_pre_gate_artifact_without_schema(self, gate, tmp_path):
        path = _write(tmp_path, "BENCH_old.json", {"cells": {}, "diverged": 0})
        problems = gate.check_report(path)
        assert len(problems) == 1
        assert "older schema" in problems[0]

    def test_main_never_tracebacks_on_malformed_report(self, gate, tmp_path, capsys):
        # A shape main()'s per-file try/except has to absorb: schema claims
        # hotpaths but cache_put is a list, so .items() raises deep inside.
        path = _write(
            tmp_path,
            "BENCH_malformed.json",
            {"schema": "repro.bench.hotpaths/v1", "ops": {"cache_put": [1, 2]}},
        )
        rc = gate.main([path])
        err = capsys.readouterr().err
        assert rc == 1
        assert "malformed report" in err
        assert "Traceback" not in err


def _hotpaths_report(**cells):
    return {
        "schema": "repro.bench.hotpaths/v1",
        "ops": {"cache_put": {"1000": {"speedup": 1.3}}},
        "equivalence": {"diverged": 0},
        **cells,
    }


def _put_full_cell(linear_ms=4.0, vector_ms=0.01, mismatches=0):
    return {
        "linear_cold_ms": linear_ms,
        "vector_cold_ms": 10.0,
        "linear_ms_per_op": linear_ms,
        "vector_ms_per_op": vector_ms,
        "speedup": linear_ms / vector_ms,
        "evictions": 251.0,
        "mismatches": float(mismatches),
    }


class TestHotpathsPutFullBranch:
    def test_heap_puts_inside_the_floors_pass(self, gate, tmp_path):
        report = _hotpaths_report(
            cache_put_full={
                "weighted": {
                    "1024": _put_full_cell(0.5, 0.008),
                    "8192": _put_full_cell(4.0, 0.013),
                    "65536": _put_full_cell(22.3, 0.02),
                }
            }
        )
        path = _write(tmp_path, "BENCH_hotpaths.json", report)
        assert gate.check_report(path) == []

    def test_put_not_beating_the_scan_fails(self, gate, tmp_path):
        report = _hotpaths_report(cache_put_full={"lru": {"1024": _put_full_cell(0.07, 0.05)}})
        path = _write(tmp_path, "BENCH_hotpaths.smoke.json", report)
        problems = gate.check_report(path)
        assert len(problems) == 1
        assert "cache_put_full[lru] speedup 1.40 at 1024 entries below the 2.0x floor" in problems[0]

    def test_put_growing_like_a_scan_fails(self, gate, tmp_path):
        # A scan grows 8x per size step; the heap may grow by at most 3x.
        report = _hotpaths_report(
            cache_put_full={
                "lrfu": {
                    "1024": _put_full_cell(0.3, 0.01),
                    "8192": _put_full_cell(2.3, 0.08),
                }
            }
        )
        path = _write(tmp_path, "BENCH_hotpaths.smoke.json", report)
        problems = gate.check_report(path)
        assert len(problems) == 1
        assert "cache_put_full[lrfu] put at 8192 entries costs 8.00x the put at 1024" in problems[0]

    def test_victim_mismatches_fail(self, gate, tmp_path):
        report = _hotpaths_report(
            cache_put_full={"weighted": {"1024": _put_full_cell(mismatches=3)}}
        )
        path = _write(tmp_path, "BENCH_hotpaths.json", report)
        problems = gate.check_report(path)
        assert any("cache_put_full.weighted.1024.mismatches = 3" in p for p in problems)


def _embed_cell(linear_ms=0.08, vector_ms=0.027):
    return {
        "linear_cold_ms": 0.3,
        "vector_cold_ms": 0.25,
        "linear_ms_per_op": linear_ms,
        "vector_ms_per_op": vector_ms,
        "speedup": linear_ms / vector_ms,
    }


class TestHotpathsEmbedBranch:
    def test_table_inside_the_floor_passes(self, gate, tmp_path):
        report = _hotpaths_report(embed={"1000": _embed_cell(), "10000": _embed_cell(0.11)})
        path = _write(tmp_path, "BENCH_hotpaths.json", report)
        assert gate.check_report(path) == []

    def test_table_not_halving_the_loop_fails(self, gate, tmp_path):
        report = _hotpaths_report(embed={"10000": _embed_cell(0.08, 0.05)})
        path = _write(tmp_path, "BENCH_hotpaths.smoke.json", report)
        problems = gate.check_report(path)
        assert len(problems) == 1
        assert "embed speedup 1.60 at 10000 texts below the 2.0x floor" in problems[0]

    def test_byte_mismatches_fail(self, gate, tmp_path):
        report = _hotpaths_report(embed={"1000": _embed_cell()})
        report["equivalence"] = {"diverged": 0, "embed": {"diverged": 4}}
        path = _write(tmp_path, "BENCH_hotpaths.json", report)
        problems = gate.check_report(path)
        assert any("equivalence.embed.diverged = 4" in p for p in problems)


def _edit_distance_cell(linear_ms=0.66, vector_ms=0.05):
    return {
        "linear_cold_ms": 0.66,
        "vector_cold_ms": 0.05,
        "linear_ms_per_op": linear_ms,
        "vector_ms_per_op": vector_ms,
        "speedup": linear_ms / vector_ms,
    }


class TestHotpathsEditDistanceBranch:
    def test_kernel_inside_the_floor_passes(self, gate, tmp_path):
        report = _hotpaths_report(edit_distance={"500": _edit_distance_cell()})
        report["equivalence"] = {"diverged": 0, "edit_distance": {"diverged": 0}}
        path = _write(tmp_path, "BENCH_hotpaths.json", report)
        assert gate.check_report(path) == []

    def test_kernel_below_five_times_the_dp_fails(self, gate, tmp_path):
        report = _hotpaths_report(edit_distance={"500": _edit_distance_cell(0.66, 0.15)})
        path = _write(tmp_path, "BENCH_hotpaths.smoke.json", report)
        problems = gate.check_report(path)
        assert len(problems) == 1
        assert "edit_distance speedup 4.40 at 500 pairs below the 5.0x floor" in problems[0]

    def test_distance_mismatches_fail(self, gate, tmp_path):
        report = _hotpaths_report(edit_distance={"500": _edit_distance_cell()})
        report["equivalence"] = {"diverged": 0, "edit_distance": {"diverged": 2}}
        path = _write(tmp_path, "BENCH_hotpaths.json", report)
        problems = gate.check_report(path)
        assert any("equivalence.edit_distance.diverged = 2" in p for p in problems)


def _pk_range_cell(linear_ms=20.0, vector_ms=0.95):
    return {
        "linear_cold_ms": 20.0,
        "vector_cold_ms": 1.2,
        "linear_ms_per_op": linear_ms,
        "vector_ms_per_op": vector_ms,
        "speedup": linear_ms / vector_ms,
    }


class TestHotpathsPkRangeBranch:
    def test_range_inside_the_floor_passes(self, gate, tmp_path):
        report = _hotpaths_report(
            sql_pk_range={"2000": _pk_range_cell(), "20000": _pk_range_cell(200.0)}
        )
        report["equivalence"] = {"diverged": 0, "sql_pk_range": {"diverged": 0}}
        path = _write(tmp_path, "BENCH_hotpaths.json", report)
        assert gate.check_report(path) == []

    def test_range_below_five_times_the_scan_fails(self, gate, tmp_path):
        report = _hotpaths_report(sql_pk_range={"2000": _pk_range_cell(4.5, 1.0)})
        path = _write(tmp_path, "BENCH_hotpaths.smoke.json", report)
        problems = gate.check_report(path)
        assert len(problems) == 1
        assert "sql_pk_range speedup 4.50 at 2000 rows below the 5.0x floor" in problems[0]

    def test_row_mismatches_fail(self, gate, tmp_path):
        report = _hotpaths_report(sql_pk_range={"2000": _pk_range_cell()})
        report["equivalence"] = {"diverged": 0, "sql_pk_range": {"diverged": 1}}
        path = _write(tmp_path, "BENCH_hotpaths.json", report)
        problems = gate.check_report(path)
        assert any("equivalence.sql_pk_range.diverged = 1" in p for p in problems)


class TestCommittedArtifacts:
    def test_committed_reports_still_pass_the_gate(self, gate):
        repo = GATE_PATH.parents[1]
        artifacts = sorted(repo.glob("BENCH_*.json"))
        assert artifacts, "no committed BENCH_*.json artifacts found"
        for artifact in artifacts:
            assert gate.check_report(str(artifact)) == [], artifact.name

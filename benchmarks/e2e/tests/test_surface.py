"""The benchmark may use only the system's declared public surface, and
``BENCHMARK.json`` must stay inside the limits its consumers enforce."""

import ast
import json
import re

from conftest import E2E, ROOT

# The compatibility surface later refactors must keep (README, "Surface").
ALLOWED = {
    "repro.serving": {
        "AsyncGateway",
        "GatewayRequest",
        "BatchingScheduler",
        "ServingCluster",
        "ShardedSemanticCache",
        "build_stack",
    },
    "repro.core.cache": {"SemanticCache"},
    "repro.vectordb": {"auto_index"},
    "repro.llm.provider": {"make_client"},
    "repro.sqldb": {"Database", "SemanticRuntime", "parse_sql"},
    "repro.errors": {"DeadlineExceededError"},
}


def _repro_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


def test_benchmark_imports_only_the_public_surface():
    sources = [E2E / "run.py", *sorted((E2E / "e2ebench").glob("*.py"))]
    assert len(sources) > 5
    offenders = []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert "import_module" not in text and "__import__" not in text, path.name
        for module, name in _repro_imports(path):
            if name is None or name not in ALLOWED.get(module, ()):
                offenders.append(f"{path.name}: {module}.{name}")
    assert offenders == []


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_within_the_contract():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert spec["paths"] == ["benchmarks/e2e"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # 4 + 22 runs per workload, each with three set-ups, inside 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420

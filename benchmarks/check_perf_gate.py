"""Perf-regression gate over the BENCH_* artifacts.

Reads one or more bench report files (smoke or full sweep — they share
schemas) and fails the build when a hard perf or correctness floor is
violated:

* ``repro.bench.hotpaths/*``: ``cache_put`` speedup must be >= 1.0
  at every measured size — maintaining the vector index may never make an
  insert slower than the seed's plain dict put — and every equivalence
  cell must report zero divergence/mismatches. Every ``cache_put_full``
  cell (a put into a full cache, which evicts) must beat the seed's
  ``min()`` scan by at least 2x, and per policy the warm put may grow by
  at most 3x from one measured size to the next
  (1,024 -> 8,192 -> 65,536: the scan grows 8x per step, the heap ~log).
  Every ``embed`` cell (embedding a text on already-seen vocabulary) must
  beat the seed's per-feature loop by at least 2x; its byte mismatches
  are ``equivalence.embed.diverged``. Every ``edit_distance`` cell (edit
  distance of a record pair) must beat the seed's dynamic program by at
  least 5x; its distance mismatches are ``equivalence.edit_distance.diverged``.
  Every ``sql_pk_range`` cell (a statement reading a 40-row primary-key
  window) must read it through the key range at least 5x faster than the
  same statement's full scan (``id + 0``); its row mismatches are
  ``equivalence.sql_pk_range.diverged``.
* every other report: its ``diverged`` count (wherever it lives in the
  payload) must be zero.

A missing, unreadable, or pre-gate (no ``schema`` field) artifact fails
with a one-line message naming the file and the regeneration command —
never a traceback.

Usage:

    PYTHONPATH=src python benchmarks/check_perf_gate.py \
        BENCH_hotpaths.smoke.json BENCH_chaos.smoke.json BENCH_semsql.smoke.json \
        BENCH_recovery.smoke.json
"""

import json
import sys
from typing import Iterator, List, Tuple

PUT_FLOOR = 1.0
PUT_FULL_FLOOR = 2.0  # seed-scan put over heap put, cache at capacity
PUT_FULL_GROWTH_CEILING = 3.0  # heap put ms/op, next size over this size
EMBED_FLOOR = 2.0  # seed per-feature loop over the direction table, warm vocabulary
EDIT_DISTANCE_FLOOR = 5.0  # seed dynamic program over the bit-parallel kernel
PK_RANGE_FLOOR = 5.0  # full scan over the primary-key range, 40-row window

_REGEN_HINT = "regenerate with the matching benchmarks/bench_perf_*.py run"


def _walk_diverged(node: object, path: str = "") -> Iterator[Tuple[str, int]]:
    """Yield every (path, value) for keys named diverged/mismatches."""
    if isinstance(node, dict):
        for key, value in node.items():
            where = f"{path}.{key}" if path else key
            if key in ("diverged", "mismatches") and isinstance(value, (int, float)):
                yield where, int(value)
            else:
                yield from _walk_diverged(value, where)


def check_report(path: str) -> List[str]:
    """Return a list of gate violations for one report file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except FileNotFoundError:
        return [f"{path}: missing bench artifact — {_REGEN_HINT}"]
    except OSError as exc:
        return [f"{path}: unreadable bench artifact ({exc}) — {_REGEN_HINT}"]
    except json.JSONDecodeError as exc:
        return [f"{path}: not valid JSON ({exc}) — {_REGEN_HINT}"]
    if not isinstance(report, dict):
        return [f"{path}: report is not a JSON object — {_REGEN_HINT}"]
    if "schema" not in report:
        return [
            f"{path}: no 'schema' field — artifact predates the perf gate "
            f"(older schema); {_REGEN_HINT}"
        ]
    problems = []
    schema = str(report.get("schema", ""))
    for where, count in _walk_diverged(report):
        if count > 0:
            problems.append(f"{path}: {where} = {count} (must be 0)")
    if schema.startswith("repro.bench.hotpaths"):
        puts = report.get("ops", {}).get("cache_put", {})
        if not puts:
            problems.append(f"{path}: no cache_put cells to gate on")
        for size, cell in sorted(puts.items(), key=lambda kv: int(kv[0])):
            speedup = float(cell.get("speedup", 0.0))
            if speedup < PUT_FLOOR:
                problems.append(
                    f"{path}: cache_put speedup {speedup:.3f} at size {size} "
                    f"below the {PUT_FLOOR:.1f}x floor"
                )
        for policy, by_size in sorted(report.get("cache_put_full", {}).items()):
            cells = sorted(by_size.items(), key=lambda kv: int(kv[0]))
            for size, cell in cells:
                speedup = float(cell["speedup"])
                if speedup < PUT_FULL_FLOOR:
                    problems.append(
                        f"{path}: cache_put_full[{policy}] speedup {speedup:.2f} at "
                        f"{size} entries below the {PUT_FULL_FLOOR:.1f}x floor"
                    )
            for (small, low), (big, high) in zip(cells, cells[1:]):
                growth = float(high["vector_ms_per_op"]) / float(low["vector_ms_per_op"])
                if growth > PUT_FULL_GROWTH_CEILING:
                    problems.append(
                        f"{path}: cache_put_full[{policy}] put at {big} entries costs "
                        f"{growth:.2f}x the put at {small} (ceiling "
                        f"{PUT_FULL_GROWTH_CEILING:.1f}x)"
                    )
        for key, floor, unit in (
            ("embed", EMBED_FLOOR, "texts"),
            ("edit_distance", EDIT_DISTANCE_FLOOR, "pairs"),
            ("sql_pk_range", PK_RANGE_FLOOR, "rows"),
        ):
            for size, cell in sorted(report.get(key, {}).items(), key=lambda kv: int(kv[0])):
                speedup = float(cell["speedup"])
                if speedup < floor:
                    problems.append(
                        f"{path}: {key} speedup {speedup:.2f} at {size} {unit} below the "
                        f"{floor:.1f}x floor"
                    )
    return problems


def main(argv: List[str]) -> int:
    paths = [arg for arg in argv if not arg.startswith("-")]
    if not paths:
        print("usage: check_perf_gate.py BENCH_report.json [...]", file=sys.stderr)
        return 2
    failures = []
    for path in paths:
        try:
            problems = check_report(path)
        except Exception as exc:  # never a traceback: name the file and move on
            problems = [
                f"{path}: malformed report ({type(exc).__name__}: {exc}) — "
                f"{_REGEN_HINT}"
            ]
        if problems:
            failures.extend(problems)
        else:
            print(f"ok: {path}")
    for problem in failures:
        print(f"GATE: {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

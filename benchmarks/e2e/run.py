#!/usr/bin/env python3
"""One end-to-end benchmark of the serving platform.

    python3 benchmarks/e2e/run.py                      # every workload, plain + traced
    python3 benchmarks/e2e/run.py --workload steady --seed 3 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py --repeat 2 --check-agreement
    python3 benchmarks/e2e/run.py --smoke

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); without it, each workload runs in a process of its own. See
README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark is started from the root of a checkout without PYTHONPATH.
sys.path[:0] = [str(HERE), str(ROOT / "src")]

EPISODES = 3  # set-ups and windows per run; every end-to-end metric is their median
SMOKE_SECONDS = 1.5
WATCHDOG_S = 170  # a wedged run dies with a traceback instead of outliving the driver's limit
EXIT_INCORRECT, EXIT_DISAGREE, EXIT_INVALID = 1, 2, 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------ one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    import numpy as np

    from e2ebench import report
    from e2ebench.tracing import write_trace
    from e2ebench.workloads import WORKLOADS

    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workload = WORKLOADS[name](smoke=smoke)
    print(
        f"# env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} loadavg1={os.getloadavg()[0]:.2f} seed={seed} "
        f"workload={name} seconds={seconds} trace={int(trace)}"
    )
    episodes = []
    for index in range(EPISODES):
        # Episode 0 of a traced run stays untraced: it is the reference the
        # tracing overhead is measured against.
        rng = np.random.default_rng([seed, names.index(name), index])
        episodes.append(workload.episode(rng, seconds / EPISODES, traced=trace and index > 0))

    if trace:
        declared = spec["per_layer"]
        metrics, layer_self = report.per_layer(workload, episodes[:1], episodes[1:])
        judged = episodes[1:]
        print("# self time per operation, by layer (ms)")
        for layer, ms in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"#   {layer:28s} {ms:10.4f}")
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{name}-seed{seed}.jsonl"
        write_trace(path, (e.spans for e in judged))
        print(f"# trace written to {path.relative_to(ROOT)}")
    else:
        declared = spec["end_to_end"]
        metrics = report.end_to_end(workload, episodes)
        judged = episodes

    if sorted(metrics) != sorted(d["name"] for d in declared):
        raise SystemExit("metrics computed do not match BENCHMARK.json")
    outcomes = [o for e in judged for o in e.outcomes]
    failures = [f for e in episodes for f in e.failures]
    # A shed request is the admission policy doing its job (goodput counts
    # it as a miss); a *failed* operation is one that ended in an error.
    failed = sum(1 for o in outcomes if o.status == "error")
    answered = sum(1 for o in outcomes if o.answered)
    print(f"# operations attempted={len(outcomes)} answered={answered} failed={failed}")
    reasons = report.validity(workload, judged, metrics.get("bench.attributed_share"))
    print("validity: " + ("ok" if not reasons else "INVALID: " + "; ".join(reasons)))
    for failure in failures[:20]:
        print(f"check failed: {failure}")
    for d in declared:
        print(f"{d['name']:44s} {metrics[d['name']]:14.6f} {d['unit']}")
    correct = not failures and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": failed,
                "metrics": {
                    d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared
                },
            }
        )
    )
    return 0 if correct else EXIT_INCORRECT


# --------------------------------------------------------- every workload


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> Optional[dict]:
    """Run one workload in a process of its own; echo its report."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    print("\n".join(f"  {line}" for line in lines[:-1]))
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    result["valid"] = "validity: ok" in lines
    result["exit"] = done.returncode
    return result


def worse_by(first: float, second: float) -> float:
    """Relative distance between two runs of the same code, whichever
    direction counts as worse."""
    low, high = sorted((abs(first), abs(second)))
    return high / low - 1.0 if low else float("inf")


def run_all(seed: int, seconds: float, smoke: bool, repeat: int, check_agreement: bool) -> int:
    spec = load_spec()
    sets: List[Dict[str, dict]] = []
    status = 0
    for round_index in range(repeat):
        results: Dict[str, dict] = {}
        for workload in spec["workloads"]:
            for trace in (0, 1):
                print(f"== set {round_index + 1}: {workload['name']} trace={trace}")
                result = run_child(workload["name"], seed, seconds, trace, smoke)
                if result is None or result["exit"] != 0 or not result["correct"]:
                    print(f"!! {workload['name']} trace={trace} failed its checks")
                    status = status or EXIT_INCORRECT
                elif not result["valid"] and not smoke:
                    status = status or EXIT_INVALID
                if trace == 0 and result is not None:
                    results[workload["name"]] = result["metrics"]
        sets.append(results)
    if check_agreement:
        first, second = sets[0], sets[1]
        print("== agreement of two sets of runs of the same code")
        for metric in spec["end_to_end"]:
            for name in first:
                if name not in second:
                    continue
                a = first[name][metric["name"]]["value"]
                b = second[name][metric["name"]]["value"]
                gap = worse_by(a, b)
                verdict = "ok" if gap <= metric["bound"] else "DISAGREE"
                print(
                    f"{metric['name']:18s} {name:13s} {a:12.4f} {b:12.4f} {metric['unit']:6s}"
                    f" differ {gap:7.2%} bound {metric['bound']:.0%} {verdict}"
                )
                if verdict != "ok":
                    status = status or EXIT_DISAGREE
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload in-process (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, ~1 s per workload")
    parser.add_argument("--repeat", type=int, default=1, help="sets of runs (all workloads)")
    parser.add_argument("--check-agreement", action="store_true")
    args = parser.parse_args(argv)
    if args.check_agreement and args.repeat < 2:
        parser.error("--check-agreement needs --repeat 2")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(load_spec()["run_seconds"])
    if args.workload:
        return run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    return run_all(args.seed, seconds, args.smoke, args.repeat, args.check_agreement)


if __name__ == "__main__":
    sys.exit(main())

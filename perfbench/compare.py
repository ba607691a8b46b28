"""Compare a parent and a change with identical benchmark code.

Usage (from the repository root)::

    python3 perfbench/compare.py --parent ../parent --change . \\
        --workload serve-threads --pairs 10

Each pair runs the benchmark once against each program tree, on the
same seed, alternating which side runs first.  Both sides use *this*
checkout's benchmark code (``run.py --program``).  The two sides must
report the same substrate (see :mod:`perfbench.environment`).  For every
metric the report gives each side's median and quartiles, the paired
bootstrap interval of the relative change, the share of pairs the change
won, and a verdict under the rules of the benchmark:

* ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's own quartile spread;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound and
  not every run of the change beats every run of the parent;
* ``same``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
if __package__ in (None, ""):
    sys.path.insert(0, str(HERE.parent))

from perfbench.environment import check_comparable  # noqa: E402
from perfbench.stats import (  # noqa: E402
    paired_bootstrap_delta,
    quartiles,
    spread,
    win_share,
)


SPEC = HERE.parent / "BENCHMARK.json"


def load_spec(path: Path = SPEC) -> dict[str, dict[str, Any]]:
    """Metric name -> its BENCHMARK.json entry (end-to-end and per-layer)."""
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float | None,
) -> dict[str, Any]:
    """Summarize one metric over paired runs (see the module docstring)."""
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    point, low, high = paired_bootstrap_delta(parent, change)
    wins = win_share(parent, change, better)
    sign = -1 if better == "lower" else 1
    improvement = sign * (c2 - p2)
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= 0.9 and improvement > p3 - p1:
        outcome = "gain"
    elif bound is not None and p2 and -improvement / abs(p2) > bound:
        outcome = "regression"
    elif bound is not None and spread(parent) > bound and not dominates:
        outcome = "unresolved"
    else:
        outcome = "same"
    return {
        "parent": {"q1": p1, "median": p2, "q3": p3},
        "change": {"q1": c1, "median": c2, "q3": c3},
        "delta": {"point": point, "low": low, "high": high},
        "win_share": wins,
        "verdict": outcome,
    }


def run_once(
    program: Path, workload: str, seed: int, seconds: float, trace: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    """(result, environment) of one benchmark run against ``program``."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--program", str(program),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    # Exit 1 still prints a result: a wrong answer, reported as incorrect.
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"benchmark failed on {program} (exit {done.returncode}): "
            f"{done.stderr.strip()[-500:] or lines[-1:]}"
        )
    environment = next(
        json.loads(line.split(" ", 1)[1])
        for line in lines
        if line.startswith("environment ")
    )
    return json.loads(lines[-1]), environment


def compare(
    parent: Path,
    change: Path,
    workload: str,
    pairs: int,
    seconds: float,
    trace: int = 0,
    first_seed: int = 1,
) -> dict[str, Any]:
    spec = load_spec()
    runs: dict[str, list[dict[str, Any]]] = {"parent": [], "change": []}
    environments: dict[str, dict[str, Any]] = {}
    for index in range(pairs):
        seed = first_seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            program = parent if side == "parent" else change
            result, environment = run_once(program, workload, seed, seconds, trace)
            environments.setdefault(side, environment)
            check_comparable(environments[side], environment)
            runs[side].append(result)
    check_comparable(environments["parent"], environments["change"])
    metrics: dict[str, Any] = {}
    for name in runs["parent"][0]["metrics"]:
        entry = spec.get(name, {})
        metrics[name] = verdict(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            entry.get("better", "lower"),
            entry.get("bound"),
        )
        metrics[name]["unit"] = runs["parent"][0]["metrics"][name]["unit"]
    return {
        "workload": workload,
        "pairs": pairs,
        "seconds": seconds,
        "environment": environments["parent"],
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seconds", type=float, default=json.loads(SPEC.read_text())["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    report = compare(
        args.parent.resolve(), args.change.resolve(), args.workload,
        args.pairs, args.seconds, args.trace, args.first_seed,
    )
    print(f"{report['workload']}: {report['pairs']} pairs of {report['seconds']:g} s, "
          f"{report['environment']['substrate']}, all answers correct: {report['correct']}")
    for name, m in report["metrics"].items():
        print(
            f"  {name:<36} parent {m['parent']['median']:>12.6g}  "
            f"change {m['change']['median']:>12.6g} {m['unit']:<8} "
            f"delta {m['delta']['point']:+.1%} [{m['delta']['low']:+.1%}, "
            f"{m['delta']['high']:+.1%}]  wins {m['win_share']:.0%}  {m['verdict']}"
        )
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

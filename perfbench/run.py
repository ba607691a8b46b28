"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-threads --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no instrumentation and prints every
end-to-end metric.  ``--trace 1`` measures half the time untraced and
half traced, prints every per-layer metric and the layer ledger, and
writes the spans to ``.perfbench/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  A wrong answer sets ``correct`` to false and the exit
code to 1; a program that cannot be imported exits with 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: A traced run alternates this many untraced and traced blocks.
TRACE_BLOCKS = 5


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--program", type=Path, default=ROOT,
        help="tree whose src/ holds the program under test (default: this checkout)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _ledger_lines(values: dict[str, float]) -> list[str]:
    from perfbench.ledger import LAYERS

    lines = [f"  {'layer':<11} {'self ms/q':>10} {'share':>7} {'growth':>7}"]
    for layer in LAYERS:
        lines.append(
            f"  {layer:<11} {values[f'{layer}.self_ms_per_query']:>10.4f} "
            f"{values[f'{layer}.self_share']:>7.1%} "
            f"{values[f'{layer}.cost_growth']:>7.3f}"
        )
    return lines


def _query_log(segment) -> dict:
    """Per-query wall times in run order, for offline analysis."""
    texts: dict[str, int] = {}
    return {
        "fields": ["start_s", "wall_s", "status", "text", "episode"],
        "rows": [
            [r.start, r.wall_s, r.status, texts.setdefault(r.text, len(texts)), r.episode]
            for r in segment.records
        ],
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    source = args.program.resolve() / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {source}: {exc}",
              file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported the program from {repro.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 2
    from perfbench import environment, metrics, workloads
    from perfbench.ledger import Tracer

    try:
        workload = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment.record()
    keep = 2 if args.trace else 1
    setup_probe = workloads.SpeedProbe()
    setup_durations, systems = workloads.timed_setups(workload, keep, setup_probe)

    if not args.trace:
        segment = workload.run(systems[0], args.seconds)
        check = workloads.check_segment(segment, systems[0].federation, workload.faulty)
        values = metrics.end_to_end(segment, check, setup_durations, setup_probe)
        units = metrics.END_TO_END
        measured = metrics.measured_wall(segment, setup_durations)
    else:
        # Untraced and traced blocks alternate, each on its own set-up
        # instance, so a change in machine speed during the run falls on
        # both sides of the overhead estimate alike.
        untraced, segment = workloads.Segment(), workloads.Segment()
        tracer = Tracer()
        block = args.seconds / (2 * TRACE_BLOCKS)
        for __ in range(TRACE_BLOCKS):
            untraced.absorb(workload.run(systems[0], block))
            with tracer:
                segment.absorb(workload.run(systems[1], block))
        events = metrics.retained_events()
        untraced_check = workloads.check_segment(
            untraced, systems[0].federation, workload.faulty
        )
        check = workloads.check_segment(segment, systems[1].federation, workload.faulty)
        check.problems.extend(untraced_check.problems)
        values = metrics.per_layer(workload, segment, check, tracer, untraced, events)
        units = metrics.PER_LAYER
    for system in systems:
        system.close()

    print(f"workload {workload.name} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {workload.why}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"queries: {check.attempted} attempted, {check.answered} answered, "
          f"{check.failed} failed, {check.refused} refused, {check.wrong} wrong"
          + (f" over {segment.episodes} episodes" if segment.episodes > 1 else ""))
    for problem in check.problems:
        print(f"WRONG: {problem}")
    if not args.trace:
        print(
            f"machine speed: run {segment.probe.slowdown():.3f}x, set-up "
            f"{setup_probe.slowdown():.3f}x the reference probe time; measured "
            + ", ".join(f"{name} {value:.6g}" for name, value in measured.items())
        )
    print("metrics:")
    for line in metrics.describe(values, units):
        print(line)
    if args.trace:
        print("layer ledger (traced half):")
        for line in _ledger_lines(values):
            print(line)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(str(OUT_DIR / f"{stem}.spans.json"))
    result = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.errors,
        "metrics": metrics.as_json(values, units),
    }
    with open(OUT_DIR / f"{stem}.result.json", "w") as handle:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env,
                "setup_durations_s": setup_durations,
                "queries": _query_log(segment),
                "speed_probe_us": [t * 1e6 for __, t in segment.probe.samples],
                "setup_probe_us": [t * 1e6 for __, t in setup_probe.samples],
                "measured_wall": None if args.trace else measured,
                "finished_at": time.time(),
                **result,
            },
            handle,
            indent=1,
        )
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if check.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

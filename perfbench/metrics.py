"""End-to-end and per-layer metrics computed from measured segments.

End-to-end metrics come from an untraced segment.  Per-layer metrics
come from a traced segment of the same workload; the difference in wall
time per query between the two is the tracing overhead.
"""

from __future__ import annotations

import gc
from typing import Any

from perfbench.ledger import (
    LAYERS,
    Tracer,
    layer_growth,
    layer_stats,
    name_stats,
    outer_calls,
)
from perfbench.stats import median, percentile
from perfbench.workloads import Check, QueryRecord, Segment, SpeedProbe, Workload

#: name -> unit, in report order.
END_TO_END = {
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "virtual_latency_p50_s": "s",
    "virtual_latency_p95_s": "s",
    "wire_cost_per_query": "cost",
    "success_rate": "fraction",
    "completeness": "fraction",
    "rss_mb": "MB",
    "cost_growth": "ratio",
    "setup_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _relative_walls(records: list[QueryRecord]) -> list[float]:
    """Each query's wall time over its text's median, when every text
    repeats; otherwise the raw wall times.  This keeps the mix of cheap
    and expensive texts in a stretch of the run from reading as growth."""
    by_text: dict[str, list[float]] = {}
    for record in records:
        by_text.setdefault(record.text, []).append(record.wall_s)
    if any(len(walls) < 2 for walls in by_text.values()):
        return [record.wall_s for record in records]
    typical = {text: median(walls) for text, walls in by_text.items()}
    return [_ratio(record.wall_s, typical[record.text]) for record in records]


def fifths(records: list[QueryRecord]) -> tuple[tuple[float, float], tuple[float, float]] | None:
    """Wall-clock stretches of the first and the last fifth of the
    queries (None with fewer than five queries)."""
    fifth = len(records) // 5
    if fifth == 0:
        return None
    head, tail = records[:fifth], records[-fifth:]
    return (
        (head[0].start, max(r.end for r in head)),
        (tail[0].start, max(r.end for r in tail)),
    )


def speed_ratio(
    probe: SpeedProbe, first: tuple[float, float], last: tuple[float, float]
) -> float:
    """Median probe time in ``last`` over that in ``first`` (1.0 when
    either stretch holds no probe sample)."""

    def typical(stretch: tuple[float, float]) -> float | None:
        inside = [t for at, t in probe.samples if stretch[0] <= at <= stretch[1]]
        return median(inside) if inside else None

    early, late = typical(first), typical(last)
    return late / early if early and late else 1.0


def cost_growth(segment: Segment) -> float:
    """Wall time per query in the last fifth of the run over the first
    fifth, divided by the change in machine speed between the two (see
    :class:`~perfbench.workloads.SpeedProbe`).

    Episodic workloads restart the program every episode, so growth is
    taken within each episode and the median reported.
    """
    by_episode: dict[int, list[QueryRecord]] = {}
    for record in segment.answered:
        by_episode.setdefault(record.episode, []).append(record)
    ratios = []
    for records in by_episode.values():
        stretches = fifths(records)
        if stretches is None:
            continue
        walls = _relative_walls(records)
        fifth = len(walls) // 5
        early = sum(walls[:fifth])
        raw = _ratio(sum(walls[-fifth:]), early) if early else 1.0
        ratios.append(raw / speed_ratio(segment.probe, *stretches))
    return median(ratios) if ratios else 1.0


def measured_wall(segment: Segment, setup_durations: list[float]) -> dict[str, float]:
    """The wall-time metrics exactly as measured, before scaling."""
    answered = segment.answered
    walls = [r.wall_s * 1e3 for r in answered]
    return {
        "qps": _ratio(len(answered), segment.elapsed_s),
        "latency_p50_ms": percentile(walls, 50),
        "latency_p95_ms": percentile(walls, 95),
        "setup_s": median(setup_durations),
    }


def end_to_end(
    segment: Segment,
    check: Check,
    setup_durations: list[float],
    setup_probe: SpeedProbe,
) -> dict[str, float]:
    """Every end-to-end metric.  Wall times are scaled to the reference
    machine speed by the speed probe sampled in the same stretch (the
    run, or the set-ups)."""
    answered = segment.answered
    virtual = [r.virtual_s for r in answered]
    wall = measured_wall(segment, setup_durations)
    slowdown = segment.probe.slowdown()
    return {
        "qps": wall["qps"] * slowdown,
        "latency_p50_ms": wall["latency_p50_ms"] / slowdown,
        "latency_p95_ms": wall["latency_p95_ms"] / slowdown,
        "virtual_latency_p50_s": percentile(virtual, 50),
        "virtual_latency_p95_s": percentile(virtual, 95),
        "wire_cost_per_query": _ratio(segment.wire_cost, len(answered)),
        "success_rate": 1.0 - _ratio(check.errors, check.attempted),
        "completeness": (
            _ratio(check.returned_tuples, check.expected_tuples)
            if check.expected_tuples
            else 1.0
        ),
        "rss_mb": segment.rss_end_mb,
        "cost_growth": cost_growth(segment),
        "setup_s": wall["setup_s"] / setup_probe.slowdown(),
    }


# ----------------------------------------------------------------------
# Per-layer metrics

#: name -> unit, in report order; the ledger adds three per layer.
PER_LAYER = {
    "query.parse_us": "us",
    "query.parse_calls_per_query": "count",
    "optimize.ms_per_call": "ms",
    "optimize.calls_per_query": "count",
    "optimize.plans_considered": "count",
    "optimize.cost_qerror_p50": "ratio",
    "optimize.cost_qerror_p95": "ratio",
    "mediator.plan_cache_hit_rate": "fraction",
    "mediator.execute_ms": "ms",
    "sources.selectivity_ms_per_query": "ms",
    "sources.selectivity_calls_per_query": "count",
    "sources.wrapper_ms_per_query": "ms",
    "sources.requests_per_query": "count",
    "sources.items_shipped_per_query": "count",
    "sources.rows_scanned_per_item": "count",
    "sources.pushdown_share": "fraction",
    "relational.kernel_ms_per_query": "ms",
    "relational.column_builds": "count",
    "runtime.run_ms": "ms",
    "runtime.attempts_per_op": "count",
    "runtime.useful_attempt_ratio": "fraction",
    "runtime.makespan_p50_s": "s",
    "runtime.breaker_trips": "count",
    "runtime.quarantined_sources": "count",
    "runtime.vote_rejected_tuples": "count",
    "serve.submit_us": "us",
    "serve.queue_wait_p95_ms": "ms",
    "serve.queue_wait_p95_s": "s",
    "serve.shed_rate": "fraction",
    "serve.shed_rate.deadline": "fraction",
    "serve.shed_rate.queue": "fraction",
    "serve.shed_rate.quota": "fraction",
    "serve.max_in_flight": "count",
    "obs.emit_us": "us",
    "obs.emits_per_query": "count",
    "obs.span_lookup_us": "us",
    "obs.metric_updates_per_query": "count",
    "obs.retained_events": "count",
    "obs.retained_spans": "count",
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_ms_per_query"] = "ms"
    PER_LAYER[f"{_layer}.self_share"] = "fraction"
    PER_LAYER[f"{_layer}.cost_growth"] = "ratio"
PER_LAYER["trace.overhead_ms_per_query"] = "ms"
PER_LAYER["trace.overhead_share"] = "fraction"
PER_LAYER["process.rss_growth_mb"] = "MB"

_WRAPPER_CALLS = tuple(
    f"RemoteSource.{op}"
    for op in ("selection", "semijoin", "selection_rows", "fetch_rows", "aggregate", "load")
)
_KERNEL_CALLS = tuple(
    f"TableSource.{op}"
    for op in ("selection", "semijoin", "selection_rows", "binding_selection", "load",
               "aggregate_partials")
)
_METRIC_UPDATES = ("Counter.inc", "Gauge.set", "Gauge.inc", "Histogram.observe")


def retained_events() -> int:
    """Events held by every live ``EventLog`` (the service's and its
    workers' private logs alike)."""
    from repro.obs.events import EventLog

    return sum(len(obj) for obj in gc.get_objects() if isinstance(obj, EventLog))


def per_layer(
    workload: Workload,
    traced: Segment,
    check: Check,
    tracer: Tracer,
    untraced: Segment,
    events_retained: int,
) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reports 0."""
    spans = tracer.spans
    queries = max(1, len(traced.answered))
    layers = layer_stats(spans)
    names = name_stats(spans)

    def calls(*keys: str) -> int:
        return sum(names.get(k, (0, 0.0))[0] for k in keys)

    def seconds(*keys: str) -> float:
        return sum(names.get(k, (0, 0.0))[1] for k in keys)

    optimize_n, optimize_s = outer_calls(
        spans, [k for k in names if k.endswith(".optimize")]
    )
    selectivity_n, selectivity_s = outer_calls(
        spans, [k for k in names if k.endswith(".selectivity")]
    )
    qerrors = tracer.samples.get("cost_qerror", [])
    makespans = tracer.samples.get("makespan_s", [])
    attempts = tracer.counts.get("runtime_attempts", 0.0)
    waits = [r.queue_wait_s for r in traced.answered if r.queue_wait_s is not None]
    threads = workload.name == "serve-threads"
    aggregate_calls = calls("RemoteSource.aggregate")
    fetch_calls = calls("RemoteSource.fetch_rows")
    total_self = sum(entry.self_s for entry in layers.values())

    out = {
        "query.parse_us": _ratio(layers["query"].outer_s, layers["query"].outer_calls) * 1e6,
        "query.parse_calls_per_query": layers["query"].outer_calls / queries,
        "optimize.ms_per_call": _ratio(optimize_s, optimize_n) * 1e3,
        "optimize.calls_per_query": optimize_n / queries,
        "optimize.plans_considered": tracer.counts.get("plans_considered", 0.0) / queries,
        "optimize.cost_qerror_p50": percentile(qerrors, 50) if qerrors else 0.0,
        "optimize.cost_qerror_p95": percentile(qerrors, 95) if qerrors else 0.0,
        "mediator.plan_cache_hit_rate": _ratio(
            traced.cache_hits, traced.cache_hits + traced.cache_misses
        ),
        "mediator.execute_ms": seconds("Executor.execute") * 1e3 / queries,
        "sources.selectivity_ms_per_query": selectivity_s * 1e3 / queries,
        "sources.selectivity_calls_per_query": selectivity_n / queries,
        "sources.wrapper_ms_per_query": seconds(*_WRAPPER_CALLS) * 1e3 / queries,
        "sources.requests_per_query": traced.requests / queries,
        "sources.items_shipped_per_query": traced.items_shipped / queries,
        "sources.rows_scanned_per_item": _ratio(traced.rows_scanned, check.answered_items),
        "sources.pushdown_share": _ratio(aggregate_calls, aggregate_calls + fetch_calls),
        "relational.kernel_ms_per_query": seconds(*_KERNEL_CALLS) * 1e3 / queries,
        "relational.column_builds": float(calls("ColumnarTable.__init__")),
        "runtime.run_ms": seconds("RuntimeEngine.run") * 1e3 / queries,
        "runtime.attempts_per_op": _ratio(attempts, tracer.counts.get("runtime_ops", 0.0)),
        "runtime.useful_attempt_ratio": _ratio(
            tracer.counts.get("runtime_useful", 0.0), attempts
        ),
        "runtime.makespan_p50_s": percentile(makespans, 50) if makespans else 0.0,
        "runtime.breaker_trips": traced.breaker_trips / traced.episodes,
        "runtime.quarantined_sources": traced.quarantined_sources / traced.episodes,
        "runtime.vote_rejected_tuples": traced.vote_rejected_tuples / traced.episodes,
        "serve.submit_us": _ratio(
            seconds("MediatorService.submit"), calls("MediatorService.submit")
        ) * 1e6,
        "serve.queue_wait_p95_ms": (
            percentile(waits, 95) * 1e3 if threads and waits else 0.0
        ),
        "serve.queue_wait_p95_s": (
            percentile(waits, 95) if waits and not threads else 0.0
        ),
        "serve.shed_rate": _ratio(check.refused, check.attempted),
        "serve.shed_rate.deadline": _ratio(check.refused_by.get("deadline", 0), check.attempted),
        "serve.shed_rate.queue": _ratio(check.refused_by.get("queue_full", 0), check.attempted),
        "serve.shed_rate.quota": _ratio(check.refused_by.get("quota", 0), check.attempted),
        "serve.max_in_flight": float(traced.max_in_flight),
        "obs.emit_us": _ratio(seconds("EventLog.emit"), calls("EventLog.emit")) * 1e6,
        "obs.emits_per_query": calls("EventLog.emit") / queries,
        "obs.span_lookup_us": _ratio(seconds("SpanLog.for_trace"), calls("SpanLog.for_trace"))
        * 1e6,
        "obs.metric_updates_per_query": calls(*_METRIC_UPDATES) / queries,
        "obs.retained_events": float(events_retained),
        "obs.retained_spans": float(traced.retained_spans / traced.episodes),
    }
    stretches = fifths(traced.answered)
    if stretches is None:
        growth = {layer: 0.0 for layer in LAYERS}
    else:
        speed = speed_ratio(traced.probe, *stretches)
        growth = {
            layer: ratio / speed
            for layer, ratio in layer_growth(spans, *stretches).items()
        }
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_query"] = layers[layer].self_s * 1e3 / queries
        out[f"{layer}.self_share"] = _ratio(layers[layer].self_s, total_self)
        out[f"{layer}.cost_growth"] = growth[layer]
    untraced_ms = _ratio(untraced.elapsed_s, len(untraced.answered)) * 1e3
    traced_ms = _ratio(traced.elapsed_s, len(traced.answered)) * 1e3
    out["trace.overhead_ms_per_query"] = traced_ms - untraced_ms
    out["trace.overhead_share"] = _ratio(traced_ms - untraced_ms, untraced_ms)
    out["process.rss_growth_mb"] = untraced.rss_growth_mb
    return out


def describe(values: dict[str, float], units: dict[str, str]) -> list[str]:
    """One ``name value unit`` line per metric."""
    return [f"  {name:<40} {values[name]:>14.6g} {units[name]}" for name in units]


def as_json(values: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    return {name: {"value": values[name], "unit": units[name]} for name in units}

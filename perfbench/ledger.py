"""Outside-in layer tracing and the per-layer ledger.

:class:`Tracer` wraps the public functions and methods of each layer of
the program — at class level for methods, and for module functions in
every ``repro`` module that imported them by name — records one span
per call, and restores the originals when it is uninstalled.  Nothing
inside the program changes.

A span is ``(id, parent id, query id, layer, name, start, end)`` with
wall-clock ``time.perf_counter`` times.  Spans nest per thread; a
layer's *self time* is its spans' duration minus the time their direct
child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

LAYERS = (
    "query",
    "optimize",
    "mediator",
    "sources",
    "relational",
    "runtime",
    "serve",
    "obs",
)

Span = tuple  # (sid, parent, qid, layer, name, start, end)
SPAN_FIELDS = ("id", "parent", "query", "layer", "name", "start", "end")

Hook = Callable[["Tracer", tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One callable to trace: ``attr`` of a class, or a module function."""

    layer: str
    module: str
    owner: str | None  # class name; None for a module-level function
    attr: str
    #: A call made while no span is open on its thread starts a new query.
    starts_query: bool = False
    hook: Hook | None = None

    @property
    def name(self) -> str:
        return f"{self.owner}.{self.attr}" if self.owner else self.attr


# ----------------------------------------------------------------------
# Hooks: counts read from return values, outside the timed span


def _note_plan(tracer: "Tracer", args: tuple, result: Any) -> None:
    if result is not None:
        tracer.local.estimate = result.estimated_cost


def _note_optimize(tracer: "Tracer", args: tuple, result: Any) -> None:
    if any(name.endswith(".optimize") for __, name in tracer.local.stack):
        return  # an optimizer nested inside another counts once, outermost
    tracer.add("plans_considered", result.plans_considered + result.subsets_considered)
    _note_plan(tracer, args, result)


def _note_execution(tracer: "Tracer", args: tuple, result: Any) -> None:
    estimate = getattr(tracer.local, "estimate", None)
    if estimate is not None:
        tracer.sample("cost_qerror", qerror(estimate, result.total_cost))
        tracer.local.estimate = None


def _note_runtime(tracer: "Tracer", args: tuple, result: Any) -> None:
    ops = result.trace.remote_spans
    attempts = sum(len(op.attempts) for op in ops)
    useful = sum(1 for op in ops if op.status.value in ("ok", "recovered"))
    tracer.add("runtime_ops", len(ops))
    tracer.add("runtime_attempts", attempts)
    tracer.add("runtime_useful", useful)
    tracer.sample("makespan_s", result.makespan_s)
    _note_execution(tracer, args, result.to_execution_result())


def qerror(estimate: float, observed: float) -> float:
    """Symmetric ratio error ``max(e/o, o/e)``, with both floored at 1."""
    estimate = max(estimate, 1.0)
    observed = max(observed, 1.0)
    return max(estimate / observed, observed / estimate)


def _methods(layer, module, owner, attrs, **extra) -> list[Target]:
    return [Target(layer, module, owner, attr, **extra) for attr in attrs]


def _functions(layer, module, names) -> list[Target]:
    return [Target(layer, module, None, name) for name in names]


def default_targets() -> list[Target]:
    """The public boundaries of each layer of ``repro``."""
    targets: list[Target] = []
    targets += _functions(
        "query",
        "repro.query.sqlparse",
        ("parse_fusion_query", "parse_aggregate_query", "parse_query"),
    )
    targets += _functions("query", "repro.relational.parser", ("parse_condition",))
    targets += _optimizer_targets()
    targets += _functions("optimize", "repro.plans.cost", ("estimate_plan_cost",))
    targets += _functions("optimize", "repro.plans.aggregate", ("plan_aggregate",))
    targets += _methods(
        "mediator", "repro.mediator.session", "Mediator",
        ("answer", "answer_aggregate"), starts_query=True,
    )
    targets.append(
        Target("mediator", "repro.mediator.session", "Mediator", "plan",
               starts_query=True, hook=_note_plan)
    )
    targets.append(
        Target("mediator", "repro.mediator.executor", "Executor", "execute",
               hook=_note_execution)
    )
    targets.append(
        Target("mediator", "repro.mediator.plan_cache", "PlanCache", "get",
               hook=_note_plan)
    )
    targets += _methods("mediator", "repro.mediator.plan_cache", "PlanCache", ("put",))
    for owner in ("ExactStatistics", "SampledStatistics", "HistogramStatistics"):
        targets += _methods(
            "sources", "repro.sources.statistics", owner, ("selectivity",)
        )
    targets += _methods(
        "sources", "repro.sources.observed", "ObservedStatistics", ("selectivity",)
    )
    targets += _methods(
        "sources", "repro.sources.remote", "RemoteSource",
        ("selection", "semijoin", "selection_rows", "fetch_rows", "aggregate", "load"),
    )
    targets += _methods(
        "relational", "repro.sources.table_source", "TableSource",
        ("selection", "semijoin", "selection_rows", "binding_selection", "load",
         "aggregate_partials"),
    )
    targets += _methods(
        "relational", "repro.relational.columnar", "ColumnarTable", ("__init__",)
    )
    targets += _functions(
        "relational", "repro.relational.columnar",
        ("union_items", "intersect_items", "difference_items"),
    )
    targets += _functions(
        "relational", "repro.relational.aggregates",
        ("partial_aggregate_rows", "merge_partials", "finalize_partials"),
    )
    targets.append(
        Target("runtime", "repro.runtime.engine", "RuntimeEngine", "run",
               hook=_note_runtime)
    )
    targets += _methods(
        "serve", "repro.serve.service", "MediatorService", ("submit",),
        starts_query=True,
    )
    # ``drain`` only waits for worker threads, so it is not traced: its
    # span would count the caller's idle time as serve-layer work.
    targets += _methods(
        "serve", "repro.serve.service", "MediatorService", ("run_until_idle",)
    )
    targets += _methods("obs", "repro.obs.events", "EventLog", ("emit",))
    targets += _methods("obs", "repro.obs.spans", "SpanLog", ("add", "for_trace"))
    targets += _functions("obs", "repro.obs.spans", ("analyze_trace",))
    targets += _methods("obs", "repro.obs.metrics", "Counter", ("inc",))
    targets += _methods("obs", "repro.obs.metrics", "Gauge", ("set", "inc"))
    targets += _methods("obs", "repro.obs.metrics", "Histogram", ("observe",))
    targets += _methods(
        "obs", "repro.obs.metrics", "MetricsRegistry", ("counter", "gauge", "histogram")
    )
    return targets


def _optimizer_targets() -> list[Target]:
    """``optimize`` of every optimizer class that defines its own."""
    importlib.import_module("repro.optimize")
    base = importlib.import_module("repro.optimize.base").Optimizer
    found: list[Target] = []
    pending = list(base.__subclasses__())
    seen: set[type] = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "optimize" in vars(cls) and cls.__module__.startswith("repro."):
            found.append(
                Target("optimize", cls.__module__, cls.__name__, "optimize",
                       hook=_note_optimize)
            )
    return sorted(found, key=lambda t: (t.module, t.name))


# ----------------------------------------------------------------------
# The tracer


class Tracer:
    """Wraps the targets while installed and records their spans.

    Use as a context manager; spans stay in :attr:`spans` after exit.
    """

    def __init__(self, targets: Sequence[Target] | None = None):
        self.targets = list(targets) if targets is not None else default_targets()
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.local = threading.local()
        self._ids = itertools.count()
        self._queries = itertools.count()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any, bool]] = []

    # -- recording ------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def sample(self, key: str, value: float) -> None:
        with self._lock:
            self.samples[key].append(value)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        local = self.local
        layer = target.layer
        name = target.name
        starts_query = target.starts_query
        hook = target.hook
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.query = -1
            if starts_query and not stack:
                local.query = next(tracer._queries)
            parent = stack[-1][0] if stack else None
            sid = next(ids)
            stack.append((sid, name))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, local.query, layer, name, start, end))
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__name__ = getattr(original, "__name__", target.attr)
        traced.__qualname__ = getattr(original, "__qualname__", target.attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            module = importlib.import_module(target.module)
            if target.owner is None:
                original = getattr(module, target.attr)
                wrapped = self._wrap(target, original)
                # Patch every repro module that imported the function by name.
                for mod in list(sys.modules.values()):
                    if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    if vars(mod).get(target.attr) is original:
                        self._restore.append((mod, target.attr, original, True))
                        setattr(mod, target.attr, wrapped)
            else:
                cls = getattr(module, target.owner)
                owned = target.attr in vars(cls)
                original = getattr(cls, target.attr)
                self._restore.append((cls, target.attr, vars(cls).get(target.attr), owned))
                setattr(cls, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, owned = self._restore.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: str) -> None:
        """Write every span as JSON (``fields`` names the tuple slots)."""
        with open(path, "w") as handle:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, handle)


# ----------------------------------------------------------------------
# The ledger


@dataclass
class LayerStats:
    """Totals for one layer over a traced interval."""

    self_s: float = 0.0
    #: Calls not nested inside another call of the same layer.
    outer_calls: int = 0
    outer_s: float = 0.0


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, __, __, __, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, __, __, __, __, start, end in spans}


def layer_stats(spans: Sequence[Span]) -> dict[str, LayerStats]:
    """Self time and outermost-call totals per layer."""
    own = self_times(spans)
    layer_of = {span[0]: span[3] for span in spans}
    stats = {layer: LayerStats() for layer in LAYERS}
    for sid, parent, __, layer, __, start, end in spans:
        entry = stats.setdefault(layer, LayerStats())
        entry.self_s += own[sid]
        if parent is None or layer_of.get(parent) != layer:
            entry.outer_calls += 1
            entry.outer_s += end - start
    return stats


def name_stats(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, inclusive seconds)."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for __, __, __, __, name, start, end in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start
    return {name: (calls, seconds) for name, (calls, seconds) in out.items()}


def outer_calls(
    spans: Sequence[Span], names: Iterable[str]
) -> tuple[int, float]:
    """(calls, inclusive seconds) of spans named in ``names`` that are
    not nested directly inside another such span."""
    wanted = set(names)
    name_of = {span[0]: span[4] for span in spans}
    count = 0
    total = 0.0
    for __, parent, __, __, name, start, end in spans:
        if name in wanted and name_of.get(parent) not in wanted:
            count += 1
            total += end - start
    return count, total


def layer_growth(
    spans: Sequence[Span],
    first: tuple[float, float],
    last: tuple[float, float],
) -> dict[str, float]:
    """Per layer: self time of spans starting in the ``last`` interval
    over that in the ``first`` one.

    The intervals are the wall-clock stretches taken by the first and the
    last fifth of the queries; with equally many queries in each, the
    ratio of self-time totals is the ratio of per-query means.  A layer
    with no self time in the first interval reports 0.
    """
    own = self_times(spans)
    totals = {layer: [0.0, 0.0] for layer in LAYERS}
    for sid, __, __, layer, __, start, __ in spans:
        bucket = totals.setdefault(layer, [0.0, 0.0])
        if first[0] <= start <= first[1]:
            bucket[0] += own[sid]
        if last[0] <= start <= last[1]:
            bucket[1] += own[sid]
    return {
        layer: late / early if early > 0 else 0.0
        for layer, (early, late) in totals.items()
    }

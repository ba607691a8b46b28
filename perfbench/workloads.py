"""The four benchmark workloads.

Each workload turns a seed into inputs with the program's public
generators (``build_synthetic``, ``synthetic_query``,
``replicate_federation``, ``generate_arrivals``), sets the program up,
and drives it only through public entry points: ``Mediator.answer``,
``Mediator.answer_aggregate`` and ``MediatorService.submit`` /
``drain`` / ``run_until_idle``.  Results are read only from public
objects (answers, tickets, plan caches, traffic logs, source counters,
health snapshots, metric registries).

A workload's ``run`` returns a :class:`Segment`: one record per
attempted query plus the counter deltas over the measured interval.
Checking answers happens afterwards, against reference answers that
are computed once per distinct query text and never inside a timed
region.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro import (
    BreakerConfig,
    ChurnWave,
    Federation,
    FaultProfile,
    Mediator,
    MediatorService,
    PlanCache,
    RemoteSource,
    SyntheticConfig,
    WorkloadSpec,
    build_synthetic,
    generate_arrivals,
    replicate_federation,
    synthetic_query,
)
from repro.errors import AdmissionError
from repro.mediator.reference import items_satisfying_anywhere, reference_aggregate
from repro.query.aggregate import AggregateQuery
from repro.query.fusion import FusionQuery
from repro.query.sqlparse import parse_query
from repro.relational.algebra import intersect_many, select_items
from repro.runtime import DataFaultProfile
from repro.sources.generators import synthetic_conditions
from repro.sources.statistics import ExactStatistics

#: How many times a run sets the workload up; set-up time is their median.
SETUPS = 3


def rss_mb() -> float:
    """Resident memory of this process in MB (Linux ``/proc``)."""
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * resource.getpagesize() / 2**20


#: Median time of one :class:`SpeedProbe` loop on the machine the bounds
#: in BENCHMARK.json were set on (2-core x86_64 VM, CPython 3.11).
REFERENCE_PROBE_S = 250e-6


class SpeedProbe:
    """Times a fixed pure-Python loop now and then during a run.

    A shared or frequency-scaled CPU can change speed by a third within
    a minute, and its runs then differ by that much whatever the program
    does.  Wall-time metrics are scaled by :meth:`slowdown`, the probe's
    median time over :data:`REFERENCE_PROBE_S`, and ``cost_growth``
    divides by the change in the probe's time between the two stretches
    of the run it compares.
    """

    INTERVAL_S = 0.025
    LOOP = 3000

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._last = float("-inf")

    def sample(self) -> float:
        """Time the loop once; return the seconds spent."""
        start = time.perf_counter()
        total = 0
        for value in range(self.LOOP):
            total += value * value
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self._last = end
        return end - start

    def maybe_sample(self) -> float:
        """Sample when one is due; return the seconds spent, which the
        caller leaves out of its measured time."""
        if time.perf_counter() - self._last < self.INTERVAL_S:
            return 0.0
        return self.sample()

    def slowdown(self) -> float:
        """How much slower this machine ran than the reference one
        (1.0 without samples)."""
        if not self.samples:
            return 1.0
        return statistics.median(t for __, t in self.samples) / REFERENCE_PROBE_S


# ----------------------------------------------------------------------
# What a measured interval produced


@dataclass
class QueryRecord:
    """One attempted query.  Times are wall seconds from
    ``time.perf_counter`` unless named virtual."""

    text: str
    start: float
    wall_s: float
    status: str  # "done" | "failed" | "refused"
    virtual_s: float = 0.0
    items: frozenset | None = None
    groups: Any = None  # GroupedAggregates for aggregation queries
    queue_wait_s: float | None = None  # serve workloads only
    episode: int = 0
    refusal: str = ""  # admission refusal reason, when refused

    @property
    def end(self) -> float:
        return self.start + self.wall_s


@dataclass
class Segment:
    """Everything one measured interval produced."""

    records: list[QueryRecord] = field(default_factory=list)
    elapsed_s: float = 0.0
    wire_cost: float = 0.0
    requests: int = 0
    items_shipped: int = 0
    rows_scanned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rss_start_mb: float = 0.0
    rss_end_mb: float = 0.0
    #: Summed over absorbed segments, each measured on its own, so memory
    #: taken between them (by a tracer, say) is not counted.
    rss_growth_mb: float = 0.0
    episodes: int = 1
    #: True when each episode runs on a fresh service (``serve-faults``).
    episodic: bool = False
    #: Per-episode service facts (serve workloads), summed over episodes.
    max_in_flight: int = 0
    breaker_trips: int = 0
    quarantined_sources: int = 0
    vote_rejected_tuples: float = 0.0
    retained_spans: int = 0
    replay_diverged: bool = False
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    @property
    def answered(self) -> list[QueryRecord]:
        return [r for r in self.records if r.status == "done"]

    def absorb(self, later: "Segment") -> None:
        """Append a later segment measured on the same set-up instance.

        Episodic segments (fresh service per episode) add their episodes
        and per-episode facts; otherwise the later segment's live
        service facts replace this one's.
        """
        first = not self.records
        if first:
            self.rss_start_mb = later.rss_start_mb
            self.episodes = 0 if later.episodic else 1
        if later.episodic:
            for record in later.records:
                record.episode += self.episodes
            self.episodes += later.episodes
            for name in (
                "breaker_trips", "quarantined_sources", "vote_rejected_tuples",
                "retained_spans",
            ):
                setattr(self, name, getattr(self, name) + getattr(later, name))
        else:
            self.retained_spans = later.retained_spans
        self.episodic = later.episodic
        self.records.extend(later.records)
        self.elapsed_s += later.elapsed_s
        for name in (
            "wire_cost", "requests", "items_shipped", "rows_scanned",
            "cache_hits", "cache_misses",
        ):
            setattr(self, name, getattr(self, name) + getattr(later, name))
        self.max_in_flight = max(self.max_in_flight, later.max_in_flight)
        self.replay_diverged |= later.replay_diverged
        self.probe.samples.extend(later.probe.samples)
        self.rss_end_mb = later.rss_end_mb
        self.rss_growth_mb += later.rss_end_mb - later.rss_start_mb


@dataclass
class System:
    """One set-up instance of a workload's program."""

    federation: Federation
    mediator: Mediator | None = None
    service: MediatorService | None = None
    #: Shared state kept across deterministic episodes.
    statistics: Any = None
    plan_cache: PlanCache | None = None
    #: Where the next run resumes: the position in the query sequence,
    #: the closed loop's random stream, the first episode's outcomes.
    position: int = 0
    rng: random.Random | None = None
    first_episode: list | None = None

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def _traffic_totals(federation: Federation) -> tuple[float, int, int]:
    cost = 0.0
    items = 0
    requests = 0
    for source in federation:
        for record in source.traffic.records:
            cost += record.cost
            items += record.items_sent + record.items_received + record.rows_loaded
        requests += len(source.traffic.records)
    return cost, requests, items


def _rows_scanned(federation: Federation) -> int:
    return sum(source.table.counters.rows_scanned for source in federation)


class _Counters:
    """Counter deltas over one measured interval."""

    def __init__(self, federation: Federation, caches: list[PlanCache]):
        self.federation = federation
        self.caches = caches
        self.start = self._read()

    def _read(self) -> tuple:
        cost, requests, items = _traffic_totals(self.federation)
        return (
            cost,
            requests,
            items,
            _rows_scanned(self.federation),
            sum(c.hits for c in self.caches),
            sum(c.misses for c in self.caches),
        )

    def finish(self, segment: Segment) -> None:
        end = self._read()
        delta = [b - a for a, b in zip(self.start, end)]
        (
            segment.wire_cost,
            segment.requests,
            segment.items_shipped,
            segment.rows_scanned,
            segment.cache_hits,
            segment.cache_misses,
        ) = delta


def _unique_queries(config: SyntheticConfig, arities: list[int], seed: int) -> list[str]:
    """Distinct fusion SQL texts, one per entry of ``arities``."""
    texts: list[str] = []
    seen: set[str] = set()
    draw = 0
    for m in arities:
        while True:
            text = synthetic_query(config, m, seed=seed + draw).to_sql()
            draw += 1
            if text not in seen:
                seen.add(text)
                texts.append(text)
                break
    return texts


#: Share of the federation's entities a condition of a screened query
#: may select (see :func:`_screened_queries`).
SELECTIVITY_BAND = (0.15, 0.45)


def _screened_queries(
    config: SyntheticConfig,
    arities: list[int],
    seed: int,
    answer_band: tuple[float, float] | None = None,
    union=None,
) -> list[str]:
    """Distinct fusion SQL texts built from generated conditions whose
    selectivity lies in :data:`SELECTIVITY_BAND`.

    The generator draws conditions selecting anywhere from 3% to all of
    the entities, so a handful of raw draws makes one seed's workload
    several times dearer than another's.  Keeping conditions from one
    band gives every seed a workload of the same shape.  With
    ``answer_band`` a query is also kept only when the share of entities
    in its answer lies in that band.  Shares are read from the generated
    data itself: ``union``, the federation's materialized union view,
    built from ``config`` when not given.
    """
    if union is None:
        union = build_synthetic(config).union_view()
    universe = len(union.items())
    merge = union.schema.merge_attribute
    texts: list[str] = []
    pending: list[tuple[Any, frozenset]] = []
    draw = 0
    for m in arities:
        while True:
            while len(pending) < m:
                for condition in synthetic_conditions(config, 32, seed=seed + draw):
                    items = select_items(union, condition)
                    if _within(len(items) / universe, SELECTIVITY_BAND):
                        pending.append((condition, items))
                draw += 1
            chosen, pending = pending[:m], pending[m:]
            if answer_band is not None:
                answer = frozenset.intersection(*(items for __, items in chosen))
                if not _within(len(answer) / universe, answer_band):
                    continue
            text = FusionQuery(merge, tuple(c for c, __ in chosen)).to_sql(union.name)
            if text not in texts:
                texts.append(text)
                break
    return texts


def _within(value: float, band: tuple[float, float]) -> bool:
    return band[0] <= value <= band[1]


# ----------------------------------------------------------------------
# Reference answers


class Oracle:
    """Reference answers, computed once per distinct query text.

    Fusion answers are :func:`~repro.mediator.reference.reference_answer`
    evaluated over one materialized union view (``reference_answer``
    itself rebuilds the view on every call, which would cost more than
    the queries being checked); aggregation answers come from
    :func:`~repro.mediator.reference.reference_aggregate`.
    """

    def __init__(self, federation: Federation):
        self.federation = federation
        self._union = None
        self._answers: dict[str, Any] = {}

    def _parse(self, text: str):
        return parse_query(
            text,
            view_name=self.federation.name,
            merge_attribute=self.federation.schema.merge_attribute,
        )

    def _fusion(self, query: FusionQuery) -> frozenset:
        if self._union is None:
            self._union = self.federation.union_view()
        return intersect_many(items_satisfying_anywhere(self._union, query))

    def expected(self, text: str) -> Any:
        """The reference answer (a frozenset, or grouped aggregates)."""
        if text not in self._answers:
            query = self._parse(text)
            if isinstance(query, AggregateQuery):
                self._answers[text] = reference_aggregate(self.federation, query)
            else:
                self._answers[text] = self._fusion(query)
        return self._answers[text]

    def fusion_items(self, text: str) -> frozenset:
        """The reference entity set (for aggregates: the fused set)."""
        expected = self.expected(text)
        if isinstance(expected, frozenset):
            return expected
        key = ("fusion", text)
        if key not in self._answers:
            self._answers[key] = self._fusion(self._parse(text).fusion)
        return self._answers[key]


@dataclass
class Check:
    """The outcome of checking a segment's answers."""

    attempted: int = 0
    answered: int = 0
    failed: int = 0
    refused: int = 0
    wrong: int = 0
    spurious_tuples: int = 0
    expected_tuples: int = 0
    returned_tuples: int = 0
    answered_items: int = 0
    refused_by: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return self.failed + self.refused + self.wrong

    @property
    def correct(self) -> bool:
        return not self.problems


def check_segment(segment: Segment, federation: Federation, faulty: bool) -> Check:
    """Compare every answered query with its reference answer.

    Fault-free workloads must match exactly.  Under faults an answer may
    miss tuples (that lowers completeness) but any spurious tuple makes
    the query a failed operation and fails the run.
    """
    oracle = Oracle(federation)
    check = Check(attempted=len(segment.records))
    for record in segment.records:
        if record.status == "failed":
            check.failed += 1
            continue
        if record.status == "refused":
            check.refused += 1
            check.refused_by[record.refusal] = check.refused_by.get(record.refusal, 0) + 1
            continue
        check.answered += 1
        expected_items = oracle.fusion_items(record.text)
        items = record.items or frozenset()
        check.answered_items += len(items)
        spurious = items - expected_items
        check.spurious_tuples += len(spurious)
        check.expected_tuples += len(expected_items)
        check.returned_tuples += len(items & expected_items)
        if faulty:
            mismatch = bool(spurious)
        else:
            mismatch = items != expected_items or (
                record.groups is not None
                and record.groups != oracle.expected(record.text)
            )
        if mismatch:
            check.wrong += 1
            if len(check.problems) < 5:
                kind = "spurious tuples" if faulty else "answer differs from reference"
                check.problems.append(f"{kind}: {record.text}")
    if segment.replay_diverged:
        check.problems.append("deterministic replay diverged between episodes")
    return check


# ----------------------------------------------------------------------
# Workloads

#: Share of the entities each source covers.  The generator's default
#: draws it per source from 0.2-0.6, which with four to ten sources
#: makes one seed's federation much larger than another's.
COVERAGE = 0.4
#: Arities of the repeated query pools: m = 2-4, enough texts that a
#: percentile does not hinge on one of them.
POOL_ARITIES = [2, 3, 4] * 8
#: Share of entities in the answer of a serve-pool query: never empty,
#: so every query runs all its stages and is checked on real tuples.
ANSWER_BAND = (0.01, 0.25)


class Workload:
    name = ""
    why = ""
    #: True when the workload injects faults (answers may be partial).
    faulty = False

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> System:
        raise NotImplementedError

    def run(self, system: System, seconds: float) -> Segment:
        raise NotImplementedError


class _MediatorWorkload(Workload):
    """Sequential calls of ``Mediator.answer`` / ``answer_aggregate``."""

    #: Texts ending with this are aggregation queries ("" = none are).
    GROUP_TAIL = ""

    def _sequence(self) -> list[str]:
        raise NotImplementedError

    def run(self, system: System, seconds: float) -> Segment:
        mediator = system.mediator
        assert mediator is not None
        texts = self._sequence()
        segment = Segment(rss_start_mb=rss_mb())
        caches = [mediator.plan_cache] if mediator.plan_cache else []
        counters = _Counters(system.federation, caches)
        sources = list(system.federation)
        clock = time.perf_counter
        began = clock()
        probing = 0.0
        while clock() - began < seconds:
            text = texts[system.position % len(texts)]
            system.position += 1
            aggregate = bool(self.GROUP_TAIL) and text.endswith(self.GROUP_TAIL)
            if aggregate:
                marks = [len(s.traffic.records) for s in sources]
            start = clock()
            if aggregate:
                result = mediator.answer_aggregate(text)
            else:
                result = mediator.answer(text)
            wall = clock() - start
            if aggregate:
                # The sequential executor issues requests one after
                # another, so simulated latency is their summed time.
                virtual = sum(
                    record.elapsed_s
                    for source, mark in zip(sources, marks)
                    for record in source.traffic.records[mark:]
                )
                items, groups = result.items, result.result
            else:
                virtual = result.execution.total_elapsed_s
                items, groups = result.items, None
            segment.records.append(
                QueryRecord(text, start, wall, "done", virtual, items, groups)
            )
            probing += segment.probe.maybe_sample()
        segment.elapsed_s = clock() - began - probing
        counters.finish(segment)
        segment.rss_end_mb = rss_mb()
        return segment


class PlanMiss(_MediatorWorkload):
    name = "plan-miss"
    why = (
        "every query text is unique, so each one misses the plan cache and "
        "planning (statistics scans plus the SJA+ search) dominates"
    )
    POOL = 2048
    #: Unique texts planned during set-up.  Conditions on category,
    #: region and year come from small vocabularies, so the statistics
    #: cache fills with them early; planning these first puts the run
    #: in its steady state instead of timing that transient.
    WARM_PLANS = 60

    def __init__(self, seed: int):
        super().__init__(seed)
        # A wide score domain keeps score thresholds (two of the five
        # condition kinds) from repeating, so later queries do not get
        # cheaper just because their conditions were seen before.
        self.config = SyntheticConfig(
            n_sources=10,
            n_entities=500,
            coverage=COVERAGE,
            score_range=(0, 99_999),
            seed=seed,
        )
        arities = [3 + i % 3 for i in range(self.POOL + self.WARM_PLANS)]
        texts = _unique_queries(self.config, arities, seed * 100_003 + 1)
        self.warm_texts = texts[: self.WARM_PLANS]
        self.texts = texts[self.WARM_PLANS :]

    def setup(self) -> System:
        federation = build_synthetic(self.config)
        mediator = Mediator(federation, cache_plans=True)
        mediator.answer(self.warm_texts[0])
        for text in self.warm_texts[1:]:
            mediator.plan(text)
        return System(federation, mediator=mediator)

    def _sequence(self) -> list[str]:
        return self.texts


#: Aggregates asked of the scan workload's fused entity sets.  Three
#: specs keep partial-aggregate pushdown cheaper than fetching rows at
#: the sources that support it, so both paths run.
_AGGREGATES = "COUNT(*), AVG(u1.score), MAX(u1.year)"


class Scan(_MediatorWorkload):
    name = "scan"
    why = (
        "plans and columns are warm, so wrapper evaluation and the columnar "
        "kernels dominate; aggregates use sources by pushdown and by fetch"
    )
    GROUP_TAIL = "GROUP BY u1.category"
    ROUNDS = 100

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = SyntheticConfig(
            n_sources=8, n_entities=6000, coverage=COVERAGE, seed=seed
        )
        union = build_synthetic(self.config).union_view()
        self.fusion_texts = _screened_queries(
            self.config, [2, 3] * 6, seed * 100_003 + 7, union=union
        )
        # Aggregates summarize fused sets of 4-8% of the entities, so the
        # fetch and pushdown volumes are alike from seed to seed.
        select = "SELECT u1.id "
        self.aggregate_texts = [
            f"SELECT u1.category, {_AGGREGATES} "
            + text[len(select):]
            + f" {self.GROUP_TAIL}"
            for text in _screened_queries(
                self.config, [2] * 6, seed * 100_003 + 11,
                answer_band=(0.04, 0.08), union=union,
            )
        ]
        # Shuffled rounds of the whole pool keep the fusion/aggregate mix
        # the same in every stretch of the run.
        pool = self.fusion_texts + self.aggregate_texts
        rng = random.Random(f"scan:{seed}")
        self.order = []
        for __ in range(self.ROUNDS):
            rng.shuffle(pool)
            self.order.extend(pool)

    def setup(self) -> System:
        base = build_synthetic(self.config)
        sources = [
            RemoteSource(
                source.table,
                dataclasses.replace(
                    source.capabilities, supports_aggregates=index % 2 == 0
                ),
                source.link,
            )
            for index, source in enumerate(base)
        ]
        federation = Federation(sources, name=base.name)
        mediator = Mediator(federation, cache_plans=True)
        for text in self.fusion_texts:
            mediator.answer(text)
        for text in self.aggregate_texts:
            mediator.answer_aggregate(text)
        return System(federation, mediator=mediator)

    def _sequence(self) -> list[str]:
        return self.order


class ServeThreads(Workload):
    name = "serve-threads"
    why = (
        "repeated texts on a tiny federation, so per-query cost is pure "
        "overhead: parse, plan-cache hit, engine, serve bookkeeping, telemetry"
    )
    #: Closed loop: the client keeps this many queries submitted, then
    #: drains them before submitting the next round.
    OUTSTANDING = 4
    #: Engine makespans cluster by plan depth; with three in five texts
    #: at m = 2 the median lies inside a cluster, not in a gap between
    #: two, where it would jump from seed to seed.
    ARITIES = [2, 2, 2, 3, 4] * 5

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = SyntheticConfig(
            n_sources=6, n_entities=250, coverage=COVERAGE, seed=seed
        )
        self.texts = _screened_queries(
            self.config, self.ARITIES, seed * 100_003 + 3, answer_band=ANSWER_BAND
        )
        self._rng_seed = f"serve-threads:{seed}"

    def setup(self) -> System:
        federation = build_synthetic(self.config)
        service = MediatorService(federation, mode="threads", workers=2)
        warm = self.texts * 2
        for index in range(0, len(warm), self.OUTSTANDING):
            for text in warm[index:index + self.OUTSTANDING]:
                service.submit(text)
            service.drain()
        return System(federation, service=service)

    def run(self, system: System, seconds: float) -> Segment:
        service = system.service
        assert service is not None
        if system.rng is None:
            system.rng = random.Random(self._rng_seed)
        rng = system.rng
        segment = Segment(rss_start_mb=rss_mb())
        counters = _Counters(system.federation, [service.plan_cache])
        clock = time.perf_counter
        began = clock()
        probing = 0.0
        while clock() - began < seconds:
            batch = []
            for __ in range(self.OUTSTANDING):
                text = self.texts[rng.randrange(len(self.texts))]
                batch.append((clock(), service.submit(text)))
            service.drain()
            for start, ticket in batch:
                done = ticket.status == "done"
                segment.records.append(
                    QueryRecord(
                        ticket.text,
                        start,
                        ticket.latency_s,
                        ticket.status,
                        ticket.makespan_s,
                        ticket.items,
                        queue_wait_s=(ticket.dispatched_s or 0.0)
                        - ticket.submitted_s
                        if done
                        else None,
                    )
                )
            probing += segment.probe.maybe_sample()
        segment.elapsed_s = clock() - began - probing
        counters.finish(segment)
        segment.rss_end_mb = rss_mb()
        segment.max_in_flight = service.max_in_flight
        segment.retained_spans = len(service.spans) if service.spans is not None else 0
        return segment


class ServeFaults(Workload):
    name = "serve-faults"
    why = (
        "the only workload with retries, hedging, voting, breakers, "
        "quarantine and deadlines, on the deterministic virtual-clock service"
    )
    faulty = True
    ARRIVALS = 240
    RATE_QPS = 1.0
    DEADLINE_S = 30.0
    #: The default breaker opens after 3 consecutive failures, which 5%
    #: transient faults produce now and then on a healthy replica.  In
    #: the serving tier an open breaker's cooldown is compared against
    #: each query's engine clock, which restarts at zero, so it never
    #: half-opens again; once every usable replica of a group is open,
    #: each later query waits out its deadline and admission starts
    #: shedding.  Six consecutive failures still trips the churned
    #: sources but not the healthy ones.
    BREAKER = BreakerConfig(failure_threshold=6)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = SyntheticConfig(
            n_sources=4, n_entities=300, coverage=COVERAGE, seed=seed
        )
        self.texts = _screened_queries(
            self.config, POOL_ARITIES, seed * 100_003 + 5, answer_band=ANSWER_BAND
        )
        self.arrivals = generate_arrivals(
            WorkloadSpec(
                queries=tuple(self.texts),
                count=self.ARRIVALS,
                rate_qps=self.RATE_QPS,
                seed=seed,
                deadline_s=self.DEADLINE_S,
            )
        )
        names = [f"S{j:03d}" for j in range(self.config.n_sources)]
        span = self.arrivals[-1].at_s
        self.churn = ChurnWave(
            start_s=0.4 * span,
            end_s=0.6 * span,
            sources=(names[0], f"{names[0]}~1"),
            rate=0.5,
        )
        #: Mirrors ``~1`` of the first two sources serve stale or corrupt data.
        self.data_faults = {
            f"{name}~1": DataFaultProfile(stale_rate=0.3, corrupt_rate=0.5)
            for name in names[:2]
        }

    def setup(self) -> System:
        base = build_synthetic(self.config)
        federation = replicate_federation(base, 3)
        system = System(
            federation,
            statistics=ExactStatistics(federation),
            plan_cache=PlanCache(),
        )
        warm = self._service(system)
        for text in self.texts:
            warm.submit(text)
        warm.run_until_idle()
        return system

    def _service(self, system: System) -> MediatorService:
        return MediatorService(
            system.federation,
            mode="deterministic",
            seed=self.seed,
            queue_limit=64,
            pool_slots=4,
            faults=FaultProfile.flaky(0.05),
            churn=self.churn,
            data_faults=self.data_faults,
            breaker=self.BREAKER,
            verify="vote",
            quarantine=True,
            statistics=system.statistics,
            plan_cache=system.plan_cache,
            mediator_options={"hedge_delay_s": 1.0},
        )

    def run(self, system: System, seconds: float) -> Segment:
        """Replay whole episodes of the arrival list until ``seconds``
        have passed; each episode runs on a fresh service, so every
        episode must reproduce the first one exactly."""
        segment = Segment(rss_start_mb=rss_mb(), episodes=0, episodic=True)
        counters = _Counters(system.federation, [system.plan_cache])
        clock = time.perf_counter
        measured = 0.0
        while measured < seconds:
            # Collect the last episode's service now, not inside a
            # measured submit of this one.
            gc.collect()
            service = self._service(system)
            episode = segment.episodes
            records = []
            tickets = []
            for arrival in self.arrivals:
                start = clock()
                refusal = ""
                try:
                    ticket = service.submit(
                        arrival.sql, at_s=arrival.at_s, deadline_s=arrival.deadline_s
                    )
                except AdmissionError as exc:
                    ticket = None
                    refusal = exc.reason
                wall = clock() - start
                segment.probe.maybe_sample()
                records.append(
                    QueryRecord(
                        arrival.sql, start, wall, "refused",
                        episode=episode, refusal=refusal,
                    )
                )
                tickets.append(ticket)
            start = clock()
            service.run_until_idle()
            measured += sum(r.wall_s for r in records) + clock() - start
            for record, ticket in zip(records, tickets):
                if ticket is None:
                    continue
                record.status = ticket.status
                record.virtual_s = ticket.latency_s
                record.items = ticket.items
                record.queue_wait_s = (ticket.dispatched_s or ticket.submitted_s) - ticket.submitted_s
            replay = [(r.status, r.virtual_s, r.items) for r in records]
            if system.first_episode is None:
                system.first_episode = replay
            elif replay != system.first_episode:
                segment.replay_diverged = True
            segment.records.extend(records)
            segment.episodes += 1
            segment.max_in_flight = max(segment.max_in_flight, service.max_in_flight)
            health = service.health.snapshot()
            segment.breaker_trips += sum(h["times_opened"] for h in health.values())
            segment.quarantined_sources += sum(
                1 for h in health.values() if h.get("times_quarantined", 0) > 0
            )
            segment.vote_rejected_tuples += sum(
                entry.get("value", 0.0)
                for key, entry in service.metrics.to_json().items()
                if key.startswith("repro_verify_values_dropped_total")
            )
            segment.retained_spans += len(service.spans) if service.spans is not None else 0
            service.close()
        segment.elapsed_s = measured
        counters.finish(segment)
        segment.rss_end_mb = rss_mb()
        return segment


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeThreads, ServeFaults, PlanMiss, Scan)
}


def make(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


def timed_setups(
    workload: Workload, keep: int, probe: SpeedProbe
) -> tuple[list[float], list[System]]:
    """Set the workload up :data:`SETUPS` times; return every set-up
    duration and the last ``keep`` instances (the others are closed).
    ``probe`` is sampled after each set-up."""
    durations: list[float] = []
    systems: list[System] = []
    for __ in range(SETUPS):
        gc.collect()
        start = time.perf_counter()
        systems.append(workload.setup())
        durations.append(time.perf_counter() - start)
        for __ in range(20):
            probe.sample()
        while len(systems) > keep:
            systems.pop(0).close()
    return durations, systems

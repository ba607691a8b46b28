"""Multi-thread hammer tests for the shared cross-query state.

These are the regression tests for the serving tier's prerequisite
bugfix: `PlanCache`, `ObservedStatistics`, `MetricsRegistry`, and
`HealthRegistry` are shared by every worker of a `MediatorService`,
so their mutations must be internally locked.  Each test spins up
many threads doing interleaved mutations and then checks the exact
invariants a single-threaded run would produce.
"""

from __future__ import annotations

import contextlib
import sys
import threading

from repro.mediator.plan_cache import PlanCache
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.runtime.health import (
    BreakerConfig,
    BreakerState,
    HealthRegistry,
)
from repro.sources.observed import ObservedStatistics
from repro.sources.statistics import ExactStatistics

THREADS = 8
ROUNDS = 200


def hammer(worker):
    """Run ``worker(index)`` on THREADS threads; re-raise any failure."""
    errors = []

    def run(index):
        try:
            worker(index)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@contextlib.contextmanager
def fast_switching():
    """Switch threads every microsecond, so lost updates show up."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


class TestPlanCacheHammer:
    def test_concurrent_get_put_never_corrupts(self, dmv_federation, dmv_query):
        cache = PlanCache(capacity=4)
        statistics = ExactStatistics(dmv_federation)
        source_sets = [
            ("R1",), ("R2",), ("R3",),
            ("R1", "R2"), ("R1", "R3"), ("R2", "R3"),
            ("R1", "R2", "R3"), ("R3", "R2"),
        ]

        def worker(index):
            for round_no in range(ROUNDS):
                sources = source_sets[(index + round_no) % len(source_sets)]
                cache.get(dmv_query, sources, statistics)
                cache.put(
                    dmv_query, sources, statistics, f"plan-{sources}"
                )

        hammer(worker)
        assert len(cache) <= 4
        assert cache.hits + cache.misses == THREADS * ROUNDS
        assert 0.0 <= cache.hit_rate <= 1.0


class TestObservedStatisticsHammer:
    def test_concurrent_observe_and_fingerprint(self):
        log = EventLog()
        log.emit(
            0.0, "attempt",
            round=0, step=1, op="sq", planned="R1", source="R1",
            condition="V = 'x'", attempt=1, start=0.0, end=0.1,
            fate="ok", hedge=False, cost=1.0, items_sent=0,
            items_received=5, rows_loaded=0, messages=2,
        )
        log.emit(
            0.2, "attempt",
            round=0, step=2, op="lq", planned="R2", source="R2",
            condition="", attempt=1, start=0.1, end=0.2,
            fate="ok", hedge=False, cost=2.0, items_sent=0,
            items_received=0, rows_loaded=9, messages=1,
        )
        statistics = ObservedStatistics()

        def worker(index):
            for __ in range(ROUNDS):
                mined = statistics.observe(log)
                assert mined == 2
                statistics.fingerprint()
                statistics.universe_size()
                statistics.distinct_items("R1")

        hammer(worker)
        assert statistics.observations == THREADS * ROUNDS * 2
        version = int(statistics.fingerprint().rsplit(":v", 1)[1])
        assert version == THREADS * ROUNDS


class TestMetricsRegistryHammer:
    def test_concurrent_counters_and_histograms(self):
        registry = MetricsRegistry()

        def worker(index):
            for round_no in range(ROUNDS):
                registry.counter("hammer_total", thread=str(index)).inc()
                registry.counter("hammer_total", thread="shared").inc()
                registry.gauge("hammer_depth").set(float(round_no))
                registry.histogram("hammer_s").observe(0.1)
                if round_no % 50 == 0:
                    registry.to_json()

        hammer(worker)
        shared = registry.counter("hammer_total", thread="shared")
        assert shared.value == THREADS * ROUNDS
        histogram = registry.histogram("hammer_s")
        assert histogram.count == THREADS * ROUNDS
        assert sum(histogram.counts) == histogram.count


class TestHealthRegistryHammer:
    def test_concurrent_records_and_breaker_transitions(self):
        registry = HealthRegistry(BreakerConfig.default())
        sources = ["R1", "R2", "R3", "R4"]

        def worker(index):
            for round_no in range(ROUNDS):
                source = sources[(index + round_no) % len(sources)]
                now = float(round_no)
                if registry.allow(source, now):
                    ok = (index + round_no) % 3 != 0
                    registry.record(source, now, ok, 0.05)
                else:
                    registry.reopens_at(source)
                registry.state_of(source)
                if round_no % 50 == 0:
                    registry.snapshot()

        hammer(worker)
        snap = registry.snapshot()
        assert set(snap) == set(sources)
        for info in snap.values():
            assert info["attempts"] == info["successes"] + info["failures"]


class TestQuarantineHammer:
    def test_concurrent_quality_records_and_quarantine(self):
        from repro.runtime.health import QuarantineConfig

        registry = HealthRegistry(
            None,
            QuarantineConfig(
                quality_threshold=0.8, min_volume=3, cooldown_s=None
            ),
        )
        # Half the sources always lie, half never do; every thread
        # hammers all of them plus the read paths.
        liars = ["L1", "L2"]
        honest = ["H1", "H2"]

        def worker(index):
            for round_no in range(ROUNDS):
                now = float(round_no)
                for name in honest:
                    registry.record_quality(
                        name, now, clean=True, delivered=4, kept=4
                    )
                for name in liars:
                    registry.record_quality(
                        name, now, clean=False, delivered=4, kept=2
                    )
                for name in honest + liars:
                    registry.allow(name, now)
                    registry.quality_score(name)
                    registry.state_of(name)
                if round_no % 50 == 0:
                    registry.quarantined_names()
                    registry.snapshot()

        hammer(worker)
        total = THREADS * ROUNDS
        for name in honest:
            quality = registry.quality_of(name)
            assert quality.answers == total
            assert quality.clean == total
            assert registry.quality_score(name) == 1.0
            assert registry.state_of(name) is not BreakerState.QUARANTINED
        for name in liars:
            quality = registry.quality_of(name)
            assert quality.answers == total
            assert quality.clean == 0
            assert registry.state_of(name) is BreakerState.QUARANTINED
            assert not registry.allow(name, 1e12)
        assert set(registry.quarantined_names()) == set(liars)


class TestEventLogHammer:
    def test_concurrent_emits_keep_an_exact_count(self, monkeypatch):
        monkeypatch.setattr(EventLog, "MAX_EVENTS", 64)
        log = EventLog()

        def worker(index):
            for round_no in range(ROUNDS):
                log.emit(
                    float(round_no), "breaker", source=f"R{index}",
                    **{"from": "closed", "to": "open"},
                )

        with fast_switching():
            hammer(worker)
        assert log.emitted == THREADS * ROUNDS
        assert len(log) == 64
        assert log.evicted == THREADS * ROUNDS - 64


class TestSpanLogHammer:
    def test_concurrent_appends_and_exports(self):
        from repro.obs.spans import (
            Span,
            SpanLog,
            derive_trace_id,
            validate_chrome_trace,
        )

        log = SpanLog()

        def worker(index):
            trace = derive_trace_id(99, index)
            for round_no in range(ROUNDS):
                log.add(
                    Span(
                        trace_id=trace,
                        span_id=round_no + 1,
                        parent_id=1 if round_no else None,
                        name="query" if round_no == 0 else "op",
                        category="query" if round_no == 0 else "execute",
                        start_s=float(round_no),
                        end_s=float(round_no) + 0.5,
                    )
                )
                # Concurrent readers must never see torn state.
                assert len(log.for_trace(trace)) >= round_no + 1
                if round_no % 50 == 0:
                    log.to_chrome_trace()

        hammer(worker)
        assert len(log) == THREADS * ROUNDS
        assert len(log.trace_ids()) == THREADS
        assert validate_chrome_trace(log.to_chrome_trace()) == len(log)

    def test_concurrent_service_recorders_share_one_log(self):
        # Thread mode gives each worker its own Recorder over one
        # shared SpanLog; hammer that exact shape.
        from repro.obs.recorder import Recorder
        from repro.obs.spans import SpanLog, derive_trace_id

        log = SpanLog()
        recorders = [Recorder(spans=log) for __ in range(THREADS)]

        def worker(index):
            recorder = recorders[index]
            for round_no in range(ROUNDS):
                trace = derive_trace_id(index, round_no)
                recorder.query_trace(
                    trace_id=trace,
                    query=round_no,
                    tenant="hammer",
                    status="done",
                    submitted_s=0.0,
                    planned_s=0.1,
                    plan_elapsed_s=0.0,
                    dispatched_s=0.2,
                    finished_s=0.9,
                    completed_s=1.0,
                )

        with fast_switching():
            hammer(worker)
        # More traces than the window: nothing is lost (retained plus
        # evicted covers every append), and what remains is exactly the
        # window's worth of whole seven-span trees.
        assert THREADS * ROUNDS > SpanLog.MAX_TRACES
        assert len(log) + log.evicted_spans == THREADS * ROUNDS * 7
        assert log.evicted_traces == THREADS * ROUNDS - SpanLog.MAX_TRACES
        assert len(log.trace_ids()) == SpanLog.MAX_TRACES
        assert len(log) == SpanLog.MAX_TRACES * 7
        for trace in log.trace_ids():
            assert len(log.for_trace(trace)) == 7

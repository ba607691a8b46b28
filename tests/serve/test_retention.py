"""Bounded telemetry retention in the serving tier.

A long-running service must hold O(window) telemetry however many
queries it answers: the span log keeps a window of whole traces, every
event log is a ring, and a thread-mode worker keeps a private event log
(holding only the query it is running) only when statistics mining
reads it.  These tests count objects, never time.
"""

from __future__ import annotations

from repro.obs.events import EventLog
from repro.obs.spans import SpanLog
from repro.serve import MediatorService
from repro.sources.generators import DMV_FIG1_ANSWER

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)

#: Shrunk windows, so three windows' worth of queries stays quick.
TRACE_WINDOW = 24
EVENT_RING = 200


def test_thread_mode_telemetry_stays_within_its_windows(
    monkeypatch, dmv_federation
):
    monkeypatch.setattr(SpanLog, "MAX_TRACES", TRACE_WINDOW)
    monkeypatch.setattr(EventLog, "MAX_EVENTS", EVENT_RING)
    service = MediatorService(
        dmv_federation, mode="threads", workers=2, queue_limit=32
    )
    total = 3 * TRACE_WINDOW
    tickets = []
    try:
        while len(tickets) < total:
            tickets.extend(service.submit(DMV_SQL) for __ in range(4))
            service.drain(timeout_s=60.0)
    finally:
        service.close()
    assert all(t.status == "done" for t in tickets)
    assert all(t.items == DMV_FIG1_ANSWER for t in tickets)
    # Every ticket was attributed from its own, whole trace.
    assert all(t.phases is not None for t in tickets)

    spans = service.spans
    assert len(spans.trace_ids()) == TRACE_WINDOW
    # Batches of four end on the window's edge, so whatever order the
    # two workers started them in, the last six batches are retained.
    assert set(spans.trace_ids()) == {t.trace_id for t in tickets[-TRACE_WINDOW:]}
    assert spans.evicted_traces == total - TRACE_WINDOW
    assert len(spans) + spans.evicted_spans == spans.appended
    per_trace = {len(spans.for_trace(t)) for t in spans.trace_ids()}
    assert len(per_trace) == 1  # same query, same tree shape, all whole

    # Nothing reads worker events without statistics mining, so the
    # workers keep no event log at all.
    assert all(r.events is None for r in service.worker_recorders)

    # The service's own stream wrapped its ring without losing count.
    service_log = service.recorder.events
    assert len(service_log) == EVENT_RING
    assert service_log.evicted > 0
    served = service_log.emitted
    assert served == len(service_log) + service_log.evicted
    completed = [
        e for e in service_log.of_type("serve") if e["phase"] == "completed"
    ]
    assert completed[-1]["query"] == tickets[-1].seq


def test_mining_worker_log_holds_only_its_current_query(dmv_federation):
    service = MediatorService(
        dmv_federation,
        mode="threads",
        workers=2,
        queue_limit=32,
        mine_statistics=True,
    )
    total = 12
    tickets = []
    try:
        while len(tickets) < total:
            tickets.extend(service.submit(DMV_SQL) for __ in range(4))
            service.drain(timeout_s=60.0)
    finally:
        service.close()
    assert all(t.items == DMV_FIG1_ANSWER for t in tickets)

    # A worker's log holds exactly the last query it ran.
    handled = 0
    for recorder in service.worker_recorders:
        log = recorder.events
        assert log is not None
        if log.emitted == 0:
            continue
        assert log.emitted % len(log) == 0
        handled += log.emitted // len(log)
        assert [e.type for e in log][0] == "run_start"
        assert [e.type for e in log][-1] == "run_end"
    assert handled == total


def test_deterministic_replay_unchanged_by_the_window(
    monkeypatch, dmv_federation
):
    """Runs shorter than the window export byte-identically, and the
    exported tracks keep their first-seen numbers once it slides."""

    def run(count):
        service = MediatorService(
            dmv_federation, mode="deterministic", pool_slots=2, seed=9
        )
        for step in range(count):
            service.submit(DMV_SQL, at_s=0.5 * step)
        service.run_until_idle()
        return service

    baseline = run(6).spans.to_chrome_trace()
    monkeypatch.setattr(SpanLog, "MAX_TRACES", 6)
    assert run(6).spans.to_chrome_trace() == baseline
    slid = run(8).spans.to_chrome_trace()
    tracks = {
        e["args"]["name"]: e["tid"]
        for e in slid["traceEvents"]
        if e["ph"] == "M"
    }
    assert sorted(tracks.values()) == [3, 4, 5, 6, 7, 8]

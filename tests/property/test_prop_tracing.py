"""Property-based tests for causal tracing: replay determinism and
critical-path exactness over randomized workloads."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import analyze_log, validate_chrome_trace
from repro.serve import (
    MediatorService,
    WorkloadSpec,
    generate_arrivals,
    run_workload,
)
from repro.sources.generators import dmv_fig1

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)


def run_once(seed, count, rate_qps, pool_slots, fault_rate):
    from repro.runtime.faults import FaultProfile

    federation, __ = dmv_fig1()
    service = MediatorService(
        federation,
        mode="deterministic",
        pool_slots=pool_slots,
        seed=seed,
        faults=FaultProfile.flaky(fault_rate) if fault_rate else None,
    )
    spec = WorkloadSpec(
        queries=(DMV_SQL,), count=count, rate_qps=rate_qps, seed=seed
    )
    run_workload(service, generate_arrivals(spec))
    return service


@given(
    seed=st.integers(0, 10_000),
    count=st.integers(2, 6),
    rate_qps=st.floats(1.0, 20.0),
    pool_slots=st.integers(1, 4),
    fault_rate=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=10, deadline=None)
def test_same_seed_trace_export_is_byte_identical(
    seed, count, rate_qps, pool_slots, fault_rate
):
    first = run_once(seed, count, rate_qps, pool_slots, fault_rate)
    second = run_once(seed, count, rate_qps, pool_slots, fault_rate)
    exported = first.spans.to_chrome_json()
    assert exported == second.spans.to_chrome_json()
    assert validate_chrome_trace(first.spans.to_chrome_trace()) == len(
        first.spans
    )


@given(
    seed=st.integers(0, 10_000),
    count=st.integers(2, 8),
    pool_slots=st.integers(1, 4),
    fault_rate=st.sampled_from([0.0, 0.3, 0.6]),
)
@settings(max_examples=15, deadline=None)
def test_critical_path_always_tiles_the_latency(
    seed, count, pool_slots, fault_rate
):
    service = run_once(seed, count, 8.0, pool_slots, fault_rate)
    paths = analyze_log(service.spans)
    finished = [
        t for t in service.tickets if t.completed_s is not None
    ]
    assert finished
    for ticket in finished:
        path = paths[ticket.trace_id]
        assert abs(path.total_s - ticket.latency_s) <= 1e-9
        assert (
            abs(sum(path.by_phase().values()) - ticket.latency_s) <= 1e-9
        )
        # Slices partition [submit, complete]: contiguous, ordered.
        for left, right in zip(path.slices, path.slices[1:]):
            assert abs(left.end_s - right.start_s) <= 1e-12


def _span(trace_id, span_id):
    from repro.obs.spans import Span

    return Span(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=None if span_id == 1 else 1,
        name="query" if span_id == 1 else "op",
        category="serve" if span_id == 1 else "execute",
        start_s=float(span_id),
        end_s=float(span_id) + 0.5,
    )


@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=40),
    window=st.integers(1, 6),
    width=st.integers(1, 4),
    choices=st.lists(st.integers(0, 1_000), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_span_index_matches_a_linear_filter_and_evicts_whole_traces(
    sizes, window, width, choices
):
    """Random interleaved appends from up to ``width`` open traces.

    The window's contract: a trace stays whole while fewer than
    ``MAX_TRACES`` newer traces start during its lifetime, so the
    schedule finishes any trace about to see that many before starting
    another.
    """
    from repro.obs.spans import SpanLog, derive_trace_id

    log = SpanLog()
    log.MAX_TRACES = window  # a small window, so eviction is exercised
    ids = [derive_trace_id(3, n) for n in range(len(sizes))]
    appended = {trace: 0 for trace in ids}
    newer = {}  # open trace -> traces started since it opened
    pending = list(range(len(sizes)))
    turn = iter(choices * (sum(sizes) + len(sizes)))

    def append(index):
        trace = ids[index]
        appended[trace] += 1
        log.add(_span(trace, appended[trace]))
        if appended[trace] == sizes[index]:
            del newer[index]

    def check():
        retained = log.spans
        live = log.trace_ids()
        assert len(live) <= window
        for trace in live:
            assert log.for_trace(trace) == [
                s for s in retained if s.trace_id == trace
            ]
        assert {s.trace_id for s in retained} == set(live)
        for trace, count in appended.items():
            kept = len(log.for_trace(trace))
            assert kept in (0, count), "a trace was evicted in part"
        assert len(log) + log.evicted_spans == sum(appended.values())
        assert log.appended == sum(appended.values())

    while pending or newer:
        choice = next(turn)
        if pending and (not newer or (choice % 2 == 0 and len(newer) < width)):
            for index in [i for i, n in newer.items() if n >= window - 1]:
                while index in newer:
                    append(index)
            for index in newer:
                newer[index] += 1
            index = pending.pop(0)
            newer[index] = 0
            append(index)
        else:
            open_traces = sorted(newer)
            append(open_traces[choice % len(open_traces)])
        check()
    evicted = [trace for trace in ids if not log.for_trace(trace)]
    assert log.evicted_traces == len(evicted)
    assert log.evicted_spans == sum(
        size for trace, size in zip(ids, sizes) if trace in evicted
    )
    assert log.trace_ids() == [t for t in ids if t not in evicted]

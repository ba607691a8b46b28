"""The instrumentation hub the execution layers report into.

A :class:`Recorder` owns (optionally) a metrics registry and an event
log and exposes one domain-level method per observable incident; each
call updates both sinks consistently, so engines never touch metric
names or event schemas directly.  Everything is keyed to the virtual
clock passed by the caller.

A recorder is shared across re-plan rounds: the resilient executor bumps
``round`` and ``clock_offset_s`` between rounds, so event timestamps
stay monotone across a whole resilient run even though each engine round
restarts its clock at zero.

With ``Recorder()`` (no sinks requested) both a metrics registry and an
event log are created; pass ``metrics=None`` / ``events=None`` through
the keyword-only constructor arguments to drop one side.  Without an
event log the hot per-attempt/per-op methods skip building event fields
altogether (conditions are passed as objects and rendered to SQL only
for a stored event); metrics and spans are unaffected.  The execution
layers accept ``recorder=None`` (their default) and skip all
instrumentation, which keeps the zero-config runtime byte-identical to
the uninstrumented one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import EventLog
from repro.obs.metrics import (
    DURATION_BUCKETS_S,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import (
    ADMISSION_SPAN_ID,
    EXECUTE_SPAN_ID,
    FIRST_ENGINE_SPAN_ID,
    MERGE_SPAN_ID,
    PLAN_SPAN_ID,
    POOL_SPAN_ID,
    QUEUE_SPAN_ID,
    ROOT_SPAN_ID,
    Span,
    SpanLog,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.conditions import Condition
    from repro.runtime.trace import AttemptSpan, OpSpan


_UNSET = object()


class _ActiveTrace:
    """Span-allocation state for the query currently executing.

    Owned by exactly one recorder at a time (the engine runs
    synchronously inside ``start_trace`` / ``end_trace``), so no lock:
    span *ids* are allocated here deterministically in event order,
    while the shared :class:`~repro.obs.spans.SpanLog` locks appends.
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self._next_id = FIRST_ENGINE_SPAN_ID
        #: (round, step) -> pre-allocated op span id (attempt/retry
        #: spans arrive before their op span is materialized; re-plan
        #: rounds restart step numbering, so the round disambiguates).
        self._op_ids: dict[tuple[int, int], int] = {}

    def allocate(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def op_span_id(self, key: tuple[int, int]) -> int:
        span_id = self._op_ids.get(key)
        if span_id is None:
            span_id = self.allocate()
            self._op_ids[key] = span_id
        return span_id


class Recorder:
    """Collects events and metrics from one mediator's executions."""

    def __init__(
        self,
        metrics: MetricsRegistry | None | object = _UNSET,
        events: EventLog | None | object = _UNSET,
        spans: SpanLog | None = None,
    ):
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if metrics is _UNSET else metrics  # type: ignore[assignment]
        )
        self.events: EventLog | None = (
            EventLog() if events is _UNSET else events  # type: ignore[assignment]
        )
        #: Optional span sink — a service shares one log across all of
        #: its recorders; ``None`` disables span recording entirely.
        self.spans: SpanLog | None = spans
        #: Current re-plan round (0 = initial plan), set by the caller.
        self.round = 0
        #: Added to every timestamp — keeps event time monotone across
        #: re-plan rounds whose engine clocks each restart at zero.
        self.clock_offset_s = 0.0
        self._trace: _ActiveTrace | None = None
        #: (registry factory, name, label items) -> metric handle; the
        #: registry never drops a metric, so a handle stays valid.
        self._handles: dict[tuple, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------
    # Low-level sinks

    def _emit(self, now_s: float, event_type: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(
                self.clock_offset_s + now_s, event_type, **fields
            )

    def _now(self, now_s: float) -> float:
        return self.clock_offset_s + now_s

    def _handle(self, factory, name: str, labels: dict):
        """``factory(name, **labels)``, looked up once per recorder.

        The hot path makes ~150 metric updates per query; caching the
        handles skips the registry's lock and label-key rebuild on all
        but the first.  ``factory`` is a bound method of the current
        registry, so swapping ``self.metrics`` never serves stale
        handles.
        """
        key = (factory, name, *labels.items())
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = factory(name, **labels)
        return handle

    def _counter(self, name: str, **labels) -> Counter:
        return self._handle(self.metrics.counter, name, labels)

    def _gauge(self, name: str, **labels) -> Gauge:
        return self._handle(self.metrics.gauge, name, labels)

    def _histogram(self, name: str, **labels) -> Histogram:
        """``labels`` may carry ``buckets`` (used at first registration)."""
        return self._handle(self.metrics.histogram, name, labels)

    # ------------------------------------------------------------------
    # Trace context (span recording)

    def start_trace(self, trace_id: str) -> bool:
        """Begin recording engine spans under ``trace_id``.

        Returns ``True`` when a context was opened; a no-op (``False``)
        when span recording is off or a trace is already active, so
        nested layers (mediator around engine) compose without
        double-starting.
        """
        if self.spans is None or self._trace is not None:
            return False
        self._trace = _ActiveTrace(trace_id)
        return True

    def end_trace(self) -> None:
        self._trace = None

    def _span(
        self,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        parent_id: int | None,
        span_id: int | None = None,
        **attributes,
    ) -> None:
        """Append one engine span under the active trace (offset into
        the service timeline), if tracing is on."""
        trace = self._trace
        if self.spans is None or trace is None:
            return
        self.spans.add(
            Span(
                trace_id=trace.trace_id,
                span_id=trace.allocate() if span_id is None else span_id,
                parent_id=parent_id,
                name=name,
                category=category,
                start_s=self.clock_offset_s + start_s,
                end_s=self.clock_offset_s + end_s,
                attributes=attributes,
            )
        )

    # ------------------------------------------------------------------
    # Run lifecycle

    def run_started(
        self, now_s: float, backend: str, plan, result_register: str
    ) -> None:
        self._emit(
            now_s,
            "run_start",
            backend=backend,
            round=self.round,
            plan_ops=len(plan.operations),
            remote_ops=plan.remote_op_count,
            result=result_register,
        )
        if self.metrics is not None:
            self._counter(
                "repro_runs_total", backend=backend
            ).inc(now_s=self._now(now_s))

    def run_finished(
        self,
        now_s: float,
        backend: str,
        makespan_s: float,
        retries: int,
        degraded: int,
        recovered: int,
        hedges: int,
        cost: float,
        items: int,
    ) -> None:
        self._emit(
            now_s,
            "run_end",
            backend=backend,
            round=self.round,
            makespan=makespan_s,
            retries=retries,
            degraded=degraded,
            recovered=recovered,
            hedges=hedges,
            cost=cost,
            items=items,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self._gauge("repro_makespan_s").set(
                self.clock_offset_s + makespan_s, now_s=stamp
            )
            self._counter("repro_answer_items_total").inc(
                items, now_s=stamp
            )

    # ------------------------------------------------------------------
    # Wire attempts

    def sendset_shipped(
        self,
        now_s: float,
        step: int,
        source: str,
        condition: "Condition",
        size: int,
    ) -> None:
        if self.events is not None:
            self._emit(
                now_s,
                "sendset",
                round=self.round,
                step=step,
                source=source,
                condition=condition.to_sql(),
                size=size,
            )
        if self.metrics is not None:
            self._histogram(
                "repro_sendset_size", buckets=SIZE_BUCKETS
            ).observe(size, now_s=self._now(now_s))
        if self._trace is not None:
            self._span(
                "sendset",
                "execute",
                now_s,
                now_s,
                self._trace.op_span_id((self.round, step)),
                source=source,
                size=size,
            )

    def attempt_finished(
        self,
        now_s: float,
        step: int,
        op_kind: str,
        planned: str,
        condition: "Condition | None",
        span: "AttemptSpan",
    ) -> None:
        source = span.source or planned
        if self.events is not None:
            self._emit(
                now_s,
                "attempt",
                round=self.round,
                step=step,
                op=op_kind,
                planned=planned,
                source=source,
                condition="" if condition is None else condition.to_sql(),
                attempt=span.attempt,
                start=span.start_s,
                end=span.end_s,
                fate=span.fate.value,
                hedge=span.hedge,
                cost=span.cost,
                items_sent=span.items_sent,
                items_received=span.items_received,
                rows_loaded=span.rows_loaded,
                messages=span.messages,
            )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self._counter(
                "repro_attempts_total", source=source, fate=span.fate.value
            ).inc(now_s=stamp)
            self._counter(
                "repro_wire_busy_seconds_total", source=source
            ).inc(span.duration_s, now_s=stamp)
            self._counter(
                "repro_op_cost_total", source=source
            ).inc(span.cost, now_s=stamp)
            self._counter(
                "repro_op_items_sent_total", source=source
            ).inc(span.items_sent, now_s=stamp)
            self._counter(
                "repro_op_items_received_total", source=source
            ).inc(span.items_received, now_s=stamp)
            if span.rows_loaded:
                self._counter(
                    "repro_op_rows_loaded_total", source=source
                ).inc(span.rows_loaded, now_s=stamp)
            self._histogram(
                "repro_attempt_duration_s", buckets=DURATION_BUCKETS_S
            ).observe(span.duration_s, now_s=stamp)
        if self._trace is not None:
            self._span(
                "attempt",
                "execute",
                span.start_s,
                span.end_s,
                self._trace.op_span_id((self.round, step)),
                attempt=span.attempt,
                source=source,
                fate=span.fate.value,
                hedge=span.hedge,
                cost=span.cost,
            )

    def retry_scheduled(
        self, now_s: float, step: int, source: str, retries: int, at_s: float
    ) -> None:
        self._emit(
            now_s,
            "retry",
            round=self.round,
            step=step,
            source=source,
            retries=retries,
            at=at_s,
        )
        if self.metrics is not None:
            self._counter(
                "repro_retries_total", source=source
            ).inc(now_s=self._now(now_s))
        if self._trace is not None:
            # The backoff window is blocked time on the op's critical
            # path; recording it as a span lets the analyzer classify
            # it separately from wire time.
            self._span(
                "backoff",
                "execute",
                now_s,
                at_s,
                self._trace.op_span_id((self.round, step)),
                source=source,
                retries=retries,
            )

    def hedge_launched(
        self, now_s: float, step: int, primary: str, target: str, trigger: str
    ) -> None:
        self._emit(
            now_s,
            "hedge",
            round=self.round,
            step=step,
            primary=primary,
            target=target,
            trigger=trigger,
        )
        if self.metrics is not None:
            self._counter(
                "repro_hedges_total", target=target, trigger=trigger
            ).inc(now_s=self._now(now_s))
        if self._trace is not None:
            self._span(
                "hedge",
                "execute",
                now_s,
                now_s,
                self._trace.op_span_id((self.round, step)),
                primary=primary,
                target=target,
                trigger=trigger,
            )

    # ------------------------------------------------------------------
    # Health / planning

    def breaker_transition(
        self, now_s: float, source: str, old_state: str, new_state: str
    ) -> None:
        self._emit(
            now_s,
            "breaker",
            source=source,
            **{"from": old_state, "to": new_state},
        )
        if self.metrics is not None:
            self._counter(
                "repro_breaker_transitions_total", source=source, to=new_state
            ).inc(now_s=self._now(now_s))
        if self._trace is not None:
            self._span(
                "breaker",
                "execute",
                now_s,
                now_s,
                EXECUTE_SPAN_ID,
                source=source,
                **{"from": old_state, "to": new_state},
            )

    def answer_verified(self, now_s, step, report, score) -> None:
        """One answer passed through the verifier (``report`` is a
        :class:`~repro.runtime.verify.AnswerReport`).

        Metrics count every verified answer; a ``quality`` event is
        emitted only when the answer had detectable issues, so clean
        runs do not bloat the log.
        """
        if self.metrics is not None:
            outcome = "clean" if report.clean else "tainted"
            self._counter(
                "repro_verify_answers_total",
                source=report.source,
                outcome=outcome,
            ).inc(now_s=self._now(now_s))
            for reason, count in (
                ("corrupt", report.corrupt),
                ("duplicate", report.duplicates),
                ("conflict", report.conflicts),
            ):
                if count:
                    self._counter(
                        "repro_verify_values_dropped_total",
                        source=report.source,
                        reason=reason,
                    ).inc(count, now_s=self._now(now_s))
            self._gauge(
                "repro_verify_quality_score", source=report.source
            ).set(score, now_s=self._now(now_s))
        if not report.clean:
            self._emit(
                now_s,
                "quality",
                step=step,
                source=report.source,
                delivered=report.delivered,
                kept=report.kept,
                corrupt=report.corrupt,
                duplicates=report.duplicates,
                conflicts=report.conflicts,
                score=score,
            )
        if self._trace is not None:
            self._span(
                "verify",
                "execute",
                now_s,
                now_s,
                self._trace.op_span_id((self.round, step)),
                source=report.source,
                outcome="clean" if report.clean else "tainted",
                kept=report.kept,
                dropped=report.delivered - report.kept,
            )

    def quarantine_changed(
        self, now_s, source: str, action: str, score: float, answers: int
    ) -> None:
        """A source entered or left data-quality quarantine."""
        self._emit(
            now_s,
            "quarantine",
            source=source,
            action=action,
            score=score,
            answers=answers,
        )
        if self.metrics is not None and action == "enter":
            self._counter(
                "repro_verify_quarantines_total", source=source
            ).inc(now_s=self._now(now_s))
        if self._trace is not None:
            self._span(
                "quarantine",
                "execute",
                now_s,
                now_s,
                EXECUTE_SPAN_ID,
                source=source,
                action=action,
            )

    def round_planned(
        self,
        now_s: float,
        round_no: int,
        optimizer: str,
        sources: list[str],
        masked: list[str],
        estimated_cost: float,
    ) -> None:
        self._emit(
            now_s,
            "replan",
            round=round_no,
            optimizer=optimizer,
            sources=sources,
            masked=masked,
            estimated_cost=estimated_cost,
        )
        if self.metrics is not None and round_no > 0:
            self._counter("repro_replan_rounds_total").inc(
                now_s=self._now(now_s)
            )

    # ------------------------------------------------------------------
    # Serving tier (repro.serve)

    def _serve(
        self,
        now_s: float,
        phase: str,
        query: int,
        tenant: str,
        queue_depth: int,
        in_flight: int,
        detail: str = "",
        latency: float = 0.0,
    ) -> None:
        self._emit(
            now_s,
            "serve",
            phase=phase,
            query=query,
            tenant=tenant,
            queue_depth=queue_depth,
            in_flight=in_flight,
            detail=detail,
            latency=latency,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self._gauge("repro_serve_queue_depth").set(
                queue_depth, now_s=stamp
            )
            self._gauge("repro_serve_in_flight").set(
                in_flight, now_s=stamp
            )

    def query_admitted(
        self, now_s: float, query: int, tenant: str,
        queue_depth: int, in_flight: int,
    ) -> None:
        self._serve(now_s, "admitted", query, tenant, queue_depth, in_flight)
        if self.metrics is not None:
            self._counter(
                "repro_serve_admitted_total", tenant=tenant
            ).inc(now_s=self._now(now_s))

    def worker_fault(self, now_s: float, stage: str) -> None:
        """A serving worker caught a non-library exception while
        planning or executing one query (``stage``); the ticket failed
        and the worker kept serving."""
        if self.metrics is not None:
            self._counter("repro_serve_worker_faults_total", stage=stage).inc(
                now_s=self._now(now_s)
            )

    def query_rejected(
        self, now_s: float, query: int, tenant: str, reason: str,
        queue_depth: int, in_flight: int,
    ) -> None:
        self._serve(
            now_s, "rejected", query, tenant, queue_depth, in_flight,
            detail=reason,
        )
        if self.metrics is not None:
            self._counter(
                "repro_serve_rejected_total", tenant=tenant, reason=reason
            ).inc(now_s=self._now(now_s))

    def query_dispatched(
        self, now_s: float, query: int, tenant: str,
        queue_depth: int, in_flight: int,
    ) -> None:
        self._serve(now_s, "dispatched", query, tenant, queue_depth, in_flight)

    def query_completed(
        self, now_s: float, query: int, tenant: str,
        queue_depth: int, in_flight: int,
        latency_s: float, error: str = "",
        partial: bool = False,
    ) -> None:
        self._serve(
            now_s,
            "failed" if error else "completed",
            query, tenant, queue_depth, in_flight,
            detail=error, latency=latency_s,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self._counter(
                "repro_serve_completed_total",
                tenant=tenant,
                outcome="error" if error else "ok",
            ).inc(now_s=stamp)
            if partial and not error:
                # Completeness SLOs read this next to the ok counter.
                self._counter(
                    "repro_serve_partial_total", tenant=tenant
                ).inc(now_s=stamp)
            self._histogram(
                "repro_serve_latency_s",
                buckets=DURATION_BUCKETS_S,
                tenant=tenant,
            ).observe(latency_s, now_s=stamp)

    # ------------------------------------------------------------------
    # Causal tracing (repro.obs.spans)

    def query_planned(
        self,
        now_s: float,
        query: int,
        tenant: str,
        trace_id: str,
        cache: str,
        strategy: str,
        subsets: int,
        elapsed_s: float,
        exhausted: bool,
    ) -> None:
        """The serving tier planned one admitted query."""
        self._emit(
            now_s,
            "plan",
            query=query,
            tenant=tenant,
            trace=trace_id,
            cache=cache,
            strategy=strategy,
            subsets=subsets,
            elapsed=elapsed_s,
            exhausted=exhausted,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self._counter(
                "repro_serve_plans_total", cache=cache
            ).inc(now_s=stamp)
            self._histogram(
                "repro_plan_latency_s", buckets=DURATION_BUCKETS_S
            ).observe(elapsed_s, now_s=stamp)

    def query_trace(
        self,
        trace_id: str,
        query: int,
        tenant: str,
        status: str,
        submitted_s: float,
        planned_s: float,
        plan_elapsed_s: float,
        dispatched_s: float,
        finished_s: float,
        completed_s: float,
        cache: str = "off",
        strategy: str = "",
    ) -> None:
        """Materialize the serving-tier spans of one finished query.

        Called once, at completion, when every phase boundary is known;
        the engine spans recorded during execution already parent under
        the fixed ``EXECUTE_SPAN_ID``.  The six phase spans tile
        ``[submitted, completed]`` exactly: admission (instantaneous),
        queue wait, planning, pool acquisition, execution, and the
        final merge/bookkeeping gap.
        """
        if self.spans is None:
            return
        plan_end = min(planned_s + plan_elapsed_s, dispatched_s)

        def span(
            span_id: int,
            parent_id: int | None,
            name: str,
            category: str,
            start_s: float,
            end_s: float,
            **attributes,
        ) -> Span:
            return Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                category=category,
                start_s=start_s,
                end_s=end_s,
                attributes=attributes,
            )

        # One batch, so the window never evicts part of a query's tree.
        self.spans.add_all(
            (
                span(
                    ROOT_SPAN_ID,
                    None,
                    "query",
                    "serve",
                    submitted_s,
                    completed_s,
                    query=query,
                    tenant=tenant,
                    status=status,
                ),
                span(
                    ADMISSION_SPAN_ID,
                    ROOT_SPAN_ID,
                    "admission",
                    "serve",
                    submitted_s,
                    submitted_s,
                ),
                span(
                    QUEUE_SPAN_ID, ROOT_SPAN_ID, "queue", "serve",
                    submitted_s, planned_s,
                ),
                span(
                    PLAN_SPAN_ID,
                    ROOT_SPAN_ID,
                    "plan",
                    "plan",
                    planned_s,
                    plan_end,
                    cache=cache,
                    strategy=strategy,
                ),
                span(
                    POOL_SPAN_ID, ROOT_SPAN_ID, "pool", "serve",
                    plan_end, dispatched_s,
                ),
                span(
                    EXECUTE_SPAN_ID,
                    ROOT_SPAN_ID,
                    "execute",
                    "execute",
                    dispatched_s,
                    finished_s,
                ),
                span(
                    MERGE_SPAN_ID, ROOT_SPAN_ID, "merge", "serve",
                    finished_s, completed_s,
                ),
            )
        )

    def query_phases(
        self,
        now_s: float,
        query: int,
        tenant: str,
        trace_id: str,
        phases: dict[str, float],
        total_s: float,
    ) -> None:
        """Critical-path attribution of one completed query.

        ``phases`` is the analyzer's by-phase dict (see
        :data:`repro.obs.spans.PHASES`); the event schema folds the
        (always instantaneous) admission phase into the queue field.
        """
        self._emit(
            now_s,
            "phases",
            query=query,
            tenant=tenant,
            trace=trace_id,
            queue=phases.get("admission", 0.0) + phases.get("queue", 0.0),
            plan=phases.get("plan", 0.0),
            pool=phases.get("pool", 0.0),
            exec_wait=phases.get("exec.wait", 0.0),
            exec_wire=phases.get("exec.wire", 0.0),
            exec_backoff=phases.get("exec.backoff", 0.0),
            merge=phases.get("merge", 0.0),
            total=total_s,
        )
        if self.metrics is not None:
            stamp = self._now(now_s)
            for phase, seconds in sorted(phases.items()):
                self._histogram(
                    "repro_serve_phase_latency_s",
                    buckets=DURATION_BUCKETS_S,
                    phase=phase,
                ).observe(seconds, now_s=stamp)

    def query_shed(
        self,
        now_s: float,
        query: int,
        tenant: str,
        reason: str,
        predicted_s: float,
        deadline_s: float,
    ) -> None:
        """Latency-aware shedding refused a query at admission."""
        self._emit(
            now_s,
            "shed",
            query=query,
            tenant=tenant,
            reason=reason,
            predicted=predicted_s,
            deadline=deadline_s,
        )
        if self.metrics is not None:
            self._counter(
                "repro_serve_deadline_shed_total", tenant=tenant, reason=reason
            ).inc(now_s=self._now(now_s))

    def deadline_expired(
        self,
        now_s: float,
        query: int,
        tenant: str,
        stage: str,
        budget_s: float,
        overrun_s: float,
    ) -> None:
        """A query's deadline budget ran out in queue or mid-execution."""
        self._emit(
            now_s,
            "deadline",
            query=query,
            tenant=tenant,
            stage=stage,
            budget=budget_s,
            overrun=max(0.0, overrun_s),
        )
        if self.metrics is not None:
            self._counter(
                "repro_serve_deadline_expired_total",
                tenant=tenant,
                stage=stage,
            ).inc(now_s=self._now(now_s))

    def deadline_outcome(
        self, now_s: float, tenant: str, missed: bool
    ) -> None:
        """Deadline met/missed tally for one completed query."""
        if self.metrics is not None:
            name = (
                "repro_serve_deadline_missed_total"
                if missed
                else "repro_serve_deadline_met_total"
            )
            self._counter(name, tenant=tenant).inc(
                now_s=self._now(now_s)
            )

    def op_finished(self, now_s: float, span: "OpSpan") -> None:
        op = span.operation
        if self.events is not None:
            condition = getattr(op, "condition", None)
            self._emit(
                now_s,
                "op",
                round=self.round,
                step=span.step,
                op=op.kind.value,
                target=op.target,
                source=span.source,
                remote=op.remote,
                condition="" if condition is None else condition.to_sql(),
                queued=span.queued_s,
                started=span.started_s,
                finished=span.finished_s,
                status=span.status.value,
                output=span.output_size,
            )
        if self.metrics is not None:
            stamp = self._now(now_s)
            self._counter(
                "repro_ops_total", status=span.status.value
            ).inc(now_s=stamp)
            if op.remote:
                self._histogram(
                    "repro_op_queue_wait_s", buckets=DURATION_BUCKETS_S
                ).observe(span.queue_wait_s, now_s=stamp)
        if self._trace is not None:
            # Uses the id pre-allocated when the op's first attempt (or
            # sendset/retry) referenced this step, so children emitted
            # earlier already parent correctly.
            self._span(
                "op",
                "execute",
                span.queued_s,
                span.finished_s,
                EXECUTE_SPAN_ID,
                span_id=self._trace.op_span_id((self.round, span.step)),
                step=span.step,
                op=op.kind.value,
                source=span.source,
                remote=op.remote,
                started=self.clock_offset_s + span.started_s,
                status=span.status.value,
                output=span.output_size,
            )

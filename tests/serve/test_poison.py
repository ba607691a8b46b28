"""Poisoned inputs fail their own ticket and never the service.

A query that cannot be parsed, or whose execution raises something the
library did not anticipate, must complete as a failed ticket while the
service keeps answering everything else in both modes.
"""

from __future__ import annotations

import pytest

from repro.mediator.session import Mediator
from repro.serve import MediatorService
from repro.sources.generators import DMV_FIG1_ANSWER

DMV_SQL = (
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
)

DEEP_SQL = (
    "SELECT u1.L FROM U u1 WHERE " + "(" * 3000 + "u1.V = 'dui'" + ")" * 3000
)


@pytest.mark.parametrize("deadline_s", [None, 5.0])
def test_deterministic_submit_fails_deeply_nested_sql(dmv_federation, deadline_s):
    service = MediatorService(dmv_federation, mode="deterministic")
    # With a deadline, admission plans the text to predict completion.
    poisoned = service.submit(DEEP_SQL, at_s=0.0, deadline_s=deadline_s)
    healthy = service.submit(DMV_SQL, at_s=0.0, deadline_s=deadline_s)
    service.run_until_idle()
    assert poisoned.status == "failed"
    assert poisoned.error.startswith("ParseError: condition nests deeper")
    assert healthy.status == "done"
    assert healthy.items == DMV_FIG1_ANSWER


def test_thread_mode_fails_deeply_nested_sql(dmv_federation):
    service = MediatorService(dmv_federation, mode="threads", workers=1)
    try:
        poisoned = service.submit(DEEP_SQL)
        healthy = service.submit(DMV_SQL)
        service.drain(timeout_s=30.0)
    finally:
        service.close()
    assert poisoned.status == "failed"
    assert poisoned.error.startswith("ParseError:")
    assert healthy.items == DMV_FIG1_ANSWER
    # A typed library error is an ordinary failure, not a worker fault.
    faults = service.metrics.to_json()
    assert not any("worker_faults" in key for key in faults)


def _poison_wrappers(monkeypatch, federation) -> None:
    def boom(self, *args, **kwargs):
        raise RuntimeError("poisoned wrapper")

    for kind in {type(source) for source in federation}:
        for wrapper in ("selection", "semijoin", "load"):
            monkeypatch.setattr(kind, wrapper, boom)


def test_workers_survive_a_wrapper_raising_runtime_error(
    monkeypatch, caplog, dmv_federation
):
    service = MediatorService(dmv_federation, mode="threads", workers=2)
    try:
        with monkeypatch.context() as patch:
            _poison_wrappers(patch, dmv_federation)
            poisoned = [service.submit(DMV_SQL) for __ in range(2)]
            service.drain(timeout_s=30.0)
        healthy = service.submit(DMV_SQL)
        service.drain(timeout_s=30.0)
    finally:
        service.close()
    for ticket in poisoned:
        assert ticket.status == "failed"
        assert ticket.error == "RuntimeError: poisoned wrapper"
    assert healthy.status == "done"
    assert healthy.items == DMV_FIG1_ANSWER
    faults = service.metrics.counter(
        "repro_serve_worker_faults_total", stage="execute"
    )
    assert faults.value == 2.0
    snapshot = service.snapshot()
    assert (snapshot["failed"], snapshot["in_flight"]) == (2, 0)
    # Each fault is logged with the traceback that caused it.
    logged = [r for r in caplog.records if r.name == "repro.serve.service"]
    assert len(logged) == 2
    assert all(r.exc_info[0] is RuntimeError for r in logged)


def test_workers_survive_a_planner_raising_runtime_error(
    monkeypatch, dmv_federation
):
    service = MediatorService(dmv_federation, mode="threads", workers=2)
    try:
        with monkeypatch.context() as patch:

            def boom(self, *args, **kwargs):
                raise RuntimeError("poisoned planner")

            patch.setattr(Mediator, "plan", boom)
            poisoned = [service.submit(DMV_SQL) for __ in range(2)]
            service.drain(timeout_s=30.0)
        healthy = service.submit(DMV_SQL)
        service.drain(timeout_s=30.0)
    finally:
        service.close()
    assert [t.error for t in poisoned] == ["RuntimeError: poisoned planner"] * 2
    assert healthy.items == DMV_FIG1_ANSWER
    faults = service.metrics.counter(
        "repro_serve_worker_faults_total", stage="plan"
    )
    assert faults.value == 2.0

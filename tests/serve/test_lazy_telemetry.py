"""Telemetry that no sink reads is never built, and nothing else moves.

Thread-mode workers keep an event log only for statistics mining, and
the recorder builds an event's fields only when a log is attached.
Metrics and spans must come out the same either way, and the
deterministic service's exports must stay byte-for-byte what they were
before event construction became conditional.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from repro.errors import AdmissionError
from repro.obs.metrics import Histogram
from repro.runtime.faults import DataFaultProfile, FaultProfile
from repro.serve import MediatorService
from repro.sources.generators import dmv_fig1, replicate_federation
from repro.sources.observed import ObservedStatistics

TEXTS = [
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'",
    "SELECT u1.L FROM U u1, U u2 "
    "WHERE u1.L = u2.L AND u1.V = 'sp' AND u2.D >= 1994",
    "SELECT u1.L FROM U u1, U u2, U u3 "
    "WHERE u1.L = u2.L AND u2.L = u3.L AND u1.V = 'dui' AND u2.V = 'sp' "
    "AND (u3.D < 1995 OR NOT u3.V = 'dui')",
    "SELECT u1.L FROM U u1 WHERE u1.V IN ('dui', 'sp')",
]


def _serve_threads(federation, mine_statistics):
    service = MediatorService(
        federation,
        mode="threads",
        workers=2,
        queue_limit=32,
        mine_statistics=mine_statistics,
    )
    rng = random.Random(3)
    tickets = []
    try:
        # Plan every text once, alone, so cache misses are not raced.
        for text in TEXTS:
            tickets.append(service.submit(text))
            service.drain(timeout_s=60.0)
        for __ in range(5):
            for __ in range(4):
                tickets.append(service.submit(rng.choice(TEXTS)))
            service.drain(timeout_s=60.0)
    finally:
        service.close()
    assert all(t.status == "done" for t in tickets)
    return service


def test_mining_changes_no_metric_count_and_no_span_tree(dmv_federation):
    quiet = _serve_threads(dmv_federation, mine_statistics=False)
    mined = _serve_threads(dmv_federation, mine_statistics=True)
    assert all(r.events is None for r in quiet.worker_recorders)
    assert all(r.events is not None for r in mined.worker_recorders)

    def counts(service):
        out = {}
        for key, entry in service.metrics.to_json().items():
            if entry["kind"] == "counter":
                out[key] = pytest.approx(entry["value"])
            elif entry["kind"] == Histogram.kind:
                out[key] = entry["count"]
        return out

    assert counts(quiet) == counts(mined)
    assert quiet.spans.trace_ids() and set(quiet.spans.trace_ids()) == set(
        mined.spans.trace_ids()
    )
    for trace_id in quiet.spans.trace_ids():
        quiet_names, mined_names = (
            Counter(span.name for span in service.spans.for_trace(trace_id))
            for service in (quiet, mined)
        )
        assert quiet_names == mined_names, trace_id


#: SHA-256 of each export of the replay workload below, recorded before
#: event construction became conditional.  A change that alters an
#: export on purpose records them again from ``_replay_digests``.
REPLAY_DIGESTS = {
    "off": {
        "chrome": "969569600f1638dad7e7df617d0262f6d2392f098544ce572a1298f8bcd7ad3f",
        "events": "d8279a2253e010ebc4ab4dbd13280d06b69b7b4b957732b57277986013d003b7",
        "prometheus": "a881b7810c63889d802256969d4097b8e7a0317fbf4eeed08b1b94023a8aba32",
        "json": "dcc31bcd5e1f0908eb0dc14290dc56ae1bb62e75e7288ad4fcf97624e9bca19f",
        "tickets": "4afca4452d167a006918b211892914a9b7b9580ee1559012d0dd3e709f6ce8dc",
    },
    "vote": {
        "chrome": "9b63fd2a2367cda4969a7859420bb1579e2053eab428a603c0cc70c6adc7d2b2",
        "events": "e8a57495a21f01022cc70deedc46c9caa9e970170b6e52a0999bbadb3f51059e",
        "prometheus": "55c4c408190a24cf70d704413a3573d4454848f0c50491f4447c0b4285d0dbcc",
        "json": "dec975d0860fcb566f11606f5a169622601ab91c7e0edeecabf9943aeeb34333",
        "tickets": "23a65f9ac56f467f5ee36801ac30e2308653e09896a4216c66e48a35e1edae59",
    },
}


def _replay_digests(verify: str) -> dict[str, str]:
    """Run a seeded, faulted, mined, replicated deterministic workload
    (deadlines, parse failures, hedging, breakers, quarantine) and
    digest each export."""
    federation = replicate_federation(dmv_fig1()[0], 2)
    service = MediatorService(
        federation,
        mode="deterministic",
        seed=11,
        pool_slots=2,
        queue_limit=12,
        faults=FaultProfile.flaky(0.25),
        breaker=True,
        quarantine=True,
        verify=verify,
        data_faults=DataFaultProfile(stale_rate=0.2, corrupt_rate=0.2),
        statistics=ObservedStatistics(),
        mine_statistics=True,
        mediator_options={"hedge_delay_s": 1.0, "load_balance": True},
    )
    rng = random.Random(5)
    texts = TEXTS + ["SELECT u1.L FROM U u1 WHERE"]
    clock = 0.0
    for __ in range(60):
        clock += rng.expovariate(3.0)
        text = texts[rng.randrange(len(texts))]
        deadline = rng.choice([None, 0.5, 2.0, 8.0])
        try:
            service.submit(text, at_s=clock, deadline_s=deadline)
        except AdmissionError:
            pass
    service.run_until_idle()
    tickets = [
        (
            t.seq,
            t.status,
            t.error,
            sorted(t.items or (), key=repr),
            sorted(t.phases.items()),
            t.partial,
        )
        for t in service.tickets
    ]
    exports = {
        "chrome": json.dumps(service.spans.to_chrome_trace(), sort_keys=True),
        "events": service.recorder.events.to_jsonl(),
        "prometheus": service.metrics.to_prometheus(),
        "json": service.metrics.to_json_text(),
        "tickets": repr(tickets),
    }
    return {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in exports.items()
    }


@pytest.mark.parametrize("verify", sorted(REPLAY_DIGESTS))
def test_deterministic_exports_are_unchanged(verify):
    assert _replay_digests(verify) == REPLAY_DIGESTS[verify]

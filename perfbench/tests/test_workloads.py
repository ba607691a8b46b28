"""Workload shapes hold on a seed never used while the workloads were tuned."""

import pytest

from perfbench import workloads
from repro import build_synthetic, parse_fusion_query

SEED = 90_017


def _arity(text: str) -> int:
    return parse_fusion_query(text).arity


def test_every_workload_is_listed():
    assert sorted(workloads.WORKLOADS) == ["plan-miss", "scan", "serve-faults", "serve-threads"]
    with pytest.raises(ValueError):
        workloads.make("nope", SEED)


def test_inputs_repeat_exactly_per_seed():
    for name in ("serve-threads", "serve-faults", "plan-miss"):
        a, b = workloads.make(name, SEED), workloads.make(name, SEED)
        assert a.texts == b.texts
    assert workloads.make("serve-threads", SEED).texts != workloads.make(
        "serve-threads", SEED + 1
    ).texts


def test_serve_threads_shape():
    workload = workloads.make("serve-threads", SEED)
    federation = build_synthetic(workload.config)
    rows = sum(len(source.table) for source in federation)
    assert len(list(federation)) == 6 and 900 <= rows <= 1500
    assert len(set(workload.texts)) == len(workload.texts) == 25
    assert sorted({_arity(t) for t in workload.texts}) == [2, 3, 4]
    oracle = workloads.Oracle(federation)
    universe = len(federation.union_view().items())
    for text in workload.texts:
        share = len(oracle.expected(text)) / universe
        assert workloads.ANSWER_BAND[0] <= share <= workloads.ANSWER_BAND[1]


def test_serve_faults_shape():
    workload = workloads.make("serve-faults", SEED)
    assert len(workload.arrivals) == workload.ARRIVALS
    assert {a.sql for a in workload.arrivals} <= set(workload.texts)
    assert all(a.deadline_s == workload.DEADLINE_S for a in workload.arrivals)
    system = workload.setup()
    names = [source.name for source in system.federation]
    assert len(names) == 12 and sum("~" in name for name in names) == 8
    assert set(workload.data_faults) <= set(names)
    assert set(workload.churn.sources) <= set(names)


def test_plan_miss_shape():
    workload = workloads.make("plan-miss", SEED)
    assert len(set(workload.texts)) == len(workload.texts) > 128
    assert not set(workload.texts) & set(workload.warm_texts)
    assert {_arity(t) for t in workload.texts[:30]} == {3, 4, 5}
    federation = build_synthetic(workload.config)
    assert len(list(federation)) == 10
    parse_fusion_query(workload.texts[0])


def test_scan_shape():
    workload = workloads.make("scan", SEED)
    assert len(workload.fusion_texts) == 12 and len(workload.aggregate_texts) == 6
    assert all(t.endswith(workload.GROUP_TAIL) for t in workload.aggregate_texts)
    pool = set(workload.fusion_texts) | set(workload.aggregate_texts)
    rounds = [workload.order[i:i + len(pool)] for i in range(0, 3 * len(pool), len(pool))]
    assert all(set(r) == pool for r in rounds)


def test_serve_faults_episodes_replay_and_check_out():
    workload = workloads.make("serve-faults", SEED)
    workload.arrivals = workload.arrivals[:30]
    system = workload.setup()
    segment = workload.run(system, 0.01)
    segment = workload.run(system, segment.elapsed_s * 1.5)
    assert segment.episodes >= 2 and not segment.replay_diverged
    check = workloads.check_segment(segment, system.federation, faulty=True)
    assert check.correct and check.spurious_tuples == 0

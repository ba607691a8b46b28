import pytest

from perfbench.ledger import (
    LAYERS,
    Tracer,
    layer_growth,
    layer_stats,
    outer_calls,
    qerror,
    self_times,
)

# (id, parent, query, layer, name, start, end)
SPANS = [
    (0, None, 0, "mediator", "Mediator.answer", 0.0, 10.0),
    (1, 0, 0, "query", "parse_query", 0.0, 1.0),
    (2, 1, 0, "query", "parse_condition", 0.2, 0.5),
    (3, 0, 0, "optimize", "SJAPlusOptimizer.optimize", 1.0, 6.0),
    (4, 3, 0, "optimize", "SJAOptimizer.optimize", 1.5, 5.5),
    (5, 4, 0, "sources", "ExactStatistics.selectivity", 2.0, 5.0),
    (6, 0, 0, "sources", "RemoteSource.selection", 6.0, 9.0),
    (7, 6, 0, "relational", "TableSource.selection", 6.5, 8.5),
]


def test_self_time_subtracts_direct_children_only():
    own = self_times(SPANS)
    assert own[0] == pytest.approx(10.0 - 1.0 - 5.0 - 3.0)
    assert own[3] == pytest.approx(5.0 - 4.0)
    assert own[4] == pytest.approx(4.0 - 3.0)
    assert own[6] == pytest.approx(3.0 - 2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_stats_count_outermost_calls_once():
    stats = layer_stats(SPANS)
    assert set(LAYERS) <= set(stats)
    assert stats["query"].outer_calls == 1
    assert stats["query"].outer_s == pytest.approx(1.0)
    assert stats["optimize"].outer_calls == 1
    assert stats["optimize"].self_s == pytest.approx(2.0)
    assert stats["sources"].self_s == pytest.approx(3.0 + 1.0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_outer_calls_skip_nested_calls_of_the_same_names():
    names = ["SJAPlusOptimizer.optimize", "SJAOptimizer.optimize"]
    assert outer_calls(SPANS, names) == (1, pytest.approx(5.0))


def test_layer_growth_compares_last_fifth_with_first():
    spans = []
    for q in range(10):
        start = float(q)
        cost = 0.1 if q < 5 else 0.3  # obs gets 3x dearer later on
        spans.append((q, None, q, "obs", "EventLog.emit", start, start + cost))
    growth = layer_growth(spans, (0.0, 1.5), (8.0, 9.5))
    assert growth["obs"] == pytest.approx(3.0)
    assert growth["query"] == 0.0


def test_qerror_is_symmetric_and_floored():
    assert qerror(10.0, 5.0) == qerror(5.0, 10.0) == 2.0
    assert qerror(0.0, 0.0) == 1.0


def test_tracer_wraps_and_restores_the_program():
    from repro import Mediator, dmv_fig1
    from repro.mediator.executor import Executor
    from repro.query import sqlparse

    original_answer = Mediator.__dict__["answer"]
    original_parse = sqlparse.parse_fusion_query
    federation, query = dmv_fig1()
    mediator = Mediator(federation)
    sql = query.to_sql(federation.name)
    with Tracer() as tracer:
        answer = mediator.answer(sql)
        assert Mediator.__dict__["answer"] is not original_answer
    assert Mediator.__dict__["answer"] is original_answer
    assert sqlparse.parse_fusion_query is original_parse
    assert "execute" in Executor.__dict__
    assert sorted(answer.items) == ["J55", "T21"]
    layers = {span[3] for span in tracer.spans}
    assert {"query", "optimize", "mediator", "sources", "relational"} <= layers
    roots = [span for span in tracer.spans if span[1] is None]
    assert [span[4] for span in roots] == ["Mediator.answer"]
    assert {span[2] for span in tracer.spans} == {roots[0][2]}
    assert tracer.samples["cost_qerror"], "plan estimate was paired with its execution"
    # Untraced again: a second answer records nothing.
    mediator.answer(sql)
    assert len(tracer.spans) == len({span[0] for span in tracer.spans})

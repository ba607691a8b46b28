"""Unit tests for link profiles and traffic accounting."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import CostModelError
from repro.sources.network import LinkProfile, TrafficLog


class TestLinkProfile:
    def test_request_cost_formula(self):
        link = LinkProfile(
            request_overhead=10.0,
            per_item_send=2.0,
            per_item_receive=3.0,
            per_row_load=5.0,
        )
        assert link.request_cost(4, 2) == 10 + 8 + 6
        assert link.request_cost(0, 0, rows_loaded=3) == 10 + 15

    def test_request_time_includes_round_trip(self):
        link = LinkProfile(latency_s=0.1, items_per_s=100.0)
        assert link.request_time_s(10, 10) == pytest.approx(0.2 + 0.2)

    def test_negative_parameters_rejected(self):
        with pytest.raises(CostModelError):
            LinkProfile(request_overhead=-1)
        with pytest.raises(CostModelError):
            LinkProfile(per_item_send=-0.1)
        with pytest.raises(CostModelError):
            LinkProfile(items_per_s=0)

    def test_negative_traffic_rejected(self):
        with pytest.raises(CostModelError):
            LinkProfile().request_cost(-1, 0)


class TestTrafficLog:
    @pytest.fixture
    def log(self):
        log = TrafficLog()
        link = LinkProfile(request_overhead=10, per_item_send=1, per_item_receive=1)
        log.charge(link, "R1", "sq", 0, 5)
        log.charge(link, "R1", "sjq", 3, 2)
        log.charge(link, "R2", "sq", 0, 7)
        return log

    def test_totals(self, log):
        assert log.message_count == 3
        assert log.items_sent == 3
        assert log.items_received == 14
        assert log.total_cost == (10 + 5) + (10 + 3 + 2) + (10 + 7)

    def test_by_source(self, log):
        per_source = log.by_source()
        assert per_source["R1"] == 30
        assert per_source["R2"] == 17

    def test_by_operation(self, log):
        per_op = log.by_operation()
        assert set(per_op) == {"sq", "sjq"}
        assert per_op["sjq"] == 15

    def test_clear(self, log):
        log.clear()
        assert log.message_count == 0
        assert log.total_cost == 0

    def test_summary_mentions_messages(self, log):
        assert "3 messages" in log.summary()

    def test_elapsed_accumulates(self, log):
        assert log.total_elapsed_s > 0

    def test_records_are_frozen_slotted_values(self, log):
        record = log.records[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.cost = 0.0
        assert not hasattr(record, "__dict__")
        assert record == dataclasses.replace(record)
        assert record != log.records[2]


class TestLinkProfileFiniteness:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field_name",
        [
            "request_overhead",
            "per_item_send",
            "per_item_receive",
            "per_row_load",
            "latency_s",
            "items_per_s",
        ],
    )
    def test_non_finite_parameters_rejected(self, field_name, bad):
        with pytest.raises(CostModelError):
            LinkProfile(**{field_name: bad})

    def test_finite_parameters_accepted(self):
        link = LinkProfile(request_overhead=0.0, latency_s=0.0)
        assert link.request_cost(1, 1) == pytest.approx(2.0)

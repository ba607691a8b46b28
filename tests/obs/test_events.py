"""Unit tests for the structured event log and its schema."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.events import EVENT_SCHEMA, EventLog, validate_record


def breaker_record(**overrides):
    record = {
        "ts": 1.5,
        "type": "breaker",
        "source": "R1",
        "from": "closed",
        "to": "open",
    }
    record.update(overrides)
    return record


class TestValidation:
    def test_valid_record_passes(self):
        validate_record(breaker_record())

    def test_unknown_type_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown event type"):
            validate_record(breaker_record(type="explosion"))

    def test_missing_field_rejected(self):
        record = breaker_record()
        del record["to"]
        with pytest.raises(ObservabilityError, match="missing"):
            validate_record(record)

    def test_unexpected_field_rejected(self):
        with pytest.raises(ObservabilityError, match="unexpected"):
            validate_record(breaker_record(color="red"))

    def test_wrong_field_type_rejected(self):
        with pytest.raises(ObservabilityError, match="expected str"):
            validate_record(breaker_record(source=3))

    def test_bool_is_not_an_int(self):
        record = {
            "ts": 0.0,
            "type": "sendset",
            "round": 0,
            "step": 1,
            "source": "R1",
            "condition": "V = 'x'",
            "size": True,
        }
        with pytest.raises(ObservabilityError, match="expected int"):
            validate_record(record)

    def test_ts_must_be_numeric(self):
        with pytest.raises(ObservabilityError, match="ts"):
            validate_record(breaker_record(ts="soon"))

    def test_every_schema_type_names_known_field_types(self):
        known = {"int", "float", "str", "bool", "list[str]"}
        for fields in EVENT_SCHEMA.values():
            assert set(fields.values()) <= known


class TestEventLog:
    def test_emit_validates(self):
        log = EventLog()
        with pytest.raises(ObservabilityError):
            log.emit(0.0, "breaker", source="R1")
        assert len(log) == 0

    def test_canonical_key_order(self):
        log = EventLog()
        log.emit(0.0, "breaker", source="R1", **{"to": "open", "from": "closed"})
        line = log.to_jsonl()
        assert line.startswith('{"ts":0.0,"type":"breaker","from":')

    def test_jsonl_roundtrip(self):
        log = EventLog()
        log.emit(
            0.5,
            "replan",
            round=1,
            optimizer="SJA+",
            sources=["R1", "R2"],
            masked=["R3"],
            estimated_cost=42.0,
        )
        log.emit(1.0, "breaker", source="R3", **{"from": "open", "to": "half-open"})
        restored = EventLog.from_jsonl(log.to_jsonl())
        assert [e.to_record() for e in restored] == [
            e.to_record() for e in log
        ]
        assert restored.to_jsonl() == log.to_jsonl()

    def test_write_and_read(self, tmp_path):
        log = EventLog()
        log.emit(0.0, "breaker", source="R1", **{"from": "closed", "to": "open"})
        path = str(tmp_path / "events.jsonl")
        assert log.write(path) == path
        assert EventLog.read(path).to_jsonl() == log.to_jsonl()

    def test_from_jsonl_rejects_bad_json(self):
        with pytest.raises(ObservabilityError, match="line 1"):
            EventLog.from_jsonl("{not json")

    def test_from_jsonl_skips_blank_lines(self):
        log = EventLog()
        log.emit(0.0, "breaker", source="R1", **{"from": "closed", "to": "open"})
        restored = EventLog.from_jsonl(log.to_jsonl() + "\n\n")
        assert len(restored) == 1

    def test_of_type_filters(self):
        log = EventLog()
        log.emit(0.0, "breaker", source="R1", **{"from": "closed", "to": "open"})
        log.emit(
            0.1,
            "retry",
            round=0,
            step=2,
            source="R1",
            retries=1,
            at=0.5,
        )
        assert [e.type for e in log.of_type("retry")] == ["retry"]
        assert len(log.of_type("retry", "breaker")) == 2

    def test_event_getitem_and_get(self):
        log = EventLog()
        event = log.emit(
            0.0, "breaker", source="R1", **{"from": "closed", "to": "open"}
        )
        assert event["ts"] == 0.0
        assert event["type"] == "breaker"
        assert event["source"] == "R1"
        assert event.get("missing", "fallback") == "fallback"


#: One well-typed value per schema field type.
SAMPLE_VALUES = {
    "int": 3,
    "float": 1.5,
    "str": "R1",
    "bool": True,
    "list[str]": ["R1", "R2"],
}

#: A value of the wrong type for each schema field type.
WRONG_VALUES = {
    "int": 2.5,
    "float": "fast",
    "str": 7,
    "bool": 1,
    "list[str]": ["R1", 2],
}


def valid_record(event_type):
    record = {"ts": 0.25, "type": event_type}
    for name, kind in EVENT_SCHEMA[event_type].items():
        record[name] = SAMPLE_VALUES[kind]
    return record


def malformed_records():
    """Every schema type, broken each way validation distinguishes."""
    for event_type, expected in EVENT_SCHEMA.items():
        base = valid_record(event_type)
        yield base
        first = next(iter(expected))
        missing = dict(base)
        del missing[first]
        yield missing
        yield {**base, "colour": "red"}
        both = dict(missing)
        both["colour"] = "red"
        yield both
        for name, kind in expected.items():
            yield {**base, name: WRONG_VALUES[kind]}
            if kind in ("int", "float"):
                yield {**base, name: False}
        yield {**base, "ts": "soon"}
        yield {**base, "ts": None}
        yield {**base, "ts": True}
    yield {**valid_record("breaker"), "type": "explosion"}


def outcome(call):
    try:
        call()
    except ObservabilityError as exc:
        return str(exc)
    return None


class TestEmitParity:
    def test_emit_raises_exactly_when_validate_record_does(self):
        checked = 0
        for record in malformed_records():
            fields = {
                key: value
                for key, value in record.items()
                if key not in ("ts", "type")
            }
            expected = outcome(lambda: validate_record(record))
            log = EventLog()
            got = outcome(
                lambda: log.emit(record["ts"], record["type"], **fields)
            )
            assert got == expected, record
            assert len(log) == (0 if expected else 1)
            checked += 1
        assert checked > 10 * len(EVENT_SCHEMA)

    def test_emitted_records_keep_the_canonical_key_order(self):
        for event_type in EVENT_SCHEMA:
            record = valid_record(event_type)
            fields = {
                k: v for k, v in record.items() if k not in ("ts", "type")
            }
            event = EventLog().emit(record["ts"], event_type, **fields)
            assert list(event.to_record()) == ["ts", "type", *sorted(fields)]
            assert event.to_record() == record

    def test_a_field_shadowing_the_envelope_is_rejected(self):
        log = EventLog()
        with pytest.raises(ObservabilityError, match="may not be named"):
            log.emit(
                0.0, "breaker", type="breaker", source="R1",
                **{"from": "a", "to": "b"},
            )
        assert len(log) == 0


def breaker(log, ts):
    log.emit(ts, "breaker", source="R1", **{"from": "closed", "to": "open"})


class TestEventRing:
    def test_ring_keeps_the_most_recent_events(self, monkeypatch):
        monkeypatch.setattr(EventLog, "MAX_EVENTS", 4)
        log = EventLog()
        for step in range(10):
            breaker(log, float(step))
        assert len(log) == 4
        assert [event.ts for event in log] == [6.0, 7.0, 8.0, 9.0]
        assert log.emitted == 10
        assert log.evicted == 6

    def test_since_stays_correct_after_the_ring_wraps(self, monkeypatch):
        monkeypatch.setattr(EventLog, "MAX_EVENTS", 4)
        log = EventLog()
        for step in range(6):
            breaker(log, float(step))
        # len() no longer moves once the ring is full; the mark does.
        before = len(log)
        mark = log.mark()
        breaker(log, 6.0)
        breaker(log, 7.0)
        assert len(log) == before
        assert [event.ts for event in log.since(mark)] == [6.0, 7.0]
        assert log.since(log.mark()) == []

    def test_since_refuses_a_slice_the_ring_no_longer_holds(self, monkeypatch):
        monkeypatch.setattr(EventLog, "MAX_EVENTS", 4)
        log = EventLog()
        mark = log.mark()
        for step in range(5):
            breaker(log, float(step))
        with pytest.raises(ObservabilityError, match="evicted"):
            log.since(mark)

    def test_clear_counts_as_eviction(self):
        log = EventLog()
        for step in range(3):
            breaker(log, float(step))
        log.clear()
        assert len(log) == 0
        assert log.emitted == 3
        assert log.evicted == 3
        mark = log.mark()
        breaker(log, 3.0)
        assert [event.ts for event in log.since(mark)] == [3.0]
        assert log.emitted == len(log) + log.evicted

    def test_a_read_log_keeps_the_ring_bound(self, monkeypatch):
        monkeypatch.setattr(EventLog, "MAX_EVENTS", 2)
        log = EventLog()
        for step in range(2):
            breaker(log, float(step))
        text = log.to_jsonl() + "\n" + log.to_jsonl()
        restored = EventLog.from_jsonl(text)
        assert len(restored) == 2
        assert restored.emitted == 4

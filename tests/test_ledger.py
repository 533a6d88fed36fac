"""Execution-ledger writer contracts: one JSON line per event, in seq
order, with item events and session markers kept apart."""

import json

import pytest

from repro.core.ledger import (
    DISPATCHED,
    DONE,
    OPEN,
    PENDING,
    SCHEMA,
    ExecutionLedger,
)


def _journal(tmp_path):
    return tmp_path / "ledger.jsonl"


def _events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestAppend:
    def test_seq_is_monotonic_and_none_fields_dropped(self, tmp_path):
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(PENDING, item="a", worker=None)
            ledger.append(PENDING, item="b")
        entries = _events(path)
        assert [e["seq"] for e in entries] == [0, 1]
        assert "worker" not in entries[0]

    def test_states_require_items_and_markers_refuse_them(self, tmp_path):
        with ExecutionLedger(_journal(tmp_path)) as ledger:
            with pytest.raises(ValueError, match="need an item"):
                ledger.append(DONE)
            with pytest.raises(ValueError, match="session marker"):
                ledger.append(OPEN, item="a")
            with pytest.raises(ValueError, match="unknown ledger state"):
                ledger.append("EXPLODED", item="a")

    def test_session_markers_carry_the_schema(self, tmp_path):
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(OPEN, fingerprint="f")
            ledger.append(DISPATCHED, item="a", attempt=1)
        opened, dispatched = _events(path)
        assert opened == {"seq": 0, "state": OPEN, "schema": SCHEMA,
                          "fingerprint": "f"}
        assert "schema" not in dispatched

    def test_appends_survive_reopening(self, tmp_path):
        """Two sequential writers (a killed run, then its re-run) extend
        one journal."""
        path = _journal(tmp_path)
        with ExecutionLedger(path) as ledger:
            ledger.append(PENDING, item="a")
        with ExecutionLedger(path) as ledger:
            ledger.append(DONE, item="a", duration=0.25)
        assert [(e["state"], e["item"]) for e in _events(path)] == [
            (PENDING, "a"), (DONE, "a"),
        ]

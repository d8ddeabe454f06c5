"""The columnar reader API and the CallColumns container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.columns import CALL_COLUMN_NAMES, NO_PARENT, CallColumns
from repro.perf.database import TraceDatabase
from repro.perf.events import CallEvent, ECALL, OCALL


def _event(i, kind=ECALL, name="ecall_a", start=None, parent=None, **kw):
    begin = start if start is not None else i * 100
    return CallEvent(
        event_id=i,
        kind=kind,
        name=name,
        call_index=0,
        enclave_id=kw.pop("enclave_id", 1),
        thread_id=kw.pop("thread_id", 1),
        start_ns=begin,
        end_ns=begin + kw.pop("dur", 50),
        parent_id=parent,
        **kw,
    )


def _columns(events) -> CallColumns:
    return CallColumns.from_rows([e.to_row() for e in events])


def _rows(cols: CallColumns) -> list[tuple]:
    """Column rows back in ``calls`` schema order (``NO_PARENT`` as ``None``)."""
    rows = []
    for row in zip(*(getattr(cols, column).tolist() for column in CALL_COLUMN_NAMES)):
        *head, parent, is_sync = row
        rows.append((*head, None if parent == NO_PARENT else parent, int(is_sync)))
    return rows


def _populated_db(**db_kwargs) -> TraceDatabase:
    db = TraceDatabase(**db_kwargs)
    db.add_call(_event(1, ECALL, "ecall_a", start=100, dur=40))
    db.add_call(_event(2, OCALL, "ocall_x", start=120, dur=10, parent=1))
    db.add_call(_event(3, ECALL, "ecall_b", start=300, dur=60, enclave_id=1))
    db.add_call(_event(4, ECALL, "ecall_a", start=500, dur=45))
    return db


class TestColumnarReaders:
    def test_call_columns_roundtrip_matches_calls(self):
        db = _populated_db()
        cols = db.call_columns()
        assert _rows(cols) == [e.to_row() for e in db.calls()]

    def test_filters(self):
        db = _populated_db()
        cols = db.call_columns(kind=ECALL, name="ecall_a")
        assert len(cols) == 2
        assert list(cols.event_id) == [1, 4]
        assert len(db.call_columns(enclave_id=999)) == 0

    def test_durations_and_starts(self):
        db = _populated_db()
        np.testing.assert_array_equal(
            db.durations_ns(kind=ECALL, name="ecall_a"), [40, 45]
        )
        np.testing.assert_array_equal(db.starts_ns(kind=OCALL), [120])
        assert db.durations_ns().dtype == np.int64

    def test_call_summary_grouped_and_ordered(self):
        db = _populated_db()
        summary = db.call_summary()
        assert [(s.kind, s.name) for s in summary] == [
            (ECALL, "ecall_a"),
            (ECALL, "ecall_b"),
            (OCALL, "ocall_x"),
        ]
        top = summary[0]
        assert (top.count, top.total_ns, top.min_ns, top.max_ns) == (2, 85, 40, 45)
        assert top.mean_ns == pytest.approx(42.5)

    def test_empty_trace(self):
        db = TraceDatabase()
        assert len(db.call_columns()) == 0
        assert db.durations_ns().shape == (0,)
        assert db.starts_ns(kind=ECALL).shape == (0,)
        assert db.call_summary() == []
        assert db.call_columns().group_codes()[1] == []

    def test_indexes_deferred_until_first_read(self):
        db = _populated_db()
        index_names = (
            "SELECT name FROM sqlite_master WHERE type='index' AND name LIKE 'idx_%'"
        )
        assert db.execute(index_names) == []  # raw SQL does not force them
        db.calls()
        assert {r[0] for r in db.execute(index_names)} == {
            "idx_calls_name",
            "idx_calls_thread",
        }

    def test_reopen_closed_file_database(self, tmp_path):
        path = str(tmp_path / "trace.db")
        db = _populated_db(path=path)
        db.set_meta("k", "v")
        db.close()
        reopened = TraceDatabase(path)
        assert len(reopened.call_columns()) == 4
        assert reopened.get_meta("k") == "v"
        np.testing.assert_array_equal(
            reopened.durations_ns(kind=ECALL, name="ecall_a"), [40, 45]
        )
        reopened.close()

    def test_flush_threshold_uniform_across_buffers(self):
        db = TraceDatabase(flush_threshold=4)
        for i in range(1, 5):
            db.add_sync_row((i, i * 10, 1, "sleep", i, ""))
        # Threshold reached on the sync buffer alone: everything hits SQL.
        assert db._sync == []
        assert db.execute("SELECT COUNT(*) FROM sync")[0][0] == 4
        for i in range(1, 5):
            db.add_paging_row((i, i * 10, 1, 0x1000 * i, "page_in"))
        assert db._paging == []
        for i in range(1, 5):
            db.add_aex_row((i, i * 10, 1, 1, None))
        assert db._aex == []


class TestCallColumns:
    def test_from_events_and_sentinel(self):
        events = [_event(1), _event(2, OCALL, "ocall_x", parent=1)]
        cols = _columns(events)
        assert cols.parent_id[0] == NO_PARENT
        assert cols.parent_id[1] == 1
        assert _rows(cols) == [e.to_row() for e in events]

    def test_positions_of(self):
        cols = _columns([_event(5), _event(2), _event(9)])
        got = cols.positions_of(np.array([2, 9, 5, 7, NO_PARENT]))
        np.testing.assert_array_equal(got, [1, 2, 0, -1, -1])

    def test_group_codes_index_sorted_keys(self):
        events = [
            _event(1, ECALL, "zz"),
            _event(2, ECALL, "aa"),
            _event(3, ECALL, "zz"),
            _event(4, OCALL, "mm"),
        ]
        codes, keys = _columns(events).group_codes()
        assert keys == [(ECALL, "aa"), (ECALL, "zz"), (OCALL, "mm")]
        np.testing.assert_array_equal(codes, [1, 0, 1, 2])

    def test_duration(self):
        cols = _columns([_event(1, dur=10), _event(2, dur=20), _event(3, dur=30)])
        np.testing.assert_array_equal(cols.duration_ns(), [10, 20, 30])

    def test_column_slots_match_schema(self):
        cols = CallColumns.empty()
        for column in CALL_COLUMN_NAMES:
            assert len(getattr(cols, column)) == 0

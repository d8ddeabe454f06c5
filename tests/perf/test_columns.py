"""The columnar reader API, the CallColumns container and the store schema."""

from __future__ import annotations

import sqlite3
from contextlib import closing

import numpy as np
import pytest

from repro.perf.columns import CALL_COLUMN_NAMES, NO_PARENT, CallColumns
from repro.perf.database import TraceDatabase, TraceError
from repro.perf.events import CallEvent, ECALL, OCALL
from repro.perf.logger import EventLogger


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

    def test_read_index_built_when_the_trace_completes(self):
        db = _populated_db()
        index_names = (
            "SELECT name FROM sqlite_master WHERE type='index' AND name LIKE 'idx_%'"
        )
        db.calls()
        list(db.call_columns_chunks())
        assert db.execute(index_names) == []  # readers never build it
        db.create_read_index()
        assert db.execute(index_names) == [("idx_calls_thread",)]

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


# The ``calls`` table of traces recorded before call sites were interned.
OLD_CALLS_DDL = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE calls (
    id INTEGER PRIMARY KEY, kind TEXT NOT NULL, name TEXT NOT NULL,
    call_index INTEGER NOT NULL, enclave_id INTEGER NOT NULL,
    thread_id INTEGER NOT NULL, start_ns INTEGER NOT NULL,
    end_ns INTEGER NOT NULL, aex_count INTEGER NOT NULL DEFAULT 0,
    parent_id INTEGER, is_sync INTEGER NOT NULL DEFAULT 0
);
INSERT INTO calls VALUES (1, 'ecall', 'ecall_a', 0, 1, 1, 100, 140, 0, NULL, 0);
"""


def _schema(path) -> list[tuple]:
    with closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
        return conn.execute("SELECT type, name FROM sqlite_master ORDER BY name").fetchall()


class TestStoreSchema:
    def test_calls_view_round_trips_the_eleven_columns(self):
        db = _populated_db()
        names = [row[1] for row in db.execute("PRAGMA table_info(calls)")]
        assert names == ["id", *CALL_COLUMN_NAMES[1:]]
        written = [
            e.to_row()
            for e in (
                _event(1, ECALL, "ecall_a", start=100, dur=40),
                _event(2, OCALL, "ocall_x", start=120, dur=10, parent=1),
                _event(3, ECALL, "ecall_b", start=300, dur=60, enclave_id=1),
                _event(4, ECALL, "ecall_a", start=500, dur=45),
            )
        ]
        assert written[0][9] is None  # a NULL parent_id survives the view
        assert db.execute("SELECT * FROM calls ORDER BY id") == written
        # The integer stream carries the same rows, site ids for strings.
        chunks = list(db.call_columns_chunks(chunk_events=3, order="time"))
        assert [len(c) for c in chunks] == [3, 1]
        assert [row for c in chunks for row in _rows(c)] == written

    def test_call_sites_interned_once_and_kept_on_reopen(self, tmp_path):
        path = str(tmp_path / "trace.db")
        db = _populated_db(path=path)
        db.flush()
        sites = db.execute("SELECT site_id, kind, name FROM sites ORDER BY site_id")
        # First-seen order; the second ecall_a row reuses its site.
        assert sites == [(1, ECALL, "ecall_a"), (2, OCALL, "ocall_x"), (3, ECALL, "ecall_b")]
        db.close()
        reopened = TraceDatabase(path)
        reopened.add_call(_event(5, OCALL, "ocall_x", start=600, dur=5))
        reopened.add_call(_event(6, OCALL, "ocall_y", start=700, dur=5))
        reopened.flush()
        assert reopened.execute("SELECT site_id, kind, name FROM sites ORDER BY site_id") == [
            *sites,
            (4, OCALL, "ocall_y"),
        ]
        assert reopened.execute("SELECT id, site_id FROM call_rows WHERE id > 4") == [
            (5, 2),
            (6, 4),
        ]
        reopened.close()

    def test_failed_batch_forgets_the_sites_it_interned(self):
        db = _populated_db()
        db.flush()
        with pytest.raises(sqlite3.IntegrityError):  # id 1 already exists
            db.add_call_rows([_event(1, ECALL, "ecall_new").to_row()])
        assert db.execute("SELECT count(*) FROM sites WHERE name = 'ecall_new'") == [(0,)]
        db.add_call_rows([_event(9, ECALL, "ecall_new").to_row()])
        assert db.execute("SELECT id, name FROM calls WHERE id = 9") == [(9, "ecall_new")]

    def test_finalized_trace_carries_the_index_and_readonly_opens_write_nothing(
        self, process, urts, simple_enclave, tmp_path
    ):
        path = str(tmp_path / "trace.db")
        logger = EventLogger(process, urts, database=path)
        logger.install()
        simple_enclave.ecall("ecall_with_ocall")
        logger.uninstall()
        logger.finalize().close()
        schema = _schema(path)
        assert ("index", "idx_calls_thread") in schema
        with TraceDatabase(path, readonly=True) as db:
            plan = db.execute(
                "EXPLAIN QUERY PLAN SELECT id FROM call_rows ORDER BY thread_id, start_ns, id"
            )
            assert "idx_calls_thread" in plan[0][3]
            list(db.call_columns_chunks())
            db.calls()
            db.call_summary()
        assert _schema(path) == schema

    @pytest.mark.parametrize("readonly", [False, True])
    def test_trace_before_interned_sites_is_refused_untouched(self, tmp_path, readonly):
        path = str(tmp_path / "old.db")
        with closing(sqlite3.connect(path)) as conn:
            conn.executescript(OLD_CALLS_DDL)
        before = (tmp_path / "old.db").read_bytes()
        with pytest.raises(TraceError, match="predates interned call sites; re-record it"):
            TraceDatabase(path, readonly=readonly)
        assert (tmp_path / "old.db").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.db"]

    @pytest.mark.parametrize("content", [b"", b"not a database" * 100], ids=["empty", "garbage"])
    def test_readonly_open_refuses_a_file_without_a_trace(self, tmp_path, content):
        path = tmp_path / "other.db"
        path.write_bytes(content)
        with pytest.raises(TraceError, match="not a trace database"):
            TraceDatabase(str(path), readonly=True)
        assert path.read_bytes() == content

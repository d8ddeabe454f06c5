"""Column blocks: the copy of ``call_rows`` that analysis decodes.

The invariant: once a trace is sealed, decoding a thread's blocks in
``seq`` order gives exactly ``SELECT ... FROM call_rows WHERE thread_id = ?
ORDER BY start_ns, id`` (a ``NULL`` parent as ``-1``).  It must hold however
the rows arrived: drained while calls were still open, closed by
``abort()``, synthesised by salvage, or added to a reopened trace.  The
blocks are decoded here straight from SQLite, with zlib and NumPy, so the
on-disk format is pinned too.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
import zlib
from contextlib import closing

import numpy as np
import pytest

import repro
from repro.faults.campaign import run_campaign
from repro.perf.database import DEFAULT_CHUNK_EVENTS, TraceDatabase
from repro.perf.events import ECALL, OCALL, CallEvent
from repro.perf.logger import _F_ID, EventLogger

from tests.perf.test_salvage import build_crashy_app


def assert_blocks_match_rows(path) -> int:
    """Check the invariant on a file-backed trace; returns the blocks seen."""
    blocks = 0
    with closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
        threads = [t for (t,) in conn.execute("SELECT DISTINCT thread_id FROM call_rows")]
        assert sorted(threads) == [
            t for (t,) in conn.execute("SELECT DISTINCT thread_id FROM call_blocks ORDER BY 1")
        ]
        for tid in threads:
            decoded: list[tuple] = []
            seqs = []
            for seq, nrows, data in conn.execute(
                "SELECT seq, nrows, data FROM call_blocks WHERE thread_id = ? ORDER BY seq",
                (tid,),
            ):
                assert 0 < nrows <= DEFAULT_CHUNK_EVENTS
                columns = np.frombuffer(zlib.decompress(data), dtype="<i8").reshape(10, nrows)
                decoded.extend(zip(*columns.tolist()))
                seqs.append(seq)
                blocks += 1
            assert seqs == list(range(len(seqs)))
            assert decoded == conn.execute(
                "SELECT id, site_id, call_index, enclave_id, thread_id, start_ns, end_ns,"
                " aex_count, ifnull(parent_id, -1), is_sync FROM call_rows"
                " WHERE thread_id = ? ORDER BY start_ns, id",
                (tid,),
            ).fetchall()
    return blocks


def record_crash_snapshot(process, urts, path) -> None:
    """Record the crashy app, copying its trace mid-run as a crash leaves it
    (the crash model of ``test_salvage.py``): ``ocall_step``'s row is
    written, its ecall is still open."""

    def snapshot(logger):
        logger.flush()
        with closing(sqlite3.connect(path)) as dst:
            logger.db._conn.backup(dst)

    handle, logger = build_crashy_app(process, urts, snapshot)
    logger.install()
    handle.ecall("ecall_job")
    logger.uninstall()


def _call(i, start, dur=10, parent=None, kind=ECALL, name="ecall_a", thread_id=1):
    return CallEvent(
        event_id=i,
        kind=kind,
        name=name,
        call_index=0,
        enclave_id=1,
        thread_id=thread_id,
        start_ns=start,
        end_ns=start + dur,
        parent_id=parent,
    )


class TestDrainsWhileCallsAreOpen:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        """A three-worker campaign drained every few events, with the
        store's waiting rows checked after every drain."""
        path = tmp_path_factory.mktemp("blocks") / "campaign.db"
        seen = {"held_drains": 0, "max_held": 0, "strays": []}
        real_flush = EventLogger.flush

        def checked_flush(logger):
            real_flush(logger)
            held = logger.db._held
            seen["held_drains"] += bool(held)
            for tid, rows in held.items():
                # One open call tree per thread: every waiting row hangs
                # under the thread's open frames (parents sort first).
                tree = {frame[_F_ID] for frame in logger._open_calls.get(tid, ())}
                for row in rows:
                    if row[8] not in tree:
                        seen["strays"].append((tid, row))
                    tree.add(row[0])
                seen["max_held"] = max(seen["max_held"], len(rows))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.perf.logger.DRAIN_THRESHOLD", 3)
            mp.setattr(EventLogger, "flush", checked_flush)
            run_campaign(seed=7, db_path=str(path), workers=3, calls_per_worker=20)
        return path, seen

    def test_blocks_match_rows(self, campaign):
        path, seen = campaign
        assert seen["held_drains"] > 0, "no drain ran while a call was open"
        assert assert_blocks_match_rows(path) > 0
        with closing(sqlite3.connect(path)) as conn:
            assert len(conn.execute("SELECT DISTINCT thread_id FROM call_rows").fetchall()) > 1

    def test_store_holds_at_most_one_open_call_tree(self, campaign):
        _, seen = campaign
        assert seen["max_held"] > 0
        assert seen["strays"] == []


def test_aborted_trace(process, urts, tmp_path):
    path = tmp_path / "aborted.db"
    handle, logger = build_crashy_app(process, urts, lambda lg: lg.abort())
    logger.db.close()
    logger.db = TraceDatabase(str(path))
    logger.install()
    handle.ecall("ecall_job")
    logger.uninstall()
    logger.db.close()
    assert assert_blocks_match_rows(path) == 1
    with TraceDatabase(str(path), readonly=True) as db:
        assert db.get_meta("trace_state") == "aborted"
        assert db.thread_row_counts() == [(0, 3)]


def test_salvaged_crash_snapshot(process, urts, tmp_path):
    path = tmp_path / "crash.db"
    record_crash_snapshot(process, urts, path)
    # The crash left ocall_step waiting behind its open ecall: no block.
    with closing(sqlite3.connect(path)) as conn:
        assert conn.execute("SELECT count(*) FROM call_rows").fetchone() == (1,)
        assert conn.execute("SELECT count(*) FROM call_blocks").fetchone() == (0,)
    with TraceDatabase(str(path)) as db:
        assert db.salvage()["closed"] == 1
    assert assert_blocks_match_rows(path) == 1
    with TraceDatabase(str(path), readonly=True) as db:
        assert [len(c) for c in db.call_columns_chunks()] == [2]


class TestReopenedTrace:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "trace.db"
        with TraceDatabase(str(path)) as db:
            db.add_call(_call(1, 100, dur=50))
            db.add_call(_call(2, 110, parent=1, kind=OCALL, name="ocall_x"))
            db.add_call(_call(3, 300, thread_id=2))
            db.seal()
        return path

    def _blocks(self, path):
        with closing(sqlite3.connect(path)) as conn:
            return conn.execute(
                "SELECT thread_id, seq, nrows, data FROM call_blocks ORDER BY thread_id, seq"
            ).fetchall()

    def test_later_rows_append_blocks(self, path):
        before = self._blocks(path)
        with TraceDatabase(str(path)) as db:
            db.add_call(_call(4, 400))
            db.add_call(_call(5, 500, thread_id=3))
            db.seal()
        after = self._blocks(path)
        assert set(before) <= set(after)  # earlier blocks are kept as written
        assert [(t, s, n) for t, s, n, _ in after] == [(1, 0, 2), (1, 1, 1), (2, 0, 1), (3, 0, 1)]
        assert assert_blocks_match_rows(path) == 4

    def test_earlier_rows_re_encode_the_thread(self, path):
        with TraceDatabase(str(path)) as db:
            db.add_call(_call(6, 50))  # sorts before thread 1's last block
            db.seal()
        assert [(t, s, n) for t, s, n, _ in self._blocks(path)] == [(1, 0, 3), (2, 0, 1)]
        assert assert_blocks_match_rows(path) == 2

    def test_raw_sql_rows_rebuild_every_block(self, path):
        with TraceDatabase(str(path)) as db:
            db.execute(
                "INSERT INTO call_rows SELECT id + 10, site_id, call_index, enclave_id,"
                " thread_id + 10, start_ns, end_ns, aex_count, parent_id + 10, is_sync"
                " FROM call_rows"
            )
            assert db.thread_row_counts() == [(1, 2), (2, 1), (11, 2), (12, 1)]
        assert assert_blocks_match_rows(path) == 4


def test_recording_never_imports_numpy(tmp_path):
    script = (
        "import sys\n"
        "from repro.workloads.recorders import record_glamdring\n"
        "record_glamdring(sys.argv[1], 3, signs=1)\n"
        "assert 'numpy' not in sys.modules, 'the record path imported NumPy'\n"
    )
    path = tmp_path / "glamdring.db"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run(
        [sys.executable, "-c", script, str(path)],
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert assert_blocks_match_rows(path) > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["glamdring.db"]

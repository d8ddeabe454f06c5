"""Column blocks: the copy of ``call_rows`` that analysis decodes.

The invariant: once a trace is sealed, decoding a thread's blocks in
``seq`` order gives exactly ``SELECT ... FROM call_rows WHERE thread_id = ?
ORDER BY start_ns, id`` (a ``NULL`` parent as ``-1``).  It must hold however
the rows arrived: drained while calls were still open, closed by
``abort()``, synthesised by salvage, or added to a reopened trace.  The
blocks are decoded here straight from SQLite, with NumPy alone, so the
on-disk format is pinned too: the ``PRAGMA user_version`` mark, a 10-byte
header of typecodes, and each column at the narrowest width that holds
its values.  A trace whose blocks are in the layout before this one
(zlib-compressed int64 columns, no mark) is refused.
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
from repro.perf.database import DEFAULT_CHUNK_EVENTS, TraceDatabase, TraceError
from repro.perf.events import ECALL, OCALL, CallEvent
from repro.perf.logger import _F_ID, EventLogger
from repro.workloads.recorders import record_glamdring

from tests.perf.test_salvage import build_crashy_app

# The block layout: ``PRAGMA user_version``, and the width in bytes of a
# column stored under each header typecode (little-endian, signed).
BLOCK_FORMAT = 1
WIDTHS = {"b": 1, "h": 2, "i": 4, "q": 8}


def narrowest(values: list) -> str:
    """The typecode of the narrowest width whose signed range holds ``values``."""
    low, high = min(values), max(values)
    for code, width in WIDTHS.items():
        bound = 1 << (8 * width - 1)
        if -bound <= low and high < bound:
            return code
    raise AssertionError(f"no column width holds {low}..{high}")


def decode_block(nrows: int, data: bytes) -> np.ndarray:
    """A block's ``(10, nrows)`` int64 columns, checking its layout is exact."""
    codes = data[:10].decode("ascii")
    assert len(codes) == 10 and set(codes) <= set(WIDTHS), codes
    assert len(data) == 10 + nrows * sum(WIDTHS[code] for code in codes)
    columns, offset = [], 10
    for code in codes:
        column = np.frombuffer(data, f"<i{WIDTHS[code]}", nrows, offset)
        columns.append(column.astype(np.int64))
        offset += nrows * WIDTHS[code]
    assert codes == "".join(narrowest(column.tolist()) for column in columns)
    return np.stack(columns)


def rewrite_as_zlib_blocks(path) -> None:
    """Put a sealed trace's blocks in the layout before this one: the ten
    columns as little-endian int64, compressed with zlib level 1, and no
    format mark (``user_version`` 0, SQLite's default)."""
    with closing(sqlite3.connect(path)) as conn:
        blocks = conn.execute("SELECT thread_id, seq, nrows, data FROM call_blocks").fetchall()
        assert blocks
        with conn:
            for tid, seq, nrows, data in blocks:
                old = zlib.compress(decode_block(nrows, data).astype("<i8").tobytes(), 1)
                conn.execute(
                    "UPDATE call_blocks SET data = ? WHERE thread_id = ? AND seq = ?",
                    (old, tid, seq),
                )
        conn.execute("PRAGMA user_version = 0")


def assert_blocks_match_rows(path) -> int:
    """Check the invariant on a file-backed trace; returns the blocks seen."""
    blocks = 0
    with closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
        assert conn.execute("PRAGMA user_version").fetchone() == (BLOCK_FORMAT,)
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
                columns = decode_block(nrows, data)
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
            db.add_call_row(_call(1, 100, dur=50).to_row())
            db.add_call_row(_call(2, 110, parent=1, kind=OCALL, name="ocall_x").to_row())
            db.add_call_row(_call(3, 300, thread_id=2).to_row())
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
            db.add_call_row(_call(4, 400).to_row())
            db.add_call_row(_call(5, 500, thread_id=3).to_row())
            db.seal()
        after = self._blocks(path)
        assert set(before) <= set(after)  # earlier blocks are kept as written
        assert [(t, s, n) for t, s, n, _ in after] == [(1, 0, 2), (1, 1, 1), (2, 0, 1), (3, 0, 1)]
        assert assert_blocks_match_rows(path) == 4

    def test_earlier_rows_re_encode_the_thread(self, path):
        with TraceDatabase(str(path)) as db:
            db.add_call_row(_call(6, 50).to_row())  # sorts before thread 1's last block
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


class TestZlibBlockTrace:
    """A recorded trace whose blocks are re-encoded in the zlib layout."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("zlib") / "old.db"
        record_glamdring(str(path), 3, signs=1)
        assert assert_blocks_match_rows(path) > 0
        select = "SELECT thread_id, seq, nrows, data FROM call_blocks ORDER BY thread_id, seq"
        with closing(sqlite3.connect(path)) as conn:
            narrow = [decode_block(nrows, data) for _, _, nrows, data in conn.execute(select)]
        rewrite_as_zlib_blocks(path)
        with closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
            assert conn.execute("PRAGMA user_version").fetchone() == (0,)
            inflated = [  # what the reader of the zlib layout decoded
                np.frombuffer(zlib.decompress(data), dtype="<i8").reshape(10, nrows)
                for _, _, nrows, data in conn.execute(select)
            ]
        assert [block.tolist() for block in inflated] == [block.tolist() for block in narrow]
        return path

    @pytest.mark.parametrize("readonly", [True, False])
    def test_open_is_refused_untouched(self, path, readonly):
        before = path.read_bytes()
        with pytest.raises(TraceError, match="predates uncompressed column blocks; re-record it"):
            TraceDatabase(str(path), readonly=readonly)
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["old.db"]

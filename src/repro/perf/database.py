"""SQLite trace store.

"All events are serialised to a SQLite database.  This makes it possible to
analyse the data with other tools without having to implement parsing of
the data." (paper §4).

**Schema.**  Completed calls live in two tables: ``sites(site_id, kind,
name)`` interns each call site once, and the all-integer ``call_rows(id,
site_id, call_index, enclave_id, thread_id, start_ns, end_ns, aex_count,
parent_id, is_sync)`` holds one row per call.  ``calls`` is a view joining
them back into the eleven columns ``(id, kind, name, call_index, ...)``,
so other tools (and :func:`repro.digest.trace_digest`) query ``calls``
as a plain table.  The side tables (``aex``, ``paging``, ``sync``,
``faults``, ``threads``, ``enclaves``, ``meta``) are plain tables.

**Column blocks.**  ``call_blocks(thread_id, seq, nrows, data)`` holds the
same call rows a second time, for the analyser: each thread's rows in
``(start_ns, id)`` order, at most :data:`DEFAULT_CHUNK_EVENTS` rows per
block.  ``data`` is the ten ``call_rows`` columns, column-major, as
little-endian int64 (a SQL ``NULL`` parent as :data:`NO_PARENT`),
compressed with zlib level 1.  The recording encodes blocks as it writes
its rows, with the stdlib's ``array`` and ``zlib``: the logger's drains
name each thread's oldest open call, and rows that sort after it wait in
memory (at most one open call tree per thread) until a later drain or the
seal.  The writer never imports NumPy and never reads its trace back.

**Sealing.**  :meth:`TraceDatabase.seal` completes a trace; the event
logger's ``finalize()``/``abort()`` and :meth:`salvage` call it.  It
encodes the rows still waiting, and reads ``call_rows`` back only to
recover: a thread whose new rows sort before its last block (salvage's
truncated rows, earlier rows added to a reopened trace) is re-encoded,
and when the blocks do not cover ``call_rows`` (a crashed run, rows
inserted by raw SQL) every block is rebuilt.  It then switches the
journal to ``DELETE``, so a finished trace is one complete file.  Reads
on a writable handle seal first.

The writer is tuned for trace recording (§4.1's "keep the hot path cheap,
serialise off the critical path" design applied to the store itself):

* rows arrive as **flat tuples** in ``calls`` view order (``add_*_row``)
  or in bulk (``add_call_rows`` et al.) — the dataclass-taking ``add_*``
  methods remain as thin compatibility shims; ``(kind, name)`` is interned
  through a dict that a writable reopen loads from ``sites``;
* buffered rows flush **one transaction per batch** via ``executemany``,
  with a uniform per-table flush threshold (calls, aex, paging *and* sync);
* recording pragmas: WAL journaling (file-backed traces, until the seal),
  ``synchronous=OFF``, in-memory temp store and a larger page cache — a
  crashed trace run is worthless anyway, so durability is traded for speed;
* ``call_rows`` carries no index: no reader needs its rows in any order
  but the blocks'.

**Readers never write.**  The reader side exposes typed records for
compatibility, a **columnar API** (:meth:`call_columns`,
:meth:`durations_ns`, :meth:`starts_ns`, :meth:`call_summary`) returning
NumPy arrays straight from SQL, and raw SQL for everyone else.
``readonly=True`` opens an existing trace through SQLite's read-only mode:
no write lock, and the file's bytes never change — the mode every analysis
command uses.  Either mode refuses, with :class:`TraceError` and before
writing anything, a trace whose ``calls`` is still a table or that has no
``call_blocks`` (the two schemas before this one); a read-only open also
refuses a trace whose blocks do not cover ``call_rows`` (one that was
never sealed).

For traces too large to materialise, the **streaming API** walks the
trace in bounded-size batches: :meth:`call_columns_chunks` decodes the
column blocks and yields :class:`CallColumns` windows in ``(thread_id,
start_ns, id)`` order whose rows carry site ids, not strings; row-count
fast paths (:meth:`calls_count`, :meth:`event_count`,
:meth:`thread_row_counts`) never load a column.
"""

from __future__ import annotations

import os
import sqlite3
import sys
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.perf.events import (
    ECALL,
    OCALL,
    AexEvent,
    CallEvent,
    EnclaveRecord,
    FaultRecord,
    PagingRecord,
    SyncEvent,
    SyncKind,
    ThreadRecord,
)

if TYPE_CHECKING:  # NumPy loads on the first columnar read, not with the writer
    import numpy as np

    from repro.perf.columns import CallColumns

# Name given to calls synthesised by salvage for ids the crashed logger
# never flushed (their real names died with the in-memory frames).
TRUNCATED_CALL_NAME = "<truncated>"

# A SQL NULL parent_id in a column block, and in every CallColumns batch.
NO_PARENT = -1


class TraceError(RuntimeError):
    """A trace database used in a way that would corrupt it.

    The canonical case: a ``TraceDatabase`` carried across ``fork()`` into a
    child process.  SQLite connections must not be shared across processes —
    the sweep engine gives every worker its own store; anything else gets
    this error instead of silent corruption.
    """

_SCHEMA_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sites (
    site_id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    UNIQUE (kind, name)
);
CREATE TABLE IF NOT EXISTS call_rows (
    id INTEGER PRIMARY KEY,
    site_id INTEGER NOT NULL,
    call_index INTEGER NOT NULL,
    enclave_id INTEGER NOT NULL,
    thread_id INTEGER NOT NULL,
    start_ns INTEGER NOT NULL,
    end_ns INTEGER NOT NULL,
    aex_count INTEGER NOT NULL DEFAULT 0,
    parent_id INTEGER,
    is_sync INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS call_blocks (
    thread_id INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    nrows INTEGER NOT NULL,
    data BLOB NOT NULL,
    PRIMARY KEY (thread_id, seq)
);
CREATE VIEW IF NOT EXISTS calls AS
    SELECT id, kind, name, call_index, enclave_id, thread_id,
           start_ns, end_ns, aex_count, parent_id, is_sync
    FROM call_rows JOIN sites USING (site_id);
CREATE TABLE IF NOT EXISTS aex (
    id INTEGER PRIMARY KEY,
    ts_ns INTEGER NOT NULL,
    enclave_id INTEGER NOT NULL,
    thread_id INTEGER NOT NULL,
    call_id INTEGER
);
CREATE TABLE IF NOT EXISTS paging (
    id INTEGER PRIMARY KEY,
    ts_ns INTEGER NOT NULL,
    enclave_id INTEGER NOT NULL,
    vaddr INTEGER NOT NULL,
    direction TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sync (
    id INTEGER PRIMARY KEY,
    ts_ns INTEGER NOT NULL,
    thread_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    call_id INTEGER NOT NULL,
    targets TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS faults (
    id INTEGER PRIMARY KEY,
    ts_ns INTEGER NOT NULL,
    enclave_id INTEGER NOT NULL DEFAULT 0,
    thread_id INTEGER NOT NULL DEFAULT 0,
    kind TEXT NOT NULL,
    call TEXT NOT NULL DEFAULT '',
    detail TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS threads (
    thread_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    created_ns INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS enclaves (
    enclave_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    size_pages INTEGER NOT NULL,
    tcs_count INTEGER NOT NULL,
    base_vaddr INTEGER NOT NULL
);
"""

_INSERT_SITE = "INSERT INTO sites(kind, name) VALUES (?, ?)"
_INSERT_CALL_ROWS = "INSERT INTO call_rows VALUES (?,?,?,?,?,?,?,?,?,?)"
_INSERT_BLOCK = "INSERT INTO call_blocks VALUES (?,?,?,?)"
# Recovery only: re-encoding blocks is the one read of call_rows.
_SELECT_CALL_ROWS = (
    "SELECT id, site_id, call_index, enclave_id, thread_id, start_ns, end_ns,"
    " aex_count, parent_id, is_sync FROM call_rows"
)
_BLOCKS_COVER_ROWS = (
    "SELECT (SELECT ifnull(sum(nrows), 0) FROM call_blocks)"
    " = (SELECT count(*) FROM call_rows)"
)
_INSERT_AEX = "INSERT INTO aex VALUES (?,?,?,?,?)"
_INSERT_PAGING = "INSERT INTO paging VALUES (?,?,?,?,?)"
_INSERT_SYNC = "INSERT INTO sync VALUES (?,?,?,?,?,?)"
_INSERT_FAULTS = "INSERT INTO faults VALUES (?,?,?,?,?,?,?)"

# ``table_counts()`` keys and the tables they count (call rows are counted
# on ``call_rows``: a count through the ``calls`` view pays its join).
_EVENT_TABLES = (
    ("calls", "call_rows"),
    ("aex", "aex"),
    ("paging", "paging"),
    ("sync", "sync"),
    ("faults", "faults"),
)

_FLUSH_THRESHOLD = 4096

# Default streaming batch, and the most rows one column block holds: large
# enough to amortise per-chunk Python and NumPy overheads, small enough
# that a window of one chunk stays in cache (on the 251,666-call glamdring
# trace 4,096 rows run as fast as 65,536 at 16 MB instead of 57 MB of
# traced peak memory; 1,024 is 30% slower).
DEFAULT_CHUNK_EVENTS = 4_096

_CALL_COLUMNS = 10  # call_rows columns, the rows of a decoded block
_START_ID = itemgetter(5, 0)  # (start_ns, id): a thread's block order
_START = itemgetter(5)


def _pack_block(rows: Sequence[tuple]) -> bytes:
    """Encode ``call_rows`` tuples (one thread, block order) as one block.

    Column by column through one compressor: no transposed copy of the
    rows is ever built.
    """
    compressor = zlib.compressobj(1)
    parts = []
    for column in range(_CALL_COLUMNS):
        values = map(itemgetter(column), rows)
        if column == 8:  # parent_id
            values = [NO_PARENT if p is None else p for p in values]
        packed = array("q", values)
        if sys.byteorder == "big":
            packed.byteswap()
        parts.append(compressor.compress(packed))
    parts.append(compressor.flush())
    return b"".join(parts)


def _block_last_key(nrows: int, data: bytes) -> tuple[int, int]:
    """``(start_ns, id)`` of a block's last row, decoded without NumPy."""
    values = array("q", zlib.decompress(data))
    if sys.byteorder == "big":
        values.byteswap()
    return values[6 * nrows - 1], values[nrows - 1]


@dataclass(frozen=True)
class CallSummary:
    """One ``call_summary()`` row: per-(kind, name) aggregates from SQL."""

    kind: str
    name: str
    count: int
    total_ns: int
    min_ns: int
    max_ns: int

    @property
    def mean_ns(self) -> float:
        """Average measured duration."""
        return self.total_ns / self.count if self.count else 0.0


class TraceDatabase:
    """Writer/reader for an sgx-perf trace.

    Use as a context manager or call :meth:`close` to flush buffered rows.
    A path of ``":memory:"`` keeps the trace in RAM (handy for tests).

    ``readonly=True`` opens an existing file-backed trace through SQLite's
    read-only URI mode: no schema creation, no pragma writes — many
    processes can read the same trace concurrently without ever contending
    on a write lock, and the file's bytes never change.

    Either mode refuses, with :class:`TraceError` and before writing
    anything, a trace whose ``calls`` is still a table (the schema before
    interned call sites) or that has ``call_rows`` but no ``call_blocks``
    (the schema before column blocks); a read-only open also refuses a
    file that holds no trace, and a trace that was never sealed.
    """

    def __init__(
        self,
        path: str = ":memory:",
        flush_threshold: int = _FLUSH_THRESHOLD,
        readonly: bool = False,
    ) -> None:
        self.path = path
        self.readonly = readonly
        self._flush_threshold = max(1, int(flush_threshold))
        if readonly:
            if path == ":memory:":
                raise TraceError("readonly=True needs a file-backed trace")
            self._conn = sqlite3.connect(
                f"file:{path}?mode=ro", uri=True, check_same_thread=False,
                isolation_level=None,
            )
            self._check_schema()
            self._site_ids: dict[tuple[str, str], int] = {}
        else:
            # Simulated threads are backed by OS threads, but the cooperative
            # scheduler guarantees only one runs at a time — cross-thread use
            # of the connection is serialised by construction.  Autocommit
            # isolation lets flush() wrap each batch in one explicit
            # transaction.
            self._conn = sqlite3.connect(
                path, check_same_thread=False, isolation_level=None
            )
            self._check_schema()
            self._apply_recording_pragmas()
            self._conn.executescript(_SCHEMA_TABLES)
            # (kind, name) → site id; a reopened trace keeps its ids.
            self._site_ids = {
                (kind, name): site
                for site, kind, name in self._conn.execute(
                    "SELECT site_id, kind, name FROM sites"
                )
            }
        # Block encoder state, per thread: rows waiting behind an open call
        # (block order), the next block's seq, the (start_ns, id) of the
        # last encoded row, and threads whose blocks the seal re-encodes.
        self._held: dict[int, list[tuple]] = {}
        self._next_seq: dict[int, int] = {}
        self._last_key: dict[int, tuple[int, int]] = {}
        self._stale: set[int] = set()
        if not readonly:
            # A reopened trace appends after its threads' last blocks.  The
            # aggregate's bare columns come from the row holding max(seq).
            for tid, seq, nrows, data in self._conn.execute(
                "SELECT thread_id, max(seq), nrows, data FROM call_blocks GROUP BY thread_id"
            ):
                self._next_seq[tid] = seq + 1
                self._last_key[tid] = _block_last_key(nrows, data)
        # A read-only open has checked the blocks; a writable one seals
        # before its first read.
        self._sealed = readonly
        self._calls: list[tuple] = []
        self._aex: list[tuple] = []
        self._paging: list[tuple] = []
        self._sync: list[tuple] = []
        self._faults: list[tuple] = []
        self._closed = False
        # Owning process: a connection inherited across fork()/spawn() must
        # never touch the database file (shared-nothing guard).
        self._owner_pid = os.getpid()

    def _check_schema(self) -> None:
        """Refuse a file this store cannot read, before anything is written."""
        try:
            objects = dict(
                self._conn.execute("SELECT name, type FROM sqlite_master").fetchall()
            )
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise TraceError(f"{self.path}: not a trace database ({exc})") from None
        if objects.get("calls") == "table":
            problem = "trace predates interned call sites; re-record it"
        elif "call_rows" in objects and "call_blocks" not in objects:
            problem = "trace predates column blocks; re-record it"
        elif not self.readonly:
            return
        elif "call_rows" not in objects:
            problem = "not a trace database (no call_rows table)"
        elif not self._conn.execute(_BLOCKS_COVER_ROWS).fetchone()[0]:
            problem = "trace never finalized; run sgxperf salvage TRACE"
        else:
            return
        self._conn.close()
        raise TraceError(f"{self.path}: {problem}")

    def _check_owner(self) -> None:
        if os.getpid() != self._owner_pid:
            raise TraceError(
                f"TraceDatabase({self.path!r}) opened in pid {self._owner_pid} "
                f"used from child pid {os.getpid()}; open a fresh database per "
                "process (the sweep engine gives each worker its own trace)"
            )

    def _apply_recording_pragmas(self) -> None:
        conn = self._conn
        if self.path != ":memory:":
            conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=OFF")
        conn.execute("PRAGMA temp_store=MEMORY")
        conn.execute("PRAGMA cache_size=-32768")  # 32 MiB page cache

    def seal(self) -> None:
        """Complete the trace: every call row in a column block, one file.

        Encodes the rows still waiting behind open calls, re-encodes the
        threads that got rows sorting before their last block, and
        rebuilds every block if they still do not cover ``call_rows``
        (those two read ``call_rows`` back).  Then switches a file-backed
        trace's journal to ``DELETE``: the WAL is checkpointed into the
        main file and removed.  The event logger's
        :meth:`~repro.perf.logger.EventLogger.finalize` and
        :meth:`~repro.perf.logger.EventLogger.abort`, and :meth:`salvage`,
        call it; reads on a writable handle seal first.
        """
        self._check_owner()
        self.flush()
        if self._held:
            with self._transaction() as conn:
                self._encode_blocks(conn, {}, {})
        if self._stale:
            self._rebuild_blocks(sorted(self._stale))
        if not self._conn.execute(_BLOCKS_COVER_ROWS).fetchone()[0]:
            self._rebuild_blocks(None)
        if self.path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=DELETE")
        self._sealed = True

    def _encode_blocks(
        self,
        conn: sqlite3.Connection,
        by_thread: dict[int, list[tuple]],
        open_calls: dict[int, tuple[int, int]],
    ) -> None:
        """Write blocks for every row that no open call can precede.

        ``by_thread`` maps a thread to its new ``call_rows`` tuples;
        ``open_calls`` maps a thread to its oldest open call's ``(start_ns,
        id)``.  A thread's rows that sort after that key wait in memory;
        a thread without one has nothing open, so its waiting rows go too.
        """
        held = self._held
        for tid in held:
            if tid not in by_thread and tid not in open_calls:
                by_thread[tid] = []
        for tid, rows in by_thread.items():
            if tid in self._stale:
                continue  # the seal re-encodes it from call_rows
            waiting = held.pop(tid, None)
            if waiting:
                rows = waiting + rows
            # Block order by two stable sorts: a (start_ns, id) key would
            # build one tuple per row.
            rows.sort()  # ids are unique: sorts by id
            rows.sort(key=_START)
            key = open_calls.get(tid)
            if key is not None:
                cut = len(rows)
                while cut and _START_ID(rows[cut - 1]) > key:
                    cut -= 1
                if cut < len(rows):
                    held[tid] = rows[cut:]
                    del rows[cut:]
            if not rows:
                continue
            last = self._last_key.get(tid)
            if last is not None and _START_ID(rows[0]) < last:
                self._stale.add(tid)
                held.pop(tid, None)
                continue
            self._write_blocks(conn, tid, rows)

    def _write_blocks(self, conn: sqlite3.Connection, tid: int, rows: list[tuple]) -> None:
        """Append one thread's rows (block order) as full-size blocks."""
        seq = self._next_seq.get(tid, 0)
        for begin in range(0, len(rows), DEFAULT_CHUNK_EVENTS):
            part = rows[begin : begin + DEFAULT_CHUNK_EVENTS]
            conn.execute(_INSERT_BLOCK, (tid, seq, len(part), _pack_block(part)))
            seq += 1
        self._next_seq[tid] = seq
        self._last_key[tid] = _START_ID(rows[-1])

    def _rebuild_blocks(self, thread_ids: Optional[list[int]]) -> None:
        """Re-encode the blocks of ``thread_ids`` (all threads: ``None``)
        from ``call_rows`` — the recovery path, the one that reads back."""
        if thread_ids is None:
            where, params = "", []
            self._next_seq.clear()
            self._last_key.clear()
            self._stale.clear()
        else:
            where = f" WHERE thread_id IN ({','.join('?' for _ in thread_ids)})"
            params = thread_ids
            for tid in thread_ids:
                self._next_seq.pop(tid, None)
                self._last_key.pop(tid, None)
                self._stale.discard(tid)
        with self._transaction() as conn:
            conn.execute("DELETE FROM call_blocks" + where, params)
            run: list[tuple] = []
            for row in conn.execute(
                _SELECT_CALL_ROWS + where + " ORDER BY thread_id, start_ns, id", params
            ):
                if run and (row[4] != run[0][4] or len(run) == DEFAULT_CHUNK_EVENTS):
                    self._write_blocks(conn, run[0][4], run)
                    run = []
                run.append(row)
            if run:
                self._write_blocks(conn, run[0][4], run)

    # -- writer side: flat rows (the fast path) -------------------------------

    def add_call_row(self, row: tuple) -> None:
        """Buffer one completed call as a flat tuple in ``calls`` view order."""
        buf = self._calls
        buf.append(row)
        if len(buf) >= self._flush_threshold:
            self.flush()

    def add_aex_row(self, row: tuple) -> None:
        """Buffer one traced AEX row."""
        buf = self._aex
        buf.append(row)
        if len(buf) >= self._flush_threshold:
            self.flush()

    def add_paging_row(self, row: tuple) -> None:
        """Buffer one paging row."""
        buf = self._paging
        buf.append(row)
        if len(buf) >= self._flush_threshold:
            self.flush()

    def add_sync_row(self, row: tuple) -> None:
        """Buffer one sync sleep/wake row."""
        buf = self._sync
        buf.append(row)
        if len(buf) >= self._flush_threshold:
            self.flush()

    def add_call_rows(
        self,
        rows: Iterable[tuple],
        open_calls: Optional[dict[int, tuple[int, int]]] = None,
    ) -> None:
        """Bulk-insert completed call rows (one transaction, no buffering).

        Rows arrive in the ``calls`` view's eleven-column order; each
        ``(kind, name)`` pair is interned into ``sites`` (ids in first-seen
        order) and ``call_rows`` stores its integer site id instead.  The
        same transaction writes the column blocks of every row that no
        call still open can precede: ``open_calls`` maps a thread to its
        oldest open call's ``(start_ns, id)``, and a thread it omits has
        nothing open.
        """
        site_ids = self._site_ids
        fresh: list[tuple[str, str]] = []
        by_thread: dict[int, list[tuple]] = {}
        with self._transaction() as conn:
            try:
                packed = []
                for row in rows:
                    key = (row[1], row[2])
                    site = site_ids.get(key)
                    if site is None:
                        site = site_ids[key] = conn.execute(_INSERT_SITE, key).lastrowid
                        fresh.append(key)
                    packed.append((row[0], site, *row[3:]))
                conn.executemany(_INSERT_CALL_ROWS, packed)
            except BaseException:
                for key in fresh:  # rolled back with the batch
                    del site_ids[key]
                raise
            self._sealed = False
            for row in packed:
                thread = by_thread.get(row[4])
                if thread is None:
                    thread = by_thread[row[4]] = []
                thread.append(row)
            self._encode_blocks(conn, by_thread, open_calls or {})

    def add_aex_rows(self, rows: Iterable[tuple]) -> None:
        """Bulk-insert traced AEX rows."""
        self._write_batch(_INSERT_AEX, rows)

    def add_paging_rows(self, rows: Iterable[tuple]) -> None:
        """Bulk-insert paging rows."""
        self._write_batch(_INSERT_PAGING, rows)

    def add_sync_rows(self, rows: Iterable[tuple]) -> None:
        """Bulk-insert sync rows."""
        self._write_batch(_INSERT_SYNC, rows)

    def add_fault_rows(self, rows: Iterable[tuple]) -> None:
        """Bulk-insert fault/recovery rows."""
        self._write_batch(_INSERT_FAULTS, rows)

    def _write_batch(self, sql: str, rows: Iterable[tuple]) -> None:
        with self._transaction() as conn:
            conn.executemany(sql, rows)

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        self._check_owner()
        conn = self._conn
        conn.execute("BEGIN")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    # -- writer side: typed records (compatibility shims) ---------------------

    def set_meta(self, key: str, value: str) -> None:
        """Store one key/value metadata pair (patch level, frequency, ...)."""
        self._check_owner()
        self._conn.execute(
            "INSERT OR REPLACE INTO meta(key, value) VALUES (?, ?)", (key, str(value))
        )

    def add_call(self, event: CallEvent) -> None:
        """Buffer one completed call event."""
        self.add_call_row(event.to_row())

    def add_aex(self, event: AexEvent) -> None:
        """Buffer one traced AEX."""
        self.add_aex_row(
            (
                event.event_id,
                event.timestamp_ns,
                event.enclave_id,
                event.thread_id,
                event.call_id,
            )
        )

    def add_paging(self, record: PagingRecord) -> None:
        """Buffer one paging event."""
        self.add_paging_row(
            (
                record.event_id,
                record.timestamp_ns,
                record.enclave_id,
                record.vaddr,
                record.direction,
            )
        )

    def add_sync(self, event: SyncEvent) -> None:
        """Buffer one sync sleep/wake event."""
        self.add_sync_row(
            (
                event.event_id,
                event.timestamp_ns,
                event.thread_id,
                event.kind.value,
                event.call_id,
                ",".join(str(t) for t in event.targets),
            )
        )

    def add_thread(self, record: ThreadRecord) -> None:
        """Record one observed thread."""
        self._check_owner()
        self._conn.execute(
            "INSERT OR REPLACE INTO threads(thread_id, name, created_ns) VALUES (?,?,?)",
            (record.thread_id, record.name, record.created_ns),
        )

    def add_enclave(self, record: EnclaveRecord) -> None:
        """Record one enclave's static facts."""
        self._check_owner()
        self._conn.execute(
            "INSERT OR REPLACE INTO enclaves"
            "(enclave_id, name, size_pages, tcs_count, base_vaddr) VALUES (?,?,?,?,?)",
            (
                record.enclave_id,
                record.name,
                record.size_pages,
                record.tcs_count,
                record.base_vaddr,
            ),
        )

    def flush(self) -> None:
        """Write buffered rows to the database, one transaction per batch."""
        if self._calls:
            self.add_call_rows(self._calls)
            self._calls.clear()
        if self._aex:
            self.add_aex_rows(self._aex)
            self._aex.clear()
        if self._paging:
            self.add_paging_rows(self._paging)
            self._paging.clear()
        if self._sync:
            self.add_sync_rows(self._sync)
            self._sync.clear()
        if self._faults:
            self.add_fault_rows(self._faults)
            self._faults.clear()

    def close(self) -> None:
        """Flush and close the underlying connection."""
        if not self._closed:
            self._check_owner()
            self.flush()
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "TraceDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reader side ---------------------------------------------------------

    def _ensure_read(self) -> None:
        """Flush pending rows, and seal a writable trace, so reads see them."""
        self._check_owner()
        self.flush()
        if not self._sealed:
            self.seal()

    def get_meta(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Fetch one metadata value."""
        self._check_owner()
        row = self._conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return row[0] if row else default

    @staticmethod
    def _call_filter(
        kind: Optional[str], name: Optional[str], enclave_id: Optional[int]
    ) -> tuple[str, list]:
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if name is not None:
            clauses.append("name = ?")
            params.append(name)
        if enclave_id is not None:
            clauses.append("enclave_id = ?")
            params.append(enclave_id)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params

    def calls(
        self,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        enclave_id: Optional[int] = None,
    ) -> list[CallEvent]:
        """Load call events, optionally filtered, ordered by start time."""
        self._ensure_read()
        where, params = self._call_filter(kind, name, enclave_id)
        rows = self._conn.execute(
            "SELECT * FROM calls" + where + " ORDER BY start_ns, id", params
        ).fetchall()
        return [CallEvent.from_row(r) for r in rows]

    def call_columns(
        self,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        enclave_id: Optional[int] = None,
    ) -> CallColumns:
        """Load call events as columns — the analyser fast path."""
        from repro.perf.columns import CallColumns

        self._ensure_read()
        where, params = self._call_filter(kind, name, enclave_id)
        rows = self._conn.execute(
            "SELECT * FROM calls" + where + " ORDER BY start_ns, id", params
        ).fetchall()
        return CallColumns.from_rows(rows)

    # -- reader side: streaming (windowed-memory) API ------------------------

    def calls_count(
        self,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        enclave_id: Optional[int] = None,
    ) -> int:
        """Row count of ``calls`` via ``SELECT count(*)`` — no columns loaded."""
        self._ensure_read()
        where, params = self._call_filter(kind, name, enclave_id)
        # Unfiltered counts skip the view's join.
        source = "calls" if where else "call_rows"
        return int(
            self._conn.execute(f"SELECT count(*) FROM {source}" + where, params).fetchone()[0]
        )

    def event_count(self) -> int:
        """Total rows across every event table, via ``count(*)`` fast paths."""
        return sum(self.table_counts().values())

    def table_counts(self) -> dict[str, int]:
        """Per-table row counts (the CLI's pre-analysis sizing line)."""
        self._ensure_read()
        return {
            name: int(self._conn.execute(f"SELECT count(*) FROM {table}").fetchone()[0])
            for name, table in _EVENT_TABLES
        }

    def thread_row_counts(self) -> list[tuple[int, int]]:
        """``(thread_id, call rows)`` pairs, summed over the column blocks."""
        self._ensure_read()
        rows = self._conn.execute(
            "SELECT thread_id, sum(nrows) FROM call_blocks GROUP BY thread_id ORDER BY thread_id"
        ).fetchall()
        return [(int(t), int(c)) for t, c in rows]

    def call_columns_chunks(
        self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[CallColumns]:
        """Stream the call rows as bounded-size column batches.

        Rows come ordered by ``(thread_id, start_ns, id)`` — each thread is
        one contiguous run, which is what the call fold needs to keep its
        per-thread parent window small.

        Decodes the column blocks and re-slices them to ``chunk_events``
        rows: each batch carries per-row site ids and the trace's site
        table, so no row's ``kind`` or ``name`` string is ever fetched.
        """
        import numpy as np

        from repro.perf.columns import CallColumns

        self._ensure_read()
        sites = {
            site: (kind, name)
            for site, kind, name in self._conn.execute("SELECT site_id, kind, name FROM sites")
        }
        chunk = max(1, int(chunk_events))
        pending: list[np.ndarray] = []  # decoded (10, n) blocks not yet yielded
        have = 0
        for nrows, data in self._conn.execute(
            "SELECT nrows, data FROM call_blocks ORDER BY thread_id, seq"
        ):
            block = np.frombuffer(zlib.decompress(data), dtype="<i8")
            pending.append(block.reshape(_CALL_COLUMNS, nrows))
            have += nrows
            if have < chunk:
                continue
            rows = pending[0] if len(pending) == 1 else np.concatenate(pending, axis=1)
            full = have - have % chunk
            for begin in range(0, full, chunk):
                yield CallColumns.from_block(rows[:, begin : begin + chunk], sites)
            pending = [rows[:, full:]] if full < have else []
            have -= full
        if have:
            rows = pending[0] if len(pending) == 1 else np.concatenate(pending, axis=1)
            yield CallColumns.from_block(rows, sites)

    def ecall_intervals_chunks(
        self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[list[tuple]]:
        """Stream ``(start_ns, end_ns, name)`` of every ecall, time-ordered."""
        yield from self._rows_chunks(
            "SELECT start_ns, end_ns, name FROM calls WHERE kind = ?"
            " ORDER BY start_ns, id",
            chunk_events,
            (ECALL,),
        )

    def sync_rows_chunks(
        self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[list[tuple]]:
        """Stream raw ``sync`` rows in time order."""
        yield from self._rows_chunks(
            "SELECT * FROM sync ORDER BY ts_ns, id", chunk_events
        )

    def paging_rows_chunks(
        self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[list[tuple]]:
        """Stream raw ``paging`` rows in time order."""
        yield from self._rows_chunks(
            "SELECT * FROM paging ORDER BY ts_ns, id", chunk_events
        )

    def fault_events_chunks(
        self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[list[FaultRecord]]:
        """Stream ``faults`` rows as typed records, time-ordered."""
        for rows in self._rows_chunks(
            "SELECT * FROM faults ORDER BY ts_ns, id", chunk_events
        ):
            yield [FaultRecord(*r) for r in rows]

    def _rows_chunks(
        self, sql: str, chunk_events: int, params: Iterable = ()
    ) -> Iterator[list[tuple]]:
        self._ensure_read()
        cursor = self._conn.execute(sql, tuple(params))
        chunk = max(1, int(chunk_events))
        while True:
            rows = cursor.fetchmany(chunk)
            if not rows:
                break
            yield rows

    def durations_ns(
        self,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        enclave_id: Optional[int] = None,
    ) -> np.ndarray:
        """Measured durations straight from SQL, ``(start_ns, id)``-ordered."""
        import numpy as np

        self._ensure_read()
        where, params = self._call_filter(kind, name, enclave_id)
        rows = self._conn.execute(
            "SELECT end_ns - start_ns FROM calls" + where + " ORDER BY start_ns, id",
            params,
        ).fetchall()
        return np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows))

    def starts_ns(
        self,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        enclave_id: Optional[int] = None,
    ) -> np.ndarray:
        """Start timestamps straight from SQL, ``(start_ns, id)``-ordered."""
        import numpy as np

        self._ensure_read()
        where, params = self._call_filter(kind, name, enclave_id)
        rows = self._conn.execute(
            "SELECT start_ns FROM calls" + where + " ORDER BY start_ns, id", params
        ).fetchall()
        return np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows))

    def call_summary(self) -> list[CallSummary]:
        """Per-(kind, name) aggregates grouped in SQL, busiest first."""
        self._ensure_read()
        rows = self._conn.execute(
            "SELECT kind, name, COUNT(*), SUM(end_ns - start_ns),"
            " MIN(end_ns - start_ns), MAX(end_ns - start_ns)"
            " FROM calls GROUP BY kind, name"
            " ORDER BY SUM(end_ns - start_ns) DESC, kind, name"
        ).fetchall()
        return [CallSummary(*r) for r in rows]

    def aex_events(self) -> list[AexEvent]:
        """Load all traced AEX events."""
        self._ensure_read()
        rows = self._conn.execute("SELECT * FROM aex ORDER BY ts_ns").fetchall()
        return [AexEvent(*r) for r in rows]

    def paging_events(self) -> list[PagingRecord]:
        """Load all paging events."""
        self._ensure_read()
        rows = self._conn.execute("SELECT * FROM paging ORDER BY ts_ns, id").fetchall()
        return [PagingRecord(*r) for r in rows]

    def sync_events(self) -> list[SyncEvent]:
        """Load all sync sleep/wake events."""
        self._ensure_read()
        rows = self._conn.execute("SELECT * FROM sync ORDER BY ts_ns, id").fetchall()
        return [
            SyncEvent(
                event_id=r[0],
                timestamp_ns=r[1],
                thread_id=r[2],
                kind=SyncKind(r[3]),
                call_id=r[4],
                targets=tuple(int(t) for t in r[5].split(",") if t),
            )
            for r in rows
        ]

    def fault_events(self) -> list[FaultRecord]:
        """Load all fault/recovery rows."""
        self._ensure_read()
        rows = self._conn.execute("SELECT * FROM faults ORDER BY ts_ns, id").fetchall()
        return [FaultRecord(*r) for r in rows]

    def threads(self) -> list[ThreadRecord]:
        """Load observed threads."""
        self._ensure_read()
        rows = self._conn.execute("SELECT * FROM threads ORDER BY thread_id").fetchall()
        return [ThreadRecord(*r) for r in rows]

    def enclaves(self) -> list[EnclaveRecord]:
        """Load enclave records."""
        self._ensure_read()
        rows = self._conn.execute("SELECT * FROM enclaves ORDER BY enclave_id").fetchall()
        return [EnclaveRecord(*r) for r in rows]

    # -- crash recovery ------------------------------------------------------

    def salvage(self) -> dict:
        """Recovery mode for a trace whose logger died without finalizing.

        A crashed recording run leaves flushed child rows (nested calls,
        AEXs, sync events) referencing parent call ids whose own rows were
        still open in-memory frames when the process died.  Salvage finds
        every such dangling id, synthesises a closed ``<truncated>`` call
        row for it — kind inferred from the evidence the children left
        behind, end time pinned to the trace horizon — and marks the trace
        ``salvaged`` so the analysis layer annotates instead of crashing.

        Returns ``{"closed": <rows synthesised>, "horizon_ns": <horizon>}``.
        Idempotent: a second pass finds nothing dangling.
        """
        self.flush()
        conn = self._conn
        missing: set[int] = set()
        for sql in (
            "SELECT DISTINCT parent_id FROM call_rows WHERE parent_id IS NOT NULL"
            " AND parent_id NOT IN (SELECT id FROM call_rows)",
            "SELECT DISTINCT call_id FROM aex WHERE call_id IS NOT NULL"
            " AND call_id NOT IN (SELECT id FROM call_rows)",
            "SELECT DISTINCT call_id FROM sync"
            " WHERE call_id NOT IN (SELECT id FROM call_rows)",
        ):
            missing.update(r[0] for r in conn.execute(sql).fetchall())
        horizon = 0
        for sql in (
            "SELECT MAX(end_ns) FROM call_rows",
            "SELECT MAX(ts_ns) FROM aex",
            "SELECT MAX(ts_ns) FROM paging",
            "SELECT MAX(ts_ns) FROM sync",
        ):
            value = conn.execute(sql).fetchone()[0]
            if value is not None and value > horizon:
                horizon = value
        rows: list[tuple] = []
        fault_rows: list[tuple] = []
        for call_id in sorted(missing):
            children = conn.execute(
                "SELECT kind, enclave_id, thread_id, start_ns FROM calls"
                " WHERE parent_id = ? ORDER BY id",
                (call_id,),
            ).fetchall()
            aex_hits = conn.execute(
                "SELECT enclave_id, thread_id, ts_ns FROM aex WHERE call_id = ?",
                (call_id,),
            ).fetchall()
            sync_hits = conn.execute(
                "SELECT thread_id, ts_ns FROM sync WHERE call_id = ?", (call_id,)
            ).fetchall()
            # Kind heuristics: AEXs interrupt ecalls and ocall children run
            # under ecalls; sync events happen *in* (sync) ocalls and
            # nested-ecall children run under ocalls.
            child_kinds = {c[0] for c in children}
            if aex_hits or OCALL in child_kinds:
                kind = ECALL
            elif sync_hits or ECALL in child_kinds:
                kind = OCALL
            else:
                kind = ECALL
            enclave_id = next(
                (c[1] for c in children), next((a[0] for a in aex_hits), 0)
            )
            thread_id = next(
                (c[2] for c in children),
                next((a[1] for a in aex_hits), next((s[0] for s in sync_hits), 0)),
            )
            evidence = (
                [c[3] for c in children]
                + [a[2] for a in aex_hits]
                + [s[1] for s in sync_hits]
            )
            start_ns = min(evidence) if evidence else horizon
            rows.append(
                (
                    call_id,
                    kind,
                    TRUNCATED_CALL_NAME,
                    -1,
                    enclave_id,
                    thread_id,
                    start_ns,
                    horizon,
                    len(aex_hits),
                    None,
                    0,
                )
            )
            fault_rows.append(
                (
                    None,
                    horizon,
                    enclave_id,
                    thread_id,
                    "truncated",
                    TRUNCATED_CALL_NAME,
                    f"call {call_id} never returned; closed at trace horizon",
                )
            )
        if rows:
            self.add_call_rows(rows)
            self.add_fault_rows(fault_rows)
        self.set_meta("trace_state", "salvaged")
        self.seal()
        return {"closed": len(rows), "horizon_ns": horizon}

    def execute(self, sql: str, params: Iterable = ()) -> list[tuple]:
        """Run raw SQL against the trace — the 'other tools' escape hatch.

        Flushes buffered rows (and seals a writable trace) first.  Query
        ``calls`` (the view) for the eleven-column rows; ``call_rows`` and
        ``sites`` are its storage.  SQL that changes the trace leaves it
        to be sealed again before the next read.
        """
        self._ensure_read()
        conn = self._conn
        changes = conn.total_changes
        rows = conn.execute(sql, tuple(params)).fetchall()
        if conn.total_changes != changes:
            self._sealed = False
        return rows

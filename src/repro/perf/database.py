"""SQLite trace store.

"All events are serialised to a SQLite database.  This makes it possible to
analyse the data with other tools without having to implement parsing of
the data." (paper §4).

The writer is tuned for trace recording (§4.1's "keep the hot path cheap,
serialise off the critical path" design applied to the store itself):

* rows arrive as **flat tuples** in schema order (``add_*_row``) or in bulk
  (``add_call_rows`` et al.) — the dataclass-taking ``add_*`` methods
  remain as thin compatibility shims;
* buffered rows flush **one transaction per batch** via ``executemany``,
  with a uniform per-table flush threshold (calls, aex, paging *and* sync);
* recording pragmas: WAL journaling (file-backed traces),
  ``synchronous=OFF``, in-memory temp store and a larger page cache — a
  crashed trace run is worthless anyway, so durability is traded for speed;
* index creation is **deferred until first read** (bulk-load then index):
  inserts never pay index maintenance while the logger is recording.

The reader side exposes typed records for compatibility, a **columnar API**
(:meth:`call_columns`, :meth:`durations_ns`, :meth:`starts_ns`,
:meth:`call_summary`) returning NumPy arrays straight from SQL for the
analysers, and raw SQL for everyone else.

For traces too large to materialise, the **streaming API** walks the same
tables through SQLite cursors in bounded-size batches:
:meth:`call_columns_chunks` yields :class:`CallColumns` windows (ordered by
``(thread, start, id)`` so per-thread parent state stays windowed, or
globally by ``(start, id)``), with row-count fast paths
(:meth:`calls_count`, :meth:`event_count`) that never load a column.
``readonly=True`` opens an existing trace without taking any write lock —
the mode the parallel analyser's shard workers use so N readers never
contend on index creation.
"""

from __future__ import annotations

import os
import sqlite3
from dataclasses import dataclass
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
CREATE TABLE IF NOT EXISTS calls (
    id INTEGER PRIMARY KEY,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    call_index INTEGER NOT NULL,
    enclave_id INTEGER NOT NULL,
    thread_id INTEGER NOT NULL,
    start_ns INTEGER NOT NULL,
    end_ns INTEGER NOT NULL,
    aex_count INTEGER NOT NULL DEFAULT 0,
    parent_id INTEGER,
    is_sync INTEGER NOT NULL DEFAULT 0
);
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

_SCHEMA_INDEXES = """
CREATE INDEX IF NOT EXISTS idx_calls_name ON calls(kind, name);
CREATE INDEX IF NOT EXISTS idx_calls_thread ON calls(thread_id, start_ns);
"""

_INSERT_CALLS = "INSERT INTO calls VALUES (?,?,?,?,?,?,?,?,?,?,?)"
_INSERT_AEX = "INSERT INTO aex VALUES (?,?,?,?,?)"
_INSERT_PAGING = "INSERT INTO paging VALUES (?,?,?,?,?)"
_INSERT_SYNC = "INSERT INTO sync VALUES (?,?,?,?,?,?)"
_INSERT_FAULTS = "INSERT INTO faults VALUES (?,?,?,?,?,?,?)"

_FLUSH_THRESHOLD = 4096

# Default streaming batch: large enough to amortise per-chunk Python and
# NumPy overheads, small enough that a window of one chunk stays in cache
# (on the 251,666-call glamdring trace 4,096 rows run as fast as 65,536
# at 16 MB instead of 57 MB of traced peak memory; 1,024 is 30% slower).
DEFAULT_CHUNK_EVENTS = 4_096


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
    read-only URI mode: no schema or index creation, no pragma writes —
    many processes can read the same trace concurrently without ever
    contending on a write lock.
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
            # Whatever indexes exist are what reads get; creating them
            # would need the write lock this mode exists to avoid.
            self._indexed = True
        else:
            # Simulated threads are backed by OS threads, but the cooperative
            # scheduler guarantees only one runs at a time — cross-thread use
            # of the connection is serialised by construction.  Autocommit
            # isolation lets flush() wrap each batch in one explicit
            # transaction.
            self._conn = sqlite3.connect(
                path, check_same_thread=False, isolation_level=None
            )
            self._apply_recording_pragmas()
            self._conn.executescript(_SCHEMA_TABLES)
            self._indexed = False
        self._calls: list[tuple] = []
        self._aex: list[tuple] = []
        self._paging: list[tuple] = []
        self._sync: list[tuple] = []
        self._faults: list[tuple] = []
        self._closed = False
        # Owning process: a connection inherited across fork()/spawn() must
        # never touch the database file (shared-nothing guard).
        self._owner_pid = os.getpid()

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

    def _create_indexes(self) -> None:
        if not self._indexed:
            self._conn.executescript(_SCHEMA_INDEXES)
            self._indexed = True

    # -- writer side: flat rows (the fast path) -------------------------------

    def add_call_row(self, row: tuple) -> None:
        """Buffer one completed call as a flat ``calls``-schema tuple."""
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

    def add_fault_row(self, row: tuple) -> None:
        """Buffer one fault/recovery row."""
        buf = self._faults
        buf.append(row)
        if len(buf) >= self._flush_threshold:
            self.flush()

    def add_call_rows(self, rows: Iterable[tuple]) -> None:
        """Bulk-insert completed call rows (one transaction, no buffering)."""
        self._write_batch(_INSERT_CALLS, rows)

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
        self._check_owner()
        conn = self._conn
        conn.execute("BEGIN")
        try:
            conn.executemany(sql, rows)
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
        """Flush pending rows and build the deferred read indexes."""
        self._check_owner()
        self.flush()
        self._create_indexes()

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
        self._check_owner()
        self.flush()
        where, params = self._call_filter(kind, name, enclave_id)
        return int(
            self._conn.execute("SELECT count(*) FROM calls" + where, params).fetchone()[0]
        )

    def event_count(self) -> int:
        """Total rows across every event table, via ``count(*)`` fast paths."""
        self._check_owner()
        self.flush()
        total = 0
        for table in ("calls", "aex", "paging", "sync", "faults"):
            total += int(
                self._conn.execute(f"SELECT count(*) FROM {table}").fetchone()[0]
            )
        return total

    def table_counts(self) -> dict[str, int]:
        """Per-table row counts (the CLI's pre-analysis sizing line)."""
        self._check_owner()
        self.flush()
        return {
            table: int(
                self._conn.execute(f"SELECT count(*) FROM {table}").fetchone()[0]
            )
            for table in ("calls", "aex", "paging", "sync", "faults")
        }

    def thread_row_counts(self) -> list[tuple[int, int]]:
        """``(thread_id, call rows)`` pairs — the parallel analyser's shard key."""
        self._ensure_read()
        rows = self._conn.execute(
            "SELECT thread_id, count(*) FROM calls GROUP BY thread_id ORDER BY thread_id"
        ).fetchall()
        return [(int(t), int(c)) for t, c in rows]

    def call_columns_chunks(
        self,
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
        thread_ids: Optional[Sequence[int]] = None,
        order: str = "thread",
    ) -> Iterator[CallColumns]:
        """Stream the ``calls`` table as bounded-size column batches.

        ``order="thread"`` yields rows ordered by ``(thread_id, start_ns,
        id)`` — each thread is one contiguous run, which is what the
        incremental analysers need to keep their per-thread parent windows
        small (and what ``idx_calls_thread`` serves without a sort).
        ``order="time"`` yields the reader convention ``(start_ns, id)``.
        ``thread_ids`` restricts the stream to one shard's threads.
        """
        from repro.perf.columns import CallColumns

        self._ensure_read()
        if order == "thread":
            order_by = " ORDER BY thread_id, start_ns, id"
        elif order == "time":
            order_by = " ORDER BY start_ns, id"
        else:
            raise ValueError(f"unknown chunk order {order!r}")
        where, params = "", []
        if thread_ids is not None:
            marks = ",".join("?" for _ in thread_ids)
            where = f" WHERE thread_id IN ({marks})"
            params = [int(t) for t in thread_ids]
        cursor = self._conn.execute("SELECT * FROM calls" + where + order_by, params)
        chunk = max(1, int(chunk_events))
        while True:
            rows = cursor.fetchmany(chunk)
            if not rows:
                break
            yield CallColumns.from_rows(rows)

    def call_durations_chunks(
        self, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream ``(event ids, durations)`` pairs, id-ordered, two ints per row."""
        import numpy as np

        self._ensure_read()
        cursor = self._conn.execute(
            "SELECT id, end_ns - start_ns FROM calls ORDER BY id"
        )
        chunk = max(1, int(chunk_events))
        while True:
            rows = cursor.fetchmany(chunk)
            if not rows:
                break
            n = len(rows)
            ids = np.fromiter((r[0] for r in rows), dtype=np.int64, count=n)
            durations = np.fromiter((r[1] for r in rows), dtype=np.int64, count=n)
            yield ids, durations

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
            "SELECT DISTINCT parent_id FROM calls WHERE parent_id IS NOT NULL"
            " AND parent_id NOT IN (SELECT id FROM calls)",
            "SELECT DISTINCT call_id FROM aex WHERE call_id IS NOT NULL"
            " AND call_id NOT IN (SELECT id FROM calls)",
            "SELECT DISTINCT call_id FROM sync"
            " WHERE call_id NOT IN (SELECT id FROM calls)",
        ):
            missing.update(r[0] for r in conn.execute(sql).fetchall())
        horizon = 0
        for sql in (
            "SELECT MAX(end_ns) FROM calls",
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
        return {"closed": len(rows), "horizon_ns": horizon}

    def execute(self, sql: str, params: Iterable = ()) -> list[tuple]:
        """Run raw SQL against the trace — the 'other tools' escape hatch.

        Flushes buffered rows but does not force the deferred read indexes;
        ad-hoc SQL decides for itself what it needs.
        """
        self._check_owner()
        self.flush()
        return self._conn.execute(sql, tuple(params)).fetchall()

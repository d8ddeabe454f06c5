"""Columnar view of the ``calls`` table.

The paper's analyses are all aggregations — fractions of short calls,
percentile tables, gap distributions (§4.3).  Inflating one
:class:`~repro.perf.events.CallEvent` dataclass per row just to feed NumPy
made the million-event traces (§5.2.4 records 1.1M ecall events)
analysis-bound in Python.  :class:`CallColumns` keeps the whole table as
eleven NumPy arrays instead; the analyser folds them chunk by chunk.

``parent_id`` uses ``-1`` as the *no parent* sentinel (SQL ``NULL``), so
every column stays a dense integer array.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

NO_PARENT = -1

# Column order mirrors the ``calls`` table schema.
CALL_COLUMN_NAMES = (
    "event_id",
    "kind",
    "name",
    "call_index",
    "enclave_id",
    "thread_id",
    "start_ns",
    "end_ns",
    "aex_count",
    "parent_id",
    "is_sync",
)


class CallColumns:
    """All call events of a trace, column-wise.

    ``kind`` and ``name`` are object arrays of strings; every other column
    is ``int64`` except ``is_sync`` (bool).  Rows keep the reader-side
    ordering convention: ``(start_ns, event_id)`` ascending.
    """

    __slots__ = CALL_COLUMN_NAMES + ("_id_order",)

    def __init__(
        self,
        event_id: np.ndarray,
        kind: np.ndarray,
        name: np.ndarray,
        call_index: np.ndarray,
        enclave_id: np.ndarray,
        thread_id: np.ndarray,
        start_ns: np.ndarray,
        end_ns: np.ndarray,
        aex_count: np.ndarray,
        parent_id: np.ndarray,
        is_sync: np.ndarray,
    ) -> None:
        self.event_id = event_id
        self.kind = kind
        self.name = name
        self.call_index = call_index
        self.enclave_id = enclave_id
        self.thread_id = thread_id
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.aex_count = aex_count
        self.parent_id = parent_id
        self.is_sync = is_sync
        self._id_order: Optional[tuple[np.ndarray, np.ndarray]] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "CallColumns":
        """Build from database rows (``calls`` schema order)."""
        n = len(rows)
        if n == 0:
            return cls.empty()
        cols = list(zip(*rows))
        return cls(
            event_id=np.fromiter(cols[0], dtype=np.int64, count=n),
            kind=np.array(cols[1], dtype=object),
            name=np.array(cols[2], dtype=object),
            call_index=np.fromiter(cols[3], dtype=np.int64, count=n),
            enclave_id=np.fromiter(cols[4], dtype=np.int64, count=n),
            thread_id=np.fromiter(cols[5], dtype=np.int64, count=n),
            start_ns=np.fromiter(cols[6], dtype=np.int64, count=n),
            end_ns=np.fromiter(cols[7], dtype=np.int64, count=n),
            aex_count=np.fromiter(cols[8], dtype=np.int64, count=n),
            parent_id=np.fromiter(
                (NO_PARENT if p is None else p for p in cols[9]),
                dtype=np.int64,
                count=n,
            ),
            is_sync=np.fromiter(cols[10], dtype=bool, count=n),
        )

    @classmethod
    def empty(cls) -> "CallColumns":
        """A zero-row column set."""
        i64 = np.empty(0, dtype=np.int64)
        return cls(
            event_id=i64,
            kind=np.empty(0, dtype=object),
            name=np.empty(0, dtype=object),
            call_index=i64,
            enclave_id=i64,
            thread_id=i64,
            start_ns=i64,
            end_ns=i64,
            aex_count=i64,
            parent_id=i64,
            is_sync=np.empty(0, dtype=bool),
        )

    # -- basics --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.event_id)

    def duration_ns(self) -> np.ndarray:
        """Measured durations, logger convention (``end - start``)."""
        return self.end_ns - self.start_ns

    # -- id lookups ----------------------------------------------------------

    def positions_of(self, ids: np.ndarray) -> np.ndarray:
        """Row positions of ``ids`` (``-1`` where absent or ``NO_PARENT``)."""
        if len(self) == 0:
            return np.full(len(ids), -1, dtype=np.int64)
        if self._id_order is None:
            order = np.argsort(self.event_id, kind="stable")
            self._id_order = (order, self.event_id[order])
        order, sorted_ids = self._id_order
        pos = np.searchsorted(sorted_ids, ids)
        pos_clipped = np.minimum(pos, len(sorted_ids) - 1)
        found = sorted_ids[pos_clipped] == ids
        return np.where(found, order[pos_clipped], np.int64(-1))

    # -- grouping ------------------------------------------------------------

    def group_codes(self) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Per-row group code and the code → ``(kind, name)`` table (sorted)."""
        pairs = list(zip(self.kind.tolist(), self.name.tolist()))
        keys = sorted(set(pairs))
        index = {key: code for code, key in enumerate(keys)}
        return np.fromiter(map(index.__getitem__, pairs), dtype=np.int64, count=len(pairs)), keys

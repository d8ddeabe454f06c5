"""Columnar view of a trace's call rows.

The paper's analyses are all aggregations — fractions of short calls,
percentile tables, gap distributions (§4.3).  Inflating one
:class:`~repro.perf.events.CallEvent` dataclass per row just to feed NumPy
made the million-event traces (§5.2.4 records 1.1M ecall events)
analysis-bound in Python.  :class:`CallColumns` keeps the rows as NumPy
arrays instead; the analyser folds them chunk by chunk.

A row names its call site by an integer ``site`` code into a small
``sites`` table (code → ``(kind, name)``).  Batches streamed from the
store carry the store's interned site ids, so grouping rows never hashes
a string; the ``kind`` and ``name`` columns are built only when asked for.

``parent_id`` uses ``-1`` as the *no parent* sentinel (SQL ``NULL``), so
every column stays a dense integer array.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

NO_PARENT = -1

# Column order mirrors the ``calls`` view of the trace store.
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
    """Call events of a trace, column-wise.

    ``site`` holds each row's call-site code and ``sites`` maps a code to
    its ``(kind, name)``; every other column is ``int64`` except
    ``is_sync`` (bool).  ``kind`` and ``name`` are derived object arrays.
    """

    __slots__ = (
        "event_id",
        "site",
        "sites",
        "call_index",
        "enclave_id",
        "thread_id",
        "start_ns",
        "end_ns",
        "aex_count",
        "parent_id",
        "is_sync",
        "_id_order",
    )

    def __init__(
        self,
        event_id: np.ndarray,
        site: np.ndarray,
        sites: dict[int, tuple[str, str]],
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
        self.site = site
        self.sites = sites
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
        """Build from ``calls`` view rows (eleven columns, strings included)."""
        n = len(rows)
        if n == 0:
            return cls.empty()
        cols = list(zip(*rows))
        codes: dict[tuple[str, str], int] = {}
        site = np.fromiter(
            (codes.setdefault(key, len(codes)) for key in zip(cols[1], cols[2])),
            dtype=np.int64,
            count=n,
        )
        return cls(
            event_id=np.fromiter(cols[0], dtype=np.int64, count=n),
            site=site,
            sites={code: key for key, code in codes.items()},
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
    def from_matrix(
        cls, matrix: np.ndarray, sites: dict[int, tuple[str, str]]
    ) -> "CallColumns":
        """Build from an ``(n, 10)`` int64 matrix in ``call_rows`` order.

        ``parent_id`` must already hold ``NO_PARENT`` for SQL ``NULL``;
        ``sites`` is the trace's site table (site id → ``(kind, name)``).
        """
        cols = np.ascontiguousarray(matrix.T)
        return cls(
            event_id=cols[0],
            site=cols[1],
            sites=sites,
            call_index=cols[2],
            enclave_id=cols[3],
            thread_id=cols[4],
            start_ns=cols[5],
            end_ns=cols[6],
            aex_count=cols[7],
            parent_id=cols[8],
            is_sync=cols[9].astype(bool),
        )

    @classmethod
    def empty(cls) -> "CallColumns":
        """A zero-row column set."""
        i64 = np.empty(0, dtype=np.int64)
        return cls(
            event_id=i64,
            site=i64,
            sites={},
            call_index=i64,
            enclave_id=i64,
            thread_id=i64,
            start_ns=i64,
            end_ns=i64,
            aex_count=i64,
            parent_id=i64,
            is_sync=np.empty(0, dtype=bool),
        )

    @property
    def kind(self) -> np.ndarray:
        """Per-row call kind (object array of strings)."""
        return self._site_part(0)

    @property
    def name(self) -> np.ndarray:
        """Per-row call name (object array of strings)."""
        return self._site_part(1)

    def _site_part(self, part: int) -> np.ndarray:
        lookup = {code: key[part] for code, key in self.sites.items()}
        return np.array([lookup[code] for code in self.site.tolist()], dtype=object)

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
        """Per-row group code and the code → ``(kind, name)`` table (sorted).

        Only the distinct site codes present are looked up and sorted; the
        rows themselves are mapped with one integer gather.
        """
        present = np.flatnonzero(np.bincount(self.site)).tolist()
        keyed = sorted((self.sites[code], code) for code in present)
        lut = np.zeros(present[-1] + 1 if present else 0, dtype=np.int64)
        lut[[code for _, code in keyed]] = np.arange(len(keyed), dtype=np.int64)
        return lut[self.site], [key for key, _ in keyed]

"""The call fold: the analyser's one pass over a trace's call rows.

:class:`CallFold` folds bounded-size column batches from
:meth:`~repro.perf.database.TraceDatabase.call_columns_chunks` into every
per-call-site accumulator the analyser needs (statistics, the Equation
1–3 threshold counts, parent edges), so a multi-GB trace is analysed in
O(chunk) transient memory plus the per-call-site state.  The coordinator
passes over the small side tables live in
:class:`~repro.perf.analysis.report.Analyzer`.

**The output is independent of the chunk size.**  Every decision goes
through the ``*_finding_from_counts`` builders, and every float that
appears in a report is reproduced exactly:

* threshold *fractions* are accumulated as integer counts and divided
  once (``(arr < t).mean()`` equals ``count / total`` for bool arrays);
* ecall *execution-time* thresholds use the identity
  ``max(d - T, 0) < t  ⇔  d < T + t`` so no subtracted array is kept;
* per-call mean/std are order-dependent under NumPy's pairwise
  summation, so each call site keeps its raw ``(start, id, duration)``
  triples (24 bytes/row) and re-sorts them to the global ``(start, id)``
  reader order at finalise time.

Accumulators are keyed by integer **call-site ids**: each chunk maps its
rows to ids once (from :meth:`~repro.perf.columns.CallColumns.group_codes`).
Names come back only when findings and the call graph are finalised, in
sorted-name order, so the site numbering never shows in the output.

Parent relations go into **two site-pair tables of integer cells**
(:class:`_PairCounts`, one row per pair seen): (child, direct parent) ×
(is_sync, start bucket, end bucket) holds the direct edges and the
Equation 2 offsets, (child, chain predecessor) × (is_sync, gap bucket)
the Figure 4 chain edges and the Equation 3 gaps.  A value ``x`` falls in
bucket ``searchsorted(limits, x, side="left")``, so ``x <= limits[j]``
exactly when its bucket is at most ``j``: a threshold count is a
cumulative sum over the non-sync buckets, an edge count a row's sum.

Batches must arrive **thread-major** (``ORDER BY thread_id, start_ns,
id``): each thread is one contiguous run in ``(start, id)`` order, so the
direct-parent window and the Figure 4 chains reset per thread, and one
stable sort by chain key lines each chain up in that order.  A chain's
tail crosses into the next batch only while the chain can still grow
(top-level, parent still open, or parent id never resolved).  The fold
relies on the event logger's recording invariants — a call's direct
parent is on the same thread and its interval encloses the child's
start, and every call is an ecall or an ocall.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.perf.analysis import callgraph as callgraph_mod
from repro.perf.analysis import detectors as det
from repro.perf.analysis import security as sec
from repro.perf.analysis import stats as stats_mod
from repro.perf.columns import CallColumns
from repro.perf.database import NO_PARENT
from repro.perf.events import ECALL, OCALL


# Equation 2 offset and Equation 3 gap limits (ns): bucket j holds the
# values in (limits[j-1], limits[j]].
OFFSET_LIMITS = np.array([10_000, 20_000], dtype=np.int64)
GAP_LIMITS = np.array([1_000, 5_000, 10_000, 20_000], dtype=np.int64)
# Direct table cell: (is_sync * 3 + start bucket) * 3 + end bucket.
DIRECT_CELLS = 2 * 3 * 3
# Chain table cell: is_sync * 5 + gap bucket.
CHAIN_CELLS = 2 * 5


class _GroupState:
    """Accumulator for one (kind, name) call site."""

    __slots__ = (
        "kind",
        "name",
        "count",
        "first_start",
        "first_id",
        "call_index",
        "is_sync_first",
        "starts",
        "ids",
        "durs",
        "n1",
        "n5",
        "n10",
    )

    def __init__(self, kind: str, name: str) -> None:
        self.kind = kind
        self.name = name
        self.count = 0
        self.first_start: Optional[int] = None  # earliest (start, id) row
        self.first_id = 0
        self.call_index = 0
        self.is_sync_first = False
        self.starts: list[np.ndarray] = []
        self.ids: list[np.ndarray] = []
        self.durs: list[np.ndarray] = []
        self.n1 = 0  # execution-time threshold counts (Equation 1)
        self.n5 = 0
        self.n10 = 0

    def update_first(
        self, start: int, event_id: int, call_index: int, is_sync: bool
    ) -> None:
        if self.first_start is None or (start, event_id) < (self.first_start, self.first_id):
            self.first_start, self.first_id = start, event_id
            self.call_index = call_index
            self.is_sync_first = is_sync

    def sorted_durations(self) -> np.ndarray:
        """Durations re-sorted to the global ``(start, id)`` reader order.

        Rows that already arrived in that order (every one-thread trace's)
        skip the sort: the stable ``lexsort`` would return them unchanged.
        """
        if not self.durs:
            return np.empty(0, dtype=np.int64)
        starts = np.concatenate(self.starts)
        ids = np.concatenate(self.ids)
        durs = np.concatenate(self.durs)
        later = starts[1:] > starts[:-1]
        tied = starts[1:] == starts[:-1]
        if (later | (tied & (ids[1:] >= ids[:-1]))).all():
            return durs
        return durs[np.lexsort((ids, starts))]


class _ThreadState:
    """Transient per-thread parent window and Figure 4 chain tails.

    ``window`` maps an *open* call id (one whose interval may still
    enclose future rows of this thread) to ``(start, end, site)``.
    ``chains`` maps a chain key ``parent_id * 2 + is_ecall`` to the
    ``(end, site)`` of the chain's last element, for chains that can still
    grow.  ``dangling`` remembers parent ids that never resolved (rows
    referencing calls an aborted logger lost), whose chains never close.
    """

    __slots__ = ("thread_id", "window", "chains", "dangling")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.window: dict[int, tuple[int, int, int]] = {}
        self.chains: dict[int, tuple[int, int]] = {}
        self.dangling: set[int] = set()


class _PairCounts:
    """Integer cell counts per ``(first site, second site)`` pair.

    A pair is the code ``(first << 32) | second``.  ``codes`` holds every
    code seen, sorted, and row ``i`` of ``counts`` the cells of
    ``codes[i]``, so memory grows with the distinct pairs seen, not with
    the square of the site count.
    """

    __slots__ = ("codes", "counts")

    def __init__(self, cells: int) -> None:
        self.codes = np.empty(0, dtype=np.int64)
        self.counts = np.zeros((0, cells), dtype=np.int64)

    def add(self, first: np.ndarray, second: np.ndarray, cell: np.ndarray) -> None:
        """Count each row once, into ``cell`` of its ``(first, second)`` pair."""
        if len(first) == 0:
            return
        code = (first << 32) | second
        pos = np.searchsorted(self.codes, code)
        if len(self.codes):
            unseen = self.codes.take(pos, mode="clip") != code
        else:
            unseen = np.ones(len(code), dtype=bool)
        if unseen.any():
            new = np.unique(code[unseen])
            at = np.searchsorted(self.codes, new)
            self.codes = np.insert(self.codes, at, new)
            self.counts = np.insert(self.counts, at, 0, axis=0)
            pos = np.searchsorted(self.codes, code)
        # Only the rows between the batch's lowest and highest pair change.
        lo, hi = int(pos.min()), int(pos.max()) + 1
        cells = self.counts.shape[1]
        self.counts[lo:hi] += np.bincount(
            (pos - lo) * cells + cell, minlength=(hi - lo) * cells
        ).reshape(hi - lo, cells)

    def pairs(self) -> tuple[list[int], list[int]]:
        """The ``first`` and ``second`` site of every row, in row order."""
        return (self.codes >> 32).tolist(), (self.codes & 0xFFFFFFFF).tolist()


class CallFold:
    """Folds thread-major call batches into every per-call-site accumulator."""

    def __init__(
        self,
        transition_round_trip_ns: int,
        weights: det.AnalyzerWeights,
        sleep_counts: Optional[dict[int, int]] = None,
    ) -> None:
        self.transition_ns = int(transition_round_trip_ns)
        self.weights = weights
        # Sleep call_id → multiplicity, from the coordinator's sync pass.
        self.sleep_counts = dict(sleep_counts or {})
        self._sleep_ids: Optional[np.ndarray] = (
            np.fromiter(
                sorted(self.sleep_counts), dtype=np.int64, count=len(self.sleep_counts)
            )
            if self.sleep_counts
            else None
        )
        # Call-site table: site id → (kind, name) and its accumulator.
        self.sites: list[tuple[str, str]] = []
        self.groups: list[_GroupState] = []
        self._site_ids: dict[tuple[str, str], int] = {}
        self._site_is_ecall = np.empty(0, dtype=bool)
        self.ecall_rows = 0
        self.ocall_rows = 0
        self.ecall_short = 0
        self.ocall_short = 0
        self.aex_total = 0
        # (child site, direct-parent site) × DIRECT_CELLS
        self.direct = _PairCounts(DIRECT_CELLS)
        # (child site, chain-predecessor site) × CHAIN_CELLS
        self.chained = _PairCounts(CHAIN_CELLS)
        self.ssc_matched = 0
        self.ssc_short = 0
        self._thread: Optional[_ThreadState] = None

    def _site(self, key: tuple[str, str]) -> int:
        """The id of call site ``(kind, name)``, registered on first sight."""
        site = self._site_ids.get(key)
        if site is None:
            site = self._site_ids[key] = len(self.sites)
            self.sites.append(key)
            self.groups.append(_GroupState(*key))
            self._site_is_ecall = np.append(self._site_is_ecall, key[0] == ECALL)
        return site

    # -- folding ------------------------------------------------------------

    def fold(self, cols: CallColumns) -> None:
        """Fold one thread-major batch into the accumulators."""
        n = len(cols)
        if n == 0:
            return
        codes, keys = cols.group_codes()
        lut = np.fromiter((self._site(key) for key in keys), dtype=np.int64, count=len(keys))
        site = lut[codes]
        is_ecall = self._site_is_ecall[site]
        durs = cols.duration_ns()
        w = self.weights
        ecalls = int(is_ecall.sum())
        self.ecall_rows += ecalls
        self.ocall_rows += n - ecalls
        # max(d - T, 0) < t  ⇔  d < T + t  (ecall execution-time identity)
        self.ecall_short += int(
            (durs[is_ecall] < self.transition_ns + w.short_call_ns).sum()
        )
        self.ocall_short += int((durs[~is_ecall] < w.short_call_ns).sum())
        self.aex_total += int(cols.aex_count.sum())
        self._fold_sleep_matches(cols, durs)
        self._fold_groups(cols, site, durs)
        boundaries = np.flatnonzero(np.diff(cols.thread_id)) + 1
        for seg in np.split(np.arange(n), boundaries):
            self._fold_segment(cols, site, is_ecall, seg)

    def _fold_sleep_matches(self, cols: CallColumns, durs: np.ndarray) -> None:
        if self._sleep_ids is None:
            return
        hits = np.flatnonzero(np.isin(cols.event_id, self._sleep_ids))
        threshold = self.weights.ssc_short_sleep_ns
        for pos in hits.tolist():
            mult = self.sleep_counts[int(cols.event_id[pos])]
            self.ssc_matched += mult
            if durs[pos] < threshold:
                self.ssc_short += mult

    def _fold_groups(self, cols: CallColumns, site: np.ndarray, durs: np.ndarray) -> None:
        order = np.argsort(site, kind="stable")
        boundaries = np.flatnonzero(np.diff(site[order])) + 1
        for bucket in np.split(order, boundaries):
            group = self.groups[int(site[bucket[0]])]
            starts = cols.start_ns[bucket]
            ids = cols.event_id[bucket]
            d = durs[bucket]
            group.count += len(bucket)
            group.starts.append(starts)
            group.ids.append(ids)
            group.durs.append(d)
            # The earliest (start, id) row carries the site's call_index
            # and is_sync flag.
            tied = bucket[starts == starts.min()]
            first = int(tied[np.argmin(cols.event_id[tied])])
            group.update_first(
                int(cols.start_ns[first]),
                int(cols.event_id[first]),
                int(cols.call_index[first]),
                bool(cols.is_sync[first]),
            )
            base = self.transition_ns if group.kind == ECALL else 0
            group.n1 += int((d < base + 1_000).sum())
            group.n5 += int((d < base + 5_000).sum())
            group.n10 += int((d < base + 10_000).sum())

    def _fold_segment(
        self, cols: CallColumns, site: np.ndarray, is_ecall: np.ndarray, seg: np.ndarray
    ) -> None:
        """One contiguous same-thread run: parents, chains, window carry."""
        tid = int(cols.thread_id[seg[0]])
        state = self._thread
        if state is None or state.thread_id != tid:
            # Thread-major order: the previous thread is complete — its
            # window and chains can never be referenced again.
            state = self._thread = _ThreadState(tid)
        self._fold_direct_parents(cols, site, seg, state)
        tail_rows, tail_keys = self._fold_chains(cols, site, is_ecall, seg, state)
        self._advance_window(cols, site, seg, state, tail_rows, tail_keys)

    def _fold_direct_parents(
        self, cols: CallColumns, site: np.ndarray, seg: np.ndarray, state: _ThreadState
    ) -> None:
        pids = cols.parent_id[seg]
        rows = seg[pids != NO_PARENT]
        if len(rows) == 0:
            return
        ppos = cols.positions_of(cols.parent_id[rows])
        in_chunk = ppos >= 0
        pos = ppos[in_chunk]
        # Parents in earlier chunks come out of the carried window; only
        # boundary-crossing rows pay this Python loop.
        carried: list[tuple[int, int, int, int]] = []
        for row in rows[~in_chunk].tolist():
            pid = int(cols.parent_id[row])
            entry = state.window.get(pid)
            if entry is None:
                state.dangling.add(pid)
            else:
                carried.append((row,) + entry)
        extra = np.array(carried, dtype=np.int64).reshape(-1, 4)
        rows = np.concatenate([rows[in_chunk], extra[:, 0]])
        pstart = np.concatenate([cols.start_ns[pos], extra[:, 1]])
        pend = np.concatenate([cols.end_ns[pos], extra[:, 2]])
        psite = np.concatenate([site[pos], extra[:, 3]])
        # Equation 2 offsets from the parent's start and to its end.
        from_start = np.searchsorted(OFFSET_LIMITS, cols.start_ns[rows] - pstart)
        from_end = np.searchsorted(OFFSET_LIMITS, pend - cols.end_ns[rows])
        cell = (cols.is_sync[rows] * 3 + from_start) * 3 + from_end
        self.direct.add(site[rows], psite, cell)

    def _fold_chains(
        self,
        cols: CallColumns,
        site: np.ndarray,
        is_ecall: np.ndarray,
        seg: np.ndarray,
        state: _ThreadState,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Figure 4 chains: consecutive same-(parent, kind) rows in (start, id) order.

        Returns the last row of each chain in the segment and its key.
        """
        keys = cols.parent_id[seg] * 2 + is_ecall[seg]
        # The segment is in (start, id) order: a stable sort by key keeps it
        # within each chain.
        order = np.argsort(keys, kind="stable")
        srows = seg[order]
        skeys = keys[order]
        head = np.ones(len(seg), dtype=bool)
        head[1:] = skeys[1:] != skeys[:-1]
        link_at = np.flatnonzero(~head)
        rows = srows[link_at]
        prev = srows[link_at - 1]
        pend = cols.end_ns[prev]
        psite = site[prev]
        if state.chains:
            # A chain head may continue a tail carried from this thread's
            # previous chunk; heads are in ascending key order.
            heads = np.flatnonzero(head)
            carried = np.array(
                [(key, *tail) for key, tail in state.chains.items()], dtype=np.int64
            )
            at = np.minimum(np.searchsorted(skeys[heads], carried[:, 0]), len(heads) - 1)
            hit = skeys[heads[at]] == carried[:, 0]
            rows = np.concatenate([rows, srows[heads[at[hit]]]])
            pend = np.concatenate([pend, carried[hit, 1]])
            psite = np.concatenate([psite, carried[hit, 2]])
        # Equation 3 gaps from the chain predecessor's end.
        gap = np.searchsorted(GAP_LIMITS, cols.start_ns[rows] - pend)
        self.chained.add(site[rows], psite, cols.is_sync[rows] * 5 + gap)
        tail_at = np.append(head[1:], True)
        return srows[tail_at], skeys[tail_at]

    def _advance_window(
        self,
        cols: CallColumns,
        site: np.ndarray,
        seg: np.ndarray,
        state: _ThreadState,
        tail_rows: np.ndarray,
        tail_keys: np.ndarray,
    ) -> None:
        """Carry only still-open intervals and the chains that can still grow.

        Same-chunk parents resolve through ``positions_of``, so the carry
        window only needs rows whose interval reaches past the segment's
        last start — the calls still open at the chunk boundary.  A chain
        whose parent call has closed can never grow again; only top-level
        chains, open parents and dangling ids keep their tails.
        """
        last_start = int(cols.start_ns[seg[-1]])
        for pid in [k for k, v in state.window.items() if v[1] < last_start]:
            del state.window[pid]
        still_open = seg[cols.end_ns[seg] >= last_start]
        for row in still_open.tolist():
            state.window[int(cols.event_id[row])] = (
                int(cols.start_ns[row]),
                int(cols.end_ns[row]),
                int(site[row]),
            )
        live = {NO_PARENT, *state.window, *state.dangling}
        state.chains = {key: tail for key, tail in state.chains.items() if key >> 1 in live}
        pids = tail_keys >> 1
        ids = np.sort(np.fromiter(live, dtype=np.int64, count=len(live)))
        grows = ids.take(np.searchsorted(ids, pids), mode="clip") == pids
        for key, row in zip(tail_keys[grows].tolist(), tail_rows[grows].tolist()):
            state.chains[key] = (int(cols.end_ns[row]), int(site[row]))

    # -- finalisation --------------------------------------------------------

    def _ordered_groups(self) -> list[_GroupState]:
        """Groups in global first-appearance order (min ``(start, id)``)."""
        return sorted(self.groups, key=lambda g: (g.first_start, g.first_id))

    def _named(self, table: _PairCounts, values: np.ndarray) -> list:
        """``(first key, second key, values[i])`` per pair ``i`` of ``table``, by name."""
        sites = self.sites
        firsts, seconds = table.pairs()
        return sorted((sites[a], sites[b], v) for a, b, v in zip(firsts, seconds, values.tolist()))

    def offset_counts(self) -> list:
        """Equation 2 ``(child key, parent key, [total, s10, s20, e10, e20])``
        over non-sync children, by name; pairs without one are left out."""
        # The non-sync cells, as [start bucket, end bucket].
        grid = self.direct.counts[:, :9].reshape(-1, 3, 3)
        starts = grid.sum(axis=2).cumsum(axis=1)
        ends = grid.sum(axis=1).cumsum(axis=1)
        counts = np.column_stack([starts[:, [2, 0, 1]], ends[:, :2]])
        return [row for row in self._named(self.direct, counts) if row[2][0]]

    def gap_counts(self) -> list:
        """Equation 3 ``(child key, predecessor key, [pairs, n1, n5, n10, n20])``
        over non-sync children, by name; pairs without one are left out."""
        # The non-sync cells: links whose gap bucket is at most j.
        within = self.chained.counts[:, :5].cumsum(axis=1)
        counts = within[:, [4, 0, 1, 2, 3]]
        return [row for row in self._named(self.chained, counts) if row[2][0]]

    def statistics(self) -> list[stats_mod.CallStatistics]:
        """Per-call statistics, busiest first (ties in first-appearance order)."""
        stats = [
            stats_mod.compute_statistics(g.kind, g.name, g.sorted_durations())
            for g in self._ordered_groups()
        ]
        stats.sort(key=lambda s: s.total_ns, reverse=True)
        return stats

    def move_findings(self) -> list[det.Finding]:
        findings = []
        for g in sorted(self.groups, key=lambda g: (g.kind, g.name)):
            if g.is_sync_first or g.count < self.weights.min_calls:
                continue
            finding = det.move_finding_from_counts(
                g.kind, g.name, g.count, g.n1, g.n5, g.n10, self.weights
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def reorder_findings(self) -> list[det.Finding]:
        # Equation 2 groups nested calls by parent *name*: sum over parent kinds.
        by_parent_name: dict[tuple[str, str, str], list[int]] = {}
        for (kind, name), (_, parent_name), counts in self.offset_counts():
            mine = by_parent_name.setdefault((kind, name, parent_name), [0] * len(counts))
            for i, c in enumerate(counts):
                mine[i] += c
        findings = []
        for key in sorted(by_parent_name):
            total, s10, s20, e10, e20 = by_parent_name[key]
            if total < self.weights.min_calls:
                continue
            finding = det.reorder_finding_from_counts(
                *key, total, s10, s20, e10, e20, self.weights
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def merge_findings(self) -> list[det.Finding]:
        counts_by_site = {key: g.count for key, g in zip(self.sites, self.groups)}
        findings = []
        for child, parent, (pairs, n1, n5, n10, n20) in self.gap_counts():
            finding = det.merge_finding_from_counts(
                child,
                parent,
                pairs,
                n1,
                n5,
                n10,
                n20,
                counts_by_site[child],
                counts_by_site[parent],
                self.weights,
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def security_findings(self, definition) -> list[det.Finding]:
        """Interface hints from the direct edges into ecalls.

        An ecall is a private candidate when every instance had a direct
        ocall parent: any instance without a resolved parent (its site
        count exceeds its incoming edges) or under an ecall disqualifies it.
        """
        nested_under: dict[str, set[str]] = {}
        observed_allow: dict[str, set[str]] = {}
        disqualified: set[str] = set()
        incoming = [0] * len(self.sites)
        children, parents = self.direct.pairs()
        totals = self.direct.counts.sum(axis=1).tolist()
        for child, parent, count in zip(children, parents, totals):
            incoming[child] += count
            (pkind, pname), (ckind, cname) = self.sites[parent], self.sites[child]
            if ckind != ECALL:
                continue
            if pkind == OCALL:
                nested_under.setdefault(cname, set()).add(pname)
                observed_allow.setdefault(pname, set()).add(cname)
            else:
                disqualified.add(cname)
        for g, seen in zip(self.groups, incoming):
            if g.kind == ECALL and g.count > seen:
                disqualified.add(g.name)
        findings = sec.private_ecall_findings_from_sets(nested_under, disqualified)
        findings += sec.allowlist_findings_from_observed(observed_allow, definition)
        if definition is not None:
            counts = {key: g.count for key, g in zip(self.sites, self.groups)}
            findings += sec.user_check_findings_from_counts(definition, counts)
        return findings

    def call_graph(self) -> callgraph_mod.CallGraph:
        """Name-level call graph with direct/indirect edges (Figure 5)."""
        graph = callgraph_mod.CallGraph()
        for g in self._ordered_groups():
            graph.nodes[f"{g.kind}:{g.name}"] = {
                "name": g.name,
                "kind": g.kind,
                "call_index": g.call_index,
                "count": g.count,
            }
        for table, relation in (
            (self.direct, callgraph_mod.DIRECT),
            (self.chained, callgraph_mod.INDIRECT),
        ):
            named = self._named(table, table.counts.sum(axis=1))
            for src, dst, count in sorted((p, c, n) for c, p, n in named):
                graph.edges.append(
                    (f"{src[0]}:{src[1]}", f"{dst[0]}:{dst[1]}", relation, count)
                )
        return graph

    def distinct_counts(self) -> tuple[int, int]:
        """(distinct ecall names, distinct ocall names)."""
        ecalls = sum(1 for kind, _ in self.sites if kind == ECALL)
        return ecalls, len(self.sites) - ecalls

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
rows to ids once (from :meth:`~repro.perf.columns.CallColumns.group_codes`),
and pair keys (parent site, child site) are counted as integer combos.
Names come back only when findings and the call graph are finalised, in
sorted-name order, so the site numbering never shows in the output.

Batches must arrive **thread-major** (``ORDER BY thread_id, start_ns,
id``): each thread is one contiguous run, so the direct-parent window and
the Figure 4 indirect-parent chains reset per thread and stay small.  The
fold relies on the event logger's recording invariants — a call's direct
parent is on the same thread and its interval encloses the child's start,
and every call is an ecall or an ocall.

A :class:`CallFold` is plain picklable state with a commutative
:meth:`CallFold.merge`, which is what lets the parallel analyser shard a
trace by thread across spawn-context workers and still match the
sequential result exactly (see :mod:`repro.perf.analysis.parallel`).
"""

from __future__ import annotations

from typing import Optional

import networkx as nx
import numpy as np

from repro.perf.analysis import callgraph as callgraph_mod
from repro.perf.analysis import detectors as det
from repro.perf.analysis import security as sec
from repro.perf.analysis import stats as stats_mod
from repro.perf.columns import NO_PARENT, CallColumns
from repro.perf.events import ECALL, OCALL


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

    def merge(self, other: "_GroupState") -> None:
        self.count += other.count
        self.starts += other.starts
        self.ids += other.ids
        self.durs += other.durs
        self.n1 += other.n1
        self.n5 += other.n5
        self.n10 += other.n10
        if other.first_start is not None:
            self.update_first(
                other.first_start, other.first_id, other.call_index, other.is_sync_first
            )

    def sorted_durations(self) -> np.ndarray:
        """Durations re-sorted to the global ``(start, id)`` reader order."""
        if not self.durs:
            return np.empty(0, dtype=np.int64)
        starts = np.concatenate(self.starts)
        ids = np.concatenate(self.ids)
        durs = np.concatenate(self.durs)
        return durs[np.lexsort((ids, starts))]


class _ThreadState:
    """Transient per-thread parent window and Figure 4 chain tails.

    ``window`` maps an *open* call id (one whose interval may still
    enclose future rows of this thread) to ``(start, end, site)``.
    ``chains`` maps ``(parent_id, is_ecall)`` to the ``(end, site)`` of
    the chain's last element.  ``dangling`` remembers parent ids that
    never resolved (rows referencing calls an aborted logger lost), whose
    chains must survive window-based eviction.
    """

    __slots__ = ("thread_id", "window", "chains", "dangling")

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.window: dict[int, tuple[int, int, int]] = {}
        self.chains: dict[tuple[int, bool], tuple[int, int]] = {}
        self.dangling: set[int] = set()


def _bump(table: dict, first: np.ndarray, second: np.ndarray, n_sites: int) -> None:
    """Count each ``(first, second)`` site pair into ``table``."""
    if len(first) == 0:
        return
    uniq, counts = np.unique(first * n_sites + second, return_counts=True)
    for combo, count in zip(uniq.tolist(), counts.tolist()):
        key = divmod(combo, n_sites)
        table[key] = table.get(key, 0) + count


def _bump_thresholds(
    table: dict,
    first: np.ndarray,
    second: np.ndarray,
    n_sites: int,
    masks: tuple[np.ndarray, ...],
) -> None:
    """Add ``[pairs, *mask counts]`` per ``(first, second)`` site pair."""
    if len(first) == 0:
        return
    uniq, inverse = np.unique(first * n_sites + second, return_inverse=True)
    sums = [np.bincount(inverse, minlength=len(uniq))]
    sums += [np.bincount(inverse, weights=mask, minlength=len(uniq)) for mask in masks]
    columns = [s.astype(np.int64).tolist() for s in sums]
    for j, combo in enumerate(uniq.tolist()):
        counts = table.setdefault(divmod(combo, n_sites), [0] * len(columns))
        for slot, column in enumerate(columns):
            counts[slot] += column[j]


class CallFold:
    """Folds thread-major call batches into every per-call-site accumulator.

    Picklable; :meth:`merge` is commutative over disjoint thread sets, so
    shard folds combine into exactly the sequential fold's state.
    """

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
        # (child site, parent site) → [total, s10, s20, e10, e20]
        self.reorder_counts: dict[tuple[int, int], list[int]] = {}
        # (child site, indirect parent site) → [pairs, n1, n5, n10, n20]
        self.merge_counts: dict[tuple[int, int], list[int]] = {}
        # (parent site, child site) → count, sync-unfiltered
        self.direct_edges: dict[tuple[int, int], int] = {}
        self.indirect_edges: dict[tuple[int, int], int] = {}
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
        self._fold_chains(cols, site, is_ecall, seg, state)
        self._advance_window(cols, site, seg, state)

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
        n_sites = len(self.sites)
        _bump(self.direct_edges, psite, site[rows], n_sites)
        # Equation 2 offsets, per (child site, parent site).
        ns = ~cols.is_sync[rows]
        rows, pstart, pend, psite = rows[ns], pstart[ns], pend[ns], psite[ns]
        from_start = cols.start_ns[rows] - pstart
        from_end = pend - cols.end_ns[rows]
        _bump_thresholds(
            self.reorder_counts,
            site[rows],
            psite,
            n_sites,
            (
                from_start <= 10_000,
                from_start <= 20_000,
                from_end <= 10_000,
                from_end <= 20_000,
            ),
        )

    def _fold_chains(
        self,
        cols: CallColumns,
        site: np.ndarray,
        is_ecall: np.ndarray,
        seg: np.ndarray,
        state: _ThreadState,
    ) -> None:
        """Figure 4 chains: consecutive same-(parent, kind) rows in (start, id) order."""
        pids = cols.parent_id[seg]
        kinds = is_ecall[seg]
        order = np.lexsort((cols.event_id[seg], cols.start_ns[seg], kinds, pids))
        srows = seg[order]
        spids = pids[order]
        skinds = kinds[order]
        same = np.zeros(len(seg), dtype=bool)
        same[1:] = (spids[1:] == spids[:-1]) & (skinds[1:] == skinds[:-1])
        # Links fully inside this chunk, vectorised.
        link_at = np.flatnonzero(same)
        prev = srows[link_at - 1]
        self._add_links(cols, site, srows[link_at], cols.end_ns[prev], site[prev])
        # Each key group's head may continue a chain carried from the
        # previous chunk of this thread.
        if state.chains:
            carried = []
            for i in np.flatnonzero(~same).tolist():
                tail = state.chains.get((int(spids[i]), bool(skinds[i])))
                if tail is not None:
                    carried.append((int(srows[i]),) + tail)
            if carried:
                links = np.array(carried, dtype=np.int64)
                self._add_links(cols, site, links[:, 0], links[:, 1], links[:, 2])
        # Each key group's last row becomes the chain tail going forward.
        tail_at = np.flatnonzero(~np.append(same[1:], False))
        for i in tail_at.tolist():
            row = int(srows[i])
            state.chains[(int(spids[i]), bool(skinds[i]))] = (
                int(cols.end_ns[row]),
                int(site[row]),
            )

    def _add_links(
        self,
        cols: CallColumns,
        site: np.ndarray,
        rows: np.ndarray,
        pend: np.ndarray,
        psite: np.ndarray,
    ) -> None:
        n_sites = len(self.sites)
        _bump(self.indirect_edges, psite, site[rows], n_sites)
        ns = ~cols.is_sync[rows]  # Equation 3 filters sync *children* only
        gaps = cols.start_ns[rows[ns]] - pend[ns]
        _bump_thresholds(
            self.merge_counts,
            site[rows[ns]],
            psite[ns],
            n_sites,
            tuple(gaps <= limit for limit in (1_000, 5_000, 10_000, 20_000)),
        )

    def _advance_window(
        self, cols: CallColumns, site: np.ndarray, seg: np.ndarray, state: _ThreadState
    ) -> None:
        """Carry only still-open intervals; evict chains of closed parents.

        Same-chunk parents resolve through ``positions_of``, so the carry
        window only needs rows whose interval reaches past the segment's
        last start — the calls still open at the chunk boundary.
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
        # A chain whose parent call has closed can never grow again; only
        # open parents, top-level chains and dangling ids stay live.
        dead = [
            key
            for key in state.chains
            if key[0] != NO_PARENT
            and key[0] not in state.window
            and key[0] not in state.dangling
        ]
        for key in dead:
            del state.chains[key]

    # -- sharding ------------------------------------------------------------

    def seal(self) -> "CallFold":
        """Drop transient per-thread state (end of a shard's thread run)."""
        self._thread = None
        self._sleep_ids = None
        return self

    def merge(self, other: "CallFold") -> None:
        """Fold another shard's sealed state into this one (commutative)."""
        remap = [self._site(key) for key in other.sites]
        for theirs, group in zip(remap, other.groups):
            self.groups[theirs].merge(group)
        self.ecall_rows += other.ecall_rows
        self.ocall_rows += other.ocall_rows
        self.ecall_short += other.ecall_short
        self.ocall_short += other.ocall_short
        self.aex_total += other.aex_total
        self.ssc_matched += other.ssc_matched
        self.ssc_short += other.ssc_short
        for table, theirs in (
            (self.reorder_counts, other.reorder_counts),
            (self.merge_counts, other.merge_counts),
        ):
            for (a, b), counts in theirs.items():
                mine = table.setdefault((remap[a], remap[b]), [0] * len(counts))
                for i, c in enumerate(counts):
                    mine[i] += c
        for edges, theirs in (
            (self.direct_edges, other.direct_edges),
            (self.indirect_edges, other.indirect_edges),
        ):
            for (a, b), count in theirs.items():
                key = (remap[a], remap[b])
                edges[key] = edges.get(key, 0) + count

    # -- finalisation --------------------------------------------------------

    def _ordered_groups(self) -> list[_GroupState]:
        """Groups in global first-appearance order (min ``(start, id)``)."""
        return sorted(self.groups, key=lambda g: (g.first_start, g.first_id))

    def _named(self, table: dict) -> list:
        """``(first key, second key, value)`` rows of a site-pair table, by name."""
        sites = self.sites
        return sorted((sites[a], sites[b], value) for (a, b), value in table.items())

    def statistics(self) -> list[stats_mod.CallStatistics]:
        """Per-call statistics, busiest first (ties in first-appearance order)."""
        stats = [
            stats_mod._statistics_from_values(g.kind, g.name, g.sorted_durations())
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
        for (kind, name), (_, parent_name), counts in self._named(self.reorder_counts):
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
        for child, parent, (pairs, n1, n5, n10, n20) in self._named(self.merge_counts):
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
        for (parent, child), count in self.direct_edges.items():
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

    def call_graph(self) -> nx.MultiDiGraph:
        """Name-level call graph with direct/indirect edges (Figure 5)."""
        graph = nx.MultiDiGraph()
        for g in self._ordered_groups():
            graph.add_node(
                f"{g.kind}:{g.name}",
                name=g.name,
                kind=g.kind,
                call_index=g.call_index,
                count=g.count,
            )
        for edges, relation in (
            (self.direct_edges, callgraph_mod.DIRECT),
            (self.indirect_edges, callgraph_mod.INDIRECT),
        ):
            for src, dst, count in self._named(edges):
                graph.add_edge(
                    f"{src[0]}:{src[1]}",
                    f"{dst[0]}:{dst[1]}",
                    key=relation,
                    relation=relation,
                    count=count,
                )
        return graph

    def distinct_counts(self) -> tuple[int, int]:
        """(distinct ecall names, distinct ocall names)."""
        ecalls = sum(1 for kind, _ in self.sites if kind == ECALL)
        return ecalls, len(self.sites) - ecalls

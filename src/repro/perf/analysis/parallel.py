"""Sharded parallel trace analysis (thread-level data parallelism).

A trace's call rows partition cleanly by thread: the direct-parent window
and Figure 4 chains are per-thread state, and every remaining accumulator
in :class:`~repro.perf.analysis.streaming.CallFold` merges commutatively.
So the trace is sharded by ``thread_id`` (greedy LPT over per-thread row
counts, so one hot thread doesn't serialise the run), each shard folded
in its own spawn-context worker process over a **read-only** database
handle, and the sealed folds merged in deterministic shard-index order —
which, because the merge is commutative over disjoint thread sets,
reproduces the sequential fold's state exactly.

Mirrors the sweep engine's process model (spawn context, shared-nothing
workers, ``BrokenProcessPool`` tolerance): readers never write — the
column blocks are written when the recording completes — so workers never
take SQLite's write lock, and a lost pool degrades to the in-process fold
rather than failing the analysis.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import Optional, Sequence

from repro.perf.analysis import detectors as det
from repro.perf.analysis.streaming import CallFold


def shard_threads(
    thread_counts: Sequence[tuple[int, int]], shards: int
) -> list[list[int]]:
    """Partition threads into ≤ ``shards`` balanced groups (greedy LPT).

    Deterministic: threads are placed heaviest-first (ties by thread id)
    onto the least-loaded shard (ties by shard index); each shard's
    thread list comes back sorted.  Empty shards are dropped.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    groups: list[list[int]] = [[] for _ in range(shards)]
    loads = [0] * shards
    for thread_id, count in sorted(thread_counts, key=lambda tc: (-tc[1], tc[0])):
        target = min(range(shards), key=lambda j: (loads[j], j))
        groups[target].append(thread_id)
        loads[target] += count
    return [sorted(group) for group in groups if group]


def _fold_shard(
    path: str,
    thread_ids: list[int],
    chunk_events: int,
    transition_ns: int,
    weights: det.AnalyzerWeights,
    sleep_counts: dict[int, int],
) -> CallFold:
    """Worker: fold one shard's threads from a fresh read-only handle."""
    from repro.perf.database import TraceDatabase

    db = TraceDatabase(path, readonly=True)
    try:
        fold = CallFold(transition_ns, weights, sleep_counts)
        for cols in db.call_columns_chunks(chunk_events, thread_ids=thread_ids):
            fold.fold(cols)
        return fold.seal()
    finally:
        db.close()


def parallel_fold(
    db,
    transition_ns: int,
    weights: det.AnalyzerWeights,
    sleep_counts: dict[int, int],
    jobs: int,
    chunk_events: int,
) -> Optional[CallFold]:
    """Fold a file-backed trace across worker processes; ``None`` = fall back.

    Returns ``None`` when sharding cannot help (≤1 non-empty thread
    shard) or the worker pool is lost, in which case the caller runs the
    in-process fold instead — same result, one process.
    """
    thread_counts = db.thread_row_counts()
    shards = shard_threads(thread_counts, max(1, jobs))
    if len(shards) <= 1:
        return None
    try:
        with ProcessPoolExecutor(
            max_workers=len(shards), mp_context=get_context("spawn")
        ) as pool:
            futures = [
                pool.submit(
                    _fold_shard,
                    db.path,
                    thread_ids,
                    chunk_events,
                    transition_ns,
                    weights,
                    sleep_counts,
                )
                for thread_ids in shards
            ]
            folds = [future.result() for future in futures]
    except BrokenProcessPool:
        return None
    merged = folds[0]
    for fold in folds[1:]:
        merged.merge(fold)
    return merged

"""Synthetic traces for unit tests: event lists in, one analyser run out."""

from __future__ import annotations

from typing import Iterable

from repro.perf.analysis.callgraph import CallGraph
from repro.perf.analysis.report import AnalysisReport, Analyzer
from repro.perf.database import TraceDatabase
from repro.perf.events import CallEvent, PagingRecord, SyncEvent


def analyze(
    calls: Iterable[CallEvent],
    sync: Iterable[SyncEvent] = (),
    paging: Iterable[PagingRecord] = (),
    **options,
) -> tuple[AnalysisReport, CallGraph]:
    """Write the rows into a ``:memory:`` trace and analyse it.

    ``options`` go to :class:`Analyzer` (``definition``, ``weights``,
    ``chunk_events``).  Returns the report and the call graph.
    """
    db = TraceDatabase()
    for event in calls:
        db.add_call(event)
    for event in sync:
        db.add_sync(event)
    for record in paging:
        db.add_paging(record)
    analyzer = Analyzer(db, **options)
    return analyzer.run(), analyzer.call_graph()

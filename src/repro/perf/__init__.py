"""sgx-perf: the paper's contribution.

Three cooperating tools (paper §4):

* :class:`EventLogger` — LD_PRELOAD-style tracer of ecalls, ocalls, AEXs,
  sync events and EPC paging, serialising to SQLite;
* :class:`WorkingSetEstimator` — page-permission-stripping access counter;
* :class:`Analyzer` — statistics, anti-pattern detectors (SISC/SDSC/SNC/
  SSC/paging), interface security hints, call graphs and reports.

The re-exports below resolve on first use (PEP 562), so importing
``repro.perf.logger`` or ``repro.perf.database`` loads no analysis code
or NumPy: a cluster shard that only records pays for none of it.
"""

from __future__ import annotations

import importlib

# Public name -> the module that defines it.
_EXPORTS = {
    "AexEvent": "repro.perf.events",
    "AexMode": "repro.perf.logger",
    "AnalysisReport": "repro.perf.analysis",
    "Analyzer": "repro.perf.analysis",
    "AnalyzerWeights": "repro.perf.analysis",
    "CallEvent": "repro.perf.events",
    "ECALL": "repro.perf.events",
    "EnclaveRecord": "repro.perf.events",
    "EventLogger": "repro.perf.logger",
    "FaultRecord": "repro.perf.events",
    "Finding": "repro.perf.analysis",
    "OCALL": "repro.perf.events",
    "PagingRecord": "repro.perf.events",
    "Problem": "repro.perf.analysis",
    "Recommendation": "repro.perf.analysis",
    "SyncEvent": "repro.perf.events",
    "SyncKind": "repro.perf.events",
    "ThreadRecord": "repro.perf.events",
    "TRUNCATED_CALL_NAME": "repro.perf.database",
    "TraceDatabase": "repro.perf.database",
    "WorkingSetEstimator": "repro.perf.workingset",
    "WorkingSetReport": "repro.perf.workingset",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value

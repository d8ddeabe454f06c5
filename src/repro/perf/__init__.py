"""sgx-perf: the paper's contribution.

Three cooperating tools (paper §4):

* :class:`~repro.perf.logger.EventLogger` — LD_PRELOAD-style tracer of
  ecalls, ocalls, AEXs, sync events and EPC paging, serialising to SQLite;
* :class:`~repro.perf.workingset.WorkingSetEstimator` —
  page-permission-stripping access counter;
* :class:`~repro.perf.analysis.report.Analyzer` — statistics, anti-pattern
  detectors (SISC/SDSC/SNC/SSC/paging), interface security hints, call
  graphs and reports.
"""

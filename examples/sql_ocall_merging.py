#!/usr/bin/env python
"""Reproduce the paper's SQLite case study (§5.2.2, Figure 6 left).

Runs the minisql engine in three builds — native, naively enclavised
(separate lseek+write ocalls), and optimised (merged positioned-I/O
ocalls) — shows the analyser detecting the SDSC merge opportunity, and
prints the Figure 6 bars.

Run:  python examples/sql_ocall_merging.py
"""

from repro.perf.analysis.detectors import Recommendation
from repro.perf.analysis.report import Analyzer
from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.minisql.enclavised import EnclavedSqlApp, SqlBuild
from repro.workloads.minisql.workload import (
    CREATE_SQL,
    SQLITE_SYSCALL_COSTS,
    _insert_sql,
    commit_stream,
    run_sql_benchmark,
)


def profile_naive_build(requests: int = 150):
    """Trace the naive build and let the analyser find the merge."""
    process = SimProcess(seed=0, syscall_costs=SQLITE_SYSCALL_COSTS)
    device = SgxDevice(process.sim)
    app = EnclavedSqlApp(process, device, SqlBuild.ENCLAVE)
    logger = EventLogger(process, app.urts, aex_mode=AexMode.OFF)
    logger.install()
    app.open("bench.db")
    app.execute(CREATE_SQL)
    for index, (sha, author, message) in enumerate(commit_stream(requests, 0)):
        app.execute(_insert_sql(sha, author, message, index))
    app.close()
    logger.uninstall()
    trace = logger.finalize()

    report = Analyzer(trace, definition=app.handle.definition).run()
    lseek = trace.calls(kind="ocall", name="ocall_lseek")
    write = trace.calls(kind="ocall", name="ocall_write")
    mean_us = lambda calls: sum(c.duration_ns for c in calls) / len(calls) / 1000  # noqa: E731
    print(f"traced {requests} inserts: {len(lseek)} lseek ocalls "
          f"(mean {mean_us(lseek):.1f} us; paper ~4), "
          f"{len(write)} write ocalls (mean {mean_us(write):.1f} us)")
    for finding in report.findings_by_priority():
        if Recommendation.MERGE in finding.recommendations and finding.call == "ocall_write":
            print(f"finding: [{finding.problem.name}] {finding.message}")
            break
    print()


def figure6_bars(requests: int = 300):
    rates = {}
    for build in (SqlBuild.NATIVE, SqlBuild.ENCLAVE, SqlBuild.MERGED):
        result = run_sql_benchmark(build, requests=requests)
        rates[build] = result.requests_per_second
    native = rates[SqlBuild.NATIVE]
    print(f"native:  {native:10,.0f} req/s = 1.00x (paper ~23,087)")
    print(f"enclave: {rates[SqlBuild.ENCLAVE]:10,.0f} req/s = "
          f"{rates[SqlBuild.ENCLAVE] / native:.2f}x (paper 0.57x)")
    gain = rates[SqlBuild.MERGED] / rates[SqlBuild.ENCLAVE] - 1
    print(f"merged:  {rates[SqlBuild.MERGED]:10,.0f} req/s = "
          f"{rates[SqlBuild.MERGED] / native:.2f}x, +{gain:.0%} "
          f"(paper 0.76x, +33%)")


if __name__ == "__main__":
    profile_naive_build()
    figure6_bars()

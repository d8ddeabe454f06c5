"""Figure 6 (left) + §5.2.2 — SQLite inserts, native vs enclave vs merged.

Paper: native ≈23,087 requests/s; enclavised 0.57×; merging the
lseek+write ocall pair recovers to 0.76× (+33 %).
"""

from conftest import run_once

from repro.sgx.constants import PatchLevel
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.minisql.enclavised import SqlBuild
from repro.workloads.minisql.workload import SQLITE_SYSCALL_COSTS, run_sql_benchmark


def _run_all(requests: int):
    rates = {}
    for build in (SqlBuild.NATIVE, SqlBuild.ENCLAVE, SqlBuild.MERGED):
        process = SimProcess(seed=0, syscall_costs=SQLITE_SYSCALL_COSTS)
        device = SgxDevice(process.sim, patch_level=PatchLevel.BASELINE)
        result = run_sql_benchmark(build, requests=requests, process=process, device=device)
        rates[build] = result.requests_per_second
    return rates


def test_sqlite_insert_throughput(benchmark):
    rates = run_once(benchmark, _run_all, 300)
    native = rates[SqlBuild.NATIVE]
    enclave_ratio = rates[SqlBuild.ENCLAVE] / native
    merged_ratio = rates[SqlBuild.MERGED] / native
    gain = rates[SqlBuild.MERGED] / rates[SqlBuild.ENCLAVE] - 1.0
    print()
    print(f"native:  {native:10,.0f} req/s   (paper ~23,087)")
    print(f"enclave: {rates[SqlBuild.ENCLAVE]:10,.0f} req/s = {enclave_ratio:.2f}x (paper 0.57x)")
    print(
        f"merged:  {rates[SqlBuild.MERGED]:10,.0f} req/s = {merged_ratio:.2f}x "
        f"(+{gain:.0%}; paper 0.76x, +33%)"
    )
    # Shape assertions: who wins, by roughly what factor.
    assert 18_000 <= native <= 30_000
    assert 0.40 <= enclave_ratio <= 0.70
    assert 0.55 <= merged_ratio <= 0.90
    assert merged_ratio > enclave_ratio  # merging always helps
    assert 0.15 <= gain <= 0.45  # in the +33% neighbourhood

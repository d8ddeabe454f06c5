"""Smoke tests for the experiment runners (cheap configurations).

The full benchmark suite asserts the reproduction bands; these tests make
sure every runner stays importable, runnable and renderable under plain
``pytest tests/`` as well, and pin whole-run determinism: one seed, one
trace, bit-for-bit.
"""

import pytest

from repro.bench.table2 import run_table2
from repro.bench.transitions import run_transition_experiment
from repro.sgx.constants import PatchLevel


class TestRunnersRender:
    def test_transition_runner(self):
        result = run_transition_experiment(calls=50)
        text = result.render()
        assert "baseline" in text and "l1tf" in text
        assert len(result.rows) == 3

    def test_table2_runner(self):
        result = run_table2(calls=100, long_calls=4)
        text = result.render()
        assert "Table 2" in text
        assert result.single_overhead_ns > 1_000
        assert result.aex_per_call_counting > 8

    def test_figure6_runner_small(self):
        from repro.bench.figure6 import run_figure6

        result = run_figure6(
            sql_requests=40, signs=1, patch_levels=(PatchLevel.BASELINE,)
        )
        text = result.render()
        assert "SQLite" in text and "LibreSSL" in text
        assert result.libressl_speedup(PatchLevel.BASELINE) > 1.5

    def test_workingset_runner(self):
        from repro.bench.workingsets import run_working_set_experiments

        result = run_working_set_experiments()
        assert result.glamdring_steady_pages < result.glamdring_startup_pages
        assert "working set" in result.render().lower()


class TestWholeRunDeterminism:
    def trace_digest(self, seed):
        from repro.perf.logger import AexMode, EventLogger
        from repro.sgx.device import SgxDevice
        from repro.sim.process import SimProcess
        from repro.workloads.securekeeper.loadgen import run_securekeeper_load
        from repro.workloads.securekeeper.proxy import SecureKeeperProxy

        process = SimProcess(seed=seed)
        device = SgxDevice(process.sim)
        proxy = SecureKeeperProxy(process, device, tcs_count=8)
        logger = EventLogger(process, proxy.urts, aex_mode=AexMode.COUNT)
        logger.install()
        run_securekeeper_load(
            clients=4, operations_per_client=8,
            process=process, device=device, proxy=proxy,
        )
        logger.uninstall()
        db = logger.finalize()
        return [
            (c.kind, c.name, c.thread_id, c.start_ns, c.end_ns, c.aex_count)
            for c in db.calls()
        ]

    def test_same_seed_identical_trace(self):
        assert self.trace_digest(123) == self.trace_digest(123)

    def test_different_seed_different_trace(self):
        assert self.trace_digest(123) != self.trace_digest(124)

"""The Stress-SGX-style stressor catalogue and standalone runner."""

import pytest

from repro.workloads.stressors.app import StressorApp
from repro.workloads.stressors.profiles import PROFILES, STRESSOR_NAMES, get_profile
from repro.workloads.stressors.runner import run_stressor, run_stressor_task


class TestCatalogue:
    def test_catalogue_covers_the_pressure_families(self):
        assert STRESSOR_NAMES == (
            "cpu-spin",
            "epc-thrash",
            "futex-hammer",
            "mixed",
            "ocall-storm",
        )

    def test_unknown_stressor_rejected(self):
        with pytest.raises(ValueError, match="unknown stressor"):
            get_profile("fork-bomb")

    def test_scaling_is_linear_in_intensity(self):
        base = PROFILES["mixed"]
        double = base.scaled(2.0)
        assert double.spin_ns == 2 * base.spin_ns
        assert double.walk_pages_per_op == 2 * base.walk_pages_per_op
        assert double.ocalls_per_op == 2 * base.ocalls_per_op
        assert double.footprint_fraction == pytest.approx(
            2 * base.footprint_fraction
        )

    def test_scaling_never_drops_below_one_thread(self):
        faint = PROFILES["futex-hammer"].scaled(0.01)
        assert faint.threads == 1

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            PROFILES["cpu-spin"].scaled(-1.0)

    def test_footprint_has_a_floor(self):
        profile = PROFILES["epc-thrash"]
        assert profile.footprint_pages(4) == profile.heap_floor_pages
        assert profile.footprint_pages(1000) == 1250  # 1.25x the pool


class TestRunner:
    def test_same_seed_same_digest(self):
        a = run_stressor("cpu-spin", seed=5, ops=4)
        b = run_stressor("cpu-spin", seed=5, ops=4)
        assert a.digest == b.digest
        assert a.metrics == b.metrics

    def test_seed_changes_digest(self):
        a = run_stressor("cpu-spin", seed=1, ops=4)
        b = run_stressor("cpu-spin", seed=2, ops=4)
        assert a.digest != b.digest

    def test_epc_thrash_actually_thrashes(self):
        result = run_stressor("epc-thrash", seed=3, ops=8, epc_pages=256)
        assert result.metrics["page_out"] > 0
        assert result.metrics["footprint_pages"] > 256
        assert result.metrics["epc_high_water"] <= 256

    def test_ocall_storm_issues_ocalls(self):
        result = run_stressor("ocall-storm", seed=3, ops=4)
        assert result.metrics["ocalls"] >= 4 * PROFILES["ocall-storm"].ocalls_per_op

    def test_task_runner_contract(self, tmp_path):
        digest, metrics, faults = run_stressor_task(
            {"stressor": "cpu-spin", "seed": 4, "ops": 3},
            str(tmp_path / "stress.db"),
        )
        assert len(digest) == 64
        assert metrics["ops"] == 3 * PROFILES["cpu-spin"].threads
        assert faults == {}


class TestSweepIntegration:
    def test_stressor_grid_is_jobs_invariant(self):
        from repro.sweep.engine import run_sweep

        spec = {
            "kind": "stressor",
            "seeds": "0-1",
            "params": {"ops": 3, "epc_pages": 256},
            "grid": {"stressor": ["cpu-spin", "epc-thrash"]},
        }
        inline = run_sweep(spec=spec, jobs=0)
        forked = run_sweep(spec=spec, jobs=2)
        assert inline.manifest == forked.manifest
        assert inline.digest == forked.digest
        assert inline.failed == 0


class TestSharedUrts:
    def test_co_tenant_shares_the_host_urts(self):
        """Two enclaves in one process must dispatch through one URTS."""
        from repro.sdk.urts import Urts
        from repro.sgx.device import SgxDevice
        from repro.sim.process import SimProcess

        process = SimProcess(seed=0)
        device = SgxDevice(process.sim)
        host = Urts(process, device)
        app = StressorApp(
            process, device, get_profile("cpu-spin"), label="tenant", urts=host
        )
        assert app.urts is host

        def drive():
            app.run_op()

        process.pthread_create(drive, name="drive")
        process.sim.run()
        assert app.ops_done == 1
        app.close()

"""Working-set estimation under EPC thrash (§4.2 meets §3.5).

The estimator's claim is that it measures what the enclave *touches*, not
what it allocates — so under an epc-thrash walker whose footprint exceeds
the EPC, the estimate must track the walker's stride exactly, independent
of paging, across seeds.
"""

import pytest

from repro.perf.workingset import WorkingSetEstimator
from repro.sgx.device import SgxDevice
from repro.sgx.epc import Epc
from repro.sim.process import SimProcess
from repro.workloads.stressors.app import StressorApp
from repro.workloads.stressors.profiles import get_profile

EPC_PAGES = 256


def make_thrasher(seed):
    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim, epc=Epc(EPC_PAGES))
    profile = get_profile("epc-thrash")
    app = StressorApp(process, device, profile, label=f"ws-{seed}")
    return process, device, app


class TestWorkingSetUnderThrash:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_estimate_tracks_walker_stride(self, seed):
        process, device, app = make_thrasher(seed)
        stride = app.profile.walk_pages_per_op
        estimator = WorkingSetEstimator(process, app.handle.enclave)
        estimator.start()
        app.run_op()
        app.run_op()
        report = estimator.stop()
        # Two ops touch exactly 2*stride distinct heap pages (the cursor
        # walks sequentially and the footprint is larger than that).
        assert 2 * stride < app.footprint_pages
        assert report.by_type["heap"] == 2 * stride

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_wrap_reports_footprint_not_epc(self, seed):
        process, device, app = make_thrasher(seed)
        estimator = WorkingSetEstimator(process, app.handle.enclave)
        estimator.start()
        ops = -(-app.footprint_pages // app.profile.walk_pages_per_op) + 1
        for _ in range(ops):
            app.run_op()
        report = estimator.stop()
        # The walker wrapped: the working set is the whole footprint —
        # larger than the EPC, which is exactly the §4.2 signal that the
        # enclave will thrash under this pool.
        assert report.by_type["heap"] == app.footprint_pages
        assert app.footprint_pages > EPC_PAGES
        assert device.driver.stats["page_out"] > 0

    def test_windows_reset_between_marks(self):
        process, device, app = make_thrasher(seed=1)
        stride = app.profile.walk_pages_per_op
        estimator = WorkingSetEstimator(process, app.handle.enclave)
        estimator.start()
        app.run_op()
        first = estimator.mark()
        app.run_op()
        second = estimator.stop()
        assert first.by_type["heap"] == stride
        # The second window's walk starts where the first left off: new
        # pages, same stride — no heap page appears in both windows.
        assert second.by_type["heap"] == stride
        from repro.sgx.enclave import PageType

        pages = app.handle.enclave.pages
        heap = lambda report: {  # noqa: E731
            i for i in report.page_indices if pages[i].page_type is PageType.HEAP
        }
        assert not (heap(first) & heap(second))

    def test_same_seed_is_reproducible(self):
        def run(seed):
            process, device, app = make_thrasher(seed)
            estimator = WorkingSetEstimator(process, app.handle.enclave)
            estimator.start()
            app.run_op()
            report = estimator.stop()
            return report.page_indices, process.sim.now_ns

        assert run(5) == run(5)

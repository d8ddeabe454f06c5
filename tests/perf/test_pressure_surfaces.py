"""Live and offline pressure surfaces: live_counts, top, --pressure."""

from types import SimpleNamespace

from repro.perf.analysis.report import (
    AnalysisReport,
    FaultAccumulator,
    apply_fault_annotations,
)
from repro.perf.logger import AexMode, EventLogger
from repro.perf.top import LiveTop, TopSample
from repro.sgx.device import SgxDevice
from repro.sgx.epc import Epc
from repro.sim.process import SimProcess
from repro.workloads.stressors.app import StressorApp
from repro.workloads.stressors.profiles import get_profile


def run_traced_thrash(seed=2, epc_pages=256):
    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim, epc=Epc(epc_pages))
    app = StressorApp(process, device, get_profile("epc-thrash"))
    tops = []
    with EventLogger(
        process, app.urts, database=":memory:", aex_mode=AexMode.COUNT
    ) as logger:
        tops.append(LiveTop(logger, interval_ns=100_000).attach())
        app.spawn_workers(3)
        process.sim.run()
        counts = logger.live_counts()
    return counts, tops[0], device


class TestLiveCounts:
    def test_carries_epc_occupancy_gauges(self):
        counts, top, device = run_traced_thrash()
        assert counts["epc_capacity"] == 256
        assert 0 < counts["epc_resident"] <= 256
        assert counts["epc_squeezed"] == 0
        # The classic counters are still there, untouched.
        assert counts["ecalls"] > 0
        assert counts["page_out"] > 0

    def test_top_samples_epc_occupancy(self):
        counts, top, device = run_traced_thrash()
        last = top.samples[-1]
        assert last.epc_capacity == 256
        assert 0 < last.epc_resident <= 256
        assert 0 < last.epc_occupancy <= 1.0
        assert "epc" in last.render()
        assert "epc" in top.render_summary()

    def test_top_renders_brownout_level_when_wired(self):
        from repro.cluster.brownout import BrownoutController, PressureSignal

        counts, top, device = run_traced_thrash()
        controller = BrownoutController(PressureSignal(device.driver.stats))
        sample = TopSample(
            now_ns=0, ecalls=0, ocalls=0, aex=0, page_in=0, page_out=0,
            ecall_rate=0.0, ocall_rate=0.0, aex_rate=0.0, paging_rate=0.0,
            brownout_level=controller.level_name,
        )
        assert "brownout normal" in sample.render()


def fault(kind, detail="", call=""):
    return SimpleNamespace(kind=kind, detail=detail, call=call)


class TestPressureAccumulation:
    def test_parses_brownout_rows(self):
        acc = FaultAccumulator()
        acc.add(fault("brownout:level", "normal -> brownout at 30000 pages/s"))
        acc.add(fault("brownout:level", "brownout -> deep at 60000 pages/s"))
        acc.add(fault("brownout:level", "deep -> brownout at 100 pages/s"))
        acc.add(fault("brownout:shed", "class=background level=brownout reason=brownout backlog=4"))
        acc.add(fault("brownout:shed", "class=read level=deep reason=brownout backlog=9"))
        acc.add(fault("brownout:shed", "class=read level=deep reason=brownout backlog=2"))
        acc.add(fault("recover:epc-wait", "OUT_OF_MEMORY attempt 1"))
        # De-escalations are recorded rows but not transitions.
        assert acc.brownout_transitions == 2
        assert acc.brownout_deep_transitions == 1
        assert acc.shed_by_class == {"background": 1, "read": 2}

    def test_annotations_fill_the_pressure_dict(self):
        acc = FaultAccumulator()
        acc.add(fault("brownout:level", "normal -> deep at 90000 pages/s"))
        acc.add(fault("inject:epc-squeeze", "-300 pages until 50000 ns"))
        acc.add(fault("inject:stressor-start", "x1 footprint=320p"))
        report = AnalysisReport(
            statistics=[], findings=[], transition_round_trip_ns=2130
        )
        apply_fault_annotations(report, acc, None)
        assert report.pressure["brownout_transitions"] == 1
        assert report.pressure["brownout_deep_transitions"] == 1
        assert report.pressure["epc_squeezes"] == 1
        assert report.pressure["stressor_windows"] == 1
        text = report.render_pressure()
        assert "1 stressor window(s), 1 EPC squeeze(s)" in text
        assert "1 transition(s) (1 deep)" in text

    def test_quiet_trace_renders_the_quiet_section(self):
        report = AnalysisReport(
            statistics=[], findings=[], transition_round_trip_ns=2130
        )
        apply_fault_annotations(report, FaultAccumulator(), None)
        assert "no resource-pressure events" in report.render_pressure()


class TestCliPressureSection:
    def test_analyze_pressure_flag(self, tmp_path, capsys):
        from repro.cluster.spec import ClusterSpec
        from repro.cluster.node import run_clusternode
        from repro.perf.cli import main

        spec = ClusterSpec(
            nodes=2, clients=300, ops_per_client=2, seed=7, chaos=False,
            stressor="epc-thrash", stressor_intensity=0.5, epc_pages=1024,
        )
        path = str(tmp_path / "node0.db")
        run_clusternode({**spec.to_params(), "seed": 7, "node": 0}, path)
        assert main(["analyze", path, "--pressure"]) == 0
        default = capsys.readouterr().out
        assert "-- pressure" in default
        assert "brownout:" in default
        assert "shed by class:" in default
        # Small chunks render the identical section.
        assert main(["analyze", path, "--pressure", "--chunk-events", "7"]) == 0
        chunked = capsys.readouterr().out
        assert chunked.split("-- pressure")[1] == default.split("-- pressure")[1]

"""Brownout degradation: pressure signal, controller policy, cluster runs."""

import glob
import os

import pytest

from repro.cluster.brownout import (
    LEVEL_BROWNOUT,
    LEVEL_DEEP,
    LEVEL_NORMAL,
    PRIORITY_BACKGROUND,
    PRIORITY_READ,
    PRIORITY_WRITE,
    BrownoutController,
    ClusterOverloaded,
    PressureSignal,
    priority_class,
)
from repro.cluster.runner import run_cluster
from repro.cluster.spec import ClusterSpec


class TestPriorityClass:
    def test_client_writes_and_reads(self):
        assert priority_class("create", "client") == PRIORITY_WRITE
        assert priority_class("fill", "client") == PRIORITY_WRITE
        assert priority_class("get", "client") == PRIORITY_READ
        assert priority_class("fetch", "client") == PRIORITY_READ

    def test_non_client_roles_are_background(self):
        assert priority_class("create", "replica") == PRIORITY_BACKGROUND
        assert priority_class("get", "handoff") == PRIORITY_BACKGROUND


class _FakeStats(dict):
    """A driver-stats stand-in the tests can dial paging into."""

    def paged(self, pages):
        self["page_out"] = self.get("page_out", 0) + pages


def make_controller(record=None, **overrides):
    stats = _FakeStats()
    kwargs = dict(
        enter_rate=1_000.0, deep_rate=5_000.0, min_dwell_ns=1_000, record=record
    )
    kwargs.update(overrides)
    signal = PressureSignal(stats, sample_ns=100, alpha=1.0)
    return stats, signal, BrownoutController(signal, **kwargs)


class TestController:
    def test_starts_normal_and_escalates_immediately(self):
        stats, signal, ctl = make_controller()
        assert ctl.observe(0) == LEVEL_NORMAL
        stats.paged(1)  # 1 page / 100 ns = 10M pages/s >> deep
        assert ctl.observe(100) == LEVEL_DEEP
        assert ctl.transitions == 1
        assert ctl.deep_transitions == 1

    def test_deescalation_needs_dwell_and_hysteresis(self):
        stats, signal, ctl = make_controller()
        stats.paged(1)
        ctl.observe(100)
        assert ctl.level == LEVEL_DEEP
        # Rate collapses to zero, but the dwell has not elapsed yet.
        assert ctl.observe(200) == LEVEL_DEEP
        # After the dwell: steps down one level at a time, never straight
        # to normal.
        assert ctl.observe(1_300) == LEVEL_BROWNOUT
        assert ctl.observe(2_500) == LEVEL_NORMAL

    def test_admission_sheds_in_strict_priority_order(self):
        stats, signal, ctl = make_controller()
        stats.paged(1)
        ctl.observe(100)  # deep
        with pytest.raises(ClusterOverloaded):
            ctl.admit(PRIORITY_BACKGROUND, backlog=3)
        with pytest.raises(ClusterOverloaded):
            ctl.admit(PRIORITY_READ, backlog=3)
        ctl.admit(PRIORITY_WRITE, backlog=3)  # writes always pass

    def test_brownout_spares_reads(self):
        stats, signal, ctl = make_controller(deep_rate=10_000_000_000.0)
        stats.paged(1)
        ctl.observe(100)
        assert ctl.level == LEVEL_BROWNOUT
        with pytest.raises(ClusterOverloaded):
            ctl.admit(PRIORITY_BACKGROUND, backlog=0)
        ctl.admit(PRIORITY_READ, backlog=0)
        ctl.admit(PRIORITY_WRITE, backlog=0)

    def test_congestion_gate_admits_while_queue_is_short(self):
        """Pressure without backlog must not shed — the shard is keeping up."""
        stats, signal, ctl = make_controller(congestion_backlog=64)
        stats.paged(1)
        ctl.observe(100)
        assert ctl.level == LEVEL_DEEP
        ctl.admit(PRIORITY_BACKGROUND, backlog=63)
        ctl.admit(PRIORITY_READ, backlog=63)
        with pytest.raises(ClusterOverloaded):
            ctl.admit(PRIORITY_BACKGROUND, backlog=64)
        with pytest.raises(ClusterOverloaded):
            ctl.admit(PRIORITY_READ, backlog=64)
        ctl.admit(PRIORITY_WRITE, backlog=64)

    def test_batch_limit_shrinks_with_pressure(self):
        stats, signal, ctl = make_controller(deep_rate=10_000_000_000.0)
        assert ctl.batch_limit(8) == 8  # normal: untouched
        stats.paged(1)  # 10M pages/s vs enter 1k -> 10000x over
        ctl.observe(100)
        assert ctl.batch_limit(8) == 1  # floored at one, never zero

    def test_shed_rows_carry_class_and_level(self):
        rows = []
        stats, signal, ctl = make_controller(record=lambda k, d: rows.append((k, d)))
        stats.paged(1)
        ctl.observe(100)
        try:
            ctl.admit(PRIORITY_READ, backlog=7)
        except ClusterOverloaded as exc:
            ctl.note_shed(exc)
        assert ("brownout:level", "normal -> deep at 10000000 pages/s") == rows[0]
        assert rows[1] == (
            "brownout:shed",
            "class=read level=deep reason=brownout backlog=7",
        )


def _pressured_spec(**overrides):
    base = dict(
        nodes=2,
        clients=300,
        ops_per_client=2,
        seed=7,
        chaos=False,
        stressor="epc-thrash",
        # Half intensity keeps the tenant's build short enough to finish
        # inside the window at this tiny scale; full intensity needs the
        # long acceptance-run horizon.
        stressor_intensity=0.5,
        epc_pages=1024,
    )
    base.update(overrides)
    return ClusterSpec(**base)


@pytest.fixture(scope="module")
def pressured_report():
    """One shared pressured run: EPC-thrash neighbour on a small pool."""
    return run_cluster(_pressured_spec(), jobs=0)


@pytest.fixture(scope="module")
def shedding(tmp_path_factory):
    """One traced pressured run whose rate makes the gateway shed reads and
    background requests, not only change level: the report and the shard
    trace paths.  (At this rate the tenant finishes no op, so the noisy
    neighbour checks keep ``pressured_report``.)"""
    trace_dir = str(tmp_path_factory.mktemp("shedding-traces"))
    report = run_cluster(_pressured_spec(rate_rps=120_000.0), jobs=0, trace_dir=trace_dir)
    return report, sorted(glob.glob(os.path.join(trace_dir, "*.db")))


class TestPressuredCluster:
    def test_noisy_neighbour_actually_ran(self, pressured_report):
        assert pressured_report.brownout["tenant_ops"] > 0
        assert pressured_report.brownout["page_out"] > 0

    def test_brownout_engaged_under_pressure(self, pressured_report):
        assert pressured_report.brownout["brownout_transitions"] > 0

    def test_sheds_strictly_in_priority_order(self, shedding):
        b = shedding[0].brownout
        assert b["shed_read"] > 0, "no read was shed: the order goes untested"
        assert b["shed_write"] == 0  # writes are never brownout-shed
        # Reads only shed at deep, where background must shed too.
        assert b["shed_background"] > 0

    def test_write_availability_holds(self, pressured_report):
        assert pressured_report.brownout["write_availability"] >= 0.99
        assert pressured_report.routing.lost_writes == 0

    def test_report_renders_pressure_line(self, pressured_report):
        text = pressured_report.render()
        assert "pressure: paging" in text
        assert "availability write" in text
        assert "# brownout" in pressured_report.manifest

    def test_manifest_is_jobs_invariant(self):
        spec = _pressured_spec(clients=60)
        inline = run_cluster(spec, jobs=0)
        forked = run_cluster(spec, jobs=2)
        assert inline.manifest == forked.manifest
        assert inline.digest == forked.digest

    def test_no_brownout_ablation_keeps_spec_valid(self):
        report = run_cluster(
            _pressured_spec(clients=40, brownout=False), jobs=0
        )
        assert report.brownout["brownout_transitions"] == 0
        assert report.brownout["shed_read"] == 0


class TestTraceEvidence:
    def test_offline_fold_matches_live_counters(self, shedding):
        """Each shard's trace rows, folded offline, sum to the live report."""
        from repro.perf.analysis.report import FaultAccumulator
        from repro.perf.database import TraceDatabase

        report, paths = shedding
        keys = (
            "shed_background",
            "shed_read",
            "shed_write",
            "brownout_transitions",
            "brownout_deep_transitions",
        )
        offline = dict.fromkeys(keys, 0)
        for path in paths:
            acc = FaultAccumulator()
            with TraceDatabase(path, readonly=True) as db:
                for fault in db.fault_events():
                    acc.add(fault)
            for priority, count in acc.shed_by_class.items():
                offline[f"shed_{priority}"] += count
            offline["brownout_transitions"] += acc.brownout_transitions
            offline["brownout_deep_transitions"] += acc.brownout_deep_transitions
        assert offline == {key: report.brownout[key] for key in keys}
        assert offline["shed_read"] and offline["shed_background"]
        assert offline["brownout_deep_transitions"]

    def test_shed_rows_prove_priority_order(self, shedding):
        """The acceptance gate reads the order off trace rows, not stats."""
        from repro.perf.database import TraceDatabase

        rows, levels = [], []
        for path in shedding[1]:
            with TraceDatabase(path, readonly=True) as db:
                faults = db.fault_events()
            rows += [f for f in faults if f.kind == "brownout:shed"]
            levels += [f for f in faults if f.kind == "brownout:level"]
        assert levels, "no brownout transitions traced"
        assert rows, "no shed rows traced: the order goes untested"
        classes = set()
        for row in rows:
            fields = dict(
                token.split("=", 1) for token in row.detail.split() if "=" in token
            )
            classes.add(fields["class"])
            assert fields["level"] in ("brownout", "deep")
            # Reads shed only in deep mode; background sheds in either.
            if fields["class"] == "read":
                assert fields["level"] == "deep"
            assert fields["class"] != "write"
        assert "write" not in classes
        assert {"read", "background"} <= classes

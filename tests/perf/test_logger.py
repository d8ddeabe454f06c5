"""The event logger: interposition, stub tables, AEX, sync, paging."""

import pytest

from repro.perf.analysis.detectors import AnalyzerWeights, Problem
from repro.perf.analysis.report import Analyzer
from repro.perf.database import TraceDatabase, TraceError
from repro.perf.events import ECALL, OCALL, SyncKind
from repro.perf.logger import (
    AexMode,
    ECALL_LOG_POST_NS,
    ECALL_LOG_PRE_NS,
    EventLogger,
)
from repro.sdk.edger8r import SYNC_OCALL_SETWAIT, build_enclave
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sgx.epc import Epc
from repro.sim.loader import Library
from repro.sim.process import SIGUSR1, SimProcess

from tests.conftest import SIMPLE_EDL, make_simple_impls


@pytest.fixture
def app(process, device, urts, simple_enclave):
    return process, device, urts, simple_enclave


def make_logger(process, urts, **kwargs):
    return EventLogger(process, urts, **kwargs)


class TestEcallTracing:
    def test_records_call_with_timestamps(self, app):
        process, device, urts, handle = app
        logger = make_logger(process, urts, aex_mode=AexMode.OFF)
        logger.install()
        handle.ecall("ecall_add", 1, 2)
        logger.uninstall()
        db = logger.finalize()
        calls = db.calls(kind=ECALL)
        assert len(calls) == 1
        event = calls[0]
        assert event.name == "ecall_add"
        assert event.enclave_id == handle.enclave_id
        assert event.end_ns > event.start_ns

    def test_overhead_charged(self, app):
        process, device, urts, handle = app
        handle.ecall("ecall_add", 0, 0)  # warm
        start = process.sim.now_ns
        handle.ecall("ecall_add", 0, 0)
        native = process.sim.now_ns - start
        logger = make_logger(process, urts, aex_mode=AexMode.OFF)
        logger.install()
        handle.ecall("ecall_add", 0, 0)
        start = process.sim.now_ns
        handle.ecall("ecall_add", 0, 0)
        logged = process.sim.now_ns - start
        logger.uninstall()
        overhead = logged - native
        assert abs(overhead - (ECALL_LOG_PRE_NS + ECALL_LOG_POST_NS)) < 450

    def test_uninstall_restores_untraced_calls(self, app):
        process, device, urts, handle = app
        logger = make_logger(process, urts)
        logger.install()
        handle.ecall("ecall_add", 1, 1)
        logger.uninstall()
        handle.ecall("ecall_add", 2, 2)
        db = logger.finalize()
        assert len(db.calls(kind=ECALL)) == 1

    def test_no_recompilation_needed(self, app):
        """The application keeps calling the same proxies; only the loader
        search order changed."""
        process, device, urts, handle = app
        proxy_before = handle.proxies
        logger = make_logger(process, urts)
        logger.install()
        assert handle.proxies is proxy_before
        assert handle.ecall("ecall_add", 20, 22) == 42
        logger.uninstall()

    def test_proxy_follows_sgx_ecall_across_loader_changes(self, app):
        """A proxy keeps the ``sgx_ecall`` it resolved only while the
        loader is unchanged: installing or removing the logger, or a new
        definition in a preloaded library, takes effect on the next ecall,
        so rows are recorded exactly while the logger is installed."""
        process, device, urts, handle = app
        shim = Library("libshim.so")
        process.loader.preload(shim)
        seen = []

        def shim_sgx_ecall(*call):
            seen.append(call[3])
            return process.loader.resolve_next("sgx_ecall", shim)(*call)

        logger = make_logger(process, urts, aex_mode=AexMode.OFF)
        windows = []
        handle.ecall("ecall_add", 0, 0)
        opened = process.sim.now_ns
        logger.install()
        handle.ecall("ecall_add", 1, 0)
        logger.uninstall()
        windows.append((opened, process.sim.now_ns))
        handle.ecall("ecall_add", 2, 0)
        opened = process.sim.now_ns
        logger.install()
        handle.ecall("ecall_add", 3, 0)
        shim.define("sgx_ecall", shim_sgx_ecall)
        assert handle.ecall("ecall_add", 4, 0) == 4
        logger.uninstall()
        windows.append((opened, process.sim.now_ns))
        assert handle.ecall("ecall_add", 5, 0) == 5
        assert seen == [(4, 0), (5, 0)]
        rows = logger.finalize().calls(kind=ECALL)
        per_window = [
            sum(1 for row in rows if start <= row.start_ns and row.end_ns <= end)
            for start, end in windows
        ]
        assert per_window == [1, 2] and len(rows) == 3

    def test_results_pass_through_unchanged(self, app):
        process, device, urts, handle = app
        with make_logger(process, urts) as logger:
            assert handle.ecall("ecall_add", 5, 6) == 11


class TestOcallTracing:
    def test_stub_table_substituted_and_logged(self, app):
        process, device, urts, handle = app
        logger = make_logger(process, urts)
        logger.install()
        handle.ecall("ecall_with_ocall")
        logger.uninstall()
        db = logger.finalize()
        ocalls = db.calls(kind=OCALL)
        assert [o.name for o in ocalls] == ["ocall_log"]

    def test_ocall_duration_excludes_transitions(self, app):
        process, device, urts, handle = app
        logger = make_logger(process, urts)
        logger.install()
        handle.ecall("ecall_with_ocall")
        logger.uninstall()
        db = logger.finalize()
        ocall = db.calls(kind=OCALL)[0]
        # ocall_log computes 500 ns; the measured duration must be close to
        # that (not include the ~2.1 us EEXIT+EENTER round trip).
        assert ocall.duration_ns < 1_500

    def test_direct_parent_recorded(self, app):
        process, device, urts, handle = app
        logger = make_logger(process, urts)
        logger.install()
        handle.ecall("ecall_with_ocall")
        logger.uninstall()
        db = logger.finalize()
        ecall = db.calls(kind=ECALL)[0]
        ocall = db.calls(kind=OCALL)[0]
        assert ocall.parent_id == ecall.event_id

    def test_stub_table_created_once_per_table(self, app):
        process, device, urts, handle = app
        logger = make_logger(process, urts)
        logger.install()
        for _ in range(5):
            handle.ecall("ecall_with_ocall")
        assert len(logger._stub_tables) == 1
        logger.uninstall()


class TestAexModes:
    def run_long(self, mode):
        process = SimProcess(seed=5)
        device = SgxDevice(process.sim, timer_period_ns=100_000)
        urts = Urts(process, device)
        trusted, untrusted = make_simple_impls()
        handle = build_enclave(urts, SIMPLE_EDL, trusted, untrusted)
        logger = make_logger(process, urts, aex_mode=mode)
        logger.install()
        handle.ecall("ecall_compute", 1_000_000)
        logger.uninstall()
        return logger.finalize()

    def test_off_mode_counts_nothing(self):
        db = self.run_long(AexMode.OFF)
        assert db.calls()[0].aex_count == 0
        assert db.aex_events() == []

    def test_count_mode_attributes_to_ecall(self):
        db = self.run_long(AexMode.COUNT)
        assert db.calls()[0].aex_count >= 8
        assert db.aex_events() == []  # counting only

    def test_trace_mode_records_timestamps(self):
        db = self.run_long(AexMode.TRACE)
        event = db.calls()[0]
        aex = db.aex_events()
        assert len(aex) == event.aex_count > 0
        assert all(e.call_id == event.event_id for e in aex)
        assert all(event.start_ns < e.timestamp_ns < event.end_ns for e in aex)


class TestSyncAndPaging:
    def test_sync_ocalls_reduced_to_sleep_wake(self):
        process = SimProcess(seed=6)
        device = SgxDevice(process.sim)
        urts = Urts(process, device)
        trusted, untrusted = make_simple_impls()

        def ecall_lock(ctx, ns):
            mutex = ctx.mutex("m")
            mutex.lock(ctx)
            ctx.compute(int(ns))
            mutex.unlock(ctx)
            return 0

        trusted["ecall_compute"] = ecall_lock
        handle = build_enclave(urts, SIMPLE_EDL, trusted, untrusted)
        logger = make_logger(process, urts)
        logger.install()

        def worker():
            for _ in range(4):
                handle.ecall("ecall_compute", 8_000)

        for i in range(3):
            process.sim.spawn(worker, name=f"w{i}")
        process.sim.run()
        logger.uninstall()
        db = logger.finalize()
        sync = db.sync_events()
        sleeps = [e for e in sync if e.kind is SyncKind.SLEEP]
        wakes = [e for e in sync if e.kind is SyncKind.WAKE]
        assert sleeps and len(sleeps) == len(wakes)
        # Wake targets reference real sleeper thread ids.
        sleeper_tids = {e.thread_id for e in sleeps}
        woken = {t for e in wakes for t in e.targets}
        assert woken <= sleeper_tids
        # Threads observed via pthread_create shadowing.
        names = {t.name for t in db.threads()}
        assert {"w0", "w1", "w2"} <= names

    def test_setwait_ocall_wakes_itself_without_blocking(self, process, urts):
        """``sgx_thread_setwait_untrusted_events_ocall`` with the caller's own
        token as both targets: the wake finds no sleeper and stays pending,
        so the wait consumes it and returns at once."""
        trusted, untrusted = make_simple_impls()
        tokens = []

        def ecall_setwait(ctx, ns):
            token = ctx.urts.current_thread_token()
            tokens.append(token)
            ctx.ocall(SYNC_OCALL_SETWAIT, token, token)
            return 0

        trusted["ecall_compute"] = ecall_setwait
        handle = build_enclave(urts, SIMPLE_EDL, trusted, untrusted)
        logger = make_logger(process, urts)
        logger.install()
        handle.ecall("ecall_compute", 0)
        logger.uninstall()
        db = logger.finalize()
        (ocall,) = db.calls(kind=OCALL)
        assert ocall.name == SYNC_OCALL_SETWAIT and ocall.is_sync
        (token,) = tokens
        assert not urts._event_pending.get(token)
        wake, sleep = db.sync_events()
        assert (wake.kind, sleep.kind) == (SyncKind.WAKE, SyncKind.SLEEP)
        assert wake.call_id == sleep.call_id == ocall.event_id
        assert wake.targets == sleep.targets == (token,)
        # The analyser's SSC inputs: one sleep, one wake, the sleep matched
        # to its (short) ocall.
        analyzer = Analyzer(db, weights=AnalyzerWeights(ssc_min_events=1))
        (ssc,) = [f for f in analyzer.run().findings if f.problem is Problem.SSC]
        assert analyzer._fold.ssc_matched == 1
        assert (ssc.evidence["sleeps"], ssc.evidence["wakes"]) == (1, 1)
        assert ssc.evidence["short_sleep_fraction"] == 1.0
        assert ssc.evidence["wake_matrix"] == {(wake.thread_id, token): 1}

    def test_paging_events_recorded_with_vaddr(self):
        process = SimProcess(seed=7)
        device = SgxDevice(process.sim, epc=Epc(capacity_pages=192))
        urts = Urts(process, device)
        trusted, untrusted = make_simple_impls()

        def ecall_touch_all(ctx, ns):
            buf = ctx.malloc(240 * 1024)
            ctx.touch(buf, write=True)
            ctx.free(buf)
            return 0

        trusted["ecall_compute"] = ecall_touch_all
        logger = make_logger(process, urts)
        logger.install()
        handle = build_enclave(
            urts,
            SIMPLE_EDL,
            trusted,
            untrusted,
            config=EnclaveConfig(heap_bytes=256 * 1024, code_bytes=128 * 1024),
        )
        handle.ecall("ecall_compute", 0)
        logger.uninstall()
        db = logger.finalize()
        paging = db.paging_events()
        assert paging
        directions = {p.direction for p in paging}
        assert "page_out" in directions
        enclave = handle.enclave
        for record in paging:
            assert enclave.contains(record.vaddr)

    def test_metadata_written(self, app):
        process, device, urts, handle = app
        with make_logger(process, urts) as logger:
            handle.ecall("ecall_add", 1, 1)
        db = logger.db
        assert db.get_meta("patch_level") == "baseline"
        assert int(db.get_meta("transition_round_trip_ns")) == 2_130
        enclaves = db.enclaves()
        assert enclaves and enclaves[0].enclave_id == handle.enclave_id

    def test_double_install_rejected(self, app):
        process, device, urts, handle = app
        logger = make_logger(process, urts)
        logger.install()
        with pytest.raises(RuntimeError):
            logger.install()
        logger.uninstall()


class TestSignalShadowing:
    """Paper §4.1: the preloaded logger sits in front of every handler."""

    @pytest.mark.parametrize("symbol", ["sigaction", "signal"])
    def test_handler_runs_behind_the_logger_until_uninstall(self, process, urts, symbol):
        def register(handler):
            if symbol == "sigaction":
                return process.register_signal_handler(SIGUSR1, handler)
            return process.loader.call("signal", SIGUSR1, handler)

        seen = []

        def handler(signum, info):
            seen.append((signum, info))
            return True

        logger = make_logger(process, urts)
        logger.install()
        assert register(handler) is None
        assert process.deliver_signal(SIGUSR1, "info") is True
        assert seen == [(SIGUSR1, "info")]
        # Registering None removes the handler and returns the one the
        # logger installed: a wrapper around the application's handler.
        installed = register(None)
        assert installed is not handler
        assert installed.__wrapped__ is handler
        assert not process.has_signal_handler(SIGUSR1)
        logger.uninstall()
        assert register(handler) is None
        assert register(None) is handler


def test_existing_trace_refused_before_anything_is_written(process, urts, tmp_path):
    path = tmp_path / "trace.db"
    path.write_bytes(b"an earlier trace")
    with pytest.raises(TraceError) as info:
        make_logger(process, urts, database=str(path))
    assert str(info.value) == f"trace already exists: {path}"
    assert path.read_bytes() == b"an earlier trace"
    assert list(tmp_path.iterdir()) == [path]
    # An open database is the caller's to manage, even on an existing file.
    with TraceDatabase(str(tmp_path / "open.db")) as db:
        assert make_logger(process, urts, database=db).db is db

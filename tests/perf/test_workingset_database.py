"""Working set estimator and the SQLite trace store."""

from dataclasses import astuple

import pytest

from repro.perf.database import TraceDatabase
from repro.perf.events import (
    AexEvent,
    CallEvent,
    ECALL,
    EnclaveRecord,
    PagingRecord,
    SyncKind,
    ThreadRecord,
)
from repro.perf.workingset import WorkingSetEstimator
from repro.sgx.enclave import PageType


class TestWorkingSetEstimator:
    def test_counts_touched_pages(self, process, urts, simple_enclave):
        estimator = WorkingSetEstimator(process, simple_enclave.enclave)
        estimator.start()
        simple_enclave.ecall("ecall_add", 1, 1)
        report = estimator.stop()
        # At least code + TCS + stack pages were touched.
        assert report.page_count >= 3
        assert {"code", "tcs", "stack"} <= set(report.by_type)

    def test_mark_resets_window(self, process, urts, simple_enclave):
        estimator = WorkingSetEstimator(process, simple_enclave.enclave)
        estimator.start()
        simple_enclave.ecall("ecall_add", 1, 1)
        first = estimator.mark()
        simple_enclave.ecall("ecall_add", 1, 1)
        second = estimator.stop()
        assert first.page_count >= second.page_count > 0

    def test_permissions_restored_after_stop(self, process, urts, simple_enclave):
        from repro.sgx.enclave import Permission

        estimator = WorkingSetEstimator(process, simple_enclave.enclave)
        estimator.start()
        estimator.stop()
        heap = [p for p in simple_enclave.enclave.pages if p.page_type is PageType.HEAP]
        assert all(p.os_perms == Permission.RW for p in heap)

    def test_estimation_slows_execution(self, process, urts, simple_enclave):
        simple_enclave.ecall("ecall_add", 1, 1)  # warm
        start = process.sim.now_ns
        simple_enclave.ecall("ecall_add", 1, 1)
        plain = process.sim.now_ns - start
        estimator = WorkingSetEstimator(process, simple_enclave.enclave)
        estimator.start()
        start = process.sim.now_ns
        simple_enclave.ecall("ecall_add", 1, 1)
        measured = process.sim.now_ns - start
        estimator.stop()
        assert measured > plain  # "heavily interferes with enclave execution"

    def test_double_start_rejected(self, process, simple_enclave):
        estimator = WorkingSetEstimator(process, simple_enclave.enclave)
        estimator.start()
        with pytest.raises(RuntimeError):
            estimator.start()
        estimator.stop()
        with pytest.raises(RuntimeError):
            estimator.stop()

    def test_context_manager(self, process, simple_enclave):
        with WorkingSetEstimator(process, simple_enclave.enclave):
            simple_enclave.ecall("ecall_add", 1, 1)

    def test_report_bytes_and_str(self, process, simple_enclave):
        estimator = WorkingSetEstimator(process, simple_enclave.enclave)
        estimator.start()
        simple_enclave.ecall("ecall_add", 1, 1)
        report = estimator.stop()
        assert report.bytes == report.page_count * 4096
        assert "working set" in str(report)

    def test_coexists_with_previous_handler(self, process, urts, simple_enclave):
        """The estimator forwards unrelated SIGSEGVs to the saved handler."""
        from repro.sim.process import SIGSEGV

        seen = []
        process.register_signal_handler(SIGSEGV, lambda s, i: seen.append(i) or True)
        estimator = WorkingSetEstimator(process, simple_enclave.enclave)
        estimator.start()
        assert process.deliver_signal(SIGSEGV, "unrelated") is True
        estimator.stop()
        assert seen == ["unrelated"]


class TestTraceDatabase:
    def make_call(self, event_id=1, **kwargs):
        defaults = dict(
            event_id=event_id,
            kind=ECALL,
            name="e",
            call_index=0,
            enclave_id=1,
            thread_id=1,
            start_ns=10,
            end_ns=20,
        )
        defaults.update(kwargs)
        return CallEvent(**defaults)

    def test_call_roundtrip(self):
        db = TraceDatabase()
        event = self.make_call(aex_count=3, parent_id=None, is_sync=True)
        db.add_call_row(event.to_row())
        loaded = db.calls()[0]
        assert loaded == event

    def test_filters(self):
        db = TraceDatabase()
        db.add_call_row(self.make_call(1, name="a").to_row())
        db.add_call_row(self.make_call(2, name="b", kind="ocall").to_row())
        db.add_call_row(self.make_call(3, name="a", enclave_id=2).to_row())
        assert len(db.calls(name="a")) == 2
        assert len(db.calls(kind="ocall")) == 1
        assert len(db.calls(enclave_id=2)) == 1

    def test_ordering_by_start(self):
        db = TraceDatabase()
        db.add_call_row(self.make_call(1, start_ns=100, end_ns=110).to_row())
        db.add_call_row(self.make_call(2, start_ns=50, end_ns=60).to_row())
        assert [c.event_id for c in db.calls()] == [2, 1]

    def test_aex_paging_sync_roundtrip(self):
        db = TraceDatabase()
        db.add_aex_row(astuple(AexEvent(1, 100, 1, 2, 3)))
        db.add_paging_row(astuple(PagingRecord(2, 200, 1, 0xABC000, "page_in")))
        db.add_sync_row((3, 300, 4, SyncKind.WAKE.value, 9, "5,6"))
        assert db.aex_events()[0].thread_id == 2
        assert db.paging_events()[0].direction == "page_in"
        sync = db.sync_events()[0]
        assert sync.kind is SyncKind.WAKE and sync.targets == (5, 6)

    def test_threads_and_enclaves(self):
        db = TraceDatabase()
        db.add_thread(ThreadRecord(1, "main", 0))
        db.add_enclave(EnclaveRecord(7, "talos", 512, 4, 0x7F0000000000))
        assert db.threads()[0].name == "main"
        assert db.enclaves()[0].size_pages == 512

    def test_meta_roundtrip(self):
        db = TraceDatabase()
        db.set_meta("k", "v")
        assert db.get_meta("k") == "v"
        assert db.get_meta("missing", "default") == "default"

    def test_raw_sql_escape_hatch(self):
        db = TraceDatabase()
        for i in range(5):
            db.add_call_row(self.make_call(i + 1, start_ns=i, end_ns=i + 10).to_row())
        rows = db.execute("SELECT COUNT(*), MAX(end_ns) FROM calls")
        assert rows == [(5, 14)]

    def test_file_persistence(self, tmp_path):
        path = str(tmp_path / "trace.db")
        with TraceDatabase(path) as db:
            db.add_call_row(self.make_call().to_row())
        reopened = TraceDatabase(path)
        assert len(reopened.calls()) == 1
        reopened.close()

    def test_buffer_flush_threshold(self):
        db = TraceDatabase()
        for i in range(5000):  # crosses the 4096 batch boundary
            db.add_call_row(self.make_call(i + 1).to_row())
        assert len(db.calls()) == 5000

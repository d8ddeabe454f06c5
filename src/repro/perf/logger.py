"""The sgx-perf event logger.

A "shared library" preloaded into the untrusted application (paper §4,
Figure 2).  Without touching application, enclave or SDK it:

* **shadows ``sgx_ecall``** — records start/end timestamps, thread and call
  identifiers for every ecall (§4.1.1);
* **rewrites the ocall table** — generates one call stub per ocall that
  logs around the original function pointer, and passes the stub table in
  place of the original one on every ecall (§4.1.2, Figure 3);
* **interprets the four SDK sync ocalls** as sleep/wake events, tracking
  which thread wakes which (§4.1.3);
* **patches the AEP** to count or trace asynchronous exits per ecall
  (§4.1.4);
* **attaches kprobes** to the driver's paging functions to record page-in
  and page-out events with virtual addresses (§4.1.5);
* **shadows ``pthread_create`` and ``signal``/``sigaction``** so threads
  are attributed and application handlers keep working behind the logger's
  own (§4).

Logging overheads are charged in virtual time and calibrated to Table 2:
≈1,367 ns per ecall, ≈1,319 ns per ocall, ≈1,076 ns per counted AEX and
≈1,118 ns per traced AEX.

Recording fast path (paper §4.1, Table 2): the hot path appends **flat
tuples to per-thread append-only buffers** — no per-event dataclass, no
per-event SQL.  Buffers are drained into the :class:`TraceDatabase` in
batches (at a threshold and at :meth:`EventLogger.flush`/
:meth:`~EventLogger.finalize`), merged back into event-id order.
:class:`~repro.perf.events.CallEvent` is a *reader-side* type only.
"""

from __future__ import annotations

import enum
import os
from typing import Any, Callable, Optional, Union

from repro.faultrows import STATUS_EXCEPTION, TRUNCATED, status_kind
from repro.perf.database import TraceDatabase, TraceError
from repro.perf.events import ECALL, OCALL, EnclaveRecord, SyncKind, ThreadRecord
from repro.sdk.edger8r import (
    SYNC_OCALL_NAMES,
    SYNC_OCALL_SET,
    SYNC_OCALL_SET_MULTIPLE,
    SYNC_OCALL_SETWAIT,
    SYNC_OCALL_WAIT,
)
from repro.sdk.errors import SgxStatus
from repro.sdk.urts import Urts
from repro.sgx.events import AexInfo
from repro.sgx.paging import KPROBE_ELDU, KPROBE_EWB
from repro.sim.loader import Library
from repro.sim.process import SimProcess

# Per-event logging overheads (ns), calibrated against Table 2.
ECALL_LOG_PRE_NS = 700
ECALL_LOG_POST_NS = 667  # total 1,367 per ecall
OCALL_LOG_PRE_NS = 680
OCALL_LOG_POST_NS = 639  # total 1,319 per ocall
AEX_COUNT_NS = 1_076
AEX_TRACE_NS = 1_118
STUB_CREATE_NS = 450  # one-time, per generated ocall stub

# Completed rows buffered across all per-thread buffers before a drain.
# sgx-perf keeps events in memory until teardown (§4.1); the threshold
# only bounds memory on very long runs, so it is deliberately generous —
# serialisation should stay off the recording critical path.
DRAIN_THRESHOLD = 65_536

# Open-call frame layout: a small mutable list per in-flight call.  What
# outlives the call's own stack frame lives here — identity for parent
# links, the enclave for ocall attribution, the kind for AEX attribution,
# the AEX counter the AEP hook increments — plus everything abort() needs
# to close the call as a truncated row if the run dies mid-call.
_F_ID = 0
_F_ENCLAVE = 1
_F_IS_ECALL = 2
_F_AEX = 3
_F_NAME = 4
_F_INDEX = 5
_F_START = 6
_F_SYNC = 7


class AexMode(enum.Enum):
    """How the logger treats asynchronous exits (§4.1.4)."""

    OFF = "off"  # AEP left untouched
    COUNT = "count"  # per-ecall AEX counter
    TRACE = "trace"  # counter + one timestamped record per AEX


class _LoggerOcallTable:
    """The substituted ocall table (``oT_logger`` in Figure 3)."""

    def __init__(self, original: Any, entries: list[Callable]) -> None:
        self.original = original
        self.names = list(original.names)
        self._entries = entries

    def entry(self, index: int) -> Callable:
        """Stubbed function pointer at ``index``."""
        return self._entries[index]

    def __len__(self) -> int:
        return len(self._entries)


class EventLogger:
    """sgx-perf's preloadable event logger.

    A ``database`` path that already exists raises :class:`TraceError`
    before anything is written: every recording starts a fresh trace (event
    ids restart at 1, so appending would collide).  ``:memory:`` and an
    open :class:`TraceDatabase` are used as given.
    """

    def __init__(
        self,
        process: SimProcess,
        urts: Urts,
        database: Union[str, TraceDatabase] = ":memory:",
        aex_mode: AexMode = AexMode.COUNT,
        trace_paging: bool = True,
    ) -> None:
        if not isinstance(database, TraceDatabase):
            if database != ":memory:" and os.path.exists(database):
                raise TraceError(f"trace already exists: {database}")
            database = TraceDatabase(database)
        self.db = database
        self.process = process
        self.urts = urts
        self.sim = process.sim
        self.aex_mode = aex_mode
        self.trace_paging = trace_paging
        self.library = Library("libsgxperf.so")
        self._clock = self.sim.clock
        self._event_seq = 0
        self._stub_tables: dict[int, _LoggerOcallTable] = {}
        # Per-thread state: open-call frame stacks and completed-row buffers.
        self._open_calls: dict[int, list[list]] = {}
        self._buffers: dict[int, list[tuple]] = {}
        self._aex_rows: list[tuple] = []
        self._paging_rows: list[tuple] = []
        self._sync_rows: list[tuple] = []
        self._fault_rows: list[tuple] = []
        # Off by default: observing non-success ecall statuses writes extra
        # rows, so it is opt-in (enable_fault_recording) to keep fault-free
        # traces byte-identical to pre-fault-injection recordings.
        self._record_statuses = False
        self._pending = 0
        self._seen_threads: set[int] = set()
        # Identity cache for the hot path: one `is` check replaces a tid
        # lookup plus two dict probes (stack, buffer).  The cached list
        # objects stay valid because drains clear buffers in place.
        self._last_thread: Any = self  # sentinel that never equals a thread
        self._last_tid = 0
        self._last_stack: list[list] = []
        self._last_buffer: list[tuple] = []
        self._last_table: Any = self  # sentinel, likewise
        self._last_stub_table: Optional[_LoggerOcallTable] = None
        self._ecall_names: dict[tuple[int, int], str] = {}
        # Live counters for `sgxperf top`: one integer add per event, read
        # by the sampling thread without touching buffers or the database.
        self._n_ecalls = 0
        self._n_ocalls = 0
        self._n_aex = 0
        self._n_page_in = 0
        self._n_page_out = 0
        self._real_sgx_ecall: Optional[Callable] = None
        self._installed = False
        self._aborted = False

    # -- lifecycle ----------------------------------------------------------------

    def install(self) -> None:
        """Preload the logger: shadow symbols, patch the AEP, attach kprobes."""
        if self._installed:
            raise RuntimeError("logger is already installed")
        self.library.define("sgx_ecall", self._shadow_sgx_ecall)
        self.library.define("pthread_create", self._shadow_pthread_create)
        self.library.define("signal", self._shadow_signal)
        self.library.define("sigaction", self._shadow_sigaction)
        self.process.loader.preload(self.library)
        # The next sgx_ecall in search order is stable while preloaded;
        # resolve it once instead of per call.
        self._real_sgx_ecall = self.process.loader.resolve_next("sgx_ecall", self.library)
        if self.aex_mode is not AexMode.OFF:
            self.urts.patch_aep(self._aep_hook)
        if self.trace_paging:
            driver = self.urts.device.driver
            driver.attach_kprobe(KPROBE_EWB, self._kprobe_paging)
            driver.attach_kprobe(KPROBE_ELDU, self._kprobe_paging)
        self._installed = True

    def uninstall(self) -> None:
        """Undo :meth:`install` (the preloaded library is dlclosed)."""
        if not self._installed:
            return
        self.process.loader.unload(self.library)
        self._real_sgx_ecall = None
        if self.aex_mode is not AexMode.OFF:
            self.urts.patch_aep(None)
        if self.trace_paging:
            driver = self.urts.device.driver
            driver.detach_kprobe(KPROBE_EWB, self._kprobe_paging)
            driver.detach_kprobe(KPROBE_ELDU, self._kprobe_paging)
        self._installed = False

    def flush(self) -> None:
        """Drain the per-thread buffers into the database, in event-id order.

        Every completed row reaches ``call_rows``.  The drain also names each
        thread's oldest open call — the bottom frame of its stack — so the
        store encodes into column blocks only the rows that call cannot
        precede.
        """
        if self._aborted:
            # abort() already closed the open frames as truncated rows;
            # anything recorded while the crashing run unwinds would
            # collide with them, so it is discarded.
            for buf in self._buffers.values():
                buf.clear()
            self._aex_rows.clear()
            self._paging_rows.clear()
            self._sync_rows.clear()
            self._fault_rows.clear()
            self._pending = 0
            return
        db = self.db
        merged: list[tuple] = []
        for buf in self._buffers.values():
            if buf:
                merged.extend(buf)
                buf.clear()
        if merged:
            if len(merged) > 1:
                merged.sort()  # event ids are unique → sorts by id
            open_calls = {
                tid: (stack[0][_F_START], stack[0][_F_ID])
                for tid, stack in self._open_calls.items()
                if stack
            }
            db.add_call_rows(merged, open_calls)
        if self._aex_rows:
            db.add_aex_rows(self._aex_rows)
            self._aex_rows.clear()
        if self._paging_rows:
            db.add_paging_rows(self._paging_rows)
            self._paging_rows.clear()
        if self._sync_rows:
            db.add_sync_rows(self._sync_rows)
            self._sync_rows.clear()
        if self._fault_rows:
            db.add_fault_rows(self._fault_rows)
            self._fault_rows.clear()
        self._pending = 0

    def finalize(self) -> TraceDatabase:
        """Write static records and metadata, seal the trace; returns the db."""
        if self._aborted:
            return self.db  # abort() was this trace's (terminal) finalization
        self.flush()
        for runtime in self.urts.runtimes().values():
            enclave = runtime.enclave
            self.db.add_enclave(
                EnclaveRecord(
                    enclave_id=enclave.enclave_id,
                    name=enclave.config.name,
                    size_pages=enclave.size_pages,
                    tcs_count=enclave.config.tcs_count,
                    base_vaddr=enclave.base_vaddr,
                )
            )
        cpu = self.urts.device.cpu
        self.db.set_meta("patch_level", cpu.patch_level.value)
        self.db.set_meta("transition_round_trip_ns", cpu.transition_round_trip_ns)
        self.db.set_meta("frequency_ghz", self.sim.clock.frequency_ghz)
        self.db.set_meta("aex_mode", self.aex_mode.value)
        self.db.seal()
        return self.db

    def abort(self) -> TraceDatabase:
        """Abnormal-termination finalization: make the trace salvageable.

        Models the logger's crash handler: drain every buffer, close each
        still-open call frame as a truncated row ending *now* (with a
        ``truncated`` fault row so analysis can tell lower-bound durations
        from real ones), mark the trace ``aborted`` and seal it.  Unlike
        :meth:`finalize` this writes no static records — a dying process
        does the minimum that keeps the trace readable.

        Terminal: after abort the logger discards anything further (the
        unwinding run would otherwise re-record the calls abort already
        closed) and :meth:`finalize` becomes a no-op.
        """
        now = self._clock.now_ns
        rows: list[tuple] = []
        fault_rows: list[tuple] = []
        for tid, stack in self._open_calls.items():
            for depth, frame in enumerate(stack):
                parent_id = stack[depth - 1][_F_ID] if depth else None
                rows.append(
                    (
                        frame[_F_ID],
                        ECALL if frame[_F_IS_ECALL] else OCALL,
                        frame[_F_NAME],
                        frame[_F_INDEX],
                        frame[_F_ENCLAVE],
                        tid,
                        frame[_F_START],
                        now,
                        frame[_F_AEX],
                        parent_id,
                        frame[_F_SYNC],
                    )
                )
                fault_rows.append(
                    (
                        self._event_seq + len(fault_rows) + 1,
                        now,
                        frame[_F_ENCLAVE],
                        tid,
                        TRUNCATED,
                        frame[_F_NAME],
                        f"open at abort; closed at {now} ns",
                    )
                )
        self._event_seq += len(fault_rows)
        self.flush()
        self._aborted = True
        if rows:
            rows.sort()
            self.db.add_call_rows(rows)
            self.db.add_fault_rows(fault_rows)
        self.db.set_meta("trace_state", "aborted")
        self.db.seal()
        return self.db

    # -- fault recording (repro.faults) -------------------------------------

    def enable_fault_recording(self) -> None:
        """Opt in to fault rows for non-success ecall statuses.

        Separate from :meth:`record_fault` (which always writes): organic
        non-success statuses occur in fault-free runs too, so observing
        them must not silently change existing traces.
        """
        self._record_statuses = True

    def record_fault(
        self, kind: str, enclave_id: int = 0, call: str = "", detail: str = ""
    ) -> None:
        """Append one fault/recovery row to the trace."""
        event_id = self._event_seq = self._event_seq + 1
        self._fault_rows.append(
            (event_id, self._clock.now_ns, enclave_id, self._tid(), kind, call, detail)
        )
        self._pending += 1
        if self._pending >= DRAIN_THRESHOLD:
            self.flush()

    def __enter__(self) -> "EventLogger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        if self._installed:
            self.uninstall()
        self.finalize()

    # -- helpers --------------------------------------------------------------------

    def _tid(self) -> int:
        thread = self.sim.current_thread
        if thread is self._last_thread:
            return self._last_tid
        return self._thread_state(thread)[0]

    def _thread_state(self, thread: Any) -> tuple[int, list, list]:
        """Resolve (tid, open-call stack, buffer) and refresh the cache."""
        tid = thread.tid if thread is not None else 0
        if tid not in self._seen_threads:
            self._seen_threads.add(tid)
            name = thread.name if thread is not None else "main"
            self.db.add_thread(ThreadRecord(tid, name, self._clock.now_ns))
        stack = self._open_calls.get(tid)
        if stack is None:
            stack = self._open_calls[tid] = []
        buf = self._buffers.get(tid)
        if buf is None:
            buf = self._buffers[tid] = []
        self._last_thread = thread
        self._last_tid = tid
        self._last_stack = stack
        self._last_buffer = buf
        return tid, stack, buf

    # -- sgx_ecall shadow (§4.1.1) -----------------------------------------------------

    def _shadow_sgx_ecall(
        self, enclave_id: int, index: int, ocall_table: Any, args: tuple
    ):
        sim = self.sim
        clock = self._clock
        sim.compute(ECALL_LOG_PRE_NS)
        if ocall_table is self._last_table:
            stub_table = self._last_stub_table
        else:
            stub_table = self._stub_table_for(ocall_table)
            self._last_table = ocall_table
            self._last_stub_table = stub_table
        thread = sim._current  # attribute, not property: per-event hot path
        if thread is self._last_thread:
            tid = self._last_tid
            stack = self._last_stack
            buf = self._last_buffer
        else:
            tid, stack, buf = self._thread_state(thread)
        event_id = self._event_seq = self._event_seq + 1
        name = self._ecall_names.get((enclave_id, index))
        if name is None:
            name = self._ecall_name(enclave_id, index)
        parent_id = stack[-1][_F_ID] if stack else None
        start_ns = clock.now_ns
        frame = [event_id, enclave_id, True, 0, name, index, start_ns, 0]
        stack.append(frame)
        status: Any = None
        try:
            # The stub table is passed in place of the original on *every*
            # ecall — the logger cannot know beforehand whether the ecall
            # will issue ocalls (§4.1.2).
            out = self._real_sgx_ecall(enclave_id, index, stub_table, args)
            status = out[0]
            return out
        finally:
            # `stack`/`buf` are the entry thread's — a call returns on the
            # thread it started on, even if others ran in between.
            del stack[-1]
            buf.append(
                (
                    event_id,
                    ECALL,
                    name,
                    index,
                    enclave_id,
                    tid,
                    start_ns,
                    clock.now_ns,
                    frame[_F_AEX],
                    parent_id,
                    0,
                )
            )
            self._pending += 1
            self._n_ecalls += 1
            if self._record_statuses and status is not SgxStatus.SGX_SUCCESS:
                fault_id = self._event_seq = self._event_seq + 1
                kind = status_kind(status.name) if status is not None else STATUS_EXCEPTION
                self._fault_rows.append(
                    (fault_id, clock.now_ns, enclave_id, tid, kind, name, "")
                )
                self._pending += 1
            if self._pending >= DRAIN_THRESHOLD:
                self.flush()
            sim.compute(ECALL_LOG_POST_NS)

    def _ecall_name(self, enclave_id: int, index: int) -> str:
        runtime = self.urts.runtimes().get(enclave_id)
        if runtime is not None and 0 <= index < len(runtime.definition.ecalls):
            name = runtime.definition.ecalls[index].name
            self._ecall_names[(enclave_id, index)] = name
            return name
        return f"ecall#{index}"

    # -- ocall stubs (§4.1.2, Figure 3) ---------------------------------------------------

    def _stub_table_for(self, original: Any) -> _LoggerOcallTable:
        key = id(original)
        stub_table = self._stub_tables.get(key)
        if stub_table is None:
            # On-the-fly code generation for the stubs: once per table,
            # which in SDK applications means once per enclave.
            entries = [
                self._make_stub(index, name, original.entry(index))
                for index, name in enumerate(original.names)
            ]
            self.sim.compute(STUB_CREATE_NS * max(1, len(entries)))
            stub_table = _LoggerOcallTable(original, entries)
            self._stub_tables[key] = stub_table
        return stub_table

    def _make_stub(self, index: int, name: str, original_fn: Callable) -> Callable:
        is_sync = name in SYNC_OCALL_NAMES
        sim = self.sim
        compute = sim.compute
        clock = self._clock
        thread_state = self._thread_state
        record_sync = self._record_sync

        def stub(*args: Any) -> Any:
            compute(OCALL_LOG_PRE_NS)
            thread = sim._current  # attribute, not property: hot path
            if thread is self._last_thread:
                tid = self._last_tid
                stack = self._last_stack
                buf = self._last_buffer
            else:
                tid, stack, buf = thread_state(thread)
            event_id = self._event_seq = self._event_seq + 1
            if stack:
                top = stack[-1]
                parent_id = top[_F_ID]
                enclave_id = top[_F_ENCLAVE]
            else:
                parent_id = None
                enclave_id = 0
            start_ns = clock.now_ns
            if is_sync:
                record_sync(event_id, tid, start_ns, name, args)
            frame = [event_id, enclave_id, False, 0, name, index, start_ns, 1 if is_sync else 0]
            stack.append(frame)
            try:
                return original_fn(*args)
            finally:
                # Entry thread's stack/buffer — see _shadow_sgx_ecall.
                del stack[-1]
                buf.append(
                    (
                        event_id,
                        OCALL,
                        name,
                        index,
                        enclave_id,
                        tid,
                        start_ns,
                        clock.now_ns,
                        frame[_F_AEX],
                        parent_id,
                        1 if is_sync else 0,
                    )
                )
                self._pending += 1
                self._n_ocalls += 1
                if self._pending >= DRAIN_THRESHOLD:
                    self.flush()
                compute(OCALL_LOG_POST_NS)

        stub.__name__ = f"sgxperf_stub_{name}"
        return stub

    # -- sync events (§4.1.3) ----------------------------------------------------------

    def _record_sync(
        self, call_id: int, tid: int, now_ns: int, name: str, args: tuple
    ) -> None:
        if name == SYNC_OCALL_WAIT:
            events = [(SyncKind.SLEEP, (args[0],))]
        elif name == SYNC_OCALL_SET:
            events = [(SyncKind.WAKE, (args[0],))]
        elif name == SYNC_OCALL_SET_MULTIPLE:
            events = [(SyncKind.WAKE, tuple(args[0]))]
        elif name == SYNC_OCALL_SETWAIT:
            events = [(SyncKind.WAKE, (args[0],)), (SyncKind.SLEEP, (args[1],))]
        else:  # pragma: no cover - guarded by caller
            return
        rows = self._sync_rows
        for kind, targets in events:
            event_id = self._event_seq = self._event_seq + 1
            rows.append(
                (
                    event_id,
                    now_ns,
                    tid,
                    kind.value,
                    call_id,
                    ",".join(str(t) for t in targets),
                )
            )
            self._pending += 1
        if self._pending >= DRAIN_THRESHOLD:
            self.flush()

    # -- AEX hook (§4.1.4) ----------------------------------------------------------------

    def _aep_hook(self, info: AexInfo) -> None:
        if self.aex_mode is AexMode.COUNT:
            self.sim.compute(AEX_COUNT_NS)
        else:
            self.sim.compute(AEX_TRACE_NS)
        tid = self._tid()
        stack = self._open_calls.get(tid)
        open_ecall: Optional[list] = None
        if stack:
            for frame in reversed(stack):
                if frame[_F_IS_ECALL]:
                    open_ecall = frame
                    break
        if open_ecall is not None:
            open_ecall[_F_AEX] += 1
        self._n_aex += 1
        if self.aex_mode is AexMode.TRACE:
            event_id = self._event_seq = self._event_seq + 1
            self._aex_rows.append(
                (
                    event_id,
                    info.timestamp_ns,
                    info.enclave_id,
                    tid,
                    open_ecall[_F_ID] if open_ecall is not None else None,
                )
            )
            self._pending += 1
            if self._pending >= DRAIN_THRESHOLD:
                self.flush()

    # -- paging kprobes (§4.1.5) --------------------------------------------------------------

    def _kprobe_paging(self, ts_ns: int, enclave_id: int, vaddr: int, direction: str) -> None:
        event_id = self._event_seq = self._event_seq + 1
        if direction == "page_in":
            self._n_page_in += 1
        else:
            self._n_page_out += 1
        self._paging_rows.append((event_id, ts_ns, enclave_id, vaddr, direction))
        self._pending += 1
        if self._pending >= DRAIN_THRESHOLD:
            self.flush()

    # -- libc shadows ------------------------------------------------------------------------------

    def _shadow_pthread_create(self, target: Callable, *args: Any, name: Optional[str] = None):
        real = self.process.loader.resolve_next("pthread_create", self.library)
        thread = real(target, *args, name=name)
        self.db.add_thread(ThreadRecord(thread.tid, thread.name, self._clock.now_ns))
        return thread

    def _shadow_signal(self, signum: int, handler: Optional[Callable]):
        return self._install_wrapped_handler("signal", signum, handler)

    def _shadow_sigaction(self, signum: int, handler: Optional[Callable]):
        return self._install_wrapped_handler("sigaction", signum, handler)

    def _install_wrapped_handler(
        self, symbol: str, signum: int, handler: Optional[Callable]
    ):
        """Keep application handlers working *behind* the logger's own.

        The logger processes the signal first (it needs some — e.g. JNI
        applications use signals for thread communication, §4), then
        forwards to the handler the application registered.
        """
        real = self.process.loader.resolve_next(symbol, self.library)
        if handler is None:
            return real(signum, None)

        def wrapped(sig: int, info: Any):
            # The logger's own processing is bookkeeping-only in the model.
            return handler(sig, info)

        wrapped.__wrapped__ = handler
        return real(signum, wrapped)

    # -- introspection ------------------------------------------------------------------------

    @property
    def events_recorded(self) -> int:
        """Total number of event ids handed out so far."""
        return self._event_seq

    def live_counts(self) -> dict[str, int]:
        """Cheap counter snapshot for live sampling (``sgxperf top``).

        Alongside the cumulative event counters, the snapshot carries the
        EPC occupancy gauges straight off the device — resident pages,
        the *effective* capacity (shrunk while a squeeze is active) and
        the squeezed-away page count — so a live sampler can report
        memory pressure without touching the trace database.
        """
        epc = self.urts.device.epc
        return {
            "ecalls": self._n_ecalls,
            "ocalls": self._n_ocalls,
            "aex": self._n_aex,
            "page_in": self._n_page_in,
            "page_out": self._n_page_out,
            "epc_resident": epc.resident_pages,
            "epc_capacity": epc.effective_capacity,
            "epc_squeezed": epc.squeezed_pages,
        }

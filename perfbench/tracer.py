"""Span tracer for the benchmark's traced runs.

The tracer wraps the public boundary functions of each layer of
``repro`` from the outside (no hook lives in ``src/``) and records one
enter and one exit event per call into flat arrays: wall timestamp, OS
thread, span code and an optional count (bytes, rows).  The spans --
name, start, end and parent -- are rebuilt from those events after the
run.

Self times are built on one timeline.  Simulated threads are OS threads,
but exactly one of them holds the simulation's turn at a time, so every
wall interval between two consecutive events belongs to exactly one
place:

* both events come from the same thread: the interval belongs to the
  innermost open span of that thread (its layer's self time), or to
  ``unattributed_s`` when that thread has no open span besides the
  iteration root;
* the events come from different threads: the turn was handed over in
  between (scheduler loop, OS thread switch, wake-up), and the interval
  goes to ``sim.turn_wait_s``.

Every interval inside an iteration root therefore lands in exactly one
bucket, and the buckets sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

# Self-time buckets; together they partition the traced wall time.
BUCKETS = (
    "sim.self_s",
    "sim.net_self_s",
    "sim.turn_wait_s",
    "sgx.self_s",
    "sdk.self_s",
    "logger.self_s",
    "logger.flush_s",
    "store.write_s",
    "store.read_s",
    "analysis.self_s",
    "analysis.render_s",
    "crypto.self_s",
    "app.self_s",
    "cluster.route_s",
    "cluster.gateway_self_s",
    "cluster.self_s",
    "sweep.self_s",
    "unattributed_s",
)

ROOT = "iteration"

# (module, qualified name, bucket).  Each entry is a boundary of its layer;
# work a layer does below its boundary without calling another wrapped
# function counts as that layer's self time.
BOUNDARIES = (
    # sim: the kernel's turn primitives, and the simulated network
    ("repro.sim.kernel", "Simulation.compute", "sim.self_s"),
    ("repro.sim.kernel", "Simulation.yield_now", "sim.self_s"),
    ("repro.sim.kernel", "Simulation.block_current", "sim.self_s"),
    ("repro.sim.kernel", "Simulation.futex_wait", "sim.self_s"),
    ("repro.sim.kernel", "Simulation.futex_wake", "sim.self_s"),
    ("repro.sim.kernel", "Simulation.spawn", "sim.self_s"),
    ("repro.sim.kernel", "Simulation.run", "sim.self_s"),
    ("repro.sim.process", "SimProcess.__init__", "sim.self_s"),
    ("repro.sim.net", "SimSocket.send", "sim.net_self_s"),
    ("repro.sim.net", "SimSocket.recv", "sim.net_self_s"),
    ("repro.sim.net", "SimSocket.close", "sim.net_self_s"),
    ("repro.sim.net", "SimSocket.reset", "sim.net_self_s"),
    ("repro.sim.net", "Listener.connect", "sim.net_self_s"),
    ("repro.sim.net", "Listener.accept", "sim.net_self_s"),
    ("repro.sim.net", "Listener.close", "sim.net_self_s"),
    # sgx: the hardware execution model, MMU, EPC driver
    ("repro.sgx.device", "SgxDevice.__init__", "sgx.self_s"),
    ("repro.sgx.execution", "EnclaveExecution.eenter", "sgx.self_s"),
    ("repro.sgx.execution", "EnclaveExecution.eexit", "sgx.self_s"),
    ("repro.sgx.execution", "EnclaveExecution.compute", "sgx.self_s"),
    ("repro.sgx.execution", "EnclaveExecution.touch", "sgx.self_s"),
    ("repro.sgx.mmu", "Mmu.access", "sgx.self_s"),
    ("repro.sgx.mmu", "Mmu.protect", "sgx.self_s"),
    ("repro.sgx.paging", "SgxDriver.create_enclave", "sgx.self_s"),
    ("repro.sgx.paging", "SgxDriver.augment_heap", "sgx.self_s"),
    ("repro.sgx.paging", "SgxDriver.destroy_enclave", "sgx.self_s"),
    ("repro.sgx.paging", "SgxDriver.load_page", "sgx.self_s"),
    ("repro.sgx.paging", "SgxDriver._page_out", "sgx.self_s"),
    ("repro.sgx.enclave", "Enclave.malloc", "sgx.self_s"),
    ("repro.sgx.enclave", "Enclave.free", "sgx.self_s"),
    # sdk: URTS/TRTS bridge, edger8r proxies, resilience, sync primitives
    ("repro.sdk.urts", "Urts.__init__", "sdk.self_s"),
    ("repro.sdk.urts", "Urts._sgx_ecall", "sdk.self_s"),
    ("repro.sdk.urts", "Urts.dispatch_ocall", "sdk.self_s"),
    ("repro.sdk.urts", "Urts.create_enclave", "sdk.self_s"),
    ("repro.sdk.urts", "Urts.destroy_enclave", "sdk.self_s"),
    ("repro.sdk.urts", "Urts.wait_untrusted_event", "sdk.self_s"),
    ("repro.sdk.urts", "Urts.set_untrusted_event", "sdk.self_s"),
    ("repro.sdk.trts", "TrustedBridge.dispatch", "sdk.self_s"),
    ("repro.sdk.trts", "TrustedContext.compute", "sdk.self_s"),
    ("repro.sdk.trts", "TrustedContext.compute_jittered", "sdk.self_s"),
    ("repro.sdk.trts", "TrustedContext.ocall", "sdk.self_s"),
    ("repro.sdk.trts", "TrustedContext.malloc", "sdk.self_s"),
    ("repro.sdk.trts", "TrustedContext.free", "sdk.self_s"),
    ("repro.sdk.edger8r", "build_enclave", "sdk.self_s"),
    ("repro.sdk.edger8r", "EnclaveHandle.ecall", "sdk.self_s"),
    ("repro.sdk.edger8r", "EnclaveHandle.try_ecall", "sdk.self_s"),
    ("repro.sdk.edger8r", "UntrustedContext.compute", "sdk.self_s"),
    ("repro.sdk.edger8r", "UntrustedContext.compute_jittered", "sdk.self_s"),
    ("repro.sdk.resilience", "ResilientEnclave.ecall", "sdk.self_s"),
    ("repro.sdk.sync", "SdkMutex.lock", "sdk.self_s"),
    ("repro.sdk.sync", "SdkMutex.unlock", "sdk.self_s"),
    ("repro.sdk.sync", "HybridMutex.lock", "sdk.self_s"),
    ("repro.sdk.sync", "SdkCondVar.wait", "sdk.self_s"),
    ("repro.sdk.sync", "SdkCondVar.signal", "sdk.self_s"),
    # perf.logger: the shadowed sgx_ecall and the generated ocall stubs
    # (see _make_stub below) are the logger's hot path
    ("repro.perf.logger", "EventLogger.__init__", "logger.self_s"),
    ("repro.perf.logger", "EventLogger.install", "logger.self_s"),
    ("repro.perf.logger", "EventLogger.uninstall", "logger.self_s"),
    ("repro.perf.logger", "EventLogger._shadow_sgx_ecall", "logger.self_s"),
    ("repro.perf.logger", "EventLogger.record_fault", "logger.self_s"),
    ("repro.perf.logger", "EventLogger.finalize", "logger.self_s"),
    ("repro.perf.logger", "EventLogger.flush", "logger.flush_s"),
    # perf.database: writes and reads (__init__ is routed by mode below)
    ("repro.perf.database", "TraceDatabase.add_call_rows", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.add_aex_rows", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.add_paging_rows", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.add_sync_rows", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.add_fault_rows", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.add_thread", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.add_enclave", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.set_meta", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.flush", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.close", "store.write_s"),
    ("repro.perf.database", "TraceDatabase.call_columns", "store.read_s"),
    ("repro.perf.database", "TraceDatabase.calls", "store.read_s"),
    ("repro.perf.database", "TraceDatabase.sync_events", "store.read_s"),
    ("repro.perf.database", "TraceDatabase.paging_events", "store.read_s"),
    ("repro.perf.database", "TraceDatabase.fault_events", "store.read_s"),
    ("repro.perf.database", "TraceDatabase.aex_events", "store.read_s"),
    ("repro.perf.database", "TraceDatabase.get_meta", "store.read_s"),
    ("repro.perf.database", "TraceDatabase.table_counts", "store.read_s"),
    # perf.analysis
    ("repro.perf.analysis.report", "Analyzer.run", "analysis.self_s"),
    ("repro.perf.analysis.report", "AnalysisReport.render_text", "analysis.render_s"),
    # crypto
    ("repro.crypto.sha256", "sha256", "crypto.self_s"),
    ("repro.crypto.hmac", "hmac_sha256", "crypto.self_s"),
    ("repro.crypto.hmac", "hkdf_like", "crypto.self_s"),
    ("repro.crypto.stream", "stream_xor", "crypto.self_s"),
    ("repro.crypto.aes", "aes128_ctr", "crypto.self_s"),
    # workloads (application code): one span per unit of work
    ("repro.workloads.recorders", "record_glamdring", "app.self_s"),
    ("repro.workloads.glamdring.signer", "GlamdringSigner.__init__", "app.self_s"),
    ("repro.workloads.glamdring.signer", "GlamdringSigner.sign", "app.self_s"),
    ("repro.workloads.glamdring.signer", "GlamdringSigner.close", "app.self_s"),
    ("repro.workloads.securekeeper.zookeeper", "ZkServer.handle", "app.self_s"),
    ("repro.workloads.securekeeper.proxy", "SecureKeeperProxy.__init__", "app.self_s"),
    ("repro.cluster.node", "run_clusternode", "app.self_s"),
    # cluster: router, gateway, orchestration
    ("repro.cluster.loadgen", "generate_arrivals", "cluster.route_s"),
    ("repro.cluster.detector", "build_detector", "cluster.route_s"),
    ("repro.cluster.router", "route_requests", "cluster.route_s"),
    ("repro.cluster.router", "requests_for_node", "cluster.route_s"),
    ("repro.cluster.proxy", "ClusterMux.start", "cluster.gateway_self_s"),
    ("repro.cluster.proxy", "SecureKeeperClusterBackend.execute_batch", "cluster.gateway_self_s"),
    ("repro.cluster.proxy", "SecureKeeperClusterBackend.close_all", "cluster.gateway_self_s"),
    ("repro.cluster.brownout", "BrownoutController.admit", "cluster.gateway_self_s"),
    ("repro.cluster.brownout", "BrownoutController.observe", "cluster.gateway_self_s"),
    ("repro.cluster.runner", "run_cluster", "cluster.self_s"),
    ("repro.cluster.slo", "rollup", "cluster.self_s"),
    # sweep: the pool engine (in-process in traced runs)
    ("repro.sweep.engine", "run_sweep", "sweep.self_s"),
    ("repro.sweep.grid", "expand_grid", "sweep.self_s"),
    ("repro.sweep.tasks", "run_task", "sweep.self_s"),
)

# Counts taken at span entry from the call's arguments.
_ENTER_COUNTS: dict[str, Callable[[tuple], int]] = {
    "SimSocket.send": lambda a: len(a[1]),
    "sha256": lambda a: len(a[0]),
    "hmac_sha256": lambda a: len(a[1]),
    "hkdf_like": lambda a: len(a[0]),
    "stream_xor": lambda a: len(a[2]),
    "aes128_ctr": lambda a: len(a[2]),
    "TraceDatabase.add_call_rows": lambda a: len(a[1]),
    "TraceDatabase.add_aex_rows": lambda a: len(a[1]),
    "TraceDatabase.add_paging_rows": lambda a: len(a[1]),
    "TraceDatabase.add_sync_rows": lambda a: len(a[1]),
    "TraceDatabase.add_fault_rows": lambda a: len(a[1]),
    "TraceDatabase.add_thread": lambda a: 1,
    "TraceDatabase.add_enclave": lambda a: 1,
}

# Counts taken at span exit from the call's result.
_EXIT_COUNTS: dict[str, Callable[[Any], int]] = {
    "TraceDatabase.call_columns": len,
    "TraceDatabase.calls": len,
    "TraceDatabase.sync_events": len,
    "TraceDatabase.paging_events": len,
    "TraceDatabase.fault_events": len,
    "TraceDatabase.aex_events": len,
    "Analyzer.run": lambda report: report.ecall_count + report.ocall_count,
}

# Spans whose count is summed only where the parent span is of another
# layer (crypto primitives call each other; their bytes count once).
_OUTERMOST_COUNTS = frozenset({"sha256", "hmac_sha256", "hkdf_like", "stream_xor", "aes128_ctr"})

LOGGER_STUB = "EventLogger.ocall_stub"
DB_OPEN_WRITE = "TraceDatabase.open"
DB_OPEN_READ = "TraceDatabase.open_readonly"

# Layer of a simulated thread's body, by the module of its target.
_THREAD_BUCKETS = (
    ("repro.sim.net", "sim.net_self_s"),
    ("repro.sim", "sim.self_s"),
    ("repro.sgx", "sgx.self_s"),
    ("repro.sdk", "sdk.self_s"),
    ("repro.perf.logger", "logger.self_s"),
    ("repro.perf.analysis", "analysis.self_s"),
    ("repro.crypto", "crypto.self_s"),
    ("repro.workloads", "app.self_s"),
    ("repro.faults", "app.self_s"),
    ("repro.cluster.proxy", "cluster.gateway_self_s"),
    ("repro.cluster.brownout", "cluster.gateway_self_s"),
    ("repro.cluster.router", "cluster.route_s"),
    ("repro.cluster", "cluster.self_s"),
    ("repro.sweep", "sweep.self_s"),
)


def thread_bucket(target: Callable) -> str:
    """The bucket a simulated thread's body belongs to."""
    module = getattr(target, "__module__", None) or ""
    for prefix, bucket in _THREAD_BUCKETS:
        if module == prefix or module.startswith(prefix + "."):
            return bucket
    return "unattributed_s"


class Tracer:
    """Records spans at the wrapped boundaries; see the module docstring."""

    def __init__(self) -> None:
        self._times = array("q")
        self._threads = array("Q")
        self._codes = array("l")  # span code at entry, ~code at exit
        self._counts = array("q")
        self.names: list[str] = []
        self.buckets: list[str] = []
        self._codes_by_name: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._root = self.code(ROOT, "unattributed_s")

    @property
    def events(self) -> int:
        """Events recorded so far."""
        return len(self._times)

    def code(self, name: str, bucket: str) -> int:
        """The span code for ``name`` (registered on first use)."""
        code = self._codes_by_name.get(name)
        if code is None:
            if bucket not in BUCKETS:
                raise ValueError(f"unknown bucket {bucket!r}")
            code = self._codes_by_name[name] = len(self.names)
            self.names.append(name)
            self.buckets.append(bucket)
        return code

    # -- recording -------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        code: int,
        enter_count: Optional[Callable[[tuple], int]] = None,
        exit_count: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """``fn`` with an enter and an exit event around every call."""
        now = time.perf_counter_ns
        ident = threading.get_ident
        t_add = self._times.append
        th_add = self._threads.append
        c_add = self._codes.append
        n_add = self._counts.append
        exit_code = ~code

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            th_add(ident())
            c_add(code)
            n_add(enter_count(args) if enter_count is not None else 0)
            t_add(now())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t = now()
                th_add(ident())
                c_add(exit_code)
                n_add(exit_count(result) if exit_count is not None and result is not None else 0)
                t_add(t)

        return traced

    def root(self, fn: Callable, *args, **kwargs):
        """Run one measured iteration inside an iteration root span."""
        return self.wrap(fn, self._root)(*args, **kwargs)

    # -- installing the boundary wrappers ------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES` (and the special ones)."""
        for module_name, qualname, bucket in BOUNDARIES:
            owner, attr = _resolve(module_name, qualname)
            original = owner.__dict__[attr]
            code = self.code(qualname, bucket)
            wrapped = self.wrap(
                original, code, _ENTER_COUNTS.get(qualname), _EXIT_COUNTS.get(qualname)
            )
            self._patch(owner, attr, original, wrapped)
            if isinstance(owner, type(sys)):
                _rebind_imports(self, original, wrapped)
        self._install_special()

    def _install_special(self) -> None:
        from repro.perf.database import TraceDatabase
        from repro.perf.logger import EventLogger
        from repro.sim.kernel import Simulation

        tracer = self
        open_rw = self.wrap(TraceDatabase.__init__, self.code(DB_OPEN_WRITE, "store.write_s"))
        open_ro = self.wrap(TraceDatabase.__init__, self.code(DB_OPEN_READ, "store.read_s"))

        def db_init(db, *args, **kwargs):
            opener = open_ro if kwargs.get("readonly") else open_rw
            return opener(db, *args, **kwargs)

        self._patch(TraceDatabase, "__init__", TraceDatabase.__dict__["__init__"], db_init)

        stub_code = self.code(LOGGER_STUB, "logger.self_s")
        make_stub = EventLogger.__dict__["_make_stub"]

        def traced_make_stub(logger, index, name, original_fn):
            return tracer.wrap(make_stub(logger, index, name, original_fn), stub_code)

        self._patch(EventLogger, "_make_stub", make_stub, traced_make_stub)

        # Simulation.spawn is already wrapped as a sim span; additionally
        # give every simulated thread's body a span of its own layer.
        spawn = Simulation.__dict__["spawn"]

        def traced_spawn(sim, target, *args, **kwargs):
            bucket = thread_bucket(target)
            name = "thread:" + getattr(target, "__qualname__", type(target).__name__)
            return spawn(sim, tracer.wrap(target, tracer.code(name, bucket)), *args, **kwargs)

        self._patch(Simulation, "spawn", spawn, traced_spawn)

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- folding the events into per-layer numbers ---------------------------------

    def fold(self) -> "Profile":
        """Rebuild the spans and attribute every interval inside a root."""
        times, threads, codes, counts = self._times, self._threads, self._codes, self._counts
        buckets = self.buckets
        root = self._root
        bucket_ns: dict[str, int] = defaultdict(int)
        span_count: Counter = Counter()
        span_total_ns: dict[int, int] = defaultdict(int)
        span_self_ns: dict[int, int] = defaultdict(int)
        edge_count: Counter = Counter()
        count_sum: Counter = Counter()
        stacks: dict[int, list[list[int]]] = {}
        wall_ns = 0
        roots = 0
        open_root = False
        last_t = 0
        last_thread = -1
        outermost = {self._codes_by_name[n] for n in _OUTERMOST_COUNTS if n in self._codes_by_name}
        for i in range(len(times)):
            t = times[i]
            thread = threads[i]
            code = codes[i]
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks[thread] = []
            if open_root:
                dt = t - last_t
                if thread != last_thread:
                    bucket_ns["sim.turn_wait_s"] += dt
                elif stack:
                    top = stack[-1]
                    bucket_ns[buckets[top[0]]] += dt
                    span_self_ns[top[0]] += dt
                else:
                    bucket_ns["unattributed_s"] += dt
            if code >= 0:
                parent = stack[-1][0] if stack else -1
                stack.append([code, t, counts[i], parent])
                if code == root:
                    open_root = True
                    roots += 1
            else:
                code = ~code
                frame = stack.pop()
                if frame[0] != code:
                    raise RuntimeError(
                        f"unbalanced spans: exit of {self.names[code]} inside "
                        f"{self.names[frame[0]]}"
                    )
                span_count[code] += 1
                span_total_ns[code] += t - frame[1]
                edge_count[(code, frame[3])] += 1
                n = frame[2] + counts[i]
                if n and not (code in outermost and frame[3] >= 0
                              and buckets[frame[3]] == buckets[code]):
                    count_sum[code] += n
                if code == root:
                    open_root = False
                    wall_ns += t - frame[1]
            last_t = t
            last_thread = thread
        names = self.names
        return Profile(
            roots=roots,
            wall_s=wall_ns / 1e9,
            bucket_s={b: bucket_ns.get(b, 0) / 1e9 for b in BUCKETS},
            spans={
                names[c]: {
                    "bucket": buckets[c],
                    "count": span_count[c],
                    "total_s": span_total_ns[c] / 1e9,
                    "self_s": span_self_ns[c] / 1e9,
                    "counted": count_sum[c],
                }
                for c in sorted(span_count)
            },
            edges={
                (names[c], names[p] if p >= 0 else ""): n for (c, p), n in edge_count.items()
            },
        )


class Profile:
    """Per-bucket self times and per-span counts of a traced phase."""

    def __init__(self, roots, wall_s, bucket_s, spans, edges) -> None:
        self.roots = roots
        self.wall_s = wall_s
        self.bucket_s = bucket_s
        self.spans = spans
        self.edges = edges

    def count(self, name: str) -> int:
        """How many spans of ``name`` closed inside the traced phase."""
        span = self.spans.get(name)
        return span["count"] if span else 0

    def counted(self, *names: str) -> int:
        """Sum of the per-span counts (bytes, rows) of ``names``."""
        return sum(self.spans[n]["counted"] for n in names if n in self.spans)

    def as_json(self) -> dict:
        """The span table written next to the run's output."""
        return {
            "roots": self.roots,
            "wall_s": self.wall_s,
            "buckets": self.bucket_s,
            "spans": self.spans,
            "edges": [
                {"span": child, "parent": parent, "count": n}
                for (child, parent), n in sorted(self.edges.items())
            ],
        }


def _resolve(module_name: str, qualname: str) -> tuple[Any, str]:
    """(owner object, attribute name) for ``module:qualname``."""
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _rebind_imports(tracer: Tracer, original: Callable, wrapped: Callable) -> None:
    """Point every ``from module import fn`` binding in ``repro`` at the wrapper."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                tracer._patch(module, attr, original, wrapped)

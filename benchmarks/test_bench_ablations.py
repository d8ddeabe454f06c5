"""Ablations for the design choices the paper recommends.

* §3.4 — hybrid spin-then-sleep locks vs the SDK's sleep-only mutex: under
  short critical sections the hybrid variant should eliminate most
  sleep/wake ocalls and beat the SDK mutex end to end.
* §3.5 — EPC pressure: once the working set exceeds the (here: shrunken)
  EPC, paging events appear and throughput collapses — the reason the
  paper tells developers to keep enclaves small.
"""

from conftest import run_once

from repro.sdk.edger8r import build_enclave
from repro.sdk.sync import HybridMutex
from repro.sdk.urts import Urts
from repro.sgx.device import SgxDevice
from repro.sgx.enclave import EnclaveConfig
from repro.sgx.epc import Epc
from repro.sim.process import SimProcess

_EDL = """
enclave {
    trusted {
        public int ecall_locked(int which);
        public int ecall_touch(size_t offset);
        public int ecall_alloc(size_t nbytes);
    };
    untrusted { void ocall_noop(void); };
};
"""


class _LockApp:
    def __init__(self, seed: int = 0) -> None:
        self.process = SimProcess(seed=seed)
        self.device = SgxDevice(self.process.sim)
        self.urts = Urts(self.process, self.device)
        self.handle = build_enclave(
            self.urts,
            _EDL,
            {
                "ecall_locked": self._ecall_locked,
                "ecall_touch": lambda ctx, off: 0,
                "ecall_alloc": lambda ctx, n: 0,
            },
            {"ocall_noop": lambda uctx: None},
            config=EnclaveConfig(heap_bytes=256 * 1024, tcs_count=8),
        )
        runtime = self.urts.runtime(self.handle.enclave_id)
        self.sdk_mutex = runtime.mutex("plain")
        self.hybrid_mutex = HybridMutex(runtime, "hybrid", spin_iterations=96)

    def _ecall_locked(self, ctx, which: int):
        mutex = self.sdk_mutex if which == 0 else self.hybrid_mutex
        mutex.lock(ctx)
        ctx.compute(1_500)  # short critical section (<10 us, the SSC case)
        mutex.unlock(ctx)
        return 0


def _contended_run(which: int, threads: int = 4, iterations: int = 60):
    app = _LockApp(seed=which)
    sim = app.process.sim

    def worker():
        for _ in range(iterations):
            app.handle.ecall("ecall_locked", which)
            sim.compute(700)

    for i in range(threads):
        sim.spawn(worker, name=f"locker-{i}")
    start = sim.now_ns
    sim.run()
    elapsed = sim.now_ns - start
    mutex = app.sdk_mutex if which == 0 else app.hybrid_mutex
    return elapsed, dict(mutex.stats)


def test_hybrid_mutex_ablation(benchmark):
    def run_both():
        return _contended_run(0), _contended_run(1)

    (sdk_ns, sdk_stats), (hybrid_ns, hybrid_stats) = run_once(benchmark, run_both)
    print()
    print(f"SDK mutex:    {sdk_ns / 1e6:8.2f} ms, stats {sdk_stats}")
    print(f"hybrid mutex: {hybrid_ns / 1e6:8.2f} ms, stats {hybrid_stats}")
    # The hybrid lock avoids (nearly) all sleeping under short hold times...
    assert hybrid_stats["lock_slept"] < sdk_stats["lock_slept"] / 2
    assert hybrid_stats["lock_spun"] > 0
    # ...and wins end to end.
    assert hybrid_ns < sdk_ns


def test_epc_pressure_cliff(benchmark):
    """Throughput vs working set: fits-in-EPC vs thrashes-the-EPC."""

    def run_pressure():
        results = {}
        for label, heap_pages, epc_pages in (("fits", 96, 1024), ("thrashes", 640, 512)):
            process = SimProcess(seed=7)
            device = SgxDevice(process.sim, epc=Epc(capacity_pages=epc_pages))
            urts = Urts(process, device)
            touched = {"pages": 0}

            def ecall_touch(ctx, offset, _touched=touched, _heap=heap_pages):
                buf = getattr(ctx.runtime, "_bench_buf", None)
                if buf is None:
                    buf = ctx.malloc(_heap * 4096 - 64)
                    ctx.runtime._bench_buf = buf
                page = offset % _heap
                ctx.touch_heap_bytes(buf.allocation.offset + page * 4096, 32, write=True)
                ctx.compute(900)
                return 0

            handle = build_enclave(
                urts,
                _EDL,
                {
                    "ecall_locked": lambda ctx, w: 0,
                    "ecall_touch": ecall_touch,
                    "ecall_alloc": lambda ctx, n: 0,
                },
                {"ocall_noop": lambda uctx: None},
                config=EnclaveConfig(heap_bytes=(heap_pages + 2) * 4096, tcs_count=2),
            )
            start = process.sim.now_ns
            calls = 600
            for i in range(calls):
                handle.ecall("ecall_touch", i * 13)
            elapsed = process.sim.now_ns - start
            results[label] = {
                "ns_per_call": elapsed / calls,
                "page_in": device.driver.stats["page_in"],
                "page_out": device.driver.stats["page_out"],
            }
        return results

    results = run_once(benchmark, run_pressure)
    print()
    for label, data in results.items():
        print(
            f"{label:9}: {data['ns_per_call']:8.0f} ns/ecall, "
            f"page-in {data['page_in']}, page-out {data['page_out']}"
        )
    assert results["fits"]["page_in"] == 0
    assert results["thrashes"]["page_in"] > 100
    # Paging makes each call several times slower (the paper's "too costly").
    assert results["thrashes"]["ns_per_call"] > 2 * results["fits"]["ns_per_call"]


def test_self_paging_beats_sgx_paging(benchmark):
    """§3.5 option (iii): Eleos/STANlite-style application-level paging.

    Same access pattern over a data set larger than the (shrunken) EPC:
    the SGX-paging build faults on every wrap-around, while the self-paging
    build pays crypto+copy only — no transitions, no kernel — and wins.
    """
    from repro.sdk.selfpaging import SelfPagingStore

    DATA_PAGES = 560
    EPC_PAGES = 512
    CALLS = 500

    def run_variant(self_paging: bool):
        process = SimProcess(seed=11)
        device = SgxDevice(process.sim, epc=Epc(capacity_pages=EPC_PAGES))
        urts = Urts(process, device)
        state = {}

        def ecall_touch(ctx, index):
            if self_paging:
                store = state.get("store")
                if store is None:
                    store = SelfPagingStore(
                        ctx, key=b"k" * 32, block_bytes=4096, cache_blocks=64
                    )
                    state["store"] = store
                store.write(ctx, index % DATA_PAGES, index.to_bytes(8, "big"))
            else:
                buf = state.get("buf")
                if buf is None:
                    buf = ctx.malloc(DATA_PAGES * 4096 - 64)
                    state["buf"] = buf
                page = index % DATA_PAGES
                ctx.touch_heap_bytes(
                    buf.allocation.offset + page * 4096, 32, write=True
                )
            ctx.compute(700)
            return 0

        heap_pages = DATA_PAGES + 2 if not self_paging else 80
        handle = build_enclave(
            urts,
            _EDL,
            {
                "ecall_locked": lambda ctx, w: 0,
                "ecall_touch": ecall_touch,
                "ecall_alloc": lambda ctx, n: 0,
            },
            {"ocall_noop": lambda uctx: None},
            config=EnclaveConfig(heap_bytes=heap_pages * 4096, tcs_count=2),
        )
        start = process.sim.now_ns
        for i in range(CALLS):
            handle.ecall("ecall_touch", i * 7)
        elapsed = process.sim.now_ns - start
        return elapsed / CALLS, device.driver.stats["page_in"]

    def run_both():
        return run_variant(False), run_variant(True)

    (sgx_ns, sgx_faults), (eleos_ns, eleos_faults) = run_once(benchmark, run_both)
    print()
    print(f"SGX paging:  {sgx_ns:8.0f} ns/ecall, {sgx_faults} page faults")
    print(f"self-paging: {eleos_ns:8.0f} ns/ecall, {eleos_faults} page faults")
    assert sgx_faults > 100
    assert eleos_faults == 0  # the small enclave never oversubscribes
    assert eleos_ns < sgx_ns


def test_analyzer_weight_sensitivity(benchmark):
    """Ablation on the Equation 1 weights (α, β, γ defaults 0.35/0.50/0.65).

    The defaults "have been obtained through experimentation" (§4.3.2);
    this sweep shows the finding count on a mixed synthetic trace decreases
    monotonically as the thresholds tighten, and that the defaults sit
    between the permissive and strict extremes.
    """
    from repro.perf.analysis import Analyzer
    from repro.perf.analysis.detectors import AnalyzerWeights
    from repro.perf.database import TraceDatabase
    from repro.perf.events import CallEvent, ECALL

    def make_trace():
        events = []
        event_id = 1
        cursor = 0
        # 12 call sites whose short-call fraction ramps from 0% to 110%.
        for site in range(12):
            short_fraction = site / 10
            for i in range(40):
                short = (i % 10) < short_fraction * 10
                duration = 2_600 if short else 60_000
                events.append(
                    CallEvent(
                        event_id=event_id, kind=ECALL, name=f"site{site}",
                        call_index=site, enclave_id=1, thread_id=1,
                        start_ns=cursor, end_ns=cursor + duration,
                    )
                )
                event_id += 1
                cursor += duration + 1_000
        return events

    def sweep():
        db = TraceDatabase()
        for event in make_trace():
            db.add_call(event)
        counts = {}
        for scale, label in ((0.5, "permissive"), (1.0, "default"), (1.4, "strict")):
            weights = AnalyzerWeights(
                move_alpha=min(0.35 * scale, 1.0),
                move_beta=min(0.50 * scale, 1.0),
                move_gamma=min(0.65 * scale, 1.0),
            )
            report = Analyzer(db, weights=weights).run()
            # Equation 1 findings carry the c1/c5/c10 threshold fractions.
            counts[label] = sum(1 for f in report.findings if "c1" in f.evidence)
        return counts

    counts = run_once(benchmark, sweep)
    print()
    print(f"Eq.1 findings by weight scale: {counts}")
    assert counts["permissive"] >= counts["default"] >= counts["strict"]
    assert counts["permissive"] > counts["strict"]
    assert counts["default"] > 0

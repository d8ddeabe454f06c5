"""One benchmark process: set a workload up, then optionally measure it.

``run.py`` starts this script once per set-up (so every set-up pays its
own imports) and lets the last one go on to the measured phase.  The
script prints one JSON object as the last line of its standard output.

    python3 perfbench/worker.py --workload NAME --inputs JSON --workdir DIR \\
        [--seconds S] [--trace 0|1] [--spans FILE]
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# Span events are kept in memory (32 bytes each) until the traced phase
# ends; past this many, no further traced iteration starts.
MAX_TRACED_EVENTS = 3_000_000

# End-to-end timings are scaled to a reference CPU speed.  The machine is
# shared: its speed for pure-Python work drifts by a third over tens of
# seconds with the neighbours' load, which moved per-run timings more than
# any code change worth measuring.  reference_s() times a fixed loop that
# uses no repository code right before and after each measured interval;
# the interval is multiplied by REFERENCE_S over that time.  REFERENCE_S
# is the loop's time on an unloaded core of the machine the benchmark was
# defined on, so scaled timings read as seconds on that machine.
REFERENCE_S = 0.011


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop (fastest of three)."""
    best = math.inf
    for _ in range(3):
        begin = time.perf_counter()
        table = {}
        acc = 0x6A09E667
        for i in range(20000):
            acc = ((acc >> 7) | (acc << 25)) & 0xFFFFFFFF
            acc ^= (i * 0x9E3779B1) & 0xFFFFFFFF
            table[i & 1023] = acc
        "".join(sorted(str(v) for v in table.values()))
        best = min(best, time.perf_counter() - begin)
    return best


def run_iterations(workload, seconds: float, expected: dict, run=None, more=None) -> list:
    """Measured iterations for ``seconds`` (at least one), each checked.

    A digest mismatch fails the iteration's items; an exception fails the
    pinned item count and ends the phase.  ``more()`` returning false also
    ends it.
    """
    from workloads import Outcome

    run = run or workload.iteration
    outcomes = []
    begin = time.perf_counter()
    while not outcomes or (
        time.perf_counter() - begin < seconds and (more is None or more())
    ):
        try:
            before = reference_s()
            outcome = run()
            outcome.scale = 2 * REFERENCE_S / (before + reference_s())
            workload.check(outcome)
        except Exception:  # noqa: BLE001 - reported as failed operations
            traceback.print_exc(file=sys.stderr)
            items = int(expected["items"])
            outcomes.append(Outcome(wall_s=math.nan, items=items, failed=items, digest="error"))
            break
        outcome.result = None
        if outcome.digest != expected["digest"]:
            print(
                f"perfbench: {workload.name} digest {outcome.digest} != pinned "
                f"{expected['digest']}",
                file=sys.stderr,
            )
            outcome.failed = outcome.items or int(expected["items"])
        outcomes.append(outcome)
    return outcomes


def peak_rss_mb(workload) -> float:
    """Peak resident memory: this process, or its largest pool worker."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.pool_children:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def end_to_end(workload, outcomes: list) -> dict:
    """The end-to-end numbers of an untraced measured phase.

    Timings are those of the fastest iteration, scaled to the reference
    speed (see REFERENCE_S): interference only ever adds time, so the
    fastest of many iterations is the least disturbed estimate of what the
    code costs.  The unscaled fastest and median times go to the log.
    """
    ok = [o for o in outcomes if not math.isnan(o.wall_s)]
    if not ok:
        return {"wall_s": math.nan, "throughput_per_s": math.nan, "peak_rss_mb": math.nan}
    return {
        "wall_s": min(o.wall_s * o.scale for o in ok),
        "throughput_per_s": max(o.items / (o.wall_s * o.scale) for o in ok),
        "peak_rss_mb": peak_rss_mb(workload),
        "wall_unscaled_s": min(o.wall_s for o in ok),
        "wall_median_unscaled_s": statistics.median(o.wall_s for o in ok),
    }


def per_layer(pooled: list, untraced: list, traced: list, profile, peak_alloc_mb: float) -> dict:
    """The per-layer numbers of a traced phase, per iteration.

    ``pooled`` are the untraced iterations that ran with the workload's
    process pool (the sweep numbers), ``untraced`` those that ran in the
    traced iterations' mode (the overhead baseline).
    """
    from tracer import BUCKETS, LOGGER_STUB

    roots = max(1, profile.roots)

    def per_iter(value: float) -> float:
        return value / roots

    def extra(outcomes: list, key: str, reduce=statistics.fmean) -> float:
        values = [o.extra[key] for o in outcomes if key in o.extra]
        return reduce(values) if values else 0.0

    walls = [o.wall_s for o in untraced if not math.isnan(o.wall_s)]
    traced_wall = per_iter(profile.wall_s)
    metrics = {name: per_iter(profile.bucket_s[name]) for name in BUCKETS}
    metrics.update(
        {
            "sim.compute_calls": per_iter(profile.count("Simulation.compute")),
            "sim.futex_waits": per_iter(profile.count("Simulation.futex_wait")),
            "sim.net_bytes": per_iter(profile.counted("SimSocket.send")),
            "sgx.page_ins": per_iter(profile.count("SgxDriver.load_page")),
            "sgx.page_outs": per_iter(profile.count("SgxDriver._page_out")),
            "sdk.ecalls": per_iter(profile.count("Urts._sgx_ecall")),
            "sdk.ocalls": per_iter(profile.count("Urts.dispatch_ocall")),
            "sdk.retries": per_iter(
                profile.edges.get(("EnclaveHandle.try_ecall", "ResilientEnclave.ecall"), 0)
                - profile.count("ResilientEnclave.ecall")
            ),
            "logger.events": per_iter(
                profile.count("EventLogger._shadow_sgx_ecall") + profile.count(LOGGER_STUB)
            ),
            "logger.flushes": per_iter(profile.count("EventLogger.flush")),
            "store.rows_written": per_iter(
                profile.counted(
                    "TraceDatabase.add_call_rows",
                    "TraceDatabase.add_aex_rows",
                    "TraceDatabase.add_paging_rows",
                    "TraceDatabase.add_sync_rows",
                    "TraceDatabase.add_fault_rows",
                    "TraceDatabase.add_thread",
                    "TraceDatabase.add_enclave",
                )
            ),
            "store.rows_read": per_iter(
                profile.counted(
                    "TraceDatabase.call_columns",
                    "TraceDatabase.calls",
                    "TraceDatabase.sync_events",
                    "TraceDatabase.paging_events",
                    "TraceDatabase.fault_events",
                    "TraceDatabase.aex_events",
                )
            ),
            "analysis.rows": per_iter(profile.counted("Analyzer.run")),
            "analysis.peak_alloc_mb": peak_alloc_mb,
            "crypto.bytes": per_iter(
                profile.counted("sha256", "hmac_sha256", "hkdf_like", "stream_xor", "aes128_ctr")
            ),
            "cluster.requests": extra(traced, "requests"),
            "cluster.retries": extra(traced, "retries"),
            "cluster.failovers": extra(traced, "failovers"),
            "cluster.shed": extra(traced, "shed"),
            "sweep.tasks": extra(pooled, "tasks"),
            "sweep.attempts": extra(pooled, "attempts"),
            "sweep.dispatch_s": extra(pooled, "dispatch_s", statistics.median),
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / statistics.median(walls) - 1.0
            if walls
            else math.nan,
        }
    )
    return metrics


def traced_phase(workload, seconds: float, expected: dict, spans_path: str) -> tuple:
    """Untraced then traced iterations; returns (outcomes, per-layer metrics).

    A pooled workload first runs untraced with its pool (the sweep's own
    numbers come from there), then with its shards in this process, so
    that every span lands on one timeline; the overhead compares traced
    and untraced runs of that in-process mode.
    """
    from tracer import Tracer

    pooled = []
    share = seconds / 2
    if getattr(workload, "jobs", 0):
        share = seconds / 3
        pooled = run_iterations(workload, share, expected)
        workload.jobs = 0
    untraced = run_iterations(workload, share, expected)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_iterations(
            workload,
            share,
            expected,
            run=lambda: tracer.root(workload.iteration),
            more=lambda: tracer.events < MAX_TRACED_EVENTS,
        )
    finally:
        tracer.uninstall()
    profile = tracer.fold()
    del tracer
    peak_alloc_mb = 0.0
    if workload.name == "analyze-glamdring":
        import tracemalloc

        tracemalloc.start()
        try:
            workload.iteration()
            peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    if spans_path:
        with open(spans_path, "w") as f:
            json.dump(profile.as_json(), f, indent=1, sort_keys=True)
    metrics = per_layer(pooled or untraced, untraced, traced, profile, peak_alloc_mb)
    return pooled + untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="program inputs as JSON")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="0: set up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="", help="write the traced span table here")
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import SRC, WORKLOADS

    sys.path.insert(0, SRC)
    inputs = json.loads(args.inputs)
    workload = WORKLOADS[args.workload](inputs, args.workdir)
    workload.setup()
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s * REFERENCE_S / reference_s(), "setup_unscaled_s": setup_s}
    if args.seconds > 0:
        if args.trace:
            outcomes, metrics = traced_phase(workload, args.seconds, inputs, args.spans)
        else:
            outcomes = run_iterations(workload, args.seconds, inputs)
            metrics = end_to_end(workload, outcomes)
        result.update(
            metrics=metrics,
            iterations=len(outcomes),
            attempted=sum(o.items for o in outcomes),
            failed=sum(o.failed for o in outcomes),
            correct=all(o.digest == inputs["digest"] for o in outcomes),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

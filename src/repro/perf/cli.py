"""Command-line interface: ``sgxperf``.

Subcommands:

* ``record``  — run one of the bundled workloads under the event logger and
  write the trace database (the moral equivalent of
  ``LD_PRELOAD=liblogger.so ./app``);
* ``analyze`` — produce the full report for a trace (optionally with the
  enclave's EDL file for allow-list narrowing); the analyser streams the
  trace in batches of ``--chunk-events M`` rows, with a byte-identical
  report for any ``M``;
* ``top``     — run a workload with a live sampling display: transition
  rates, AEX counts and paging pressure every interval of virtual time;
* ``stats``   — detailed statistics/histogram/scatter for one call;
* ``dot``     — emit the Figure 5-style call graph in Graphviz DOT;
* ``salvage`` — recover a trace whose recording run crashed (close dangling
  calls, mark the trace salvaged);
* ``optimize`` — build an interface-optimization plan (fused calls,
  switchless calls, ocall batching) from a trace's findings; ``--apply``
  prints the rewritten EDL, ``--rerun WORKLOAD`` replays the same seeded
  load on the optimized interface and prints the before/after report;
* ``campaign`` / ``netcampaign`` / ``stressor`` — one seeded fault
  campaign, network-chaos campaign or stressor run, with its summary or
  (``--digest-only``) its trace digest;
* ``sweep``   — fan a declarative grid of seeded runs of any task kind
  across a shared-nothing process pool and print the deterministically
  merged report (``--jobs N``, default cpu count);
* ``cluster`` — run a sharded multi-enclave serving cluster (router,
  gateway batching, open-loop load, optional node-loss chaos) with one
  shard per worker process and print the merged per-node + cluster-wide
  SLO report;
* ``workloads`` — list recordable workloads.

Bad input (a malformed spec or EDL, an existing output trace, an input
trace in a schema before interned call sites or column blocks) exits 2
with one line on stderr.  ``analyze``, ``stats``, ``dot`` and ``optimize
TRACE`` open their input read-only: analysing a trace never changes its
bytes, and a trace that was never finalized is refused until ``salvage``
seals it.  The analysis stack (and with it NumPy) is imported inside the
commands that analyse, so no other command pays for it at start-up; the
module-level imports are the argument constants and input-error types,
and load none of the SDK runtime, SGX model, simulator or logger.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Any, Callable, Optional

from repro.cluster.spec import POLICIES, VARIANTS, ClusterSpec, ClusterSpecError
from repro.faults.netcampaign import WORKLOADS as NET_WORKLOADS
from repro.perf.database import DEFAULT_CHUNK_EVENTS, TraceDatabase, TraceError
from repro.sdk.edl import EdlError, parse_edl
from repro.sweep.engine import SweepError
from repro.sweep.grid import GridError
from repro.sweep.tasks import TASK_KINDS, UnknownTaskKind
from repro.workloads.stressors.profiles import DEFAULT_EPC_PAGES, STRESSOR_NAMES

# Bad input from outside the program: ``main`` reports one stderr line, exit 2.
_INPUT_ERRORS = (ClusterSpecError, EdlError, GridError, SweepError, TraceError, UnknownTaskKind)


def _workload_registry() -> dict[str, Callable[[str, int], None]]:
    """Name → recorder function(db_path, seed).  Imported lazily."""
    from repro.workloads import recorders

    return recorders.REGISTRY


def _missing_trace(path: str) -> bool:
    """Report a trace path that does not exist (opening it would create it)."""
    if os.path.exists(path):
        return False
    print(f"sgxperf: no such trace: {path}", file=sys.stderr)
    return True


def _existing_trace(path: str) -> bool:
    """Report an output path that exists (recording into it would collide)."""
    if path == ":memory:" or not os.path.exists(path):
        return False
    print(f"sgxperf: trace already exists: {path}", file=sys.stderr)
    return True


def _read_input(path: str, parse: Callable[[str], Any], error: type[Exception]) -> Any:
    """Parse the input file at ``path`` (``-`` reads stdin).

    A missing, unreadable or malformed file raises ``error`` naming the path.
    """
    try:
        if path == "-":
            return parse(sys.stdin.read())
        with open(path) as f:
            return parse(f.read())
    except (OSError, ValueError) as exc:
        raise error(f"{path}: {exc}") from exc


def _cmd_record(args: argparse.Namespace) -> int:
    registry = _workload_registry()
    recorder = registry.get(args.workload)
    if recorder is None:
        print(
            f"unknown workload {args.workload!r}; available: "
            + ", ".join(sorted(registry)),
            file=sys.stderr,
        )
        return 2
    if _existing_trace(args.output):
        return 2
    recorder(args.output, args.seed)
    print(f"trace written to {args.output}")
    return 0


def _cmd_analyze_cluster(args: argparse.Namespace) -> int:
    """Merge a directory of per-shard cluster traces: SLOs + orderliness."""
    import glob

    from repro.cluster.orderly import render_orderliness
    from repro.cluster.slo import fold_shard_traces, render_trace_slo

    paths = sorted(glob.glob(os.path.join(args.trace, "*.db")))
    if not paths:
        print(f"no shard traces (*.db) under {args.trace}", file=sys.stderr)
        return 2
    print(
        f"merging {len(paths)} shard trace(s) under {args.trace}", file=sys.stderr
    )
    entries, audits = fold_shard_traces(paths)
    print(render_trace_slo(entries))
    print()
    print(render_orderliness(audits))
    return 1 if any(audit.violations for audit in audits) else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.cluster:
        return _cmd_analyze_cluster(args)
    if _missing_trace(args.trace):
        return 2
    from repro.perf.analysis.report import Analyzer

    definition = _read_input(args.edl, parse_edl, EdlError) if args.edl else None
    with TraceDatabase(args.trace, readonly=True) as db:
        counts = db.table_counts()
        total = sum(counts.values())
        print(
            f"analyzing {args.trace}: {counts['calls']} calls, "
            f"{counts['paging']} paging, {counts['sync']} sync, "
            f"{counts['faults']} fault rows ({total} events total), "
            f"chunk-events={args.chunk_events}",
            file=sys.stderr,
        )
        report = Analyzer(db, definition=definition, chunk_events=args.chunk_events).run()
        if args.json:
            from repro.perf.analysis.export import report_to_json

            print(report_to_json(report))
            return 0
        print(report.render_text(max_stats_rows=args.rows))
        if args.availability:
            print()
            print(report.render_availability())
        if args.pressure:
            print()
            print(report.render_pressure())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.perf.top import LiveTop, TopSample

    registry = _workload_registry()
    recorder = registry.get(args.workload)
    if recorder is None:
        print(
            f"unknown workload {args.workload!r}; available: "
            + ", ".join(sorted(registry)),
            file=sys.stderr,
        )
        return 2
    if _existing_trace(args.output):
        return 2
    tops: list[LiveTop] = []

    def attach(logger) -> None:
        def on_sample(sample: TopSample) -> None:
            print(sample.render())

        top = LiveTop(
            logger, interval_ns=args.interval_us * 1_000, on_sample=on_sample
        )
        tops.append(top.attach())

    recorder(args.output, args.seed, attach=attach)
    if tops:
        print(tops[0].render_summary())
    if args.output != ":memory:":
        print(f"trace written to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if _missing_trace(args.trace):
        return 2
    from repro.perf.analysis import stats as stats_mod

    with TraceDatabase(args.trace, readonly=True) as db:
        calls = db.call_columns(kind=args.kind, name=args.call)
        if not len(calls):
            print(f"no events for {args.kind} {args.call!r}", file=sys.stderr)
            return 1
        durations = calls.duration_ns()
        stat = stats_mod.compute_statistics(args.kind, args.call, durations)
        print(
            f"{stat.kind} {stat.name}: n={stat.count} mean={stat.mean_ns:.0f}ns "
            f"median={stat.median_ns:.0f}ns std={stat.std_ns:.0f}ns "
            f"p90={stat.p90_ns:.0f}ns p95={stat.p95_ns:.0f}ns p99={stat.p99_ns:.0f}ns"
        )
        if args.histogram:
            print(stats_mod.histogram(durations, bins=args.bins).render())
        if args.scatter:
            for s, d in zip(calls.start_ns.tolist(), durations.tolist()):
                print(f"{s} {d}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    if _missing_trace(args.trace):
        return 2
    from repro.perf.analysis.report import Analyzer

    with TraceDatabase(args.trace, readonly=True) as db:
        print(Analyzer(db).call_graph_dot())
    return 0


def _cmd_salvage(args: argparse.Namespace) -> int:
    if _missing_trace(args.trace):
        return 2
    with TraceDatabase(args.trace) as db:
        result = db.salvage()
        print(
            f"salvaged {args.trace}: closed {result['closed']} dangling call(s) "
            f"at horizon {result['horizon_ns']} ns"
        )
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    for name in sorted(_workload_registry()):
        print(name)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.faults.campaign import run_campaign
    from repro.faults.plan import FaultPlan

    if _existing_trace(args.output):
        return 2
    result = run_campaign(
        args.seed,
        db_path=args.output,
        workers=args.workers,
        calls_per_worker=args.calls,
        plan=FaultPlan.disabled() if args.no_faults else None,
        use_injector=not args.no_faults,
    )
    if args.digest_only:
        print(result.digest)
        return 0
    print(f"seed {result.seed}: {result.completed_calls} calls completed, "
          f"{result.failed_calls} failed, {result.duration_ns} ns virtual")
    print(f"injected: {result.injected or '{}'}")
    print(f"recovery: {result.recovery or '{}'} ({result.recreates} re-creates, "
          f"mean loss->recreate latency {result.mean_recovery_latency_ns:.0f} ns)")
    print(f"digest: {result.digest}")
    return 0


def _cmd_netcampaign(args: argparse.Namespace) -> int:
    from repro.faults.netcampaign import run_netcampaign
    from repro.faults.plan import FaultPlan

    workloads = NET_WORKLOADS if args.workload == "both" else (args.workload,)
    paths = [args.output] * len(workloads)
    if args.output != ":memory:" and len(workloads) > 1:
        # One trace file per workload (call ids are per database):
        # chaos.db -> chaos.talos.db, chaos.securekeeper.db.
        root, ext = os.path.splitext(args.output)
        paths = [f"{root}.{workload}{ext}" for workload in workloads]
    if any(_existing_trace(path) for path in paths):
        return 2
    plan = FaultPlan.disabled() if args.no_chaos else None
    exit_code = 0
    for workload, db_path in zip(workloads, paths):
        result = run_netcampaign(
            workload,
            args.seed,
            db_path=db_path,
            requests=args.requests,
            clients=args.clients,
            operations_per_client=args.ops,
            plan=plan,
        )
        if args.digest_only:
            print(f"{workload}:{result.digest}")
            continue
        a = result.availability
        print(
            f"{workload} seed {args.seed}: success rate {result.success_rate:.4f} "
            f"({a['succeeded']}/{a['attempted']}), {a['retries']} retries, "
            f"{a['shed']} shed, {a['failed']} failed"
        )
        print(
            f"  latency p50 {a['p50_ns']} ns, p99 {a['p99_ns']} ns, "
            f"p999 {a['p999_ns']} ns; "
            f"injected {result.injected or '{}'}; "
            f"watchdog detections {result.watchdog_detections}"
        )
        print(f"  digest: {result.digest}")
        if result.success_rate < 0.99:
            exit_code = 1
    return exit_code


def _cmd_stressor(args: argparse.Namespace) -> int:
    from repro.workloads.stressors.runner import run_stressor

    if _existing_trace(args.output):
        return 2
    result = run_stressor(
        args.stressor,
        args.seed,
        intensity=args.intensity,
        ops=args.ops,
        epc_pages=args.epc_pages,
        db_path=args.output,
    )
    if args.digest_only:
        print(result.digest)
        return 0
    print(f"stressor: {args.stressor} x{args.intensity} seed={args.seed}")
    for key in sorted(result.metrics):
        print(f"  {key}: {result.metrics[key]}")
    print(f"digest: {result.digest}")
    return 0


def _sweep_value(text: str):
    """Parse one grid value: int, then float, then bool keyword, else string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _sweep_spec(args: argparse.Namespace) -> dict:
    """Build the declarative grid spec from ``--spec`` or inline flags."""
    if args.spec:
        spec = _read_input(args.spec, json.loads, GridError)
    else:
        if not args.kind:
            raise GridError(f"pass a task kind ({'|'.join(TASK_KINDS)}) or --spec")
        spec = {"kind": args.kind, "seeds": args.seeds, "params": {}, "grid": {}}
        for item in args.params:
            name, eq, value = item.partition("=")
            if not eq:
                raise GridError(f"--set needs NAME=VALUE, got {item!r}")
            spec["params"][name] = _sweep_value(value)
        for item in args.axes:
            name, eq, values = item.partition("=")
            if not eq:
                raise GridError(f"--axis needs NAME=V1,V2,..., got {item!r}")
            spec["grid"][name] = [_sweep_value(v) for v in values.split(",") if v.strip()]
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        spec.setdefault("params", {})["trace_dir"] = args.trace_dir
    return spec


def _print_fanned(args: argparse.Namespace, report, render: Callable[[], str], sweep) -> None:
    """Honour ``--manifest`` and ``--digest-only`` for ``sweep`` and ``cluster``.

    ``report`` is the sweep or cluster report, ``render`` its text form and
    ``sweep`` the sweep report underneath (for the wall-clock line).
    """
    if args.manifest:
        with open(args.manifest, "w") as f:
            f.write(report.manifest)
    if args.digest_only:
        print(report.digest)
    else:
        print(render())
        print(f"wall-clock: {sweep.wall_seconds:.2f}s with jobs={sweep.jobs}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep.engine import run_sweep

    report = run_sweep(spec=_sweep_spec(args), jobs=args.jobs)
    _print_fanned(args, report, report.render_report, report)
    return 0 if report.failed == 0 and report.lost == 0 else 1


def _optimize_definition(args: argparse.Namespace):
    """The declared interface for plan building / rewriting, if known."""
    if args.edl:
        return _read_input(args.edl, parse_edl, EdlError)
    if args.workload == "sqlite":
        from repro.workloads.minisql.enclavised import sqlite_definition

        return sqlite_definition()
    return None


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.optimizer.rerun import RERUN_WORKLOADS, run_rerun
    from repro.optimizer.transforms import build_plan

    if args.rerun:
        if args.target not in RERUN_WORKLOADS:
            print(
                f"optimize --rerun takes a workload name "
                f"({'|'.join(RERUN_WORKLOADS)}), got {args.target!r}",
                file=sys.stderr,
            )
            return 2
        report = run_rerun(
            args.target, seed=args.seed, requests=args.requests, workdir=args.workdir
        )
        if args.plan_out:
            with open(args.plan_out, "w") as f:
                f.write(report.plan.to_json())
            print(f"plan written to {args.plan_out}", file=sys.stderr)
        print(report.to_json() if args.json else report.render_text())
        if report.plan.transform_count() == 0:
            print("optimize: the plan applied no transforms", file=sys.stderr)
            return 1
        if args.min_speedup and report.speedup < args.min_speedup:
            print(
                f"optimize: speedup {report.speedup:.2f}x below the "
                f"--min-speedup {args.min_speedup:.2f}x gate",
                file=sys.stderr,
            )
            return 1
        return 0

    if _missing_trace(args.target):
        return 2
    from repro.perf.analysis.report import Analyzer

    definition = _optimize_definition(args)
    with TraceDatabase(args.target, readonly=True) as db:
        report = Analyzer(db, definition=definition).run()
    plan = build_plan(report.findings, definition=definition, source=args.target)
    if args.plan_out:
        with open(args.plan_out, "w") as f:
            f.write(plan.to_json())
        print(f"plan written to {args.plan_out}", file=sys.stderr)
    print(plan.to_json() if args.json else plan.render_text())
    if args.apply:
        if definition is None:
            print(
                "optimize --apply needs the declared interface: "
                "pass --edl FILE or --workload sqlite",
                file=sys.stderr,
            )
            return 2
        from repro.sdk.edl import format_edl

        from repro.optimizer.rewrite import InterfaceRewriter

        InterfaceRewriter(plan).rewrite_definition(definition)
        print()
        print(format_edl(definition))
    return 0 if plan.transform_count() else 1


def _cluster_spec(args: argparse.Namespace) -> ClusterSpec:
    """Build the spec from ``--spec`` JSON or the inline flags.

    Every inline cluster flag stores into the :class:`ClusterSpec` field
    of the same name, so the parsed flags are the spec's parameters.
    """
    if args.spec:
        return ClusterSpec.from_dict(_read_input(args.spec, json.loads, ClusterSpecError))
    return ClusterSpec.from_params(vars(args))


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.runner import run_cluster

    report = run_cluster(_cluster_spec(args), jobs=args.jobs, trace_dir=args.trace_dir)
    _print_fanned(args, report, report.render, report.sweep)
    if report.degraded:
        return 1
    if args.max_lost is not None and report.lost_writes > args.max_lost:
        print(
            f"cluster: {report.lost_writes} acknowledged write(s) lost "
            f"(gate allows {args.max_lost})",
            file=sys.stderr,
        )
        return 1
    if args.write_slo is not None and report.write_availability < args.write_slo:
        print(
            f"cluster: write availability {report.write_availability:.4%} "
            f"below the {args.write_slo:.4%} floor",
            file=sys.stderr,
        )
        return 1
    return 0 if report.availability >= args.slo else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``sgxperf`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="sgxperf",
        description="Performance analysis for (simulated) Intel SGX enclaves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several subcommands share, defined once.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="simulation seed")
    single_run = argparse.ArgumentParser(add_help=False, parents=[seeded])
    single_run.add_argument(
        "-o", "--output", default=":memory:", help="trace database path (default: discard)"
    )
    single_run.add_argument(
        "--digest-only",
        action="store_true",
        help="print only the trace digest (the CI determinism gate)",
    )
    fanned = argparse.ArgumentParser(add_help=False)
    fanned.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: cpu count; 0 = inline)",
    )
    fanned.add_argument("--trace-dir", help="keep per-task trace databases in this directory")
    fanned.add_argument("--manifest", help="write the merged manifest to this path")
    fanned.add_argument(
        "--digest-only",
        action="store_true",
        help="print only the manifest digest (the CI determinism gate)",
    )

    p_record = sub.add_parser(
        "record", parents=[seeded], help="run a bundled workload under the logger"
    )
    p_record.add_argument("workload", help="workload name (see `sgxperf workloads`)")
    p_record.add_argument("-o", "--output", default="trace.db", help="trace database path")
    p_record.set_defaults(func=_cmd_record)

    p_analyze = sub.add_parser("analyze", help="analyse a recorded trace")
    p_analyze.add_argument("trace", help="trace database path")
    p_analyze.add_argument("--edl", help="enclave EDL file for security analysis")
    p_analyze.add_argument("--rows", type=int, default=20, help="statistics rows to print")
    p_analyze.add_argument(
        "--availability",
        action="store_true",
        help="append the serving-path availability section (serve:*/watchdog:* rows)",
    )
    p_analyze.add_argument(
        "--pressure",
        action="store_true",
        help="append the resource-pressure section "
        "(brownout:*/inject:epc-*/recover:epc-wait rows)",
    )
    p_analyze.add_argument(
        "--chunk-events",
        type=int,
        default=DEFAULT_CHUNK_EVENTS,
        metavar="M",
        help=f"stream the trace in batches of M call rows (default {DEFAULT_CHUNK_EVENTS})",
    )
    p_analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable findings document (sgxperf-findings/1)",
    )
    p_analyze.add_argument(
        "--cluster",
        action="store_true",
        help="treat TRACE as a directory of per-shard cluster traces: merge "
        "their SLO rows and audit gateway session orderliness "
        "(exit 1 on protocol violations)",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_top = sub.add_parser(
        "top",
        parents=[seeded],
        help="run a workload with a live sampling display (virtual time)",
    )
    p_top.add_argument("workload", help="workload name (see `sgxperf workloads`)")
    p_top.add_argument(
        "-o",
        "--output",
        default=":memory:",
        help="also keep the trace database at this path (default: discard)",
    )
    p_top.add_argument(
        "--interval-us",
        type=int,
        default=1_000,
        help="sampling interval in microseconds of virtual time (default 1000)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_stats = sub.add_parser("stats", help="statistics for one call")
    p_stats.add_argument("trace")
    p_stats.add_argument("kind", choices=["ecall", "ocall"])
    p_stats.add_argument("call")
    p_stats.add_argument("--histogram", action="store_true")
    p_stats.add_argument("--bins", type=int, default=100)
    p_stats.add_argument("--scatter", action="store_true")
    p_stats.set_defaults(func=_cmd_stats)

    p_dot = sub.add_parser("dot", help="emit the call graph as Graphviz DOT")
    p_dot.add_argument("trace")
    p_dot.set_defaults(func=_cmd_dot)

    p_salvage = sub.add_parser("salvage", help="recover a crashed recording run's trace")
    p_salvage.add_argument("trace", help="trace database path")
    p_salvage.set_defaults(func=_cmd_salvage)

    p_campaign = sub.add_parser(
        "campaign",
        parents=[single_run],
        help="run one deterministic fault-injection campaign",
    )
    p_campaign.add_argument("--workers", type=int, default=3)
    p_campaign.add_argument("--calls", type=int, default=40, help="calls per worker")
    p_campaign.add_argument(
        "--no-faults", action="store_true", help="run the fault-free baseline"
    )
    p_campaign.set_defaults(func=_cmd_campaign)

    p_netcampaign = sub.add_parser(
        "netcampaign",
        parents=[single_run],
        help="run a networked workload under deterministic chaos "
        "(exit 1 below 99%% success)",
    )
    p_netcampaign.add_argument(
        "--workload",
        choices=NET_WORKLOADS + ("both",),
        default="both",
        help="which serving workload to drive",
    )
    p_netcampaign.add_argument("--requests", type=int, default=120, help="TaLoS GETs")
    p_netcampaign.add_argument(
        "--clients", type=int, default=4, help="SecureKeeper clients"
    )
    p_netcampaign.add_argument(
        "--ops", type=int, default=20, help="SecureKeeper operations per client"
    )
    p_netcampaign.add_argument(
        "--no-chaos", action="store_true", help="run the chaos-off baseline"
    )
    p_netcampaign.set_defaults(func=_cmd_netcampaign)

    p_stressor = sub.add_parser(
        "stressor", parents=[single_run], help="run one SGX stressor profile"
    )
    p_stressor.add_argument("--stressor", choices=STRESSOR_NAMES, default="epc-thrash")
    p_stressor.add_argument("--intensity", type=float, default=1.0)
    p_stressor.add_argument("--ops", type=int, default=30)
    p_stressor.add_argument("--epc-pages", type=int, default=DEFAULT_EPC_PAGES)
    p_stressor.set_defaults(func=_cmd_stressor)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[fanned],
        help="fan a grid of seeded runs across a shared-nothing process pool",
    )
    p_sweep.add_argument(
        "kind", nargs="?", choices=TASK_KINDS, help="task kind (omit when using --spec)"
    )
    p_sweep.add_argument("--spec", help="JSON sweep spec file ('-' reads stdin)")
    p_sweep.add_argument(
        "--seeds", default="0", help="seed list: '0-15', '0,3,7' or a single seed"
    )
    p_sweep.add_argument(
        "--set",
        action="append",
        dest="params",
        default=[],
        metavar="NAME=VALUE",
        help="fixed parameter applied to every task (repeatable)",
    )
    p_sweep.add_argument(
        "--axis",
        action="append",
        dest="axes",
        default=[],
        metavar="NAME=V1,V2,...",
        help="grid axis swept over the given values (repeatable)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_optimize = sub.add_parser(
        "optimize",
        parents=[seeded],
        help="build an interface-optimization plan from analyser findings "
        "(fused calls, switchless calls, ocall batching)",
    )
    p_optimize.add_argument(
        "target",
        help="trace database to plan from, or a workload name with --rerun",
    )
    p_optimize.add_argument(
        "--rerun",
        action="store_true",
        help="record a baseline of TARGET (a workload name), build the plan, "
        "replay the same load on the optimized interface and print the "
        "before/after report",
    )
    p_optimize.add_argument(
        "--requests", type=int, default=400, help="requests per run (--rerun)"
    )
    p_optimize.add_argument(
        "--edl", help="enclave EDL file (enables --apply and result-model checks)"
    )
    p_optimize.add_argument(
        "--workload",
        help="workload whose bundled interface definition to use (sqlite)",
    )
    p_optimize.add_argument(
        "--apply",
        action="store_true",
        help="also print the rewritten EDL with the plan's declarations added",
    )
    p_optimize.add_argument("--plan-out", help="write the plan JSON to this path")
    p_optimize.add_argument(
        "--json", action="store_true", help="emit the plan/report as JSON"
    )
    p_optimize.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero unless the rerun speedup reaches this factor",
    )
    p_optimize.add_argument(
        "--workdir", help="keep the baseline/optimized traces in this directory"
    )
    p_optimize.set_defaults(func=_cmd_optimize)

    p_cluster = sub.add_parser(
        "cluster",
        parents=[seeded, fanned],
        help="run a sharded multi-enclave serving cluster and report SLOs",
    )
    p_cluster.add_argument("--spec", help="JSON cluster spec file ('-' reads stdin)")
    p_cluster.add_argument(
        "--variant",
        choices=VARIANTS,
        default="securekeeper",
        help="enclave serving stack each node runs",
    )
    p_cluster.add_argument("--nodes", type=int, default=4, help="node count")
    p_cluster.add_argument(
        "--clients", type=int, default=10_000, help="simulated open-loop clients"
    )
    p_cluster.add_argument(
        "--ops", dest="ops_per_client", type=int, default=2, help="operations per client"
    )
    p_cluster.add_argument("--policy", choices=POLICIES, default="hash", help="router policy")
    p_cluster.add_argument(
        "--rate",
        dest="rate_rps",
        type=float,
        default=0.0,
        help="cluster-wide arrival rate in requests/s (0 = per-variant default)",
    )
    p_cluster.add_argument(
        "--mux", dest="mux_connections", type=int, default=4, help="gateway connections per node"
    )
    p_cluster.add_argument(
        "--batch", dest="batch_size", type=int, default=8, help="max requests per batched send"
    )
    p_cluster.add_argument(
        "--no-chaos", dest="chaos", action="store_false", help="run the chaos-off baseline"
    )
    p_cluster.add_argument(
        "--kill-node",
        type=int,
        default=-1,
        help="node lost mid-run under chaos (-1 = last node; needs >= 2 nodes)",
    )
    p_cluster.add_argument(
        "--kill-count",
        type=int,
        default=1,
        help="correlated kill: lose this many nodes in the same window",
    )
    p_cluster.add_argument(
        "--flaps",
        type=int,
        default=0,
        help="split the kill window into N down pulses (flapping node)",
    )
    p_cluster.add_argument(
        "--asym",
        action="store_true",
        help="asymmetric kill: requests reach the node but replies stall",
    )
    p_cluster.add_argument(
        "--slow-nodes",
        type=int,
        default=0,
        help="gray failure: this many nodes drag through their slow window",
    )
    p_cluster.add_argument(
        "--replication",
        type=int,
        default=2,
        help="replication factor R: copies of every write across the ring",
    )
    p_cluster.add_argument(
        "--stressor",
        default="",
        help="noisy-neighbour stressor profile every node hosts "
        "(cpu-spin, epc-thrash, ocall-storm, futex-hammer, mixed; '' = none)",
    )
    p_cluster.add_argument(
        "--stressor-intensity",
        type=float,
        default=1.0,
        help="stressor scaling factor (footprint, op mix, threads)",
    )
    p_cluster.add_argument(
        "--epc-pages",
        type=int,
        default=0,
        help="scaled-down per-node EPC in pages (0 = the full hardware pool)",
    )
    p_cluster.add_argument(
        "--no-brownout",
        dest="brownout",
        action="store_false",
        help="ablation: disable the gateway brownout controller "
        "(cliff-edge admission only)",
    )
    p_cluster.add_argument(
        "--write-slo",
        type=float,
        default=None,
        help="high-priority gate: exit 1 if client-write availability "
        "falls below this floor",
    )
    p_cluster.add_argument(
        "--slo",
        type=float,
        default=0.99,
        help="availability floor: exit 1 below this success rate (default 0.99)",
    )
    p_cluster.add_argument(
        "--max-lost",
        type=int,
        default=None,
        metavar="N",
        help="durability gate: exit 1 if more than N acknowledged writes "
        "were lost (the CI zero-loss gate passes 0)",
    )
    p_cluster.set_defaults(func=_cmd_cluster)

    p_list = sub.add_parser("workloads", help="list recordable workloads")
    p_list.set_defaults(func=_cmd_workloads)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point for the ``sgxperf`` console script."""
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
    except BrokenPipeError:
        # The reader went away (``sgxperf analyze t.db | head -1``).  Point
        # stdout at /dev/null so the interpreter's exit-time flush cannot
        # raise again, and exit as a SIGPIPE-killed process would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except _INPUT_ERRORS as exc:
        print(f"sgxperf {args.command}: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())

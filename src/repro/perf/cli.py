"""Command-line interface: ``sgxperf``.

Subcommands:

* ``record``  — run one of the bundled workloads under the event logger and
  write the trace database (the moral equivalent of
  ``LD_PRELOAD=liblogger.so ./app``);
* ``analyze`` — produce the full report for a trace (optionally with the
  enclave's EDL file for allow-list narrowing); the analyser streams the
  trace in batches of ``--chunk-events M`` rows and shards it by thread
  across ``--jobs N`` worker processes, with a byte-identical report for
  any ``M`` and ``N``;
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
* ``sweep``   — fan a declarative grid of seeded campaign/netcampaign runs
  across a shared-nothing process pool and print the deterministically
  merged report (``--jobs N``, default cpu count / ``SGXPERF_JOBS``);
* ``cluster`` — run a sharded multi-enclave serving cluster (router,
  gateway batching, open-loop load, optional node-loss chaos) with one
  shard per worker process and print the merged per-node + cluster-wide
  SLO report;
* ``workloads`` — list recordable workloads.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import Callable, Optional

from repro.perf.analysis import Analyzer
from repro.perf.analysis import stats as stats_mod
from repro.perf.database import DEFAULT_CHUNK_EVENTS, TraceDatabase
from repro.sdk.edl import parse_edl


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

    from repro.cluster.orderly import render_orderliness, validate_trace_paths
    from repro.cluster.slo import cluster_slo_from_traces, render_trace_slo

    paths = sorted(glob.glob(os.path.join(args.trace, "*.db")))
    if not paths:
        print(f"no shard traces (*.db) under {args.trace}", file=sys.stderr)
        return 2
    print(
        f"merging {len(paths)} shard trace(s) under {args.trace}", file=sys.stderr
    )
    print(render_trace_slo(cluster_slo_from_traces(paths)))
    violations, totals = validate_trace_paths(paths)
    print()
    print(render_orderliness(violations, totals))
    return 1 if violations else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.cluster:
        return _cmd_analyze_cluster(args)
    if _missing_trace(args.trace):
        return 2
    definition = None
    if args.edl:
        with open(args.edl) as f:
            definition = parse_edl(f.read())
    with TraceDatabase(args.trace) as db:
        counts = db.table_counts()
        total = sum(counts.values())
        print(
            f"analyzing {args.trace}: {counts['calls']} calls, "
            f"{counts['paging']} paging, {counts['sync']} sync, "
            f"{counts['faults']} fault rows ({total} events total), "
            f"jobs={args.jobs}, chunk-events={args.chunk_events}",
            file=sys.stderr,
        )
        report = Analyzer(
            db, definition=definition, chunk_events=args.chunk_events, jobs=args.jobs
        ).run()
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
    with TraceDatabase(args.trace) as db:
        events = db.calls(kind=args.kind, name=args.call)
        if not events:
            print(f"no events for {args.kind} {args.call!r}", file=sys.stderr)
            return 1
        stat = stats_mod.compute_statistics(args.kind, args.call, events)
        print(
            f"{stat.kind} {stat.name}: n={stat.count} mean={stat.mean_ns:.0f}ns "
            f"median={stat.median_ns:.0f}ns std={stat.std_ns:.0f}ns "
            f"p90={stat.p90_ns:.0f}ns p95={stat.p95_ns:.0f}ns p99={stat.p99_ns:.0f}ns"
        )
        if args.histogram:
            print(stats_mod.histogram(events, bins=args.bins).render())
        if args.scatter:
            starts, durations = stats_mod.scatter_series(events)
            for s, d in zip(starts, durations):
                print(f"{s} {d}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    if _missing_trace(args.trace):
        return 2
    with TraceDatabase(args.trace) as db:
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
    import json

    if args.spec:
        if args.spec == "-":
            spec = json.load(sys.stdin)
        else:
            with open(args.spec) as f:
                spec = json.load(f)
    else:
        if not args.kind:
            raise SystemExit(
                "sweep: pass a task kind "
                "(campaign|clusternode|netcampaign|optimizer|selftest|stressor) "
                "or --spec"
            )
        spec = {"kind": args.kind, "seeds": args.seeds, "params": {}, "grid": {}}
        for item in args.params:
            name, eq, value = item.partition("=")
            if not eq:
                raise SystemExit(f"sweep: --set needs NAME=VALUE, got {item!r}")
            spec["params"][name] = _sweep_value(value)
        for item in args.axes:
            name, eq, values = item.partition("=")
            if not eq:
                raise SystemExit(f"sweep: --axis needs NAME=V1,V2,..., got {item!r}")
            spec["grid"][name] = [_sweep_value(v) for v in values.split(",") if v.strip()]
    if args.trace_dir:
        import os

        os.makedirs(args.trace_dir, exist_ok=True)
        spec.setdefault("params", {})["trace_dir"] = args.trace_dir
    return spec


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import run_sweep

    report = run_sweep(spec=_sweep_spec(args), jobs=args.jobs, retries=args.retries)
    if args.manifest:
        with open(args.manifest, "w") as f:
            f.write(report.manifest)
    if args.digest_only:
        print(report.digest)
    else:
        print(report.render_report())
        print(f"wall-clock: {report.wall_seconds:.2f}s with jobs={report.jobs}")
    return 0 if report.failed == 0 and report.lost == 0 else 1


def _optimize_definition(args: argparse.Namespace):
    """The declared interface for plan building / rewriting, if known."""
    if args.edl:
        with open(args.edl) as f:
            return parse_edl(f.read())
    if args.workload == "sqlite":
        from repro.workloads.minisql.enclavised import sqlite_definition

        return sqlite_definition()
    return None


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.optimizer import build_plan, run_rerun
    from repro.optimizer.rerun import RERUN_WORKLOADS

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
    definition = _optimize_definition(args)
    with TraceDatabase(args.target) as db:
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


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.runner import run_cluster_command

    return run_cluster_command(args)


def build_parser() -> argparse.ArgumentParser:
    """The ``sgxperf`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="sgxperf",
        description="Performance analysis for (simulated) Intel SGX enclaves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="run a bundled workload under the logger")
    p_record.add_argument("workload", help="workload name (see `sgxperf workloads`)")
    p_record.add_argument("-o", "--output", default="trace.db", help="trace database path")
    p_record.add_argument("--seed", type=int, default=0, help="simulation seed")
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
        "--jobs",
        type=int,
        default=1,
        help="shard the analysis by thread across N worker processes",
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
        "top", help="run a workload with a live sampling display (virtual time)"
    )
    p_top.add_argument("workload", help="workload name (see `sgxperf workloads`)")
    p_top.add_argument(
        "-o",
        "--output",
        default=":memory:",
        help="also keep the trace database at this path (default: discard)",
    )
    p_top.add_argument("--seed", type=int, default=0, help="simulation seed")
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

    p_sweep = sub.add_parser(
        "sweep", help="fan a grid of seeded runs across a shared-nothing process pool"
    )
    p_sweep.add_argument(
        "kind",
        nargs="?",
        choices=[
            "campaign",
            "clusternode",
            "netcampaign",
            "optimizer",
            "selftest",
            "stressor",
        ],
        help="task kind (omit when using --spec)",
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
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: SGXPERF_JOBS, else cpu count; 0 = inline)",
    )
    p_sweep.add_argument(
        "--retries", type=int, default=1, help="bounded retries for crashed workers"
    )
    p_sweep.add_argument("--trace-dir", help="keep per-task trace databases in this directory")
    p_sweep.add_argument("--manifest", help="write the merged manifest to this path")
    p_sweep.add_argument(
        "--digest-only",
        action="store_true",
        help="print only the manifest digest (the CI determinism gate)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_optimize = sub.add_parser(
        "optimize",
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
    p_optimize.add_argument("--seed", type=int, default=0, help="simulation seed")
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
        help="run a sharded multi-enclave serving cluster and report SLOs",
    )
    from repro.cluster.runner import add_cluster_arguments

    add_cluster_arguments(p_cluster)
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
    return status


if __name__ == "__main__":
    raise SystemExit(main())

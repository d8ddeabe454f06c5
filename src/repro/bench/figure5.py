"""Figure 5 + §5.2.1: the TaLoS+nginx call graph and interface statistics.

Reproduces: the enclave interface of 207 ecalls / 61 ocalls of which 61
and 10 are exercised; ≈27,631 ecall and ≈28,969 ocall events per 1000
requests (≈27.6 / ≈29.0 per request); 60.78 % of ecalls and 73.69 % of
ocalls shorter than 10 µs; and the per-request call-graph edges (ERR_*
polling around SSL_read, the read/write ocalls, the handshake chain)
rendered as Graphviz DOT like the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.analysis import callgraph as cg
from repro.perf.analysis import stats as stats_mod
from repro.perf.analysis.report import Analyzer
from repro.perf.logger import AexMode, EventLogger
from repro.sgx.device import SgxDevice
from repro.sim.process import SimProcess
from repro.workloads.talos.api import TOTAL_ECALLS, TOTAL_OCALLS
from repro.workloads.talos.app import TalosApp
from repro.workloads.talos.workload import run_talos_nginx


@dataclass
class Figure5Result:
    """Interface statistics plus the call graph."""

    requests: int
    interface_ecalls: int
    interface_ocalls: int
    distinct_ecalls_called: int
    distinct_ocalls_called: int
    ecall_events: int
    ocall_events: int
    ecall_short_fraction: float
    ocall_short_fraction: float
    top_edges: list[tuple[str, str, int]]
    dot: str

    def render(self) -> str:
        per_req_e = self.ecall_events / self.requests
        per_req_o = self.ocall_events / self.requests
        lines = [
            "Figure 5 / SS5.2.1 - TaLoS + nginx (paper values in parentheses)",
            f"interface: {self.interface_ecalls} ecalls (207), "
            f"{self.interface_ocalls} ocalls (61)",
            f"called: {self.distinct_ecalls_called} ecalls (61), "
            f"{self.distinct_ocalls_called} ocalls (10)",
            f"events: {self.ecall_events} ecalls -> {per_req_e:.1f}/req (27.6), "
            f"{self.ocall_events} ocalls -> {per_req_o:.1f}/req (29.0)",
            f"short (<10us): ecalls {self.ecall_short_fraction:.2%} (60.78%), "
            f"ocalls {self.ocall_short_fraction:.2%} (73.69%)",
            "top direct-parent edges (parent -> child: count):",
        ]
        for parent, child, count in self.top_edges[:12]:
            lines.append(f"  {parent} -> {child}: {count}")
        return "\n".join(lines)


def run_figure5(requests: int = 250, seed: int = 0) -> Figure5Result:
    """Trace a TaLoS+nginx run and build the Figure 5 call graph."""
    process = SimProcess(seed=seed)
    device = SgxDevice(process.sim)
    app = TalosApp(process, device)
    logger = EventLogger(process, app.urts, aex_mode=AexMode.OFF, trace_paging=False)
    logger.install()
    run_talos_nginx(requests=requests, process=process, device=device, app=app)
    logger.uninstall()
    db = logger.finalize()
    ecalls = db.call_columns(kind="ecall")
    ocalls = db.call_columns(kind="ocall")
    graph = Analyzer(db).call_graph()
    # Busiest first; ties by the parent's first appearance, then child name.
    rank = {key: i for i, key in enumerate(graph.nodes)}
    edges = [
        (graph.nodes[src]["name"], graph.nodes[dst]["name"], count)
        for src, dst, relation, count in sorted(
            graph.edges, key=lambda e: (-e[3], rank[e[0]], e[1])
        )
        if relation == cg.DIRECT
    ]
    return Figure5Result(
        requests=requests,
        interface_ecalls=TOTAL_ECALLS,
        interface_ocalls=TOTAL_OCALLS,
        # Within one kind each call site is one name.
        distinct_ecalls_called=len(np.unique(ecalls.site)),
        distinct_ocalls_called=len(np.unique(ocalls.site)),
        ecall_events=len(ecalls),
        ocall_events=len(ocalls),
        ecall_short_fraction=stats_mod.fraction_shorter_than(ecalls.duration_ns(), 10_000),
        ocall_short_fraction=stats_mod.fraction_shorter_than(ocalls.duration_ns(), 10_000),
        top_edges=edges,
        dot=cg.to_dot(graph),
    )

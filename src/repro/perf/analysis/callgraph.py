"""Call graphs of ecall/ocall dependencies (paper §4.3.1, Figure 5).

Nodes are calls ("[id] name", square for ecalls, round for ocalls); solid
edges connect direct parents to children, dashed edges connect indirect
parents; edge labels carry call counts.

The call fold (:meth:`~repro.perf.analysis.streaming.CallFold.call_graph`)
aggregates per-event parent relations into the name-level graph; this
module names the edge relations and renders the graph.
"""

from __future__ import annotations

import networkx as nx

from repro.perf.events import ECALL

DIRECT = "direct"
INDIRECT = "indirect"


def to_dot(graph: nx.MultiDiGraph) -> str:
    """Render the call graph as Graphviz DOT, in the paper's style.

    Square nodes are ecalls, round nodes are ocalls; solid arrows are
    direct-parent edges, dashed arrows indirect-parent edges; numbers on
    edges are call counts, numbers in node brackets are call identifiers.
    """
    lines = ["digraph enclave_calls {", "    rankdir=TB;"]
    ids = {key: i for i, key in enumerate(sorted(graph.nodes))}
    for key in sorted(graph.nodes):
        data = graph.nodes[key]
        shape = "box" if data["kind"] == ECALL else "ellipse"
        label = f"[{data['call_index']}] {data['name']}"
        lines.append(f'    n{ids[key]} [shape={shape}, label="{label}"];')
    for src, dst, edge_key, data in sorted(graph.edges(keys=True, data=True)):
        style = "solid" if data["relation"] == DIRECT else "dashed"
        lines.append(
            f'    n{ids[src]} -> n{ids[dst]} '
            f'[style={style}, label="{data["count"]}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def edge_counts(graph: nx.MultiDiGraph, relation: str = DIRECT) -> dict[tuple[str, str], int]:
    """(parent name, child name) → count for one relation kind."""
    result: dict[tuple[str, str], int] = {}
    for src, dst, edge_key, data in graph.edges(keys=True, data=True):
        if data["relation"] == relation:
            src_name = graph.nodes[src]["name"]
            dst_name = graph.nodes[dst]["name"]
            result[(src_name, dst_name)] = data["count"]
    return result

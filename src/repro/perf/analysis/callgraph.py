"""Call graphs of ecall/ocall dependencies (paper §4.3.1, Figure 5).

Nodes are calls ("[id] name", square for ecalls, round for ocalls); solid
edges connect direct parents to children, dashed edges connect indirect
parents; edge labels carry call counts.

The call fold (:meth:`~repro.perf.analysis.streaming.CallFold.call_graph`)
aggregates per-event parent relations into a name-level
:class:`CallGraph`; this module names the edge relations and renders the
graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.events import ECALL

DIRECT = "direct"
INDIRECT = "indirect"


@dataclass
class CallGraph:
    """A name-level call graph as plain node and edge tables.

    ``nodes`` maps ``kind:name`` to the call's attributes (``name``,
    ``kind``, ``call_index``, ``count``) in first-appearance order;
    ``edges`` holds ``(src, dst, relation, count)`` tuples, at most one
    per ``(src, dst, relation)``.
    """

    nodes: dict[str, dict] = field(default_factory=dict)
    edges: list[tuple[str, str, str, int]] = field(default_factory=list)


def to_dot(graph: CallGraph) -> str:
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
    for src, dst, relation, count in sorted(graph.edges):
        style = "solid" if relation == DIRECT else "dashed"
        lines.append(f'    n{ids[src]} -> n{ids[dst]} [style={style}, label="{count}"];')
    lines.append("}")
    return "\n".join(lines)


def edge_counts(graph: CallGraph, relation: str = DIRECT) -> dict[tuple[str, str], int]:
    """(parent name, child name) → count for one relation kind."""
    nodes = graph.nodes
    return {
        (nodes[src]["name"], nodes[dst]["name"]): count
        for src, dst, kind, count in graph.edges
        if kind == relation
    }

"""Textual and DOT renderings of task graphs.

The Hercules task window (Fig. 9) visualizes a flow as a graph of entity
icons.  :func:`ascii_graph` is the scriptable equivalent: a layered,
deterministic, line-oriented rendering used by the UI, the examples and
the figure benchmarks.  :func:`to_dot` emits Graphviz for anyone who wants
the pictures.
"""

from __future__ import annotations

from ..dag import longest
from .taskgraph import TaskGraph


def _node_caption(flow: TaskGraph, node_id: str) -> str:
    node = flow.node(node_id)
    caption = f"{node.entity_type}[{node.node_id}]"
    if node.label:
        caption += f" '{node.label}'"
    if node.is_specialized:
        caption += f" (was {node.original_type})"
    if node.bindings:
        caption += " <= {" + ", ".join(node.bindings) + "}"
    if node.produced:
        caption += " => {" + ", ".join(node.produced) + "}"
    return caption


def layers(flow: TaskGraph) -> tuple[tuple[str, ...], ...]:
    """Nodes grouped by longest-path depth from the leaves.

    Layer 0 holds the leaves (external inputs); the goal entities land in
    the deepest layers.  Within a layer, node ids are sorted for
    deterministic output.
    """
    suppliers = {node_id: [e.supplier for e in flow.suppliers(node_id)]
                 for node_id in flow.node_ids()}
    depth = longest(flow.topological_order(), suppliers.__getitem__,
                    lambda node_id: 1 if suppliers[node_id] else 0)
    grouped: dict[int, list[str]] = {}
    for node_id, (level, _) in depth.items():
        grouped.setdefault(level, []).append(node_id)
    return tuple(tuple(sorted(grouped[level]))
                 for level in sorted(grouped))


def ascii_graph(flow: TaskGraph, title: str | None = None) -> str:
    """Deterministic multi-line rendering of a task graph."""
    lines = [f"task graph: {title or flow.name}"]
    for level, node_ids in enumerate(layers(flow)):
        lines.append(f"  layer {level}:")
        for node_id in node_ids:
            lines.append(f"    {_node_caption(flow, node_id)}")
            for edge in sorted(flow.suppliers(node_id),
                               key=lambda e: (e.kind.value, e.role)):
                label = "f" if edge.is_functional else (
                    "d?" if edge.optional else "d")
                lines.append(
                    f"      --{label}:{edge.role}--> "
                    f"{_node_caption(flow, edge.supplier)}")
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)


def to_dot(flow: TaskGraph, title: str | None = None) -> str:
    """Graphviz DOT rendering (tools as ellipses, data as boxes)."""
    out = [f'digraph "{title or flow.name}" {{', "  rankdir=BT;"]
    for node in sorted(flow.nodes(), key=lambda n: n.node_id):
        entity = flow.schema.entity(node.entity_type)
        shape = "ellipse" if entity.is_tool else "box"
        label = node.entity_type
        if node.label:
            label += f"\\n{node.label}"
        out.append(f'  {node.node_id} [shape={shape}, label="{label}"];')
    for edge in sorted(flow.edges(),
                       key=lambda e: (e.consumer, e.supplier, e.role)):
        style = "dashed" if edge.optional else "solid"
        tag = "f" if edge.is_functional else "d"
        out.append(
            f'  {edge.consumer} -> {edge.supplier} '
            f'[label="{tag}:{edge.role}", style={style}];')
    out.append("}")
    return "\n".join(out)


def schema_to_dot(schema, title: str | None = None) -> str:
    """DOT rendering of a task schema itself (as in Fig. 1)."""
    out = [f'digraph "{title or schema.name}" {{', "  rankdir=BT;"]
    for entity in sorted(schema.entities(), key=lambda e: e.name):
        shape = "ellipse" if entity.is_tool else "box"
        style = ', style="rounded,dashed"' if entity.composed else ""
        out.append(f'  "{entity.name}" [shape={shape}{style}];')
        if entity.parent is not None:
            out.append(f'  "{entity.name}" -> "{entity.parent}" '
                       f'[label="isa", style=dotted, arrowhead=empty];')
    for dep in schema.dependencies():
        style = "dashed" if dep.optional else "solid"
        tag = "f" if dep.is_functional else "d"
        out.append(f'  "{dep.source}" -> "{dep.target}" '
                   f'[label="{tag}", style={style}];')
    out.append("}")
    return "\n".join(out)

"""Functional (Lisp-style) rendering of a flow — paper footnote 2.

*"Our representation of a flow is analogous to the Lisp representation of
a function, whereas a traditional flowmap is analogous to the C or Pascal
representation.  For example, we may write Fig. 3(a) as::

    placement <- placer(circuit_editor(circuit), placement_spec)

whereas Fig. 3(b) may be written as::

    placement <- (placer, (circuit_editor, circuit), placement_spec)

We are treating the tool as just another parameter."*

:func:`to_lisp` produces the second form, :func:`to_call` the first.
Names are the snake_cased entity types, or the node label when one is
set (as instance names appear inside icons in Fig. 10).
"""

from __future__ import annotations

import re
from typing import Callable

from .. import dag
from .taskgraph import TaskGraph


def snake_case(name: str) -> str:
    """``ExtractedNetlist`` -> ``extracted_netlist``."""
    step = re.sub(r"(.)([A-Z][a-z]+)", r"\1_\2", name)
    return re.sub(r"([a-z0-9])([A-Z])", r"\1_\2", step).lower()


def _atom(flow: TaskGraph, node_id: str) -> str:
    node = flow.node(node_id)
    if node.label:
        raw = snake_case(re.sub(r"\s+", "_", node.label.strip()))
        return re.sub(r"__+", "_", raw)
    return snake_case(node.entity_type)


def _ordered_inputs(flow: TaskGraph, node_id: str) -> list[str]:
    """Suppliers of a node in schema role order (stable rendering)."""
    by_role = flow.data_suppliers(node_id)
    construction = flow.schema.construction(flow.node(node_id).entity_type)
    ordered: list[str] = []
    if construction is not None:
        for dep in construction.inputs:
            if dep.role in by_role:
                ordered.append(by_role[dep.role])
    for role in sorted(by_role):
        if by_role[role] not in ordered:
            ordered.append(by_role[role])
    return ordered


def _render(flow: TaskGraph, node_id: str,
            form: Callable[[str, dict[str, str]], str]) -> str:
    """Render bottom-up: ``form`` builds each node's text from the texts
    of its suppliers, which :func:`repro.dag.topological` has already
    rendered, so no chain is too deep."""
    def before(current: str) -> list[str]:
        if not flow.is_expanded(current):
            return []
        tool = flow.functional_supplier(current)
        return ([] if tool is None else [tool]) \
            + _ordered_inputs(flow, current)

    texts: dict[str, str] = {}
    for current in dag.topological([node_id], before):
        texts[current] = (form(current, texts)
                          if flow.is_expanded(current)
                          else _atom(flow, current))
    return texts[node_id]


def to_lisp(flow: TaskGraph, node_id: str) -> str:
    """Lisp form: the tool is just another parameter."""
    def form(current: str, texts: dict[str, str]) -> str:
        tool = flow.functional_supplier(current)
        parts = [] if tool is None else [texts[tool]]
        parts.extend(texts[supplier]
                     for supplier in _ordered_inputs(flow, current))
        return "(" + ", ".join(parts) + ")"

    return _render(flow, node_id, form)


def to_call(flow: TaskGraph, node_id: str) -> str:
    """C/Pascal-style call form: ``tool(arg, ...)``."""
    def form(current: str, texts: dict[str, str]) -> str:
        tool = flow.functional_supplier(current)
        args = ", ".join(texts[supplier]
                         for supplier in _ordered_inputs(flow, current))
        if tool is None:
            return f"compose_{_atom(flow, current)}({args})"
        return f"{texts[tool]}({args})"

    return _render(flow, node_id, form)


def flow_equation(flow: TaskGraph, node_id: str,
                  style: str = "lisp") -> str:
    """Full equation ``goal <- body`` in the requested style."""
    body = to_lisp(flow, node_id) if style == "lisp" \
        else to_call(flow, node_id)
    return f"{_atom(flow, node_id)} <- {body}"

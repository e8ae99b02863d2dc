"""The walks over dependency DAGs, written once for every layer.

Schemas, task graphs, invocation graphs, trace spans and the design
history are all DAGs.  Each caller names a node's ``before`` nodes
(suppliers, antecedents or predecessors).  Every walk is iterative, so
no chain is too deep for it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from .errors import ReproError

Before = Callable[[Any], Iterable[Any]]


class CycleError(ReproError):
    """A dependency cycle; ``path`` runs from a node back to itself."""

    def __init__(self, path: list) -> None:
        super().__init__("dependency cycle: " + " -> ".join(map(str, path)))
        self.path = path


def topological(nodes: Iterable[Any], before: Before) -> list:
    """Each node reached from ``nodes``, after its ``before`` nodes: the
    post-order of a depth-first walk that takes ``nodes`` and each
    ``before`` in their own order.  A cycle raises :class:`CycleError`.
    """
    order: list = []
    done: dict[Any, bool] = {}  # False while the node is on the path
    path: list = []  # walks[i + 1] iterates before(path[i])
    walks = [iter(nodes)]
    while walks:
        for node in walks[-1]:
            if node not in done:
                done[node] = False
                path.append(node)
                walks.append(iter(before(node)))
                break
            if not done[node]:
                start = path.index(node)
                raise CycleError(path[start:] + [node])
        else:
            walks.pop()
            if path:
                node = path.pop()
                done[node] = True
                order.append(node)
    return order


def longest(
    order: Iterable[Any], before: Before, weight: Callable[[Any], float]
) -> dict[Any, tuple[float, Any]]:
    """``node -> (length, via)`` over a topological ``order``: the node's
    weight (never negative) plus the heaviest chain ending at one of its
    ``before`` nodes, and the first of them ending such a chain (``None``
    when that chain weighs 0).
    """
    chains: dict[Any, tuple[float, Any]] = {}
    for node in order:
        best, via = 0, None
        for prior in before(node):
            if chains[prior][0] > best:
                best, via = chains[prior][0], prior
        chains[node] = (weight(node) + best, via)
    return chains


def reachable(start: Any, step: Before) -> set:
    """``start`` and every node reached from it through ``step``."""
    seen = {start}
    frontier = [start]
    while frontier:
        for node in step(frontier.pop()):
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return seen


def reaches(start: Any, goal: Any, step: Before, back: Before) -> bool:
    """Whether ``goal`` is ``start`` or is reached from it through
    ``step``; ``back`` is ``step`` reversed.  The walk forward from
    ``start`` and the walk back from ``goal`` take one node each in
    turn, and the search ends as soon as they meet or either walk is
    used up, so it costs about twice the smaller of the two walks.
    """
    if start == goal:
        return True
    seen = ({start}, {goal})
    frontiers = ([start], [goal])
    steps = (step, back)
    side = 0
    while frontiers[0] and frontiers[1]:
        for node in steps[side](frontiers[side].pop()):
            if node in seen[1 - side]:
                return True
            if node not in seen[side]:
                seen[side].add(node)
                frontiers[side].append(node)
        side = 1 - side
    return False


def dependencies(
    outputs: Sequence[Iterable], inputs: Sequence[Iterable]
) -> tuple[list[list[int]], list[list[int]]]:
    """Sorted predecessor and successor indexes of items ``0..n-1``:
    item ``i`` produces ``outputs[i]`` and follows the last other item
    that produces something in ``inputs[i]``.
    """
    producer = {key: i for i, keys in enumerate(outputs) for key in keys}
    preds = [
        sorted({producer[key] for key in keys if key in producer} - {index})
        for index, keys in enumerate(inputs)
    ]
    succs: list[list[int]] = [[] for _ in preds]
    for index, sources in enumerate(preds):
        for source in sources:
            succs[source].append(index)
    return preds, succs

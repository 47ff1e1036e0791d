"""Tiny graph helpers shared by the delay analysis and its oracle."""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Mapping, TypeVar

N = TypeVar("N", bound=Hashable)


def cyclic_nodes(adjacency: Mapping[N, Iterable[N]]) -> set[N]:
    """Nodes lying on some directed cycle (i.e. reachable from themselves).

    Quadratic in the node count: one breadth-first search per node.  An
    ambiguity graph has at most two nodes per proper suffix of a code word,
    but the delay probe passes its whole automaton, up to its 200k-state cap
    (a 56-word suffix code already gives 4,987 states), and then this
    dominates the probe.
    """
    out: set[N] = set()
    for node in adjacency:
        queue = deque(adjacency.get(node, ()))
        seen = set(queue)
        found = node in seen
        while queue and not found:
            cur = queue.popleft()
            for nxt in adjacency.get(cur, ()):
                if nxt == node:
                    found = True
                    break
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if found:
            out.add(node)
    return out


def topological_order(adjacency: Mapping[N, Iterable[N]]) -> list[N]:
    """Topological order of an acyclic adjacency map (callers check acyclicity)."""
    indegree: dict[N, int] = {node: 0 for node in adjacency}
    for node, nexts in adjacency.items():
        for nxt in nexts:
            indegree[nxt] = indegree.get(nxt, 0) + 1
            indegree.setdefault(node, 0)
    ready = deque(sorted((n for n, d in indegree.items() if d == 0), key=repr))
    order: list[N] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for nxt in adjacency.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if len(order) != len(indegree):
        raise ValueError("graph has a cycle")
    return order

"""Tiny graph helpers: the delay analysis reads an ambiguity graph's cycle
set off cyclic_nodes for its infinite-delay witness, and topological_order
serves only the tests and the benchmark's tracer.  Each answer comes off
one pass of Tarjan's strongly-connected-components algorithm: linear, and
on an explicit stack, since an ambiguity graph can be deeper than Python's
recursion limit.  The delay probe, the analysis' oracle, finds its cycles
in its own walk and uses none of this."""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional, TypeVar

N = TypeVar("N", bound=Hashable)


def _components(adjacency: Mapping[N, Iterable[N]]) -> list[list[N]]:
    """Strongly connected components, each listed after every component it
    reaches.  Nodes that appear only as edge targets count."""
    index: dict[N, int] = {}
    low: dict[N, int] = {}  # exactly the nodes still on `stack`
    stack: list[N] = []
    components: list[list[N]] = []
    for root in adjacency:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        work = [(root, iter(adjacency.get(root, ())), len(stack))]
        stack.append(root)
        while work:
            node, successors, height = work[-1]
            for nxt in successors:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    work.append((nxt, iter(adjacency.get(nxt, ())), len(stack)))
                    stack.append(nxt)
                    break
                if nxt in low:
                    low[node] = min(low[node], low[nxt])
            else:
                work.pop()
                if low[node] == index[node]:
                    components.append(stack[height:])
                    del stack[height:]
                    for member in components[-1]:
                        del low[member]
                else:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return components


def cyclic_nodes(adjacency: Mapping[N, Iterable[N]]) -> set[N]:
    """Nodes lying on some directed cycle (i.e. reachable from themselves)."""
    return {
        node
        for component in _components(adjacency)
        if len(component) > 1 or component[0] in adjacency.get(component[0], ())
        for node in component
    }


def topological_order(adjacency: Mapping[N, Iterable[N]]) -> Optional[list[N]]:
    """Every node once, each before its successors; None if there is a cycle."""
    components = _components(adjacency)
    if any(len(c) > 1 or c[0] in adjacency.get(c[0], ()) for c in components):
        return None
    return [component[0] for component in reversed(components)]

"""The graph helpers against a brute-force transitive closure.

The delay analysis reads the cycle set of an ambiguity graph from
`cyclic_nodes` to build its infinite-delay witness; the bounded delay probe
finds its cycles in its own walk and uses neither helper.  This module
checks both helpers directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from udcodes._graph import cyclic_nodes, topological_order

# keys are drawn from the same 8 labels as the targets, so graphs have
# self-loops, and nodes that appear only as edge targets
digraphs = st.dictionaries(
    st.integers(0, 7), st.lists(st.integers(0, 7), max_size=8), max_size=8
)


def nodes_and_cycles(adjacency):
    """Every node, and the nodes reachable from themselves, by closure."""
    nodes = set(adjacency) | {v for targets in adjacency.values() for v in targets}
    reach = {u: set(adjacency.get(u, ())) for u in nodes}
    changed = True
    while changed:
        changed = False
        for u in nodes:
            extended = reach[u].union(*(reach[v] for v in reach[u]))
            if extended != reach[u]:
                reach[u] = extended
                changed = True
    return nodes, {u for u in nodes if u in reach[u]}


@settings(max_examples=500, deadline=None)
@given(digraphs)
def test_graph_helpers_match_transitive_closure(adjacency):
    nodes, cyclic = nodes_and_cycles(adjacency)
    assert cyclic_nodes(adjacency) == cyclic
    order = topological_order(adjacency)
    assert (order is None) == bool(cyclic)
    if order is not None:
        assert sorted(order) == sorted(nodes)
        position = {node: k for k, node in enumerate(order)}
        for u, targets in adjacency.items():
            for v in targets:
                assert position[u] < position[v]


def test_long_chain_needs_no_recursion():
    size = 100_000
    chain = {i: [i + 1] for i in range(size - 1)}
    assert topological_order(chain) == list(range(size))
    chain[size - 1] = [0]
    assert cyclic_nodes(chain) == set(range(size))
    assert topological_order(chain) is None

"""Independent state and edge counts for checking ``build`` results.

Every pebbling move lowers the pebble total by one, so the reachable states
split into levels by total and each level only needs the one before it.  This
counter walks level by level with a set per level and stores no edges: it
shares no code with ``pebblab.assignment_graph.build`` and needs memory for
two levels only.
"""

from __future__ import annotations


def count_states_and_edges(graph, counts, cap: int | None = None) -> tuple[int, int] | None:
    """(reachable states, state-graph edges) from the pebble vector
    ``counts``, with one edge per (state, legal move) as in the state graph;
    ``None`` once more than ``cap`` states are reachable."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    moves = [(index[u], index[w]) for u, w in graph.edges]
    level = {tuple(counts)}
    states = edges = 0
    while level:
        states += len(level)
        if cap is not None and states > cap:
            return None
        nxt = set()
        for s in level:
            for f, t in moves:
                if s[f] >= 2:
                    edges += 1
                    child = list(s)
                    child[f] -= 2
                    child[t] += 1
                    nxt.add(tuple(child))
        level = nxt
    return states, edges

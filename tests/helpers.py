"""Brute-force reference implementations used as independent oracles."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from nwaq.core import WeightedAutomaton, finite_value


def slave_language(slave: WeightedAutomaton, max_len: int) -> dict[tuple[str, ...], int]:
    """Accepted words up to max_len with the minimal accepting-run value,
    found by exhaustive run enumeration (handles nondeterminism)."""
    aut = slave.base
    letters = aut.alphabet.letters
    out: dict[tuple[str, ...], int] = {}
    # frontier: (state, word, weights)
    frontier = [(q, (), ()) for q in sorted(aut.initials)]
    while frontier:
        q, word, weights = frontier.pop()
        if q in aut.accepting:
            value = finite_value(slave.value_fn, weights)
            if word not in out or value < out[word]:
                out[word] = value
        if len(word) < max_len:
            for a in range(len(letters)):
                for q2, w in aut.succ(q, a):
                    frontier.append((q2, word + (letters[a],), weights + (w,)))
    return out


def simple_cycles(n_nodes: int, edges) -> list[list[int]]:
    """All simple cycles as edge-index lists; edges are (u, v, ...) tuples."""
    adjacency: dict[int, list[int]] = {}
    for idx, e in enumerate(edges):
        adjacency.setdefault(e[0], []).append(idx)
    cycles = []

    def dfs(start: int, node: int, path: list[int], seen: set[int]):
        for idx in adjacency.get(node, ()):
            v = edges[idx][1]
            if v == start:
                cycles.append(path + [idx])
            elif v > start and v not in seen:
                dfs(start, v, path + [idx], seen | {v})

    for start in range(n_nodes):
        dfs(start, start, [], {start})
    return cycles


def _reach(graph, sources) -> set[int]:
    """Nodes reachable from `sources` (themselves included)."""
    succ: dict[int, list[int]] = {}
    for e in graph.edges:
        succ.setdefault(e[0], []).append(e[1])
    seen = set(sources)
    todo = list(seen)
    while todo:
        for v in succ.get(todo.pop(), ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def qualifying_components(graph) -> set[frozenset[int]]:
    """Node sets of the components that are reachable from an initial node and
    hold an accepting node, each found as the nodes mutually reachable with
    one of its members."""
    reach = {u: _reach(graph, {u}) for u in range(graph.n_nodes)}
    out = set()
    for u in _reach(graph, graph.initials):
        comp = frozenset(v for v in reach[u] if u in reach[v])
        if comp & graph.accepting:
            out.add(comp)
    return out


def min_cycle_ratio_brute(graph) -> Optional[Fraction]:
    """Minimum cost/ticks over qualifying simple cycles, or None.

    Qualifying: reachable from an initial node, in a component containing an
    accepting node, at least one tick.
    """
    comps = qualifying_components(graph)
    best = None
    for cycle in simple_cycles(graph.n_nodes, graph.edges):
        ticks = sum(graph.edges[i][3] for i in cycle)
        if ticks == 0:
            continue
        # a cycle lies inside the component of any of its nodes
        if not any(graph.edges[cycle[0]][0] in comp for comp in comps):
            continue
        cost = sum(graph.edges[i][2] for i in cycle)
        ratio = Fraction(cost, ticks)
        if best is None or ratio < best:
            best = ratio
    return best


def min_cycle_ratio_karp(graph) -> Optional[Fraction]:
    """Minimum cost/ticks over qualifying cycles by Karp's minimum mean cycle
    algorithm (Karp, 1978), or None.

    Inside each qualifying component, every run of silent edges followed by a
    tick edge u ->* w -> v is contracted into one edge u -> v carrying the
    tick edge's cost. A cycle with t ticks becomes a cycle of t contracted
    edges, so its ratio is the mean of the contracted cycle, and every
    contracted cycle unfolds into a closed walk with the same cost and ticks.
    """
    best = None
    for comp in qualifying_components(graph):
        inner = [e for e in graph.edges if e[0] in comp and e[1] in comp]
        silent: dict[int, list[int]] = {}
        ticking: dict[int, list[tuple[int, int]]] = {}
        for u, v, cost, ticks in inner:
            if ticks:
                ticking.setdefault(u, []).append((v, cost))
            else:
                silent.setdefault(u, []).append(v)
        contracted = set()
        for u in comp:
            closure = {u}
            todo = [u]
            while todo:
                for v in silent.get(todo.pop(), ()):
                    if v not in closure:
                        closure.add(v)
                        todo.append(v)
            for w in closure:
                for v, cost in ticking.get(w, ()):
                    contracted.add((u, v, cost))
        mean = _karp(sorted(comp), contracted)
        if mean is not None and (best is None or mean < best):
            best = mean
    return best


def _karp(nodes: list[int], edges) -> Optional[Fraction]:
    """Minimum mean over the cycles of a graph, or None when it has none.

    d[k][v] is the least weight of a k-edge walk ending at v, starting
    anywhere; the minimum mean is the least over v of the largest
    (d[n][v] - d[k][v]) / (n - k).
    """
    n = len(nodes)
    pos = {u: i for i, u in enumerate(nodes)}
    d: list[list[Optional[int]]] = [[0] * n]
    for _ in range(n):
        prev, cur = d[-1], [None] * n
        for u, v, cost in edges:
            if prev[pos[u]] is not None:
                cand = prev[pos[u]] + cost
                if cur[pos[v]] is None or cand < cur[pos[v]]:
                    cur[pos[v]] = cand
        d.append(cur)
    best = None
    for v in range(n):
        if d[n][v] is None:
            continue
        worst = max(Fraction(d[n][v] - d[k][v], n - k) for k in range(n) if d[k][v] is not None)
        if best is None or worst < best:
            best = worst
    return best


def has_negative_cycle_fw(n_nodes: int, arcs) -> bool:
    """Does the graph on nodes 0..n-1 with arcs (u, v, w) have a negative
    cycle? Floyd-Warshall with d[i][i] = 0: some d[i][i] ends below 0 exactly
    when one exists."""
    d: list[list[Optional[int]]] = [[0 if i == j else None for j in range(n_nodes)] for i in range(n_nodes)]
    for u, v, w in arcs:
        if d[u][v] is None or w < d[u][v]:
            d[u][v] = w
    for m in range(n_nodes):
        row_m = d[m]
        for i in range(n_nodes):
            row_i = d[i]
            dim = row_i[m]
            if dim is None:
                continue
            for j in range(n_nodes):
                if row_m[j] is not None and (row_i[j] is None or dim + row_m[j] < row_i[j]):
                    row_i[j] = dim + row_m[j]
    return any(d[i][i] < 0 for i in range(n_nodes))

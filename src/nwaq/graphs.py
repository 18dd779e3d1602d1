"""Graph routines shared by the package: reachability, strongly connected
components, breadth-first shortest paths and the negative-cycle search. This
module imports nothing from the package."""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence


def reachable(sources, edge_list) -> set[int]:
    """Nodes reachable from `sources` (themselves included) over (u, v) edges."""
    succ: dict[int, list[int]] = {}
    for u, v in edge_list:
        succ.setdefault(u, []).append(v)
    seen = set(sources)
    todo = list(seen)
    while todo:
        for v in succ.get(todo.pop(), ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def sccs(start: Sequence[int], dst: Sequence[int]) -> list[int]:
    """Component id per node, node u having the successors
    `dst[start[u]:start[u + 1]]`: one iterative Tarjan search, with roots in
    node order and successors in ascending order, where a node without
    successors closes as its own component when first reached. Components
    are numbered down from the last one it closes, as Kosaraju numbers them.
    """
    n = len(start) - 1
    index, low, comp = [0] * n, [0] * n, [-1] * n  # index: discovery number from 1, -1 for a successor sink, 0 while unvisited
    stack, closed, found = [], 0, 0
    for root in range(n):
        if index[root]:
            continue
        found += 1
        index[root] = low[root] = found
        stack.append(root)
        work = [(root, iter(sorted(set(dst[start[root] : start[root + 1]]))))]
        while work:
            u, succ = work[-1]
            for v in succ:
                if not index[v]:
                    if start[v] == start[v + 1]:
                        index[v], comp[v], closed = -1, closed, closed + 1
                        continue
                    found += 1
                    index[v] = low[v] = found
                    stack.append(v)
                    work.append((v, iter(sorted(set(dst[start[v] : start[v + 1]])))))
                    break
                if comp[v] < 0 and index[v] < low[u]:
                    low[u] = index[v]
            else:
                work.pop()
                if low[u] == index[u]:
                    v = -1
                    while v != u:
                        v = stack.pop()
                        comp[v] = closed
                    closed += 1
                elif low[u] < low[work[-1][0]]:
                    low[work[-1][0]] = low[u]
    return [closed - 1 - c for c in comp]


def shortest_path(starts, moves, goal, seen=()) -> Optional[list[int]]:
    """Edge indexes of a shortest path from a start state to a goal state,
    breadth first; `moves(state)` yields (edge index, next state) pairs in a
    fixed order, so the first shortest path in that order is returned. The
    starts are tested in order, and every other state when it is first
    reached: states are popped in the order they are reached, so this finds
    the path a test on popping would. States in `seen` count as reached
    already: they are neither tested nor left, starts among them too."""
    parent = dict.fromkeys(seen)
    queue = deque()
    for s in starts:
        if s not in parent:
            if goal(s):
                return []
            parent[s] = None
            queue.append(s)
    while queue:
        state = queue.popleft()
        for n, nxt in moves(state):
            if nxt not in parent:
                parent[nxt] = (state, n)
                if goal(nxt):
                    path = []
                    while parent[nxt] is not None:
                        nxt, n = parent[nxt]
                        path.append(n)
                    path.reverse()
                    return path
                queue.append(nxt)
    return None


def negative_cycle(n: int, arcs: Sequence[tuple[int, int, int]]) -> Optional[list[int]]:
    """A negative cycle on nodes 0..n-1 with arcs (u, v, w), as arc indexes
    in path order, or None when there is none.

    Bellman-Ford from a virtual source at distance 0 to every node. After
    each pass the parent graph (the last improving arc into each node) is
    checked for a cycle, and the first one found is returned: every parent
    cycle is negative (Cherkassky and Goldberg, 1999). While the parent
    graph stays a forest each distance is at least the weight of a simple
    path, so with integer weights and a negative cycle present a parent
    cycle must form; without one a pass eventually changes nothing.
    """
    dist = [0] * n
    parent = [-1] * n
    while True:
        changed = False
        for i, (u, v, w) in enumerate(arcs):
            d = dist[u] + w
            if d < dist[v]:
                dist[v] = d
                parent[v] = i
                changed = True
        if not changed:
            return None
        walked = [-1] * n  # the start of the walk that first reached each node
        for s in range(n):
            v = s
            while v >= 0 and walked[v] < 0:
                walked[v] = s
                v = arcs[parent[v]][0] if parent[v] >= 0 else -1
            if v >= 0 and walked[v] == s:
                # this walk closed a parent cycle through v
                cycle = [parent[v]]
                while arcs[cycle[-1]][0] != v:
                    cycle.append(parent[arcs[cycle[-1]][0]])
                cycle.reverse()
                assert sum(arcs[i][2] for i in cycle) < 0
                return cycle

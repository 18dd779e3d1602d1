"""Graph routines shared by the package: reachability, strongly connected
components and breadth-first shortest paths. This module imports nothing
from the package."""

from __future__ import annotations

from collections import deque
from typing import Optional


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


def sccs(n: int, edge_list) -> list[int]:
    """Component id per node, Kosaraju, deterministic."""
    fwd: dict[int, list[int]] = {}
    rev: dict[int, list[int]] = {}
    for u, v in edge_list:
        fwd.setdefault(u, []).append(v)
        rev.setdefault(v, []).append(u)
    finish = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, iter(sorted(set(fwd.get(root, [])))))]
        seen[root] = True
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(sorted(set(fwd.get(nxt, []))))))
                    advanced = True
                    break
            if not advanced:
                finish.append(node)
                stack.pop()
    comp = [-1] * n
    n_comp = 0
    for root in reversed(finish):
        if comp[root] != -1:
            continue
        stack = [root]
        comp[root] = n_comp
        while stack:
            node = stack.pop()
            for nxt in rev.get(node, ()):
                if comp[nxt] == -1:
                    comp[nxt] = n_comp
                    stack.append(nxt)
        n_comp += 1
    return comp


def shortest_path(starts, moves, goal) -> Optional[list[int]]:
    """Edge indexes of a shortest path from a start state to a goal state,
    breadth first; `moves(state)` yields (edge index, next state) pairs in a
    fixed order, so the first shortest path in that order is returned."""
    parent = {s: None for s in starts}
    queue = deque(starts)
    while queue:
        state = queue.popleft()
        if goal(state):
            path = []
            while parent[state] is not None:
                state, n = parent[state]
                path.append(n)
            path.reverse()
            return path
        for n, nxt in moves(state):
            if nxt not in parent:
                parent[nxt] = (state, n)
                queue.append(nxt)
    return None

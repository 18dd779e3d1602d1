"""Exact infimum for limit-average graphs with silent edges, by Howard
policy iteration on each qualifying strongly connected component.

A qualifying cycle is reachable from an initial node, lies in a component
containing an accepting node, and contains at least one tick (non-silent)
edge; its ratio is cost divided by ticks. Silent edges may carry cost, but no
silent cycle inside a qualifying component may be negative; then every
minimum is attained on a simple cycle.

Reachability and components are computed once. Policy iteration
(Cochet-Terrasson, Cohen, Gaubert, McGettrick and Quadrat, 1998) then keeps
one out-edge per node of a component; each node leads to one policy cycle,
whose ratio and the potentials that lead to it are evaluated exactly. A node
switches edge only on a strict improvement: to a successor with a lower cycle
ratio or, when no node can do that, to one with a lower potential at the same
ratio. The first policy leads every node to a tick edge, and a strict switch
can only close a cycle of negative reduced cost, so a policy cycle can be
silent only when a silent cycle is negative; that raises ValueError. At the
fixed point the ratio p/q is the same on the whole component
and the integer potentials pi satisfy q*cost - p*ticks + pi(v) - pi(u) >= 0
on every internal edge u -> v. Summed around any cycle of the component this
proves that none has a lower ratio; `check_ratio_bound` verifies it in
integer arithmetic. Callers decide a threshold by comparing it with the
minimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import PLUS_INFINITY, ValueResult


@dataclass(frozen=True)
class RatioGraph:
    """Directed graph with integer edge costs and 0/1 ticks; silent = tick 0.

    No silent cycle inside a qualifying component may have negative cost;
    `infimum_ratio` raises ValueError when one does.
    """

    n_nodes: int
    edges: tuple[tuple[int, int, int, int], ...]  # (from, to, cost, ticks)
    initials: frozenset[int]
    accepting: frozenset[int]

    def __post_init__(self):
        for u, v, cost, ticks in self.edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
            if ticks not in (0, 1):
                raise ValueError("ticks must be 0 or 1")


@dataclass(frozen=True)
class CycleWitness:
    """A qualifying cycle of least ratio, with an access path from an initial
    node, and the potentials that prove no qualifying cycle has a lower ratio.

    `potentials` holds one map per qualifying component, from its nodes to
    integers pi with q*cost - p*ticks + pi(v) - pi(u) >= 0 on each of its
    internal edges u -> v, where ratio = p/q; see `check_ratio_bound`.
    """

    access: tuple[int, ...]  # edge indexes
    cycle: tuple[int, ...]  # edge indexes
    ratio: Fraction
    potentials: tuple[Mapping[int, int], ...]


def _reachable(g: RatioGraph) -> set[int]:
    adj: dict[int, list[int]] = {}
    for u, v, _, _ in g.edges:
        adj.setdefault(u, []).append(v)
    seen = set(g.initials)
    todo = list(g.initials)
    while todo:
        u = todo.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _sccs(n: int, edge_list) -> list[int]:
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


def _shortest_path(starts, moves, goal) -> Optional[list[int]]:
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


def _qualifying_sccs(g: RatioGraph):
    """Per-component internal edge indexes, for components that are reachable,
    contain an accepting node, and contain a tick edge."""
    reach = _reachable(g)
    idx_edges = [(u, v) for u, v, _, _ in g.edges]
    comp = _sccs(g.n_nodes, idx_edges)
    internal: dict[int, list[int]] = {}
    for n, (u, v, cost, ticks) in enumerate(g.edges):
        if u in reach and v in reach and comp[u] == comp[v]:
            internal.setdefault(comp[u], []).append(n)
    out = []
    for ci in sorted(internal):
        members = {u for u in range(g.n_nodes) if comp[u] == ci}
        if not (members & g.accepting & reach):
            continue
        if not any(g.edges[n][3] for n in internal[ci]):
            continue
        out.append(internal[ci])
    return out


def _policy_iteration(g: RatioGraph, edge_idxs: list[int]):
    """Least cycle ratio of one component, with a cycle attaining it and the
    potentials q*x per node, where the ratio is p/q.

    `edge_idxs` are the component's internal edges in index order; every scan
    follows that order, so the result is reproducible.
    """
    edges = g.edges
    out: dict[int, list[int]] = {}
    into: dict[int, list[int]] = {}
    for n in edge_idxs:
        u, v, _, _ = edges[n]
        out.setdefault(u, []).append(n)
        into.setdefault(v, []).append(n)
    nodes = sorted(out)
    # first policy: a tick edge where one leaves the node, else the first
    # step of a shortest way to one (reverse breadth-first search)
    policy: dict[int, int] = {}
    for n in edge_idxs:
        if edges[n][3] and edges[n][0] not in policy:
            policy[edges[n][0]] = n
    queue = list(policy)
    for v in queue:
        for n in into.get(v, ()):
            u = edges[n][0]
            if u not in policy:
                policy[u] = n
                queue.append(u)
    while True:
        # evaluate: each node's policy cycle (its ratio p/q) and potential,
        # rooted at the least node of the cycle so a kept cycle keeps its root
        cycle_of: dict[int, int] = {}
        cycles: list[tuple[Fraction, list[int]]] = []
        pot: dict[int, int] = {}
        for s in nodes:
            path: list[int] = []
            at: dict[int, int] = {}
            u = s
            while u not in cycle_of and u not in at:
                at[u] = len(path)
                path.append(u)
                u = edges[policy[u]][1]
            if u in at:
                loop = path[at[u]:]
                ring = [policy[w] for w in loop]
                ticks = sum(edges[n][3] for n in ring)
                if ticks == 0:
                    raise ValueError("a silent cycle of negative cost in a qualifying component")
                ratio = Fraction(sum(edges[n][2] for n in ring), ticks)
                r = loop.index(min(loop))
                root = loop[r]
                cycle_of[root] = len(cycles)
                cycles.append((ratio, ring[r:] + ring[:r]))
                pot[root] = 0
                path = path[: at[u]] + loop[r + 1 :] + loop[:r]
            for w in reversed(path):
                _, v, cost, tick = edges[policy[w]]
                c = cycle_of[v]
                p, q = cycles[c][0].numerator, cycles[c][0].denominator
                cycle_of[w] = c
                pot[w] = q * cost - p * tick + pot[v]
        order = {ratio: i for i, ratio in enumerate(sorted({ratio for ratio, _ in cycles}))}
        rank_of = [order[ratio] for ratio, _ in cycles]
        rank = {u: rank_of[cycle_of[u]] for u in nodes}
        improved = False
        # type 1: move to a successor whose cycle has a lower ratio
        for u in nodes:
            best, choice = rank[u], None
            for n in out[u]:
                if rank[edges[n][1]] < best:
                    best, choice = rank[edges[n][1]], n
            if choice is not None:
                policy[u] = choice
                improved = True
        if improved:
            continue
        # type 2: at an equal ratio, move to a successor of lower potential
        for u in nodes:
            ratio = cycles[cycle_of[u]][0]
            p, q = ratio.numerator, ratio.denominator
            best, choice = pot[u], None
            for n in out[u]:
                _, v, cost, tick = edges[n]
                if rank[v] == rank[u]:
                    val = q * cost - p * tick + pot[v]
                    if val < best:
                        best, choice = val, n
            if choice is not None:
                policy[u] = choice
                improved = True
        if not improved:
            # no type-1 switch left: the ratio is constant on the component
            ratio, ring = cycles[0]
            return ratio, ring, pot


def check_ratio_bound(g: RatioGraph, lam: Fraction, potentials: Sequence[Mapping[int, int]]) -> bool:
    """Do integer potentials prove that no cycle inside one of their
    components has a ratio below `lam`?

    With lam = p/q, every edge u -> v whose ends lie in the same map must
    satisfy q*cost - p*ticks + pi(v) - pi(u) >= 0; around a cycle the
    potentials cancel, leaving q*cost - p*ticks >= 0. A node in two maps
    fails the check.
    """
    p, q = lam.numerator, lam.denominator
    owner: dict[int, int] = {}
    for i, pi in enumerate(potentials):
        for u in pi:
            if u in owner:
                return False
            owner[u] = i
    for u, v, cost, ticks in g.edges:
        i = owner.get(u)
        if i is not None and owner.get(v) == i:
            pi = potentials[i]
            if q * cost - p * ticks + pi[v] - pi[u] < 0:
                return False
    return True


def infimum_ratio(g: RatioGraph) -> tuple[ValueResult, Optional[CycleWitness]]:
    """Exact minimum ratio over qualifying cycles, by policy iteration.

    +inf, with no witness, when no cycle qualifies. Otherwise the witness
    cycle attains the minimum and its potentials prove it is a lower bound
    (`check_ratio_bound`). The value is never -inf: the minimum is attained
    on one of finitely many simple cycles.
    """
    best = None
    solved = []
    for edge_idxs in _qualifying_sccs(g):
        ratio, ring, pot = _policy_iteration(g, edge_idxs)
        solved.append((ratio, pot))
        if best is None or ratio < best[0]:
            best = (ratio, ring)
    if best is None:
        return PLUS_INFINITY, None
    ratio, ring = best
    # potentials q_c*x proving a component's own ratio p_c/q_c also bound the
    # least ratio p/q <= p_c/q_c; flooring q*x keeps them integers and keeps
    # every edge inequality, whose other terms are integers
    q = ratio.denominator
    potentials = tuple({u: q * x // own.denominator for u, x in pot.items()} for own, pot in solved)
    out: dict[int, list[int]] = {}
    for n, (u, v, _, _) in enumerate(g.edges):
        out.setdefault(u, []).append(n)
    access = _shortest_path(
        sorted(g.initials), lambda u: ((n, g.edges[n][1]) for n in out.get(u, ())), g.edges[ring[0]][0].__eq__
    )
    witness = CycleWitness(access=tuple(access), cycle=tuple(ring), ratio=ratio, potentials=potentials)
    return ValueResult.finite(ratio), witness

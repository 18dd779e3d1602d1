"""Exact least cycle ratio of a limit-average graph with silent edges, by
Howard policy iteration on each qualifying strongly connected component.

The caller decides which components qualify and hands over the internal
edges of each (`RatioGraph.components`). A qualifying cycle lies inside one
of them and contains at least one tick (non-silent) edge; its ratio is cost
divided by ticks. Silent edges may carry cost, but no silent cycle inside a
qualifying component may be negative; then every minimum is attained on a
simple cycle.

Policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick and Quadrat,
1998) keeps one out-edge per node of a component; each node leads to one
policy cycle, whose ratio and the potentials that lead to it are evaluated
exactly. A node switches edge only on a strict improvement: to a successor
with a lower cycle ratio or, when no node can do that, to one with a lower
potential at the same ratio. The first policy leads every node to a tick
edge, and a strict switch can only close a cycle of negative reduced cost,
so a policy cycle can be silent only when a silent cycle is negative; that
raises ValueError. At the fixed point the ratio p/q is the same on the whole
component and the integer potentials pi satisfy
q*cost - p*ticks + pi(v) - pi(u) >= 0 on every internal edge u -> v. Summed
around any cycle of the component this proves that none has a lower ratio;
`check_ratio_bound` verifies it in integer arithmetic. Callers decide a
threshold by comparing it with the minimum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from .core import PLUS_INFINITY, ValueResult


class RatioGraph(NamedTuple):
    """Edge columns of a limit-average graph and its qualifying components.

    Edge n runs from node `src[n]` to `dst[n]`, costs the integer `cost[n]`
    and ticks `ticks[n]`, 0 (silent) or 1. `components` lists each
    qualifying strongly connected component as its internal edge indexes in
    index order. No silent cycle inside one may have negative cost;
    `infimum_ratio` raises ValueError when one does.
    """

    src: Sequence[int]
    dst: Sequence[int]
    cost: Sequence[int]
    ticks: Sequence[int]
    components: Sequence[Sequence[int]]


class CycleWitness(NamedTuple):
    """A qualifying cycle of least ratio, and the potentials that prove no
    qualifying cycle has a lower ratio.

    `potentials` maps each node of every qualifying component to an integer
    pi with q*cost - p*ticks + pi(v) - pi(u) >= 0 on each internal edge
    u -> v of a component, where ratio = p/q; see `check_ratio_bound`.
    """

    cycle: tuple[int, ...]  # edge indexes
    ratio: Fraction
    potentials: Mapping[int, int]


def _policy_iteration(g: RatioGraph, edge_idxs: Sequence[int]):
    """Least cycle ratio of one component, with a cycle attaining it and the
    potentials q*x per node, where the ratio is p/q.

    `edge_idxs` are the component's internal edges in index order; every scan
    follows that order, so the result is reproducible.
    """
    src, dst, cost, ticks = g.src, g.dst, g.cost, g.ticks
    out: dict[int, list[int]] = {}
    into: dict[int, list[int]] = {}
    for n in edge_idxs:
        out.setdefault(src[n], []).append(n)
        into.setdefault(dst[n], []).append(n)
    nodes = sorted(out)
    # first policy: a tick edge where one leaves the node, else the first
    # step of a shortest way to one (reverse breadth-first search)
    policy: dict[int, int] = {}
    for n in edge_idxs:
        if ticks[n] and src[n] not in policy:
            policy[src[n]] = n
    queue = list(policy)
    for v in queue:
        for n in into.get(v, ()):
            u = src[n]
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
                u = dst[policy[u]]
            if u in at:
                loop = path[at[u]:]
                ring = [policy[w] for w in loop]
                ring_ticks = sum(ticks[n] for n in ring)
                if ring_ticks == 0:
                    raise ValueError("a silent cycle of negative cost in a qualifying component")
                ratio = Fraction(sum(cost[n] for n in ring), ring_ticks)
                r = loop.index(min(loop))
                root = loop[r]
                cycle_of[root] = len(cycles)
                cycles.append((ratio, ring[r:] + ring[:r]))
                pot[root] = 0
                path = path[: at[u]] + loop[r + 1 :] + loop[:r]
            for w in reversed(path):
                n = policy[w]
                v = dst[n]
                c = cycle_of[v]
                p, q = cycles[c][0].numerator, cycles[c][0].denominator
                cycle_of[w] = c
                pot[w] = q * cost[n] - p * ticks[n] + pot[v]
        order = {ratio: i for i, ratio in enumerate(sorted({ratio for ratio, _ in cycles}))}
        rank_of = [order[ratio] for ratio, _ in cycles]
        rank = {u: rank_of[cycle_of[u]] for u in nodes}
        improved = False
        # type 1: move to a successor whose cycle has a lower ratio
        for u in nodes:
            best, choice = rank[u], None
            for n in out[u]:
                if rank[dst[n]] < best:
                    best, choice = rank[dst[n]], n
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
                v = dst[n]
                if rank[v] == rank[u]:
                    val = q * cost[n] - p * ticks[n] + pot[v]
                    if val < best:
                        best, choice = val, n
            if choice is not None:
                policy[u] = choice
                improved = True
        if not improved:
            # no type-1 switch left: the ratio is constant on the component
            ratio, ring = cycles[0]
            return ratio, ring, pot


def check_ratio_bound(g: RatioGraph, lam: Fraction, pi: Mapping[int, int]) -> bool:
    """Do integer potentials prove that no cycle inside a qualifying
    component has a ratio below `lam`?

    With lam = p/q, every internal edge u -> v listed in `g.components` must
    satisfy q*cost - p*ticks + pi(v) - pi(u) >= 0; around a cycle the
    potentials cancel, leaving q*cost - p*ticks >= 0. A node of such an edge
    without a potential fails the check.
    """
    p, q = lam.numerator, lam.denominator
    for edge_idxs in g.components:
        for n in edge_idxs:
            u, v = g.src[n], g.dst[n]
            if u not in pi or v not in pi or q * g.cost[n] - p * g.ticks[n] + pi[v] - pi[u] < 0:
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
    for edge_idxs in g.components:
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
    potentials = {u: q * x // own.denominator for own, pot in solved for u, x in pot.items()}
    witness = CycleWitness(cycle=tuple(ring), ratio=ratio, potentials=potentials)
    return ValueResult.finite(ratio), witness

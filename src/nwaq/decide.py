"""End-to-end decisions: threshold emptiness, exact infimum, and deterministic
universality.

A `Pipeline` explores one configuration graph, whose edges are joint choices
of master and slave moves, so nondeterministic input needs no
determinization. A negative descent settles every threshold at minus
infinity. Otherwise a lasso is accepted when its period passes an ACCEPT
edge and a RELEASE edge (`determinize` defines the edge kinds), and its
value is the period's slot weights over its invocations; the infimum is the
least such cycle ratio (`meanpayoff.infimum_ratio`). Policy iteration
receives the internal edges of each qualifying component
(`ConfigGraph.qualifying`), the same components the descent test searches.
Certificates are lassos over the input alphabet read off the same graph, or,
for minus infinity, the witness cycle and a pumped word. Universality runs
the same stages on the same graph with every weight negated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    LassoWord,
    NEG_INFINITY,
    NondeterministicInputError,
    Nwa,
    PLUS_INFINITY,
    PreconditionError,
    Threshold,
    ValueResult,
    is_deterministic,
    validate_nwa,
)
from .determinize import ACCEPT, RELEASE, TICK, explore, qualifying_parts
from .graphs import sccs
from .meanpayoff import RatioGraph, check_ratio_bound, infimum_ratio
from .starcond import StarWitness, pump_witness


class Certificate(NamedTuple):
    """Evidence behind a verdict.

    kind "lasso": `lasso`, a word over the input alphabet, replays to
    `value`; flagged "not-attained", no lasso attains the infimum and `value`
    lies above it. kind "star": `star` is the negative cycle; `pumped` is a
    lasso whose partial averages dip below any bound as the cycle is pumped
    further. kind "infimum": the infimum that refutes a threshold or, flagged
    "not-attained", admits one that no lasso reaches.
    """

    kind: str
    value: Optional[ValueResult] = None
    lasso: Optional[LassoWord] = None
    star: Optional[StarWitness] = None
    pumped: Optional[LassoWord] = None
    flags: tuple[str, ...] = ()


class Pipeline:
    """All decision stages for one automaton and width bound, built once, on
    its configuration graph with every weight times `sign` (see `StepTables`).
    Negated weights answer universality only for deterministic input, so
    with a negative sign nondeterministic input is rejected."""

    def __init__(self, nwa: Nwa, k: int, sign: int = 1):
        problems = validate_nwa(nwa)
        if problems:
            raise PreconditionError("; ".join(problems))
        if sign < 0:
            ok, site = is_deterministic(nwa)
            if not ok:
                raise NondeterministicInputError(site or "universality needs a deterministic automaton")
        _, graph = explore(nwa, k, sign, stop=True)
        self.graph = graph
        self.star: Optional[StarWitness] = graph.descent
        self.ratio: Optional[RatioGraph] = None
        self.value, self._witness = NEG_INFINITY, None
        if self.star is None:
            ticks = [kind & TICK for kind in graph.kinds]
            self.ratio = RatioGraph(graph.src, graph.dst, list(map(sum, graph.slot_weights)), ticks, graph.qualifying)
            self.value, self._witness = infimum_ratio(self.ratio)
            if self._witness is not None:
                assert check_ratio_bound(self.ratio, self._witness.ratio, self._witness.potentials)

    def infimum(self) -> tuple[ValueResult, Certificate]:
        if self.star is not None:
            return NEG_INFINITY, self._star(pumps=8)
        if self._witness is None:
            return PLUS_INFINITY, Certificate(kind="infimum", value=PLUS_INFINITY)
        return self.value, self._lasso(None)

    def below(self, t: Threshold) -> bool:
        """Does some word have value below the threshold? No certificate is built."""
        return self.star is not None or self._witness is not None and t.admits(self._witness.ratio)

    def emptiness(self, t: Threshold) -> tuple[bool, Certificate]:
        """`below(t)`, with its certificate."""
        if self.star is not None:
            return True, self._star(pumps=_pumps_for(self.star, t, self.graph.k))
        if not self.below(t):
            return False, Certificate(kind="infimum", value=self.value)
        return True, self._lasso(t)

    def _star(self, pumps: int) -> Certificate:
        pumped = pump_witness(self.graph, self.star, pumps)
        return Certificate(kind="star", value=NEG_INFINITY, star=self.star, pumped=pumped)

    def _lasso(self, t: Optional[Threshold]) -> Certificate:
        """A lasso of least value or, when no lasso attains the infimum, one
        within the threshold t (8 cycle turns from it when t is None)."""
        w, g = self._witness, self.ratio
        found = self._tight_period()
        if found is not None:
            lasso = self.graph.lasso(*found)
            return Certificate(kind="lasso", value=self.value, lasso=lasso)
        flags = ("not-attained",)
        if t is not None and t.value == w.ratio:
            return Certificate(kind="infimum", value=self.value, flags=flags)
        # turn the least-ratio cycle n times, then detour through acceptance
        # and a release: (n*a + c) / (n*b + d) falls towards a/b as n grows
        comp = self.graph.comp
        root = g.src[w.cycle[0]]
        detour = self.graph.closed_walk(root, lambda n: comp[g.dst[n]] == comp[root], ACCEPT | RELEASE)
        a, b = sum(g.cost[n] for n in w.cycle), sum(g.ticks[n] for n in w.cycle)
        c, d = sum(g.cost[n] for n in detour), sum(g.ticks[n] for n in detour)
        n = 8
        if t is not None:
            x = (c - t.value * d) / (t.value * b - a)
            n = max(1, math.floor(x) + 1 if t.strict else math.ceil(x))
        value = ValueResult.finite(Fraction(n * a + c, n * b + d))
        lasso = self.graph.lasso(root, list(w.cycle) * n + detour)
        return Certificate(kind="lasso", value=value, lasso=lasso, flags=flags)

    def _tight_period(self) -> Optional[tuple[int, list[int]]]:
        """A closed walk of least ratio p/q through acceptance and a release,
        with its start, or None when no lasso attains p/q.

        An edge is tight when q*cost - p*ticks + pi(v) - pi(u) = 0 under the
        witness potentials. Every cycle of tight edges has ratio exactly p/q,
        and the period of a lasso of value p/q uses only tight edges, so such
        a lasso exists exactly when some strongly connected piece of the tight
        edges holds a tick, a master-accepting and a releasing edge. The walk
        starts at the piece's least node and is a shortest one through all
        three kinds.
        """
        g, w = self.ratio, self._witness
        p, q, pot = w.ratio.numerator, w.ratio.denominator, w.potentials
        tight = sorted(n for ns in g.components for n in ns
                       if q * g.cost[n] - p * g.ticks[n] + pot[g.dst[n]] - pot[g.src[n]] == 0)
        src, dst = [g.src[n] for n in tight], [g.dst[n] for n in tight]
        local = {u: i for i, u in enumerate(sorted(set(src).union(dst)))}  # the nodes they touch, relabelled
        src, dst = list(map(local.__getitem__, src)), list(map(local.__getitem__, dst))
        part = sccs([bisect_left(src, u) for u in range(len(local) + 1)], dst)  # src is sorted, as edges are
        pieces = qualifying_parts(part, zip(tight, src, dst), self.graph.kinds)
        if not pieces:
            return None
        # a piece lies in one component, whose edges come sorted by source, and
        # each of its nodes has an edge inside it: its first edge leaves its least node
        inside = min(pieces, key=lambda ns: g.src[ns[0]])
        root = g.src[inside[0]]
        return root, self.graph.closed_walk(root, set(inside).__contains__, TICK | ACCEPT | RELEASE)


def _pumps_for(star: StarWitness, t: Threshold, k: int) -> int:
    """Enough cycle turns for the pumped word's average dip to pass t.

    The pumped slaves' values land within the first few returned values, so
    the dip is at least the pumped sum divided by a count bounded by the
    access length plus k; scaling by k + 2 leaves ample margin.
    """
    need = -t.value if t.value < 0 else Fraction(0)
    per_turn = -star.j_sum
    return max(8, int(need * (k + 2) // per_turn) + 8)


def emptiness(nwa: Nwa, k: int, t: Threshold) -> tuple[bool, Certificate]:
    """Is there a word with value <= t (or < t when strict)?"""
    return Pipeline(nwa, k).emptiness(t)


def infimum(nwa: Nwa, k: int) -> tuple[ValueResult, Certificate]:
    """Exact infimum over all words, with a certificate."""
    return Pipeline(nwa, k).infimum()


def universality_deterministic(nwa: Nwa, k: int, t: Threshold) -> bool:
    """Every word has value at most t (below t when strict).

    `Pipeline.below` on the input's own graph, every weight negated in its
    step tables, at -t with strictness flipped asks whether some word's
    limsup passes t (a liminf of negated averages is a negated limsup); the
    answer is its negation. Without a descent in the negated graph this is
    the liminf question too: the infimum argument, negated, bounds every
    word's limsup by the greatest cycle ratio R, and lassos, whose averages
    converge, reach or approach R. With a descent the limsup question's
    answer is no at every t, and this function answers no. For the liminf
    that answer can be wrong: on `tests/data/spike.nwa` at k = 2 no word's
    liminf passes 1, yet the negated graph descends and `t = 1` gets no
    (`test_spike_universal_at_most` holds the right answers as strict
    xfails).
    """
    return not Pipeline(nwa, k, sign=-1).below(Threshold(-t.value, not t.strict))

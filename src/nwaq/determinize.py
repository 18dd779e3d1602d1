"""Configuration-graph exploration.

A configuration couples the master state with the states of active slaves,
least recently invoked first. `StepTables` compiles an automaton once into
integer tables and steps a configuration by them; it is the pipeline's one
release, choose and invoke rule (the oracle has its own, written apart). The
explorer enumerates every joint choice a nondeterministic automaton has on a
letter, so each edge is one choice and the decisions run on this graph
directly.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .core import Configuration, LassoWord, Nwa
from .graphs import sccs, shortest_path


class StepTables:
    """An automaton compiled into integer step tables.

    `accepting[i]` is slave i's accepting set and `moves[i][s][a]` its moves
    from state s on letter a, as ((i, target), effective weight).
    `master[q][a]` lists the master moves on letter a as (target, accepting,
    starts); starts are the choices for the invoked slot, a move of the
    invoked slave from one of its initial states or None for a silent move
    (a dummy label, or a slave accepting the empty word). A master move whose
    invoked slave dies at once is left out.
    """

    def __init__(self, nwa: Nwa):
        letters = range(len(nwa.alphabet))
        self.accepting = (frozenset(),) + tuple(sl.base.accepting for sl in nwa.slaves)
        self.moves = ((),) + tuple(
            tuple(
                tuple(tuple(((i, s2), sl.effective_weight(w)) for s2, w in sl.base.succ(s, a)) for a in letters)
                for s in range(sl.base.n_states)
            )
            for i, sl in enumerate(nwa.slaves, start=1)
        )
        self.master = tuple(
            tuple(tuple(self._master_moves(nwa, q, a)) for a in letters) for q in range(nwa.master.n_states)
        )

    def _master_moves(self, nwa: Nwa, q: int, a: int):
        for q2, label in nwa.master.succ(q, a):
            starts: tuple = (None,)
            if not nwa.is_dummy(label):
                aut = nwa.slave(label).base
                starts = tuple(m for s0 in sorted(aut.initials - aut.accepting) for m in self.moves[label][s0][a])
                starts += (None,) * bool(aut.initials & aut.accepting)
                if not starts:
                    continue
            yield q2, q2 in nwa.master.accepting, starts

    def step(self, q: int, slots: tuple[tuple[int, int], ...], a: int) -> list[tuple]:
        """Every joint choice from configuration (q, slots) on letter a, as
        ((master target, target slots), slot weights, invoked slave or None,
        released positions, master target accepting).

        Accepting-state slots terminate first (forced), then a master move is
        chosen, each surviving slot picks a move independently, and a
        non-silent invocation appends a fresh slot that also consumes the
        letter. Choices come in master move order, then the surviving slots'
        moves in lexicographic order, then the invoked slot's.
        """
        masters = self.master[q][a]
        if not masters:
            return []
        acc, moves = self.accepting, self.moves
        returned: tuple[int, ...] = ()
        per_slot = []
        for pos, (i, s) in enumerate(slots, start=1):
            if s in acc[i]:
                returned += (pos,)
            else:
                per_slot.append(moves[i][s][a])
        combos = [tuple(zip(*c)) or ((), ()) for c in product(*per_slot)]  # (kept slots, their weights)
        out = []
        for q2, accepting, starts in masters:
            for kept, weights in combos:
                for new in starts:
                    if new is None:
                        out.append(((q2, kept), weights, None, returned, accepting))
                    else:
                        out.append(((q2, kept + (new[0],)), weights + (new[1],), new[0][0], returned, accepting))
        return out


class ConfigGraph:
    """The reachable configuration graph of one exploration, on integer ids.

    Configurations are numbered in canonical (master state, slots) order and
    `configs[u]` is configuration u; `initials` lists the ids of the
    slot-free initial ones. Edge n is one joint step of master and active
    slaves: it runs from configuration `src[n]` to `dst[n]` on letter
    `letter[n]`. `slot_weights[n]` aligns with the source's surviving slots
    in order, the newly invoked slot last, and holds effective weights
    (absolute for Sum+ slaves); `cost[n]` is their sum. `invoked[n]` is the
    invoked slave, or None for a silent move. `returned[n]` lists the 1-based
    positions of the source's slots that terminate before the letter is
    consumed; their values live in run simulations, not in the finite graph.
    `master_accepting[n]` tells whether the master target is accepting.
    Edges are sorted by source, then letter, then the order `StepTables.step`
    emits them; the edges of configuration u are `start[u]` to
    `start[u + 1] - 1`, and `len` counts them. `overflow` is (u, a) for
    the first step in breadth-first order that needs a (k+1)-th slot, from
    configuration u on letter a, or None when no reachable step does; such
    steps are not edges. `comp` gives each configuration's strongly
    connected component, computed on first use.
    """

    def __init__(self, configs: tuple[Configuration, ...], rows: list[tuple], start: list[int], initials: list[int],
                 overflow: tuple[int, int] | None):
        self.configs, self.start, self.initials, self.overflow = configs, start, initials, overflow
        columns = tuple(zip(*rows)) or ((),) * 8
        (self.src, self.dst, self.letter, self.slot_weights, self.cost, self.invoked, self.returned,
         self.master_accepting) = columns

    def __len__(self) -> int:
        return len(self.src)

    def out(self, u: int) -> range:
        """Indexes of the edges leaving configuration u."""
        return range(self.start[u], self.start[u + 1])

    @cached_property
    def comp(self) -> list[int]:
        return sccs(len(self.configs), zip(self.src, self.dst))

    def access(self, u: int) -> list[int]:
        """Edge indexes of a shortest path from an initial configuration to
        configuration u, the first in edge order."""
        dst = self.dst
        return shortest_path(self.initials, lambda v: ((n, dst[n]) for n in self.out(v)), u.__eq__)

    def overflow_word(self, letters: tuple[str, ...]) -> tuple[str, ...]:
        """The letters of `access` to the `overflow` step's configuration,
        then its letter: a shortest word whose last step needs a (k+1)-th
        slot, the first in edge order, as `has_width` finds it."""
        u, a = self.overflow
        return tuple(letters[self.letter[n]] for n in self.access(u)) + (letters[a],)

    def lasso(self, letters: tuple[str, ...], root: int, period: list[int]) -> LassoWord:
        """The letters of `access(root)`, then of the closed walk `period`
        from `root` forever."""
        return LassoWord(*(tuple(letters[self.letter[n]] for n in walk) for walk in (self.access(root), period)))


def explore(nwa: Nwa, k: int) -> tuple[tuple[Configuration, ...], ConfigGraph]:
    """Reachable configurations under width cap k in canonical (master state,
    slots) order, and the edges between them.

    One breadth-first worklist over (master state, slots) keys expands each
    configuration on each letter once; steps past the cap are not expanded.
    """
    step = StepTables(nwa).step
    keys = sorted((q, ()) for q in nwa.master.initials)
    found = {key: n for n, key in enumerate(keys)}  # key -> discovery number
    outs: list[list[tuple]] = []  # per discovery number, its edges to discovery numbers
    overflow = None  # (discovery number, letter) of the first step past the cap
    while len(outs) < len(keys):
        q, slots = keys[len(outs)]
        out = []
        for a in range(len(nwa.alphabet)):
            for target, weights, invoked, returned, accepting in step(q, slots, a):
                if len(target[1]) > k:
                    overflow = overflow or (len(outs), a)
                    continue
                d = found.get(target)
                if d is None:
                    d = found[target] = len(keys)
                    keys.append(target)
                out.append((d, a, weights, sum(weights), invoked, returned, accepting))
        outs.append(out)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(keys)
    for u, d in enumerate(order):
        rank[d] = u
    rows: list[tuple] = []
    start = [0]
    for u, d in enumerate(order):
        rows += [(u, rank[t], *rest) for t, *rest in outs[d]]
        start.append(len(rows))
    configs = tuple(Configuration(*keys[d]) for d in order)
    if overflow is not None:
        overflow = rank[overflow[0]], overflow[1]
    return configs, ConfigGraph(configs, rows, start, sorted(rank[: len(nwa.master.initials)]), overflow)

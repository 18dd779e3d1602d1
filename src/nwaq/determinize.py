"""Configuration-graph exploration and the infimum-preserving determinization.

A configuration couples the master state with the states of the active
slaves, least recently invoked first. `StepTables` compiles an automaton once
into integer tables and steps a configuration by them; it is the one place
that knows the release, choose and invoke rule. The explorer enumerates every
joint choice a nondeterministic automaton has on a letter, so each edge is one
choice and the decisions run on this graph directly. The same edges are the
letters of `materialize_deterministic`, the paper's explicit determinization,
kept as a reference for tests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional

from .core import (
    Configuration,
    LabeledAutomaton,
    Nwa,
    NwaError,
    ValueFn,
    WeightedAutomaton,
)
from .meanpayoff import _sccs


class CapExceededError(NwaError):
    """Reachable state count went past the configured materialization cap."""


@dataclass(frozen=True)
class ConfigEdge:
    """One joint step of master and active slaves on a letter.

    slot_weights aligns with the surviving slots of `from_config` in order,
    the newly invoked slot last; weights are effective (absolute for Sum+
    slaves). `returned` lists the 1-based positions of `from_config` slots
    that terminate before the letter is consumed; their values live in run
    simulations, not in the finite graph.
    """

    from_config: Configuration
    letter: int
    to_config: Configuration
    invoked: Optional[int]
    slot_weights: tuple[int, ...]
    returned: tuple[int, ...]
    master_accepting: bool
    width_overflow: bool = False


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


def config_initials(nwa: Nwa) -> set[Configuration]:
    """One slot-free configuration per master initial state."""
    return {Configuration(q, ()) for q in nwa.master.initials}


def config_successors(
    nwa: Nwa, c: Configuration, letter: int, cap: Optional[int] = None
) -> list[ConfigEdge]:
    """All joint-choice edges from a configuration on a letter, by
    `StepTables.step`. Edges whose slot count passes `cap` carry the
    width-overflow mark."""
    return [
        ConfigEdge(c, letter, Configuration(*target), invoked, weights, returned, accepting,
                   cap is not None and len(target[1]) > cap)
        for target, weights, invoked, returned, accepting in StepTables(nwa).step(c.master_state, c.slots, letter)
    ]


class ConfigEdges(Sequence):
    """The edges of one exploration as flat per-edge arrays.

    Edge n runs from configuration `src[n]` to `dst[n]` on letter
    `letter[n]`; `slot_weights[n]` and their sum `cost[n]`, `invoked[n]`,
    `returned[n]` and `master_accepting[n]` are as in `ConfigEdge`. Edges are
    sorted by source, then letter, then the order `StepTables.step` emits
    them; the edges of configuration u are `start[u]` to `start[u + 1] - 1`.
    `overflow` is set when some reachable step needs a (k+1)-th slot; such
    steps are not edges. Indexing builds a `ConfigEdge`.
    """

    def __init__(self, configs: tuple[Configuration, ...], rows: list[tuple], start: list[int], overflow: bool):
        self.configs, self.start, self.overflow = configs, start, overflow
        columns = tuple(zip(*rows)) or ((),) * 8
        (self.src, self.dst, self.letter, self.slot_weights, self.cost, self.invoked, self.returned,
         self.master_accepting) = columns

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, n: int) -> ConfigEdge:
        return ConfigEdge(
            self.configs[self.src[n]], self.letter[n], self.configs[self.dst[n]], self.invoked[n],
            self.slot_weights[n], self.returned[n], self.master_accepting[n],
        )


def explore(nwa: Nwa, k: int) -> tuple[tuple[Configuration, ...], ConfigEdges]:
    """Reachable configurations under width cap k in canonical (master state,
    slots) order, and the edges between them.

    One breadth-first worklist over (master state, slots) keys expands each
    configuration on each letter once; steps past the cap are not expanded.
    """
    step = StepTables(nwa).step
    keys = sorted((q, ()) for q in nwa.master.initials)
    found = {key: n for n, key in enumerate(keys)}  # key -> discovery number
    outs: list[list[tuple]] = []  # per discovery number, its edges to discovery numbers
    overflow = False
    while len(outs) < len(keys):
        q, slots = keys[len(outs)]
        out = []
        for a in range(len(nwa.alphabet)):
            for target, weights, invoked, returned, accepting in step(q, slots, a):
                if len(target[1]) > k:
                    overflow = True
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
    return configs, ConfigEdges(configs, rows, start, overflow)


class ConfigGraph:
    """The reachable configuration graph of one exploration, on integer ids.

    Built as `ConfigGraph(*explore(nwa, k))`. Configurations are numbered in
    canonical (master state, slots) order; `index` maps each to its id.
    `edges` holds the edges that stay within width k as flat per-edge arrays
    (`ConfigEdges`). `overflow` is set when some reachable step needs a
    (k+1)-th slot. `comp` gives each configuration's strongly connected
    component, computed on first use.
    """

    def __init__(self, configs: tuple[Configuration, ...], edges: ConfigEdges):
        self.configs = configs
        self.index = {c: n for n, c in enumerate(configs)}
        self.edges = edges
        self.overflow = edges.overflow

    def out(self, u: int) -> range:
        """Indexes of the edges leaving configuration u."""
        return range(self.edges.start[u], self.edges.start[u + 1])

    @cached_property
    def comp(self) -> list[int]:
        return _sccs(len(self.configs), zip(self.edges.src, self.edges.dst))


def count_configurations(nwa: Nwa, k: int) -> int:
    """Number of configurations reachable under width cap k."""
    configs, _ = explore(nwa, k)
    return len(configs)


def config_bound(nwa: Nwa, k: int) -> int:
    """Syntactic bound |Q_mas| * (|Q_s| + 1)^k on the configuration count."""
    total_slave_states = sum(sl.base.n_states for sl in nwa.slaves)
    return nwa.master.n_states * (total_slave_states + 1) ** k


def materialize_deterministic(nwa: Nwa, k: int, cap: int = 10_000) -> Nwa:
    """Explicit deterministic automaton whose letters are the live choice edges.

    Slave nondeterminism is resolved by giving each slave k copies; a slot
    keeps its copy for its whole run, so simultaneously active copies are
    distinct and each edge letter pins one transition per involved automaton.
    The new master runs over the decorated configurations, which ties every
    letter to its source configuration: runs of the output correspond one to
    one to runs of the copied input. The infimum over lasso words is
    preserved; the output passes the deterministic check and has width <= k.
    """
    # decorated slots carry (slave, copy, state)
    initial_master = sorted(nwa.master.initials)

    DSlot = tuple[int, int, int]
    DConfig = tuple[int, tuple[DSlot, ...]]

    tables = StepTables(nwa)

    def successors(dc: DConfig, a: int):
        q, slots = dc
        for (q2, slots2), weights, invoked, returned, _ in tables.step(q, tuple((i, s) for i, _, s in slots), a):
            if len(slots2) > k:
                continue
            survivors = [slot for pos, slot in enumerate(slots, start=1) if pos not in returned]
            to_slots = [(i, cp, s2) for (i, cp, _), (_, s2) in zip(survivors, slots2)]
            if invoked is not None:
                used = {c for i, c, _ in to_slots if i == invoked}
                copy = next(n for n in range(k) if n not in used)
                to_slots.append((invoked, copy, slots2[-1][1]))
            yield (weights, -1 if invoked is None else invoked, returned), (q2, tuple(to_slots))

    start: list[DConfig] = [(q, ()) for q in initial_master]
    seen: set[DConfig] = set(start)
    todo = list(start)
    found_edges = []  # (from DConfig, letter, (weights, invoked or -1, returned), to DConfig)
    while todo:
        todo.sort(reverse=True)
        dc = todo.pop()
        if len(seen) > cap:
            raise CapExceededError(f"more than {cap} reachable decorated configurations")
        for a in range(len(nwa.alphabet)):
            for e, dc2 in successors(dc, a):
                found_edges.append((dc, a, e, dc2))
                if dc2 not in seen:
                    seen.add(dc2)
                    todo.append(dc2)

    found_edges.sort(key=lambda t: (t[0], t[1], t[3], t[2]))
    letter_names = tuple(f"x{n}" for n in range(len(found_edges)))
    from .core import Alphabet

    if not found_edges:
        letter_names = ("xnone",)
    alphabet = Alphabet(letter_names)

    # collect slave copies that actually run
    copies: list[tuple[int, int]] = sorted(
        {(i, cp) for dc, _, _, _ in found_edges for i, cp, _ in dc[1]}
        | {(dc2[1][-1][0], dc2[1][-1][1]) for _, _, e, dc2 in found_edges if e[1] >= 0}
    )
    copy_index = {ic: n + 1 for n, ic in enumerate(copies)}
    dummy_index = len(copies) + 1

    # master states: the reachable decorated configs, plus a synthetic start
    # only when the input has several initial states
    multi_initial = len(start) > 1
    dconfigs = sorted(seen)
    offset = 1 if multi_initial else 0
    dc_index = {dc: n + offset for n, dc in enumerate(dconfigs)}
    start_state = 0 if multi_initial else dc_index[start[0]]

    def dc_name(dc):
        q, slots = dc
        inner = ",".join(f"B{i}c{cp}.{nwa.slave(i).base.state_names[s]}" for i, cp, s in slots)
        return f"{nwa.master.state_names[q]}[{inner}]"

    master_names = (("start",) if multi_initial else ()) + tuple(dc_name(dc) for dc in dconfigs)
    master_trans = []
    slave_trans: dict[tuple[int, int], list] = {ic: [] for ic in copies}
    for n, (dc, a, (weights, invoked, returned), dc2) in enumerate(found_edges):
        q, slots = dc
        if invoked >= 0:
            new_slot = dc2[1][-1]
            label = copy_index[(new_slot[0], new_slot[1])]
        else:
            label = dummy_index
        master_trans.append((dc_index[dc], n, dc_index[dc2], label))
        if multi_initial and dc in start and not slots:
            master_trans.append((start_state, n, dc_index[dc2], label))
        survivors = [slot for pos, slot in enumerate(slots, start=1) if pos not in returned]
        for (i, cp, s), (_, _, s2), w in zip(survivors, dc2[1], weights):
            slave_trans[(i, cp)].append((s, n, s2, w))
        if invoked >= 0:
            i, cp, s2 = dc2[1][-1]
            # each copy gets a fresh entry state so multiple original initials
            # cannot clash; the edge already pinned the post-letter state
            entry = nwa.slave(i).base.n_states
            slave_trans[(i, cp)].append((entry, n, s2, weights[-1]))

    master = LabeledAutomaton(
        alphabet=alphabet,
        n_states=offset + len(dconfigs),
        state_names=master_names,
        initials=frozenset({start_state}),
        transitions=tuple(sorted(set(master_trans))),
        accepting=frozenset(dc_index[dc] for dc in dconfigs if dc[0] in nwa.master.accepting),
    )
    slaves = []
    for i, cp in copies:
        aut = nwa.slave(i).base
        entry = aut.n_states
        slaves.append(
            WeightedAutomaton(
                LabeledAutomaton(
                    alphabet=alphabet,
                    n_states=aut.n_states + 1,
                    state_names=tuple(f"{nm}@{cp}" for nm in aut.state_names) + (f"entry@{cp}",),
                    initials=frozenset({entry}),
                    transitions=tuple(sorted(set(slave_trans[(i, cp)]))),
                    accepting=frozenset(aut.accepting),
                ),
                ValueFn.SUM,  # weights are already effective
            )
        )
    slaves.append(
        WeightedAutomaton(
            LabeledAutomaton(alphabet, 1, ("d0",), frozenset({0}), (), frozenset({0})),
            ValueFn.SUM,
        )
    )
    return Nwa(master, tuple(slaves), name=(nwa.name + "_det") if nwa.name else "det")

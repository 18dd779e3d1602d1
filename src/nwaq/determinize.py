"""Configuration-graph exploration and the infimum-preserving determinization.

A configuration couples the master state with the states of the active
slaves, least recently invoked first. The explorer enumerates every joint
choice a nondeterministic automaton has on a letter, so each edge is one
choice and the decisions run on this graph directly. The same edges are the
letters of `materialize_deterministic`, the paper's explicit determinization,
kept as a reference for tests.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
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


def config_initials(nwa: Nwa) -> set[Configuration]:
    """One slot-free configuration per master initial state."""
    return {Configuration(q, ()) for q in nwa.master.initials}


def config_successors(
    nwa: Nwa, c: Configuration, letter: int, cap: Optional[int] = None
) -> list[ConfigEdge]:
    """All joint-choice edges from a configuration on a letter.

    Accepting-state slots terminate first (forced), then a master transition
    is chosen, each surviving slot picks a transition independently, and a
    non-dummy invocation appends a fresh slot that also consumes the letter
    (a slave accepting the empty word contributes a silent move instead).
    Edges whose slot count passes `cap` carry the width-overflow mark.
    """
    released: list[int] = []
    survivors: list[tuple[int, int]] = []
    for pos, (i, s) in enumerate(c.slots, start=1):
        if s in nwa.slave(i).base.accepting:
            released.append(pos)
        else:
            survivors.append((i, s))
    edges: list[ConfigEdge] = []
    for q2, label in nwa.master.succ(c.master_state, letter):
        move_choices: list[list[tuple[int, int, int]]] = []
        dead = False
        for i, s in survivors:
            sl = nwa.slave(i)
            moves = [(i, s2, sl.effective_weight(w)) for s2, w in sl.base.succ(s, letter)]
            if not moves:
                dead = True
                break
            move_choices.append(moves)
        if dead:
            continue
        new_choices: list[Optional[tuple[int, int, int]]] = [None]
        if not nwa.is_dummy(label):
            aut = nwa.slave(label).base
            starts: list[Optional[tuple[int, int, int]]] = []
            silent = False
            for s0 in sorted(aut.initials):
                if s0 in aut.accepting:
                    silent = True  # empty-word acceptance: silent move
                    continue
                for s1, w0 in aut.succ(s0, letter):
                    starts.append((label, s1, nwa.slave(label).effective_weight(w0)))
            if silent:
                starts.append(None)
            if not starts:
                continue  # the invoked slave dies immediately
            new_choices = starts
        for combo in _product(move_choices):
            for new in new_choices:
                slots = tuple((i, s2) for i, s2, _ in combo)
                weights = tuple(w for _, _, w in combo)
                invoked = None
                if new is not None:
                    slots = slots + ((new[0], new[1]),)
                    weights = weights + (new[2],)
                    invoked = new[0]
                to = Configuration(q2, slots)
                edges.append(
                    ConfigEdge(
                        from_config=c,
                        letter=letter,
                        to_config=to,
                        invoked=invoked,
                        slot_weights=weights,
                        returned=tuple(released),
                        master_accepting=q2 in nwa.master.accepting,
                        width_overflow=cap is not None and len(slots) > cap,
                    )
                )
    return edges


def _product(choices):
    if not choices:
        yield ()
        return
    head, *rest = choices
    for h in head:
        for r in _product(rest):
            yield (h,) + r


def explore(nwa: Nwa, k: int) -> tuple[list[Configuration], list[ConfigEdge]]:
    """Reachable configurations and edges under width cap k, in canonical order.

    Overflow edges are reported but their targets are not expanded.
    """
    todo = [(_config_key(c), c) for c in config_initials(nwa)]
    heapq.heapify(todo)
    seen = {c for _, c in todo}
    configs: list[Configuration] = []
    edges: list[ConfigEdge] = []
    while todo:
        _, c = heapq.heappop(todo)
        configs.append(c)
        for a in range(len(nwa.alphabet)):
            for e in config_successors(nwa, c, a, cap=k):
                edges.append(e)
                if not e.width_overflow and e.to_config not in seen:
                    seen.add(e.to_config)
                    heapq.heappush(todo, (_config_key(e.to_config), e.to_config))
    return configs, edges


class ConfigGraph:
    """The reachable configuration graph of one exploration, on integer ids.

    Built as `ConfigGraph(*explore(nwa, k))`. Configurations are numbered in
    canonical (master state, slots) order. `edges` are the edges that stay
    within width k, sorted by source and then letter, with endpoint ids
    `src[n]` and `dst[n]`. `overflow` is set when some reachable step needs
    a (k+1)-th slot. `comp` gives each configuration's strongly connected
    component, computed on first use.
    """

    def __init__(self, configs: list[Configuration], edges: list[ConfigEdge]):
        self.configs = tuple(sorted(configs, key=_config_key))
        self.index = {c: n for n, c in enumerate(self.configs)}
        self.overflow = any(e.width_overflow for e in edges)
        index = self.index
        # explore lists each source's edges together, by letter
        self.edges = tuple(sorted((e for e in edges if not e.width_overflow), key=lambda e: index[e.from_config]))
        self.src = [index[e.from_config] for e in self.edges]
        self.dst = [index[e.to_config] for e in self.edges]

    def out(self, u: int) -> range:
        """Indexes of the edges leaving configuration u."""
        return range(bisect_left(self.src, u), bisect_left(self.src, u + 1))

    @cached_property
    def comp(self) -> list[int]:
        return _sccs(len(self.configs), zip(self.src, self.dst))


def _config_key(c: Configuration):
    return (c.master_state, c.slots)


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

    def successors(dc: DConfig, a: int):
        q, slots = dc
        plain = Configuration(q, tuple((i, s) for i, _, s in slots))
        for e in config_successors(nwa, plain, a, cap=k):
            if e.width_overflow:
                continue
            survivors = [slot for pos, slot in enumerate(slots, start=1) if pos not in e.returned]
            to_slots = []
            n_old = len(e.to_config.slots) - (1 if e.invoked is not None else 0)
            for idx in range(n_old):
                i, s2 = e.to_config.slots[idx]
                to_slots.append((i, survivors[idx][1], s2))
            if e.invoked is not None:
                used = {c for i, c, _ in to_slots if i == e.invoked}
                copy = next(n for n in range(k) if n not in used)
                i, s2 = e.to_config.slots[-1]
                to_slots.append((i, copy, s2))
            yield e, (e.to_config.master_state, tuple(to_slots))

    start: list[DConfig] = [(q, ()) for q in initial_master]
    seen: set[DConfig] = set(start)
    todo = list(start)
    found_edges = []  # (from DConfig, letter, edge, to DConfig)
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

    found_edges.sort(
        key=lambda t: (
            t[0],
            t[1],
            t[3],
            t[2].slot_weights,
            -1 if t[2].invoked is None else t[2].invoked,
            t[2].returned,
        )
    )
    letter_names = tuple(f"x{n}" for n in range(len(found_edges)))
    from .core import Alphabet

    if not found_edges:
        letter_names = ("xnone",)
    alphabet = Alphabet(letter_names)

    # collect slave copies that actually run
    copies: list[tuple[int, int]] = sorted(
        {(i, cp) for dc, _, _, _ in found_edges for i, cp, _ in dc[1]}
        | {(dc2[1][-1][0], dc2[1][-1][1]) for _, _, e, dc2 in found_edges if e.invoked is not None}
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
    for n, (dc, a, e, dc2) in enumerate(found_edges):
        q, slots = dc
        if e.invoked is not None:
            new_slot = dc2[1][-1]
            label = copy_index[(new_slot[0], new_slot[1])]
        else:
            label = dummy_index
        master_trans.append((dc_index[dc], n, dc_index[dc2], label))
        if multi_initial and dc in start and not slots:
            master_trans.append((start_state, n, dc_index[dc2], label))
        survivors = [slot for pos, slot in enumerate(slots, start=1) if pos not in e.returned]
        n_old = len(e.to_config.slots) - (1 if e.invoked is not None else 0)
        for idx in range(n_old):
            i, cp, s = survivors[idx]
            s2 = e.to_config.slots[idx][1]
            slave_trans[(i, cp)].append((s, n, s2, e.slot_weights[idx]))
        if e.invoked is not None:
            i, cp, s2 = dc2[1][-1]
            # each copy gets a fresh entry state so multiple original initials
            # cannot clash; the edge already pinned the post-letter state
            entry = nwa.slave(i).base.n_states
            slave_trans[(i, cp)].append((entry, n, s2, e.slot_weights[-1]))

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

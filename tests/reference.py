"""Reference code the package no longer runs: the paper's explicit
determinization, the width-1 fragment summary, threshold emptiness on a
ratio graph, configuration counts and their eager decoding, the finite
value of a weight sequence, the normalization of slave accepting states,
the dict-adjacency component search and per-j descent test that the
configuration graph's components and star test were rewritten from, the
mirrored automaton and least slave weight that universality and the star
test's quick exit read before the step tables took the sign, the
per-(master state, letter) derivation of `StepTables.master` that the
tables compiled before they walked the master's transitions, the
per-(letter, slave state) derivation of `StepTables.moves` that they
compiled before they walked each slave's transitions, and the two
closed-walk searches that `ConfigGraph.closed_walk` replaced: the descent
witness's closing path and the pipeline's walk through given edge kinds,
and the command-line parser that built every command's arguments on every
call.

Tests use these as second implementations to compare the pipeline with,
`materialize_deterministic` as the paper's construction that criterion 8
checks the oracle against, and `build_parser` as the parser whose output
and parsed arguments `nwaq.cli.main` must reproduce. Nothing under `src/`
imports this module.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from nwaq.cli import _positive, _threshold_args
from nwaq.core import (
    NEG_INFINITY,
    Alphabet,
    LabeledAutomaton,
    Nwa,
    NwaError,
    NondeterministicInputError,
    PreconditionError,
    Threshold,
    ValueFn,
    ValueResult,
    WeightedAutomaton,
    check64,
    is_deterministic,
)
from nwaq.determinize import ACCEPT, TICK, ConfigGraph, StepTables, explore
from nwaq.graphs import negative_cycle, shortest_path
from nwaq.meanpayoff import CycleWitness, RatioGraph, infimum_ratio
from nwaq.oracle import Configuration
from nwaq.starcond import StarWitness
from nwaq.width import has_width


class CapExceededError(NwaError):
    """Reachable state count went past the configured materialization cap."""


def count_configurations(nwa: Nwa, k: int) -> int:
    """Number of configurations reachable under width cap k."""
    keys, _ = explore(nwa, k)
    return len(keys)


def decode_configurations(nwa: Nwa, keys) -> tuple[Configuration, ...]:
    """The `Configuration` of each (master state, slot ids) key, decoded
    by a fresh `StepTables(nwa).slot_of`."""
    slot_of = StepTables(nwa).slot_of
    return tuple(Configuration(q, tuple(slot_of[g] for g in slots)) for q, slots in keys)


def master_table(nwa: Nwa, tables: StepTables) -> tuple:
    """`tables.master` derived move by move, for every master state and
    letter in order, the invoked slave's starts summed at each move."""
    ids = {slot: g for g, slot in enumerate(tables.slot_of)}

    def moves(q: int, a: int):
        for q2, label in nwa.master.succ(q, a):
            aut = nwa.slave(label).base
            starts = sum((tables.moves[a][ids[label, s0]] for s0 in sorted(aut.initials - aut.accepting)), ())
            starts += (None,) * bool(aut.initials & aut.accepting)
            if starts:
                accept = ACCEPT * (q2 in nwa.master.accepting)
                yield q2, accept, TICK | accept, starts

    letters = range(len(nwa.alphabet))
    return tuple(
        tuple((a, ms) for a in letters if (ms := tuple(moves(q, a))))
        for q in range(nwa.master.n_states)
    )


def slave_moves(nwa: Nwa, sign: int = 1) -> tuple:
    """`StepTables(nwa, sign).moves` derived state by state, for every
    letter and every (slave, state) pair in order: None for an accepting
    state, else its `succ` moves as (target id, effective weight times sign)."""
    slaves = tuple(enumerate(nwa.slaves, start=1))
    ids = {(i, s): g for g, (i, s) in enumerate((i, s) for i, sl in slaves for s in range(sl.base.n_states))}
    return tuple(
        tuple(
            None if s in sl.base.accepting
            else tuple((ids[i, s2], sign * sl.effective_weight(w)) for s2, w in sl.base.succ(s, a))
            for i, sl in slaves
            for s in range(sl.base.n_states)
        )
        for a in range(len(nwa.alphabet))
    )


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
    ids = {slot: g for g, slot in enumerate(tables.slot_of)}

    def successors(dc: DConfig):
        q, slots = dc
        for a, (q2, kept), weights, returned, kinds in tables.step(q, tuple(ids[i, s] for i, _, s in slots)):
            if len(kept) > k:
                continue
            # a non-silent invocation appends its slot last
            invoked = tables.slot_of[kept[-1]][0] if kinds & TICK else None
            slots2 = [tables.slot_of[g] for g in kept]
            survivors = [slot for pos, slot in enumerate(slots, start=1) if pos not in returned]
            to_slots = [(i, cp, s2) for (i, cp, _), (_, s2) in zip(survivors, slots2)]
            if invoked is not None:
                used = {c for i, c, _ in to_slots if i == invoked}
                copy = next(n for n in range(k) if n not in used)
                to_slots.append((invoked, copy, slots2[-1][1]))
            yield a, (weights, -1 if invoked is None else invoked, returned), (q2, tuple(to_slots))

    start: list[DConfig] = [(q, ()) for q in initial_master]
    seen: set[DConfig] = set(start)
    todo = list(start)
    found_edges = []  # (from DConfig, letter, (weights, invoked or -1, returned), to DConfig)
    while todo:
        todo.sort(reverse=True)
        dc = todo.pop()
        if len(seen) > cap:
            raise CapExceededError(f"more than {cap} reachable decorated configurations")
        for a, e, dc2 in successors(dc):
            found_edges.append((dc, a, e, dc2))
            if dc2 not in seen:
                seen.add(dc2)
                todo.append(dc2)

    found_edges.sort(key=lambda t: (t[0], t[1], t[3], t[2]))
    letter_names = tuple(f"x{n}" for n in range(len(found_edges)))
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


def threshold_emptiness(g: RatioGraph, t: Threshold) -> tuple[bool, Optional[CycleWitness]]:
    """Is there a qualifying cycle with ratio <= (or <, when strict) the
    threshold? Decided by comparing it with the least ratio; the witness is
    the least-ratio cycle."""
    _, witness = infimum_ratio(g)
    if witness is not None and t.admits(witness.ratio):
        return True, witness
    return False, None


# ---------------------------------------------------------------------------
# Components and the descent test, on dict adjacency and per j


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


def check_star_condition(graph: ConfigGraph) -> Optional[StarWitness]:
    """First witness in deterministic order (ascending j, then component order),
    or None when every such cycle test is empty or no slot weight of the graph
    is negative."""
    nwa = graph.nwa
    if min((w for ws in graph.slot_weights for w in ws), default=0) >= 0:
        return None

    comp, g, configs = graph.comp, graph, decode_configurations(nwa, graph.keys)
    live = sorted({comp[u] for u, c in enumerate(configs) if c.master_state in nwa.master.accepting})
    # per internal edge, how many of the oldest slots it keeps alive
    keeps = {
        n: min(g.returned[n], default=len(configs[u].slots) + 1) - 1
        for n, (u, v) in enumerate(zip(g.src, g.dst))
        if comp[u] == comp[v]
    }
    for j in range(1, graph.k + 1):
        # per component, the internal edges that keep the j oldest slots alive
        kept: dict[int, list[int]] = {ci: [] for ci in live}
        for n, keep in keeps.items():
            if keep >= j and comp[g.src[n]] in kept:
                kept[comp[g.src[n]]].append(n)
        for ci, ns in kept.items():
            ids: dict[int, int] = {}
            arcs = [
                (ids.setdefault(g.src[n], len(ids)), ids.setdefault(g.dst[n], len(ids)), sum(g.slot_weights[n][:j]))
                for n in ns
            ]
            cycle = negative_cycle(len(ids), arcs)
            if cycle is None:
                continue
            # pumping needs a way back that releases the pumped slots; either
            # every configuration of a component has one or none has
            if g.way_back(g.src[ns[cycle[0]]]) is None:
                live.remove(ci)
                continue
            return StarWitness(j=j, cycle=tuple(ns[i] for i in cycle), j_sum=sum(arcs[i][2] for i in cycle))
    return None


def closing_path(graph: ConfigGraph, anchor: int) -> Optional[list[int]]:
    """Edge indexes of a shortest path from configuration `anchor` back to it
    that releases every slot alive at its start and passes a configuration
    with an accepting master state, or None.

    The search runs breadth first over (configuration, number of the
    starting slots still alive, accepting seen). The starting slots still
    alive are always the oldest, a prefix of the slot list.
    """
    comp, keys, accepting = graph.comp, graph.keys, graph.nwa.master.accepting

    def moves(state):
        u, alive, seen = state
        for n in graph.out(u):
            v = graph.dst[n]
            if comp[v] == comp[anchor]:
                left = alive - sum(1 for pos in graph.returned[n] if pos <= alive)
                yield n, (v, left, seen or keys[v][0] in accepting)

    q, slots = keys[anchor]
    start = (anchor, len(slots), q in accepting)
    return shortest_path([start], moves, lambda state: state == (anchor, 0, True))


def closed_walk(graph: ConfigGraph, root: int, allowed, need: int) -> Optional[list[int]]:
    """Edge indexes of a shortest closed walk from configuration `root`
    over allowed edges that passes every edge kind in `need`."""
    kinds = graph.kinds

    def moves(state):
        u, got = state
        for n in graph.out(u):
            if allowed(n):
                yield n, (graph.dst[n], got | kinds[n] & need)

    return shortest_path([(root, 0)], moves, (root, need).__eq__)


# ---------------------------------------------------------------------------
# Fragment letters and the silent-move limit-average automaton


class NegInfinityFragmentError(NwaError):
    """A fragment's minimal slave value is unbounded below.

    Signals that the overall infimum is minus infinity; the negative-descent
    check run beforehand normally pre-empts this.
    """

    def __init__(self, q1: int, letter: str, q2: int, slave: int):
        super().__init__(f"fragment ({q1}, {letter}, {q2}, B{slave}) has no minimal value")
        self.site = (q1, letter, q2, slave)


class _Lookup:
    """Per-automaton lookup tables for the fragment code; deterministic input."""

    def __init__(self, nwa: Nwa):
        self.master: dict[tuple[int, int], tuple[int, int]] = {}
        for (q, a), succs in nwa.master.by_source.items():
            if succs:
                self.master[(q, a)] = succs[0]
        self.master_initial = next(iter(sorted(nwa.master.initials)))
        self.master_accepting = nwa.master.accepting
        self.slave_step: list[dict[tuple[int, int], tuple[int, int]]] = []
        self.slave_accepting: list[frozenset[int]] = []
        self.slave_initial: list[int] = []
        self.silent_invoke: list[bool] = []
        for idx in range(1, len(nwa.slaves) + 1):
            sl = nwa.slave(idx)
            table = {}
            for (s, a), succs in sl.base.by_source.items():
                if succs:
                    s2, w = succs[0]
                    table[(s, a)] = (s2, sl.effective_weight(w))
            self.slave_step.append(table)
            self.slave_accepting.append(sl.base.accepting)
            s0 = next(iter(sorted(sl.base.initials)))
            self.slave_initial.append(s0)
            # invoking a slave that accepts the empty word is a silent move
            self.silent_invoke.append(s0 in sl.base.accepting)


@dataclass(frozen=True)
class FragmentLetter:
    """Silent(q1, q2) for a nonempty dummy-only master stretch, or
    Valued(q1, a, q2, i) for one complete run of slave i invoked on a."""

    q1: int
    q2: int
    letter: Optional[str] = None
    slave: Optional[int] = None

    @property
    def silent(self) -> bool:
        return self.slave is None

    def __str__(self) -> str:
        if self.silent:
            return f"({self.q1}->{self.q2})"
        return f"({self.q1},{self.letter},B{self.slave}->{self.q2})"


@dataclass(frozen=True)
class SilentLimAvgAutomaton:
    """Deterministic limit-average automaton over fragment letters.

    Transitions carry the minimal value of the fragment they summarize, or
    None for silent letters; two silent letters never chain. realizations
    maps each letter to one input word attaining the minimum.
    """

    n_states: int
    state_names: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    edges: tuple[tuple[int, FragmentLetter, int, Optional[int]], ...]
    realizations: dict[FragmentLetter, tuple[str, ...]]


def min_slave_value(nwa: Nwa, q1: int, a: str, q2: int, i: int) -> Optional[ValueResult]:
    """Minimal value slave i can return on a word moving the master q1 -> q2.

    The master must invoke slave i at q1 on the first letter a; afterwards it
    may only take silent-invoking transitions while the slave runs. None when
    no such word exists; minus infinity when a negative product cycle can
    reach the terminating states.
    """
    got = _fragment_values(nwa, q1, nwa.alphabet.id_of(a))
    if got is None:
        return None
    slave, per_target = got
    if slave != i:
        return None
    hit = per_target.get(q2)
    if hit is None:
        return None
    value, _ = hit
    if value is None:
        return NEG_INFINITY
    return ValueResult.finite(value)


def _fragment_values(nwa: Nwa, q1: int, a: int):
    """All fragment endpoints for the invocation at (q1, a).

    Returns (slave index, {q2: (min value or None for unbounded, word)}), or
    None when (q1, a) does not invoke a slave that consumes a.
    """
    t = _Lookup(nwa)
    move = t.master.get((q1, a))
    if move is None:
        return None
    m1, label = move
    if t.silent_invoke[label - 1]:
        return None
    first = t.slave_step[label - 1].get((t.slave_initial[label - 1], a))
    if first is None:
        return None
    s1, w0 = first
    acc = t.slave_accepting[label - 1]

    # product of the master over silent-invoking moves with the running slave
    nodes = [(m1, s1)]
    index = {(m1, s1): 0}
    edges = []  # (u, v, weight, letter id)
    pos = 0
    while pos < len(nodes):
        m, s = nodes[pos]
        u = pos
        pos += 1
        if s in acc:
            continue  # the slave terminates here, no continuation
        for b in range(len(nwa.alphabet)):
            mv = t.master.get((m, b))
            if mv is None or not t.silent_invoke[mv[1] - 1]:
                continue
            sv = t.slave_step[label - 1].get((s, b))
            if sv is None:
                continue
            node = (mv[0], sv[0])
            if node not in index:
                index[node] = len(nodes)
                nodes.append(node)
            edges.append((u, index[node], sv[1], b))

    n = len(nodes)
    INF = None
    dist: list[Optional[int]] = [INF] * n
    dist[0] = w0
    pred: list[Optional[tuple[int, int, int]]] = [None] * n
    for _ in range(n):
        changed = False
        for u, v, w, b in edges:
            if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
                dist[v] = dist[u] + w
                pred[v] = (u, b, w)
                changed = True
        if not changed:
            break
    on_neg = set()
    for u, v, w, b in edges:
        if dist[u] is not None and (dist[v] is None or dist[u] + w < dist[v]):
            on_neg.add(v)
    # propagate unboundedness forward
    frontier = list(on_neg)
    adj: dict[int, list[int]] = {}
    for u, v, _, _ in edges:
        adj.setdefault(u, []).append(v)
    while frontier:
        u = frontier.pop()
        for v in adj.get(u, ()):
            if v not in on_neg:
                on_neg.add(v)
                frontier.append(v)

    per_target: dict[int, tuple[Optional[int], Optional[tuple[str, ...]]]] = {}
    letters = nwa.alphabet.letters
    for node, pos_ in index.items():
        m, s = node
        if s not in acc or dist[pos_] is None:
            continue
        if pos_ in on_neg:
            per_target[m] = (None, None)
            continue
        word = [letters[a]]
        cur = pos_
        chain = []
        while pred[cur] is not None:
            u, b, _ = pred[cur]
            chain.append(letters[b])
            cur = u
        chain.reverse()
        word.extend(chain)
        old = per_target.get(m)
        if old is None or (old[0] is not None and dist[pos_] < old[0]):
            per_target[m] = (dist[pos_], tuple(word))
    return label, per_target


def fragment_automaton(nwa: Nwa) -> SilentLimAvgAutomaton:
    """Summarize a width-1 deterministic automaton by its run fragments.

    States pair a master state at a fragment boundary with a just-read-silent
    flag that forbids two silent letters in a row. Valued letters exist for
    every realizable fragment and carry its minimal value; a fragment with no
    minimal value raises NegInfinityFragmentError.
    """
    ok, site = is_deterministic(nwa)
    if not ok:
        raise NondeterministicInputError(site or "input is not deterministic")
    okw, _ = has_width(nwa, 1)
    if not okw:
        raise PreconditionError("fragment automaton needs width-1 input")
    t = _Lookup(nwa)
    letters = nwa.alphabet.letters

    silent_next: dict[int, dict[int, tuple[str, ...]]] = {}

    def silent_closure(q: int) -> dict[int, tuple[str, ...]]:
        # shortest dummy-only nonempty paths from q, by BFS
        if q in silent_next:
            return silent_next[q]
        out: dict[int, tuple[str, ...]] = {}
        frontier = [(q, ())]
        while frontier:
            nxt = []
            for m, word in frontier:
                for b in range(len(letters)):
                    mv = t.master.get((m, b))
                    if mv is None or not t.silent_invoke[mv[1] - 1]:
                        continue
                    m2 = mv[0]
                    w2 = word + (letters[b],)
                    if m2 not in out:
                        out[m2] = w2
                        nxt.append((m2, w2))
            frontier = nxt
        silent_next[q] = out
        return out

    boundaries = [t.master_initial]
    seen = {t.master_initial}
    valued: dict[tuple[int, int], tuple[int, dict]] = {}
    pos = 0
    while pos < len(boundaries):
        q = boundaries[pos]
        pos += 1
        for q2 in silent_closure(q):
            if q2 not in seen:
                seen.add(q2)
                boundaries.append(q2)
        for a in range(len(letters)):
            got = _fragment_values(nwa, q, a)
            if got is None:
                continue
            slave, per_target = got
            for q2, (value, _) in per_target.items():
                if value is None:
                    raise NegInfinityFragmentError(q, letters[a], q2, slave)
            valued[(q, a)] = (slave, per_target)
            for q2 in per_target:
                if q2 not in seen:
                    seen.add(q2)
                    boundaries.append(q2)

    # assemble states (boundary, silent flag); all states first, then edges
    state_index: dict[tuple[int, int], int] = {}
    state_list: list[tuple[int, int]] = []

    def intern(q: int, flag: int) -> int:
        key = (q, flag)
        if key not in state_index:
            state_index[key] = len(state_list)
            state_list.append(key)
        return state_index[key]

    initial = intern(t.master_initial, 0)
    for q in boundaries:
        intern(q, 0)
        for q2 in sorted(silent_closure(q)):
            intern(q2, 1)
    edges = []
    realizations: dict[FragmentLetter, tuple[str, ...]] = {}
    for q in boundaries:
        for q2, word in sorted(silent_closure(q).items()):
            letter = FragmentLetter(q1=q, q2=q2)
            realizations[letter] = word
            edges.append((state_index[(q, 0)], letter, state_index[(q2, 1)], None))
    for (q, a), (slave, per_target) in sorted(valued.items()):
        for q2, (value, word) in sorted(per_target.items()):
            letter = FragmentLetter(q1=q, q2=q2, letter=letters[a], slave=slave)
            realizations[letter] = word
            for flag in (0, 1):
                if (q, flag) in state_index:
                    edges.append((state_index[(q, flag)], letter, state_index[(q2, 0)], value))

    accepting = frozenset(
        i for i, (q, _) in enumerate(state_list) if q in t.master_accepting
    )
    names = tuple(f"{nwa.master.state_names[q]}/{flag}" for q, flag in state_list)
    return SilentLimAvgAutomaton(
        n_states=len(state_list),
        state_names=names,
        initial=initial,
        accepting=accepting,
        edges=tuple(edges),
        realizations=realizations,
    )


def finite_value(value_fn: ValueFn, weights: Sequence[int]) -> int:
    """Sum or absolute-sum of a finite weight sequence, 64-bit checked.

    The empty sequence yields 0 by convention; callers that must treat an
    empty run as silent handle that before calling.
    """
    if value_fn not in (ValueFn.SUM, ValueFn.SUM_PLUS):
        raise ValueError(f"finite_value needs a finite-word value function, got {value_fn}")
    total = 0
    for w in weights:
        total += abs(w) if value_fn is ValueFn.SUM_PLUS else w
        check64(total)
    return total




def normalize_slaves(nwa: Nwa) -> Nwa:
    """Equivalent NWA in which no slave accepting state has outgoing transitions.

    Each offending accepting state s is cloned: s keeps its transitions and
    loses acceptance, while a fresh accepting copy receives every transition
    into s (and initiality, where s was initial). Language and per-word
    minimal values of each slave are unchanged.
    """
    new_slaves = []
    changed = False
    for sl in nwa.slaves:
        aut = sl.base
        offenders = sorted({q for q, _, _, _ in aut.transitions if q in aut.accepting})
        if not offenders:
            new_slaves.append(sl)
            continue
        changed = True
        clone_of = {}
        names = list(aut.state_names)
        n = aut.n_states
        for s in offenders:
            clone_of[s] = n
            names.append(aut.state_names[s] + "'acc")
            n += 1
        transitions = []
        for q, a, q2, lab in aut.transitions:
            transitions.append((q, a, q2, lab))
            if q2 in clone_of:
                transitions.append((q, a, clone_of[q2], lab))
        initials = set(aut.initials)
        for s in offenders:
            if s in aut.initials:
                initials.add(clone_of[s])
        accepting = (set(aut.accepting) - set(offenders)) | set(clone_of.values())
        new_slaves.append(
            WeightedAutomaton(
                LabeledAutomaton(
                    alphabet=aut.alphabet,
                    n_states=n,
                    state_names=tuple(names),
                    initials=frozenset(initials),
                    transitions=tuple(sorted(set(transitions))),
                    accepting=frozenset(accepting),
                ),
                sl.value_fn,
            )
        )
    if not changed:
        return nwa
    return Nwa(nwa.master, tuple(new_slaves), nwa.master_value_fn, nwa.name)


def min_effective_weight(nwa: Nwa) -> int:
    """Least effective slave weight; 0 when no slave has a transition."""
    return min((sl.effective_weight(w) for sl in nwa.slaves for _, _, _, w in sl.base.transitions), default=0)


def mirror(nwa: Nwa) -> Nwa:
    """Negate every slave's effective weights; Sum+ slaves become Sum slaves
    over the negated absolute values so that word values flip sign exactly."""
    slaves = tuple(
        WeightedAutomaton(
            replace(sl.base, transitions=tuple((q, a, q2, -sl.effective_weight(w))
                                               for q, a, q2, w in sl.base.transitions)),
            ValueFn.SUM,
        )
        for sl in nwa.slaves
    )
    return Nwa(nwa.master, slaves, nwa.master_value_fn, nwa.name + ".mirror" if nwa.name else "")


# ---------------------------------------------------------------------------
# The full command-line parser, built whichever command is asked


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nwaq", description="nested weighted automata queries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a file and report determinism")
    p.add_argument("file")

    p = sub.add_parser("width", help="check width k or search the minimal width")
    p.add_argument("file")
    p.add_argument("--k", type=_positive)
    p.add_argument("--max", type=_positive)

    p = sub.add_parser("eval", help="evaluate a lasso word")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--cap", type=_positive, default=64, help="width cap for nwa files; an mca's counters bound its width")

    p = sub.add_parser("empty", help="threshold emptiness")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)
    _threshold_args(p)
    p.add_argument("--certificate", metavar="OUT")

    p = sub.add_parser("infimum", help="exact infimum over all words")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)

    p = sub.add_parser("universal", help="deterministic universality")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)
    _threshold_args(p)

    p = sub.add_parser("star", help="negative-descent condition")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)

    p = sub.add_parser("translate", help="translate between nwa and mca")
    p.add_argument("file")
    p.add_argument("--to", choices=("mca", "nwa"), required=True)
    p.add_argument("--k", type=_positive)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("reduce", help="reduce a width-k automaton to width 1")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("-o", "--output", required=True)
    return parser

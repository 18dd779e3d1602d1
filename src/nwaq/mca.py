"""Automata with monitor counters and the translations to and from nested automata.

Counters never influence transitions. Each transition carries one instruction
per counter: start (activate at 0), terminate (return the value to the start
position), add an integer (counter must be active), or a skip marker (counter
must be inactive). Violating an instruction's requirement kills the run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .core import (
    Alphabet,
    LabeledAutomaton,
    LassoWord,
    Nwa,
    NwaError,
    NondeterministicInputError,
    ValueFn,
    ValueResult,
    WeightedAutomaton,
    lasso_run_value,
    validate_automaton,
)
from .determinize import TICK, explore


class InstrKind(enum.Enum):
    START = "s"
    TERMINATE = "t"
    ADD = "add"
    SKIP = "."


class Instr(NamedTuple):
    kind: InstrKind
    amount: int = 0

    @staticmethod
    def start() -> "Instr":
        return Instr(InstrKind.START)

    @staticmethod
    def terminate() -> "Instr":
        return Instr(InstrKind.TERMINATE)

    @staticmethod
    def add(amount: int) -> "Instr":
        return Instr(InstrKind.ADD, amount)

    @staticmethod
    def skip() -> "Instr":
        return Instr(InstrKind.SKIP)

    def __str__(self) -> str:
        return str(self.amount) if self.kind is InstrKind.ADD else self.kind.value


@dataclass(frozen=True)
class Mca:
    """Automaton with n monitor counters over infinite words, LimAvg-valued."""

    alphabet: Alphabet
    n_states: int
    state_names: tuple[str, ...]
    initials: frozenset[int]
    accepting: frozenset[int]
    n_counters: int
    transitions: tuple[tuple[int, int, int, tuple[Instr, ...]], ...]  # (from, letter, to, vector)
    name: str = ""

    @cached_property
    def by_source(self) -> dict[tuple[int, int], tuple[tuple[int, tuple[Instr, ...]], ...]]:
        table: dict[tuple[int, int], list] = {}
        for q, a, q2, vec in sorted(self.transitions, key=transition_order):
            table.setdefault((q, a), []).append((q2, vec))
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def determinism(self) -> bool:
        """One initial state and at most one move per (state, letter),
        computed on first use."""
        return len(self.initials) == 1 and all(len(v) <= 1 for v in self.by_source.values())


def transition_order(t: tuple[int, int, int, tuple[Instr, ...]]) -> tuple:
    """Sort key of the canonical transition order: source, letter, target,
    instruction text."""
    return t[0], t[1], t[2], tuple(map(str, t[3]))


def validate_mca(mca: Mca) -> list[str]:
    """Diagnostics: `validate_automaton`'s, then the counter checks'; empty iff all pass."""
    out = validate_automaton(mca, "mca")
    if mca.n_counters < 0:
        out.append("bad-counter-count")
    for q, a, q2, vec in mca.transitions:
        if len(vec) != mca.n_counters:
            out.append(f"mca: transition ({q},{a},{q2}) vector length {len(vec)} != {mca.n_counters}")
        if sum(1 for ins in vec if ins.kind is InstrKind.START) > 1:
            out.append(f"mca: transition ({q},{a},{q2}) starts more than one counter")
    return out


def evaluate_lasso_mca(mca: Mca, w: LassoWord) -> ValueResult:
    """Exact value of a deterministic monitor-counter automaton on a lasso word.

    The run dies (+inf) on a missing transition or a violated instruction
    requirement. Each letter applies one instruction vector; `lasso_run_value`
    values the run from the values that terminations return, with the state
    and the active counters' values and ages as its snapshot.
    """
    if not mca.determinism:
        raise NondeterministicInputError("evaluate_lasso_mca needs a deterministic automaton")
    state = next(iter(mca.initials))
    counters: dict[int, list[int]] = {}  # counter -> [value, age]

    def advance(a: int) -> Optional[tuple[list[int], bool, int]]:
        nonlocal state
        targets = mca.by_source.get((state, a), ())
        if not targets:
            return None
        state, vec = targets[0]
        ended: list[int] = []  # the values of the counters this letter terminates
        for j, ins in enumerate(vec):
            if ins.kind is InstrKind.START:
                if j in counters:
                    return None
                counters[j] = [0, 0]
            elif ins.kind is InstrKind.TERMINATE:
                if j not in counters:
                    return None
                ended.append(counters.pop(j)[0])
            elif ins.kind is InstrKind.ADD:
                if j not in counters:
                    return None
                counters[j][0] += ins.amount
            elif j in counters:  # SKIP asserts the counter is inactive
                return None
        for c in counters.values():
            c[1] += 1
        return ended, state in mca.accepting, next(iter(counters.values()))[1] if counters else 0  # oldest first

    def snapshot() -> tuple:
        return state, tuple(sorted((j, v, g) for j, (v, g) in counters.items()))

    ids = mca.alphabet.id_of
    return lasso_run_value(advance, snapshot, mca.n_states, [ids(a) for a in w.prefix], [ids(a) for a in w.period])


def mca_to_nwa(mca: Mca) -> Nwa:
    """Equivalent nested automaton: one tracking slave per counter plus a dummy.

    Slave i mirrors the transition structure, weighting each transition by the
    add amount for counter i and accepting exactly where counter i terminates.
    The master invokes slave i on transitions starting counter i.
    """
    if not mca.determinism:
        raise NondeterministicInputError("mca_to_nwa is stated for deterministic input")
    k = mca.n_counters
    dummy_index = k + 1
    master_trans = []
    for q, a, q2, vec in mca.transitions:
        label = dummy_index
        for j, ins in enumerate(vec):
            if ins.kind is InstrKind.START:
                label = j + 1
        master_trans.append((q, a, q2, label))
    master = LabeledAutomaton(
        alphabet=mca.alphabet,
        n_states=mca.n_states,
        state_names=mca.state_names,
        initials=mca.initials,
        transitions=tuple(sorted(master_trans)),
        accepting=mca.accepting,
    )
    slaves = []
    for j in range(k):
        # states: 0 = entry, 1..n = tracked state copies, n+1 = accepting sink
        entry = 0
        off = 1
        sink = mca.n_states + 1
        trans = []
        for q, a, q2, vec in mca.transitions:
            ins = vec[j]
            if ins.kind is InstrKind.START:
                trans.append((entry, a, off + q2, 0))
            elif ins.kind is InstrKind.ADD:
                trans.append((off + q, a, off + q2, ins.amount))
            elif ins.kind is InstrKind.TERMINATE:
                trans.append((off + q, a, sink, 0))
        names = ("start",) + tuple(f"c{j+1}_{s}" for s in mca.state_names) + ("done",)
        slaves.append(
            WeightedAutomaton(
                LabeledAutomaton(
                    alphabet=mca.alphabet,
                    n_states=mca.n_states + 2,
                    state_names=names,
                    initials=frozenset({entry}),
                    transitions=tuple(sorted(trans)),
                    accepting=frozenset({sink}),
                ),
                ValueFn.SUM,
            )
        )
    slaves.append(Nwa.dummy_slave(mca.alphabet))
    return Nwa(master, tuple(slaves), name=(mca.name + "_as_nwa") if mca.name else "")


def nwa_to_mca(nwa: Nwa, k: int) -> Mca:
    """Product-state monitor-counter automaton simulating a width-k nested automaton.

    States track the master and up to k running slaves, each pinned to a
    counter. Invocation becomes a start on the lowest free counter; since a
    start pins the counter to 0, the slave's first-letter weight is folded
    into its next add. A terminate occupies the counter's instruction slot for
    one step, so a fresh run arriving at the release step takes the next free
    counter; k+1 counters always suffice and are allocated only when needed.
    A depth-first worklist walks the edges of the one explored configuration
    graph (`determinize.explore`); each entry carries a state, its
    configuration and the counters of that configuration's slots, oldest first.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _, graph = explore(nwa, k)
    slot_of = graph.tables.slot_of
    slot_names = [f"B{i}.{nwa.slave(i).base.state_names[s]}" for i, s in slot_of]
    # state (master state, per counter None or (slot id, pending weight)) -> id
    index: dict[tuple, int] = {}
    names: list[str] = []

    def intern(st) -> int:
        if st not in index:
            index[st] = len(names)
            parts = ["_" if slot is None else f"{slot_names[slot[0]]}.{slot[1]}" for slot in st[1]]
            names.append("|".join([nwa.master.state_names[st[0]], *parts]))
        return index[st]

    todo = [((graph.keys[u][0], (None,) * (k + 1)), u, ()) for u in graph.initials]
    initials = frozenset(intern(st) for st, _, _ in todo)
    trans = []
    while todo:
        st, u, counters = todo.pop()
        slots = st[1]
        for n in graph.out(u):
            weights = graph.slot_weights[n]
            q2, ids = graph.keys[graph.dst[n]]
            slots2, vec = list(slots), [Instr.skip()] * len(slots)
            released = [counters[pos - 1] for pos in graph.returned[n]]
            for j in released:
                slots2[j], vec[j] = None, Instr.terminate()
            kept = [j for j in counters if j not in released]
            for j, g, w in zip(kept, ids, weights):
                slots2[j], vec[j] = (g, 0), Instr.add(w + slots[j][1])
            if graph.kinds[n] & TICK:
                # below width k a counter is always free
                j = next(j for j, slot in enumerate(slots2) if slot is None and vec[j].kind is InstrKind.SKIP)
                invoked, s = slot_of[ids[-1]]
                if s in nwa.slave(invoked).base.accepting and weights[-1]:
                    raise NwaError(
                        "one-letter slave run with nonzero weight cannot be expressed with monitor counters"
                    )
                # a run of a single weight-0 letter starts and terminates on consecutive steps
                slots2[j], vec[j] = (ids[-1], weights[-1]), Instr.start()
                kept.append(j)
            st2 = (q2, tuple(slots2))
            if st2 not in index:
                todo.append((st2, graph.dst[n], tuple(kept)))
            trans.append((index[st], graph.letter[n], intern(st2), tuple(vec)))
    used = max((j + 1 for *_, vec in trans for j, ins in enumerate(vec) if ins.kind is not InstrKind.SKIP),
               default=0)
    trans = sorted(((q, a, q2, vec[:used]) for q, a, q2, vec in trans), key=transition_order)
    return Mca(
        alphabet=nwa.alphabet,
        n_states=len(names),
        state_names=tuple(names),
        initials=initials,
        accepting=frozenset(i for st, i in index.items() if st[0] in nwa.master.accepting),
        n_counters=used,
        transitions=tuple(trans),
        name=(nwa.name + "_as_mca") if nwa.name else "",
    )

"""The width-1 reduction behind `nwaq reduce`: a width-k automaton to width 1.

The construction tracks the master together with all active slaves in the
new master's state and runs a single compound slave that collects the sum of
the tracked slaves' step weights. One compound instance runs per input
invocation, covering the input steps from that invocation up to the next one
(or until its last tracked slave terminates); consuming happens one step
behind the input, with the previous step's weight carried in the state, so
the instance can see in its own state whether the step it just covered
invoked a new slave and terminate exactly there. Counts of returned values
and their period sums match the input on every lasso whose slaves all
terminate within the period. Master acceptance and every-slave-terminates
form a generalized Buchi condition compiled to plain Buchi with the usual
two-phase counter. Both the master and every compound slave walk the edges
of the one explored configuration graph (`determinize.explore`); a
deterministic input has at most one edge per letter.

The paper's next stage, the fragment summary of a width-1 automaton, is not
on the decision path; it lives with the tests' reference code in
`tests/reference.py`.
"""

from __future__ import annotations

from .core import (
    LabeledAutomaton,
    Nwa,
    NondeterministicInputError,
    ValueFn,
    WeightedAutomaton,
    check64,
    is_deterministic,
)
from .determinize import ACCEPT, TICK, ConfigGraph, explore


def reduce_width1(nwa: Nwa, k: int) -> Nwa:
    """Width-1 automaton with the same lasso values wherever both accept.

    Callers must have established that the negative-descent condition fails;
    the construction itself only needs determinism and width k. On lassos in
    which every slave terminates within the period the value is preserved
    exactly: one compound instance returns per input invocation and the
    per-period weight totals agree.
    """
    ok, site = is_deterministic(nwa)
    if not ok:
        raise NondeterministicInputError(site or "input is not deterministic")
    _, graph = explore(nwa, k)
    slot_of = graph.tables.slot_of
    # per configuration, whether every active slave may terminate
    turnover = [all(s in nwa.slave(i).base.accepting for i, s in (slot_of[g] for g in ids)) for _, ids in graph.keys]

    # state: (input configuration, weight of the step just taken, whether
    # that step invoked, whether a compound instance runs, master-acceptance
    # seen since the last instance boundary, turnover seen since the last
    # instance boundary, phase). The sticky flags move the Buchi sets onto
    # boundary states, where fragment letters start and end; the phase
    # degeneralizes them, advancing when leaving a state of the awaited set.
    def f1(state) -> bool:
        return state[3] == 0 and state[4]

    def f2(state) -> bool:
        return state[3] == 0 and state[5]

    u0 = graph.initials[0]
    state0 = (u0, 0, False, 0, graph.keys[u0][0] in nwa.master.accepting, True, 1)
    states = [state0]
    index = {state0: 0}
    trans = []  # (source, letter, target, spawn site or None)
    todo = [state0]
    while todo:
        state = todo.pop()
        u, pending, jflag, bit, f1s, f2s, ph = state
        if ph == 1:
            ph2 = 2 if f1(state) else 1
        else:
            ph2 = 1 if f2(state) else 2
        spawn = bit == 0 and jflag
        spawn_site = (u, pending) if spawn else None
        carry = bit == 1  # the window spans one compound instance
        for n in graph.out(u):
            v, invoked_real = graph.dst[n], bool(graph.kinds[n] & TICK)
            instance_acc = invoked_real or not graph.keys[v][1]
            bit2 = 1 if (spawn or carry) and not instance_acc else 0
            state2 = (v, check64(sum(graph.slot_weights[n])), invoked_real, bit2,
                      bool(graph.kinds[n] & ACCEPT) or (f1s and carry), turnover[v] or (f2s and carry), ph2)
            if state2 not in index:
                index[state2] = len(states)
                states.append(state2)
                todo.append(state2)
            trans.append((index[state], graph.letter[n], index[state2], spawn_site))

    sites = sorted({site for *_, site in trans if site is not None})
    site_index = {s: n + 1 for n, s in enumerate(sites)}  # the dummy slave comes last

    def name(state):
        u, pending, jflag, bit, f1s, f2s, ph = state
        flags = ("!" if jflag else "") + ("F" if f1s else "") + ("T" if f2s else "")
        return f"{_config_name(graph, u)}w{pending}{flags}{bit}p{ph}"

    master = LabeledAutomaton(
        alphabet=nwa.alphabet,
        n_states=len(states),
        state_names=tuple(name(s) for s in states),
        initials=frozenset({0}),
        transitions=tuple(sorted((s, a, t, site_index.get(site, len(sites) + 1)) for s, a, t, site in trans)),
        accepting=frozenset(i for i, s in enumerate(states) if s[6] == 1 and f1(s)),
    )

    slaves = tuple(_compound_slave(graph, site) for site in sites)
    return Nwa(master, slaves + (Nwa.dummy_slave(nwa.alphabet),), name=(nwa.name + "_w1") if nwa.name else "w1")


def _config_name(graph: ConfigGraph, u: int) -> str:
    q, ids = graph.keys[u]
    slots = (graph.tables.slot_of[g] for g in ids)
    inner = ",".join(f"B{i}.{graph.nwa.slave(i).base.state_names[s]}" for i, s in slots)
    return f"{graph.nwa.master.state_names[q]}[{inner}]"


def _compound_slave(graph: ConfigGraph, site: tuple[int, int]) -> WeightedAutomaton:
    """The compound instance spawned one step after an invocation site, a
    configuration id and the weight pending there.

    States past the entry are (configuration, carried weight, cut flag): the
    carried weight is the tracked slaves' total for the step just covered
    and is paid on the next transition. A state is accepting when the
    covered step invoked a new slave (cut) or left no tracked slave.
    Accepting states have no outgoing transitions.
    """
    entry = ("entry",)
    states = [entry]
    index = {entry: 0}
    trans = []

    def accepting_state(state) -> bool:
        v, _, cut = state
        return cut or not graph.keys[v][1]

    todo = [(0, *site)]  # (state id, configuration, carried weight) to expand
    while todo:
        source, u, pending = todo.pop()
        for n in graph.out(u):
            state2 = (graph.dst[n], check64(sum(graph.slot_weights[n])), bool(graph.kinds[n] & TICK))
            if state2 not in index:
                index[state2] = len(states)
                states.append(state2)
                if not accepting_state(state2):
                    todo.append((index[state2], *state2[:2]))
            trans.append((source, graph.letter[n], index[state2], pending))

    def name(state):
        if state == entry:
            return "entry"
        v, pending, cut = state
        return f"{_config_name(graph, v)}w{pending}{'!' if cut else ''}"

    return WeightedAutomaton(
        LabeledAutomaton(
            alphabet=graph.nwa.alphabet,
            n_states=len(states),
            state_names=tuple(name(s) for s in states),
            initials=frozenset({0}),
            transitions=tuple(sorted(trans)),
            accepting=frozenset(i for i, s in enumerate(states) if s != entry and accepting_state(s)),
        ),
        ValueFn.SUM,
    )

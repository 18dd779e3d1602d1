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
two-phase counter. Input steps are taken by `StepTables.step`; a
deterministic input has at most one choice per letter.

The paper's next stage, the fragment summary of a width-1 automaton, is not
on the decision path; it lives with the tests' reference code in
`tests/reference.py`.
"""

from __future__ import annotations

from typing import Optional

from .core import (
    LabeledAutomaton,
    Nwa,
    NondeterministicInputError,
    PreconditionError,
    ValueFn,
    WeightedAutomaton,
    check64,
    is_deterministic,
)
from .determinize import StepTables
from .width import has_width


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
    okw, _ = has_width(nwa, k)
    if not okw:
        raise PreconditionError(f"input exceeds width {k}")
    tables = StepTables(nwa)
    n_letters = len(nwa.alphabet)

    # core state: (input master state, input slots, weight of the step just
    # taken, whether that step invoked, whether a compound instance runs,
    # master-acceptance seen since the last instance boundary, turnover seen
    # since the last instance boundary). The sticky flags move the Buchi sets
    # onto boundary states, where fragment letters start and end.
    q0 = min(nwa.master.initials)
    core0 = (q0, (), 0, False, 0, q0 in nwa.master.accepting, True)
    core_states = [core0]
    core_index = {core0: 0}
    # (source core, letter, target core, spawn site or None)
    core_trans: list[tuple[tuple, int, tuple, Optional[tuple]]] = []
    todo = [core0]
    while todo:
        core = todo.pop()
        q, slots, pending, jflag, bit, f1s, f2s = core
        for a in range(n_letters):
            for (q2, slots2), weights, invoked, _, master_acc in tables.step(q, slots, a):
                invoked_real = invoked is not None
                spawn = bit == 0 and jflag
                instance_acc = invoked_real or not slots2
                bit2 = 1 if (spawn or bit == 1) and not instance_acc else 0
                carry = bit == 1  # the window spans one compound instance
                f1s2 = master_acc or (f1s and carry)
                f2s2 = all(s in tables.accepting[i] for i, s in slots2) or (f2s and carry)
                core2 = (q2, slots2, check64(sum(weights)), invoked_real, bit2, f1s2, f2s2)
                if core2 not in core_index:
                    core_index[core2] = len(core_states)
                    core_states.append(core2)
                    todo.append(core2)
                core_trans.append((core, a, core2, (q, slots, pending) if spawn else None))

    sites = sorted({site for _, _, _, site in core_trans if site is not None})
    site_index = {s: n + 1 for n, s in enumerate(sites)}
    dummy_index = len(sites) + 1

    def f1(core) -> bool:
        return core[4] == 0 and core[5]

    def f2(core) -> bool:
        return core[4] == 0 and core[6]

    # degeneralize: phase advances when leaving a state of the awaited set
    prod0 = (core0, 1)
    prod_states = [prod0]
    prod_index = {prod0: 0}
    master_trans = []
    todo2 = [prod0]
    by_core: dict[tuple, list] = {}
    for item in core_trans:
        by_core.setdefault(item[0], []).append(item)
    while todo2:
        prod = todo2.pop()
        core, ph = prod
        if ph == 1:
            ph2 = 2 if f1(core) else 1
        else:
            ph2 = 1 if f2(core) else 2
        for _, a, core2, site in by_core.get(core, ()):
            prod2 = (core2, ph2)
            if prod2 not in prod_index:
                prod_index[prod2] = len(prod_states)
                prod_states.append(prod2)
                todo2.append(prod2)
            label = site_index[site] if site is not None else dummy_index
            master_trans.append((prod_index[prod], a, prod_index[prod2], label))

    def core_name(core):
        q, slots, pending, jflag, bit, f1s, f2s = core
        inner = ",".join(f"B{i}.{nwa.slave(i).base.state_names[s]}" for i, s in slots)
        flags = ("!" if jflag else "") + ("F" if f1s else "") + ("T" if f2s else "")
        return f"{nwa.master.state_names[q]}[{inner}]w{pending}{flags}{bit}"

    master = LabeledAutomaton(
        alphabet=nwa.alphabet,
        n_states=len(prod_states),
        state_names=tuple(f"{core_name(c)}p{ph}" for c, ph in prod_states),
        initials=frozenset({0}),
        transitions=tuple(sorted(master_trans)),
        accepting=frozenset(i for i, (c, ph) in enumerate(prod_states) if ph == 1 and f1(c)),
    )

    slaves = tuple(_compound_slave(nwa, tables, site) for site in sites)
    dummy = WeightedAutomaton(
        LabeledAutomaton(nwa.alphabet, 1, ("d0",), frozenset({0}), (), frozenset({0})),
        ValueFn.SUM,
    )
    return Nwa(master, slaves + (dummy,), name=(nwa.name + "_w1") if nwa.name else "w1")


def _compound_slave(nwa: Nwa, tables: StepTables, site: tuple) -> WeightedAutomaton:
    """The compound instance spawned one step after an invocation site.

    States past the entry are (master state, tracked slots, carried weight,
    cut flag): the carried weight is the tracked slaves' total for the step
    just covered and is paid on the next transition. A state is accepting
    when the covered step invoked a new slave (cut) or left no tracked slave.
    Accepting states have no outgoing transitions.
    """
    n_letters = len(nwa.alphabet)
    q_site, slots_site, pending_site = site
    entry = ("entry",)
    states = [entry]
    index = {entry: 0}
    trans = []

    def accepting_state(core) -> bool:
        _, slots, _, cut = core
        return cut or not slots

    todo = []

    def expand(source: int, q: int, slots: tuple, pending: int) -> None:
        for a in range(n_letters):
            for (q2, slots2), weights, invoked, _, _ in tables.step(q, slots, a):
                core2 = (q2, slots2, check64(sum(weights)), invoked is not None)
                if core2 not in index:
                    index[core2] = len(states)
                    states.append(core2)
                    if not accepting_state(core2):
                        todo.append(core2)
                trans.append((source, a, index[core2], pending))

    expand(0, q_site, slots_site, pending_site)
    while todo:
        core = todo.pop()
        expand(index[core], *core[:3])

    def name(core):
        if core == entry:
            return "entry"
        q, slots, pending, cut = core
        inner = ",".join(f"B{i}.{nwa.slave(i).base.state_names[s]}" for i, s in slots)
        return f"{nwa.master.state_names[q]}[{inner}]w{pending}{'!' if cut else ''}"

    return WeightedAutomaton(
        LabeledAutomaton(
            alphabet=nwa.alphabet,
            n_states=len(states),
            state_names=tuple(name(c) for c in states),
            initials=frozenset({0}),
            transitions=tuple(sorted(trans)),
            accepting=frozenset(i for i, c in enumerate(states) if c != entry and accepting_state(c)),
        ),
        ValueFn.SUM,
    )

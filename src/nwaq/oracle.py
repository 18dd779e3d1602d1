"""Ground-truth evaluation of nested weighted automata on lasso words.

The oracle is written from the semantics and imports only `core`: it has its
own step rule (`_Rules.step`) and shares no code with the decision pipeline,
so the tests that compare the two check one against the other.

A run takes one of the step's joint choices at every letter. A deterministic
automaton has at most one, choice 0, so `evaluate_lasso`, `trace_lasso` and
`run_values` take a lasso word and reject nondeterministic input;
`enumerate_lasso_infimum` passes explicit choices on nondeterministic input.

The simulator is exact: a slave is released the moment its state is
accepting (checked before the next letter is consumed), and an invoked slave
starts at its invocation position. Periodicity is detected on snapshots taken
at period boundaries that carry the configuration and, per active slave, its
accumulated value and age; a repeated snapshot pins the recurring window
exactly, so the returned limit average is exact.

A slave that survives longer than (number of its states + 2) periods past the
prefix can never terminate (its (state, phase) pairs must repeat), so the run
is rejected at that point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, islice, product
from typing import Optional

from .core import (
    Configuration,
    LassoWord,
    Nwa,
    NwaError,
    NondeterministicInputError,
    PLUS_INFINITY,
    ValueResult,
    WidthExceededError,
    check64,
    limavg_periodic,
)


@dataclass(frozen=True)
class TraceStep:
    """One position of a run: the configuration seen before the letter, the
    slave invoked there (None for silent moves), and the values returned at
    this position, each tagged with its invocation position."""

    position: int
    config_before: Configuration
    letter: str
    invoked: Optional[int]
    returned: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RunTrace:
    steps: tuple[TraceStep, ...]


class _Rules:
    """The oracle's step rule for one automaton, read off the automaton as
    written. One is made per public call and passed down; it memoizes each
    step, so a run that winds through the same configurations, or many runs
    of one call, look each step up once."""

    def __init__(self, nwa: Nwa):
        self.nwa = nwa
        self.initials = sorted(nwa.master.initials)
        self.max_states = max([sl.base.n_states for sl in nwa.slaves], default=1)
        self._memo: dict[tuple, tuple] = {}

    def step(self, q: int, slots: tuple[tuple[int, int], ...], a: int) -> tuple[tuple[int, ...], list[tuple]]:
        """The positions of the slots released before letter a, and every joint
        choice from configuration (q, slots) on it, as ((master target, target
        slots), slot weights, invoked slave or None, master target accepting).

        Accepting-state slots terminate first (forced), then a master
        transition is chosen, each surviving slot picks a transition
        independently, and a non-dummy invocation appends a fresh slot that
        also consumes the letter; a slave accepting the empty word, a dummy
        among them, is a silent move instead. Choices come in master
        transition order, then the surviving slots' moves in lexicographic
        order, then the invoked slot's.
        """
        key = (q, slots, a)
        got = self._memo.get(key)
        if got is not None:
            return got
        slaves = self.nwa.slaves
        released: list[int] = []
        move_choices: list[list[tuple[tuple[int, int], int]]] = []
        for pos, (i, s) in enumerate(slots, start=1):
            sl = slaves[i - 1]
            if s in sl.base.accepting:
                released.append(pos)
            else:
                move_choices.append([((i, s2), sl.effective_weight(w)) for s2, w in sl.base.succ(s, a)])
        combos = [tuple(zip(*combo)) or ((), ()) for combo in product(*move_choices)]  # (kept slots, weights)
        choices = []
        master = self.nwa.master
        for q2, label in master.succ(q, a):
            sl = slaves[label - 1]
            starts: list[Optional[tuple[tuple[int, int], int]]] = []  # the invoked slot's choices
            silent = False
            for s0 in sorted(sl.base.initials):
                if s0 in sl.base.accepting:
                    silent = True
                else:
                    starts += [((label, s1), sl.effective_weight(w)) for s1, w in sl.base.succ(s0, a)]
            if silent:
                starts.append(None)
            accepting = q2 in master.accepting
            for kept, weights in combos:
                for new in starts:
                    if new is None:
                        choices.append(((q2, kept), weights, None, accepting))
                    else:
                        choices.append(((q2, kept + (new[0],)), weights + (new[1],), label, accepting))
        got = self._memo[key] = (tuple(released), choices)
        return got


def _deterministic_rules(nwa: Nwa, width_cap: int) -> _Rules:
    """The rules of a deterministic automaton, for a positive width cap."""
    if width_cap < 1:
        raise ValueError("width_cap must be positive")
    ok, site = nwa.determinism
    if not ok:
        raise NondeterministicInputError(site or "input is not deterministic")
    return _Rules(nwa)


class _Run:
    """A run in progress from a slot-free configuration: the configuration,
    and per slot its accumulated value, age and invocation position."""

    def __init__(self, rules: _Rules, q: int, width_cap: int):
        self.rules = rules
        self.cap = width_cap
        self.q = q
        self.slots: tuple[tuple[int, int], ...] = ()
        self.decor: list[list[int]] = []  # [value, age, born] per slot
        self.alive = True
        self.position = 0

    def config(self) -> Configuration:
        return Configuration(self.q, self.slots)

    def snapshot(self) -> tuple:
        return (self.q, self.slots, tuple((d[0], d[1]) for d in self.decor))

    def step(self, letter_id: int, choice: int) -> tuple[list[tuple[int, int]], Optional[int], bool]:
        """Consume one letter by the given choice; returns (released (born,
        value) list, invoked slave or None for silent, master-accepting-after
        flag). The run dies when there is no such choice."""
        self.position += 1
        released, choices = self.rules.step(self.q, self.slots, letter_id)
        kept = self.decor
        values = []
        if released:
            values = [(kept[pos - 1][2], kept[pos - 1][0]) for pos in released]
            kept = [d for pos, d in enumerate(kept, start=1) if pos not in released]
        if choice >= len(choices):
            self.alive = False
            return values, None, False
        (q2, slots2), weights, invoked, accepting = choices[choice]
        if len(slots2) > self.cap:
            raise WidthExceededError(self.position)
        for d, w in zip(kept, weights):
            d[0] = check64(d[0] + w)
            d[1] += 1
        if invoked is not None:
            kept.append([check64(weights[-1]), 0, self.position])
        self.q, self.slots, self.decor = q2, slots2, kept
        return values, invoked, accepting


def _word_moves(nwa: Nwa, w: LassoWord) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The (letter id, choice 0) moves of a lasso word's prefix and period."""
    ids = nwa.alphabet.id_of
    return [(ids(a), 0) for a in w.prefix], [(ids(a), 0) for a in w.period]


def _window_value(rules: _Rules, start: int, prefix: list, period: list, width_cap: int) -> ValueResult:
    """Exact value of the run from master state `start` that takes the
    (letter id, choice index) moves of prefix . period^omega."""
    run = _Run(rules, start, width_cap)
    age_cap = len(prefix) + (rules.max_states + 2) * len(period) + 2

    seen: set[tuple] = set()
    recorded = None
    window_values: list[int] = []
    window_accept = False
    moves = prefix
    for _ in range(10_000_000):
        for a, choice in moves:
            released, _, acc_now = run.step(a, choice)
            if not run.alive:
                return PLUS_INFINITY
            if run.decor and run.decor[0][1] > age_cap:
                return PLUS_INFINITY  # the oldest slave can never terminate
            if recorded is not None:
                window_values.extend(v for _, v in released)
                window_accept = window_accept or acc_now
        moves = period
        # a period boundary
        snap = run.snapshot()
        if recorded is not None:
            if snap == recorded:
                if not window_accept or not window_values:
                    return PLUS_INFINITY
                return limavg_periodic([], window_values)
        elif snap in seen:
            recorded = snap
            window_values = []
            window_accept = run.q in rules.nwa.master.accepting
        else:
            seen.add(snap)
    raise NwaError("periodicity not detected (internal bound exceeded)")


def evaluate_lasso(nwa: Nwa, w: LassoWord, width_cap: int) -> ValueResult:
    """Exact value of the unique run of a deterministic NWA on prefix.period^omega."""
    rules = _deterministic_rules(nwa, width_cap)
    return _window_value(rules, rules.initials[0], *_word_moves(nwa, w), width_cap)


def trace_lasso(nwa: Nwa, w: LassoWord, width_cap: int, steps: int) -> RunTrace:
    """First `steps` positions of the run, with per-position release records."""
    rules = _deterministic_rules(nwa, width_cap)
    run = _Run(rules, rules.initials[0], width_cap)
    prefix, period = _word_moves(nwa, w)
    out = []
    for move in islice(chain(prefix, cycle(period)), steps):
        config = run.config()
        released, invoked, _ = run.step(*move)
        out.append(TraceStep(run.position, config, w.letter_at(run.position), invoked, tuple(sorted(released))))
        if not run.alive:
            break
    return RunTrace(tuple(out))


def run_values(nwa: Nwa, w: LassoWord, width_cap: int, count: int) -> list[int]:
    """First `count` returned values, ordered by invocation position.

    These are the non-silent entries of the value sequence the master
    aggregates; silent positions are skipped.
    """
    rules = _deterministic_rules(nwa, width_cap)
    run = _Run(rules, rules.initials[0], width_cap)
    prefix, period = _word_moves(nwa, w)
    values: dict[int, int] = {}
    pending: set[int] = set()
    horizon = len(prefix) + (count + 2) * (rules.max_states + 2) * len(period) + count + 4
    for move in islice(chain(prefix, cycle(period)), horizon):
        released, invoked, _ = run.step(*move)
        for born, v in released:
            values[born] = v
            pending.discard(born)
        if invoked is not None:
            pending.add(run.position)
        if not run.alive:
            break
        done = sorted(values)
        if len(done) >= count and not any(p < done[count - 1] for p in pending):
            return [values[p] for p in done[:count]]
    done = sorted(values)
    if len(done) >= count and not any(p < done[count - 1] for p in pending):
        return [values[p] for p in done[:count]]
    raise NwaError(f"run did not produce {count} resolved values within {horizon} steps")


def min_partial_average(nwa: Nwa, w: LassoWord, width_cap: int, count: int) -> Fraction:
    """Minimum over n <= count of the average of the first n returned values.

    This is the dip of the partial averages whose liminf the master value
    function takes; pumping a negative cycle drives it down without bound.
    """
    vals = run_values(nwa, w, width_cap, count)
    best = None
    total = 0
    for n, v in enumerate(vals, start=1):
        total += v
        avg = Fraction(total, n)
        if best is None or avg < best:
            best = avg
    assert best is not None
    return best


def enumerate_lasso_infimum(
    nwa: Nwa, max_prefix: int, max_period: int, width_cap: int
) -> tuple[ValueResult, Optional[LassoWord]]:
    """Minimum oracle value over all lassos within the size bounds, with witness.

    Deterministic input: every letter lasso with |prefix| <= max_prefix and
    1 <= |period| <= max_period is evaluated (dead branches are pruned, and
    values are memoized on the configuration reached after the prefix, which
    determines the periodic window). Nondeterministic input: run lassos of the
    same bounds are enumerated in the configuration graph the oracle's step
    spans, each run one choice per letter; the result is an upper bound on the
    true infimum. Ties are broken toward the shorter, then lexicographically
    least period, then prefix.
    """
    ok, _ = nwa.determinism
    if ok:
        return _enumerate_det(nwa, max_prefix, max_period, width_cap)
    return _enumerate_nondet(nwa, max_prefix, max_period, width_cap)


def _snapshot_graph(rules: _Rules, n_letters: int, width_cap: int):
    """Reachable (master state, slot states) snapshots with per-letter moves.

    Snapshots abstract accumulations and ages away, which is enough to decide
    liveness and to key period evaluations. Letters whose step would exceed
    the width cap are treated as dead (their lassos abort).
    """
    start = (rules.initials[0], ())
    index = {start: 0}
    nodes = [start]
    moves: list[list[tuple[int, int]]] = []  # node -> [(letter, target node)]
    todo = [0]
    while todo:
        ni = todo.pop()
        while len(moves) <= ni:
            moves.append([])
        out = []
        for a in range(n_letters):
            _, choices = rules.step(*nodes[ni], a)
            if not choices:
                continue
            key = choices[0][0]
            if len(key[1]) > width_cap:
                continue
            if key not in index:
                index[key] = len(nodes)
                nodes.append(key)
                todo.append(index[key])
            out.append((a, index[key]))
        moves[ni] = out
    while len(moves) < len(nodes):
        moves.append([])
    return nodes, moves


def lasso_values(nwa: Nwa, max_prefix: int, max_period: int, width_cap: int):
    """Yield (lasso, exact value) for every lasso within the size bounds whose
    run does not die outright; the omitted ones are all +inf.

    Values are memoized on the configuration reached after the prefix, and a
    cheap snapshot-winding walk rejects dying periods before full evaluation.
    Deterministic automata only.
    """
    rules = _deterministic_rules(nwa, width_cap)
    letters = nwa.alphabet.letters
    nodes, moves = _snapshot_graph(rules, len(letters), width_cap)
    move_map = [dict(m) for m in moves]
    memo: dict[tuple[int, tuple[int, ...]], ValueResult] = {}

    def survives_winding(ni: int, period: tuple[int, ...]) -> bool:
        # the run dies unless the snapshot walk outlives enough windings to
        # close a boundary cycle
        at = ni
        seen_boundaries = {at}
        for _ in range(len(nodes) + 1):
            for a in period:
                nxt = move_map[at].get(a)
                if nxt is None:
                    return False
                at = nxt
            if at in seen_boundaries:
                return True
            seen_boundaries.add(at)
        return True

    prefixes: list[tuple[tuple[int, ...], int]] = []
    stack = [((), 0)]
    while stack:
        path, ni = stack.pop()
        prefixes.append((path, ni))
        if len(path) < max_prefix:
            for a, nj in reversed(moves[ni]):
                stack.append((path + (a,), nj))

    periods_from: dict[int, list[tuple[int, ...]]] = {}

    def periods(ni: int) -> list[tuple[int, ...]]:
        if ni not in periods_from:
            out = []
            st = [((), ni)]
            while st:
                path, nj = st.pop()
                if path:
                    out.append(path)
                if len(path) < max_period:
                    for a, nk in reversed(moves[nj]):
                        st.append((path + (a,), nk))
            periods_from[ni] = out
        return periods_from[ni]

    for prefix, ni in prefixes:
        for period in periods(ni):
            mkey = (ni, period)
            value = memo.get(mkey)
            if value is None:
                if not survives_winding(ni, period):
                    value = PLUS_INFINITY
                else:
                    try:
                        value = _window_value(
                            rules, rules.initials[0], [(a, 0) for a in prefix], [(a, 0) for a in period], width_cap
                        )
                    except WidthExceededError:
                        value = PLUS_INFINITY
                memo[mkey] = value
            yield LassoWord(
                tuple(letters[a] for a in prefix), tuple(letters[a] for a in period)
            ), value


def _enumerate_det(nwa: Nwa, max_prefix: int, max_period: int, width_cap: int):
    best: Optional[ValueResult] = None
    best_key = None
    best_witness = None
    idx = nwa.alphabet.id_of
    for word, value in lasso_values(nwa, max_prefix, max_period, width_cap):
        if value is PLUS_INFINITY:
            continue
        key = (
            value.sort_key(),
            len(word.period),
            tuple(idx(a) for a in word.period),
            len(word.prefix),
            tuple(idx(a) for a in word.prefix),
        )
        if best_key is None or key < best_key:
            best, best_key, best_witness = value, key, word
    if best is None:
        return PLUS_INFINITY, None
    return best, best_witness


def _enumerate_nondet(nwa: Nwa, max_prefix: int, max_period: int, width_cap: int):
    rules = _Rules(nwa)
    # per configuration, its moves under the width cap: (letter, choice, target)
    adjacency: dict[tuple, list[tuple]] = {}
    todo = [(q, ()) for q in rules.initials]
    while todo:
        c = todo.pop()
        if c in adjacency:
            continue
        out = []
        for a in range(len(nwa.alphabet)):
            _, choices = rules.step(*c, a)
            out += [(a, n, target, w) for n, (target, w, _, _) in enumerate(choices) if len(target[1]) <= width_cap]
        out.sort(key=lambda m: (m[0], m[2], m[3]))
        adjacency[c] = [(a, n, target) for a, n, target, _ in out]
        todo += [target for _, _, target in adjacency[c]]

    best: Optional[ValueResult] = None
    best_key = None
    best_witness = None

    def consider(value: ValueResult, prefix_moves, cycle_moves):
        nonlocal best, best_key, best_witness
        prefix = tuple(nwa.alphabet.letters[m[0]] for m in prefix_moves)
        period = tuple(nwa.alphabet.letters[m[0]] for m in cycle_moves)
        key = (
            value.sort_key(),
            len(period),
            tuple(m[0] for m in cycle_moves),
            len(prefix),
            tuple(m[0] for m in prefix_moves),
        )
        if best_key is None or key < best_key:
            best, best_key, best_witness = value, key, LassoWord(prefix, period)

    prefix_stack = [(q, (), (q, ())) for q in rules.initials]
    prefix_paths = []
    while prefix_stack:
        start, path, c = prefix_stack.pop()
        prefix_paths.append((start, path, c))
        if len(path) < max_prefix:
            for m in adjacency[c]:
                prefix_stack.append((start, path + (m,), m[2]))

    evaluated: dict[tuple, ValueResult] = {}
    for start, path, anchor in prefix_paths:
        cycle_stack = [((), anchor)]
        while cycle_stack:
            cyc, c = cycle_stack.pop()
            if cyc and c == anchor:
                key = (anchor, cyc)
                if key not in evaluated:
                    evaluated[key] = _window_value(
                        rules, start, [m[:2] for m in path], [m[:2] for m in cyc], width_cap
                    )
                if evaluated[key] is not PLUS_INFINITY:
                    consider(evaluated[key], path, cyc)
            if len(cyc) < max_period:
                for m in adjacency[c]:
                    cycle_stack.append((cyc + (m,), m[2]))
    if best is None:
        return PLUS_INFINITY, None
    return best, best_witness

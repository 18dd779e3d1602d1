"""Ground-truth evaluation of nested weighted automata on lasso words.

The oracle is written from the semantics and imports only `core`: it has its
own step rule (`Oracle.step`) and shares no code with the decision pipeline,
so the tests that compare the two check one against the other.

An `Oracle(nwa, width_cap)` holds one automaton's step rule, memoized per
step, and the width cap; a caller that evaluates many words or runs on one
automaton asks one `Oracle` for all of them. The module functions
`evaluate_lasso`, `run_values`, `min_partial_average` and
`enumerate_lasso_infimum` each make one for a single call.

A run takes one of the step's joint choices at every letter, and
`Oracle.run_value` evaluates a run given as one (letter id, choice index)
move per letter. A deterministic automaton has at most one choice, choice 0,
so `evaluate`, `trace`, `values` and `lasso_values` run lasso words and
reject nondeterministic input; `infimum` enumerates runs with explicit
choices on nondeterministic input.

The simulator is exact: a slave is released the moment its state is
accepting (checked before the next letter is consumed), and an invoked slave
starts at its invocation position. `core.lasso_run_value` values the run: it
detects periodicity on snapshots taken at period boundaries that carry the
configuration and, per active slave, its accumulated value and age, and
rejects a run whose oldest slave outlives the bound past which it can never
terminate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, cycle, islice, product
from typing import Iterator, NamedTuple, Optional

from .core import (
    LassoWord,
    Nwa,
    NwaError,
    NondeterministicInputError,
    PLUS_INFINITY,
    ValueResult,
    WidthExceededError,
    check64,
    lasso_run_value,
)


class Configuration(NamedTuple):
    """Master state plus the states of active slaves, least recently invoked first."""

    master_state: int
    slots: tuple[tuple[int, int], ...] = ()  # (slave index, slave state)

    def __str__(self) -> str:
        inner = ", ".join(f"B{i}@{s}" for i, s in self.slots)
        return f"({self.master_state}; [{inner}])"


class TraceStep(NamedTuple):
    """One position of a run: the configuration seen before the letter, the
    slave invoked there (None for silent moves), and the values returned at
    this position, each tagged with its invocation position."""

    position: int
    config_before: Configuration
    letter: str
    invoked: Optional[int]
    returned: tuple[tuple[int, int], ...]


class RunTrace(NamedTuple):
    steps: tuple[TraceStep, ...]


class Oracle:
    """The oracle for one automaton under a positive width cap: its step
    rule, read off the automaton as written. Each step is memoized, so a run
    that winds through the same configurations, or many runs on one
    automaton, look each step up once. Determinism is checked by the methods
    that need it."""

    def __init__(self, nwa: Nwa, width_cap: int):
        if width_cap < 1:
            raise ValueError("width_cap must be positive")
        self.nwa = nwa
        self.width_cap = width_cap
        self.initials = sorted(nwa.master.initials)
        self.max_states = max([sl.base.n_states for sl in nwa.slaves], default=1)
        self._memo: dict[tuple, tuple] = {}

    def step(self, q: int, slots: tuple[tuple[int, int], ...], a: int) -> tuple[tuple[int, ...], list[tuple]]:
        """The positions of the slots released before letter a, and every joint
        choice from configuration (q, slots) on it, as ((master target, target
        slots), slot weights, invoked slave or None, master target accepting).

        Accepting-state slots terminate first (forced), then a master
        transition is chosen, each surviving slot picks a transition
        independently, and the invoked slave starts: each first move from an
        initial state that is not accepting appends a fresh slot, and an
        accepting initial state gives the silent choice instead. Choices come
        in master transition order, then the surviving slots' moves in
        lexicographic order, then the invoked slot's.
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

    def _deterministic(self) -> None:
        """Reject nondeterministic input, where a word has no one run."""
        ok, site = self.nwa.determinism
        if not ok:
            raise NondeterministicInputError(site or "input is not deterministic")

    def _word_moves(self, w: LassoWord) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The (letter id, choice 0) moves of a lasso word's prefix and
        period: the word's one run."""
        self._deterministic()
        ids = self.nwa.alphabet.id_of
        return [(ids(a), 0) for a in w.prefix], [(ids(a), 0) for a in w.period]

    def run_value(self, start: int, prefix: list[tuple[int, int]], period: list[tuple[int, int]]) -> ValueResult:
        """Exact value of the run from master state `start` that takes the
        (letter id, choice index) moves of prefix . period^omega."""
        run = _Run(self, start)

        def advance(move: tuple[int, int]) -> Optional[tuple[list[int], bool, int]]:
            released, _, accepting = run.step(*move)
            if run.alive:
                return [v for _, v in released] if released else (), accepting, run.decor[0][1] if run.decor else 0

        return lasso_run_value(advance, run.snapshot, self.max_states, prefix, period)

    def evaluate(self, w: LassoWord) -> ValueResult:
        """Exact value of the unique run of a deterministic NWA on prefix.period^omega."""
        prefix, period = self._word_moves(w)
        return self.run_value(self.initials[0], prefix, period)

    def trace(self, w: LassoWord, steps: int) -> RunTrace:
        """First `steps` positions of the run on w, with per-position release records."""
        prefix, period = self._word_moves(w)
        run = _Run(self, self.initials[0])
        out = []
        for move in islice(chain(prefix, cycle(period)), steps):
            config = run.config()
            released, invoked, _ = run.step(*move)
            out.append(TraceStep(run.position, config, w.letter_at(run.position), invoked, tuple(sorted(released))))
            if not run.alive:
                break
        return RunTrace(tuple(out))

    def values(self, w: LassoWord, count: int) -> list[int]:
        """First `count` values returned on w, ordered by invocation position.

        These are the non-silent entries of the value sequence the master
        aggregates; silent positions are skipped.
        """
        prefix, period = self._word_moves(w)
        run = _Run(self, self.initials[0])
        values: dict[int, int] = {}
        pending: set[int] = set()
        horizon = len(prefix) + (count + 2) * (self.max_states + 2) * len(period) + count + 4
        for move in islice(chain(prefix, cycle(period)), horizon):
            released, invoked, _ = run.step(*move)
            for born, v in released:
                values[born] = v
                pending.discard(born)
            if invoked is not None:
                pending.add(run.position)
            done = sorted(values)
            if len(done) >= count and not any(p < done[count - 1] for p in pending):
                return [values[p] for p in done[:count]]
            if not run.alive:
                break
        raise NwaError(f"run did not produce {count} resolved values within {horizon} steps")

    def min_partial_average(self, w: LassoWord, count: int) -> Fraction:
        """Minimum over n <= count of the average of the first n values
        returned on w.

        This is the dip of the partial averages whose liminf the master value
        function takes; pumping a negative cycle drives it down without bound.
        """
        return min(Fraction(total, n) for n, total in enumerate(accumulate(self.values(w, count)), start=1))

    def lasso_values(self, max_prefix: int, max_period: int) -> Iterator[tuple[LassoWord, ValueResult]]:
        """Yield (lasso, exact value) for every lasso within the size bounds
        whose run does not die outright, prefixes and then periods in
        depth-first letter order; the omitted ones are all +inf.
        Deterministic automata only."""
        for prefix, period, value in self._runs(max_prefix, max_period, closed=False):
            yield self._word(prefix, period), value

    def infimum(self, max_prefix: int, max_period: int) -> tuple[ValueResult, Optional[LassoWord]]:
        """Minimum oracle value over all lassos within the size bounds, with witness.

        Deterministic input: every letter lasso with |prefix| <= max_prefix
        and 1 <= |period| <= max_period whose run does not die outright is
        evaluated. Nondeterministic input: run lassos of the same bounds are
        enumerated, each run one choice per letter and its period a cycle of
        configurations; the result is an upper bound on the true infimum.
        Ties are broken toward the shorter, then lexicographically least
        period, then prefix.
        """
        best = None
        for prefix, period, value in self._runs(max_prefix, max_period, closed=not self.nwa.determinism[0]):
            if value is PLUS_INFINITY:
                continue
            key = (value.sort_key(), len(period), [m[0] for m in period], len(prefix), [m[0] for m in prefix])
            if best is None or key < best[0]:
                best = key, value, self._word(prefix, period)
        return (best[1], best[2]) if best else (PLUS_INFINITY, None)

    def _word(self, prefix: tuple, period: tuple) -> LassoWord:
        """The lasso word that a run lasso's moves read."""
        letters = self.nwa.alphabet.letters
        return LassoWord(tuple([letters[a] for a, _, _ in prefix]), tuple([letters[a] for a, _, _ in period]))

    def _runs(self, max_prefix: int, max_period: int, closed: bool) -> Iterator[tuple[tuple, tuple, ValueResult]]:
        """Yield (prefix, period, value) for every run lasso within the size
        bounds whose moves stay in the move table, prefixes and then periods
        in depth-first table order; moves are (letter, choice index, target).
        With `closed`, a period must return to the configuration it starts
        from, since a choice index means nothing elsewhere; without it the
        input must be deterministic and every period is a word's.

        Values are memoized on the configuration reached after the prefix and
        the period's moves, which fix the recurring window. A run whose period
        leaves the table at a later boundary dies or needs a slot too many: it
        is +inf, and is not simulated."""
        if not closed:
            self._deterministic()
        table = self._moves()
        periods = cache(lambda c: [p for p, end in _paths(table, c, max_period) if p and (end == c or not closed)])
        memo: dict[tuple, ValueResult] = {}
        for root, q in enumerate(self.initials):
            for prefix, anchor in _paths(table, root, max_prefix):
                for period in periods(anchor):
                    value = memo.get((anchor, period))
                    if value is None:
                        value = PLUS_INFINITY
                        if _winds(table, anchor, period):
                            value = self.run_value(q, [m[:2] for m in prefix], [m[:2] for m in period])
                        memo[anchor, period] = value
                    yield prefix, period, value

    def _moves(self) -> list[dict[tuple[int, int], int]]:
        """The move table: the configurations reachable from the initials
        under the width cap, numbered as found, the slot-free initial ones
        first, and per configuration its moves in letter order as
        {(letter, choice index): target number}. Steps past the cap are left
        out. A deterministic automaton has at most one move per letter."""
        index = {(q, ()): i for i, q in enumerate(self.initials)}
        nodes, table = list(index), []
        while len(table) < len(nodes):
            targets = {(a, n): choice[0] for a in range(len(self.nwa.alphabet))
                       for n, choice in enumerate(self.step(*nodes[len(table)], a)[1])
                       if len(choice[0][1]) <= self.width_cap}
            for c in targets.values():
                if c not in index:
                    index[c] = len(nodes)
                    nodes.append(c)
            table.append({move: index[c] for move, c in targets.items()})
        return table


def _paths(table: list[dict], root: int, depth: int) -> Iterator[tuple[tuple, int]]:
    """Yield (moves, end) for every path of at most `depth` moves from
    `root`, the empty one first, depth first in table order."""
    stack = [((), root)]
    while stack:
        path, c = stack.pop()
        yield path, c
        if len(path) < depth:
            stack += [(path + ((a, n, t),), t) for (a, n), t in reversed(table[c].items())]


def _winds(table: list[dict], anchor: int, period: tuple) -> bool:
    """Whether the walk that takes the period's moves from `anchor` over and
    over stays in the table until a configuration at a period boundary
    repeats, so that the walk goes on forever."""
    seen, at = {anchor}, anchor
    while True:
        for a, n, _ in period:
            at = table[at].get((a, n))
            if at is None:
                return False
        if at in seen:
            return True
        seen.add(at)


class _Run:
    """A run in progress from a slot-free configuration: the configuration,
    and per slot its accumulated value, age and invocation position."""

    def __init__(self, oracle: Oracle, q: int):
        self.oracle = oracle
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
        released, choices = self.oracle.step(self.q, self.slots, letter_id)
        kept = self.decor
        values = []
        if released:
            values = [(kept[pos - 1][2], kept[pos - 1][0]) for pos in released]
            kept = [d for pos, d in enumerate(kept, start=1) if pos not in released]
        if choice >= len(choices):
            self.alive = False
            return values, None, False
        (q2, slots2), weights, invoked, accepting = choices[choice]
        if len(slots2) > self.oracle.width_cap:
            raise WidthExceededError(self.position)
        for d, w in zip(kept, weights):
            d[0] = check64(d[0] + w)
            d[1] += 1
        if invoked is not None:
            kept.append([check64(weights[-1]), 0, self.position])
        self.q, self.slots, self.decor = q2, slots2, kept
        return values, invoked, accepting


def evaluate_lasso(nwa: Nwa, w: LassoWord, width_cap: int) -> ValueResult:
    """`Oracle(nwa, width_cap).evaluate(w)`."""
    return Oracle(nwa, width_cap).evaluate(w)


def run_values(nwa: Nwa, w: LassoWord, width_cap: int, count: int) -> list[int]:
    """`Oracle(nwa, width_cap).values(w, count)`."""
    return Oracle(nwa, width_cap).values(w, count)


def min_partial_average(nwa: Nwa, w: LassoWord, width_cap: int, count: int) -> Fraction:
    """`Oracle(nwa, width_cap).min_partial_average(w, count)`."""
    return Oracle(nwa, width_cap).min_partial_average(w, count)


def enumerate_lasso_infimum(
    nwa: Nwa, max_prefix: int, max_period: int, width_cap: int
) -> tuple[ValueResult, Optional[LassoWord]]:
    """`Oracle(nwa, width_cap).infimum(max_prefix, max_period)`."""
    return Oracle(nwa, width_cap).infimum(max_prefix, max_period)

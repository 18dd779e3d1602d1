"""Core data model: alphabets, labeled/weighted automata, nested automata,
exact values, and the finite/limit-average value functions.

All types are immutable after construction; operations are pure functions.
The records that only hold values are named tuples, which cost far less to
define at import than dataclasses; the automata keep `@dataclass(frozen=True)`,
because their `cached_property` tables need an instance dict.
Weights are constrained to signed 64-bit range and accumulation is checked,
so a decision is never silently corrupted by wraparound.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Hashable, NamedTuple, Optional, Sequence

from .graphs import reachable

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class NwaError(Exception):
    """Base class for errors raised by this package."""


class OverflowLimitError(NwaError):
    """Signed 64-bit accumulation limit exceeded."""


class NondeterministicInputError(NwaError):
    """An operation that requires a deterministic automaton got one that is not."""


class WidthExceededError(NwaError):
    """More slave automata became simultaneously active than the allowed cap."""

    def __init__(self, position: int):
        super().__init__(f"width cap exceeded at position {position}")
        self.position = position


class PreconditionError(NwaError):
    """A documented operation precondition does not hold."""


def width_error(k: int, witness: Sequence[str]) -> PreconditionError:
    """The error for an automaton wider than k; `witness` ends with a (k+1)-th invocation."""
    return PreconditionError(f"automaton exceeds width {k} (witness {' '.join(witness)})")


def check64(x: int) -> int:
    """x itself; OverflowLimitError when it leaves the signed 64-bit range."""
    if x < INT64_MIN or x > INT64_MAX:
        raise OverflowLimitError(f"value {x} exceeds signed 64-bit range")
    return x


class ValueFn(enum.Enum):
    """Value functions: SUM / SUM_PLUS aggregate finite runs, LIMAVG infinite ones."""

    SUM = "sum"
    SUM_PLUS = "sum+"
    LIMAVG = "limavg"


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free set of letter identifiers, indexable by dense ids."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet letters must be distinct")

    @cached_property
    def index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.letters)}

    def __len__(self) -> int:
        return len(self.letters)

    def id_of(self, letter: str) -> int:
        try:
            return self.index[letter]
        except KeyError:
            raise KeyError(f"letter {letter!r} not in alphabet") from None


@dataclass(frozen=True)
class LabeledAutomaton:
    """Finite automaton whose transitions carry an integer label.

    States are dense integers 0..n_states-1 with display names kept for
    round-tripping textual formats. For slaves the label is a weight, for
    masters it is a slave index.
    """

    alphabet: Alphabet
    n_states: int
    state_names: tuple[str, ...]
    initials: frozenset[int]
    transitions: tuple[tuple[int, int, int, int], ...]  # (from, letter_id, to, label)
    accepting: frozenset[int]

    @cached_property
    def by_source(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """(state, letter_id) -> ((to, label), ...) in canonical order."""
        table: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for q, a, q2, lab in self.transitions:
            table.setdefault((q, a), []).append((q2, lab))
        return {k: tuple(sorted(v)) for k, v in table.items()}

    def succ(self, state: int, letter_id: int) -> tuple[tuple[int, int], ...]:
        return self.by_source.get((state, letter_id), ())


class WeightedAutomaton(NamedTuple):
    """Integer-weighted automaton over finite words with a Sum-family value function.

    SUM_PLUS takes absolute values of the labels at evaluation time; the labels
    themselves may be any integer in 64-bit range.
    """

    base: LabeledAutomaton
    value_fn: ValueFn

    def effective_weight(self, label: int) -> int:
        return abs(label) if self.value_fn is ValueFn.SUM_PLUS else label


@dataclass(frozen=True)
class Nwa:
    """Nested weighted automaton: a master whose labels index slave automata.

    Master labels are 1-based slave indexes. Invoking a slave that may start
    in an accepting state may be silent: no value, no slot. `dummy_slave`
    builds the usual such slave, whose every invocation is silent.
    """

    master: LabeledAutomaton
    slaves: tuple[WeightedAutomaton, ...]
    master_value_fn: ValueFn = ValueFn.LIMAVG
    name: str = ""

    @property
    def alphabet(self) -> Alphabet:
        return self.master.alphabet

    def slave(self, index: int) -> WeightedAutomaton:
        """Slave by 1-based index."""
        return self.slaves[index - 1]

    @staticmethod
    def dummy_slave(alphabet: Alphabet) -> WeightedAutomaton:
        """The dummy slave `d0`: one initial accepting state, no transitions."""
        d0 = LabeledAutomaton(alphabet, 1, ("d0",), frozenset({0}), (), frozenset({0}))
        return WeightedAutomaton(d0, ValueFn.SUM)

    @cached_property
    def determinism(self) -> tuple[bool, Optional[str]]:
        """`is_deterministic(self)`, computed on first use."""
        return is_deterministic(self)


class ValueTag(enum.Enum):
    FINITE = "finite"
    NEG_INFINITY = "neg-infinity"
    PLUS_INFINITY = "plus-infinity"


class ValueResult(namedtuple("ValueResult", "tag value")):
    """Value of a word: an exact rational or one of the infinities."""

    __slots__ = ()
    tag: ValueTag
    value: Optional[Fraction]

    def __new__(cls, tag: ValueTag, value: Optional[Fraction] = None):
        if tag is ValueTag.FINITE:
            if value is None:
                raise ValueError("finite result needs a value")
            value = Fraction(value)
        elif value is not None:
            raise ValueError(f"{tag} carries no value")
        return super().__new__(cls, tag, value)

    @staticmethod
    def finite(value) -> "ValueResult":
        return ValueResult(ValueTag.FINITE, Fraction(value))

    def is_finite(self) -> bool:
        return self.tag is ValueTag.FINITE

    def sort_key(self):
        """Total order with -inf < finite < +inf."""
        rank = {ValueTag.NEG_INFINITY: 0, ValueTag.FINITE: 1, ValueTag.PLUS_INFINITY: 2}[self.tag]
        return (rank, self.value if self.value is not None else Fraction(0))

    def __str__(self) -> str:
        if self.tag is ValueTag.FINITE:
            return str(self.value)
        return {ValueTag.NEG_INFINITY: "-inf", ValueTag.PLUS_INFINITY: "+inf"}[self.tag]


NEG_INFINITY = ValueResult(ValueTag.NEG_INFINITY)
PLUS_INFINITY = ValueResult(ValueTag.PLUS_INFINITY)


class Threshold(namedtuple("Threshold", "value strict")):
    """Rational threshold; strict=True reads '<', otherwise '<='."""

    __slots__ = ()
    value: Fraction
    strict: bool

    def __new__(cls, value: Fraction, strict: bool = False):
        return super().__new__(cls, Fraction(value), strict)

    def admits(self, v: Fraction) -> bool:
        return v < self.value if self.strict else v <= self.value

    def __str__(self) -> str:
        return f"{'<' if self.strict else '<='} {self.value}"


class LassoWord(namedtuple("LassoWord", "prefix period")):
    """Ultimately periodic word prefix . period^omega over letter identifiers."""

    __slots__ = ()
    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __new__(cls, prefix: tuple[str, ...], period: tuple[str, ...]):
        if not period:
            raise ValueError("lasso period must be nonempty")
        return super().__new__(cls, prefix, period)

    def letter_at(self, position: int) -> str:
        """1-based position in the infinite word."""
        i = position - 1
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def __str__(self) -> str:
        return f"{' '.join(self.prefix)} | {' '.join(self.period)}"


# ---------------------------------------------------------------------------
# Operations


MaybeInt = Optional[int]  # None is the silent (bottom) entry in value sequences


def limavg_periodic(period_vals: Sequence[MaybeInt]) -> ValueResult:
    """Limit average of the ultimately periodic value sequence with silent
    entries whose period is `period_vals`; no finite prefix affects it.

    Silent (None) entries are removed first. A period with no non-silent entry
    means only finitely many values occur, which fails acceptance, hence +inf.
    Otherwise the liminf of partial averages equals the period mean.
    """
    if not period_vals:
        raise ValueError("period must be nonempty")
    period = [v for v in period_vals if v is not None]
    if not period:
        return PLUS_INFINITY
    total = 0
    for v in period:
        total += v
        check64(total)
    return ValueResult.finite(Fraction(total, len(period)))


def lasso_run_value(advance: Callable[[Any], Optional[tuple[Sequence[int], bool, int]]],
                    snapshot: Callable[[], Hashable], n_states: int, prefix: Sequence, period: Sequence) -> ValueResult:
    """Exact value of the run that takes the moves of prefix . period^omega.

    `advance(move)` takes one move and returns the values released on it,
    whether the state after it accepts, and the age of the oldest value held
    (0 when none is); it returns None when the run dies. `snapshot()` is the
    run's state with every held value and its age. Once a snapshot taken at a
    period boundary repeats, the window up to its next occurrence recurs
    forever: the value is the window's limit average, or +inf unless the
    window visits an accepting state and releases a value.

    A value held longer than (`n_states` + 2) periods past the prefix is
    never released: what holds it, a slave or a counter, moves through at
    most `n_states` states that the value does not steer, so its (state,
    phase) pairs repeat. The run is rejected there.
    """
    age_cap = len(prefix) + (n_states + 2) * len(period) + 2
    seen: set = set()
    recorded = None
    window: list[int] = []
    accepts = accepting = False
    moves = prefix
    for _ in range(10_000_000):
        for move in moves:
            got = advance(move)
            if got is None:
                return PLUS_INFINITY
            released, accepting, age = got
            if age > age_cap:
                return PLUS_INFINITY  # the oldest held value is never released
            if recorded is not None:
                window += released
                accepts = accepts or accepting
        moves = period
        snap = snapshot()  # a period boundary
        if recorded is not None:
            if snap == recorded:
                return limavg_periodic(window) if accepts and window else PLUS_INFINITY
        elif snap in seen:
            # the window opens in the state the last move reached
            recorded, window, accepts = snap, [], accepting
        else:
            seen.add(snap)
    raise NwaError("periodicity not detected (internal bound exceeded)")


def validate_nwa(nwa: Nwa) -> list[str]:
    """Structural diagnostics; empty list iff all type invariants hold."""
    out = validate_automaton(nwa.master, "master")
    n = len(nwa.slaves)
    for q, a, q2, lab in nwa.master.transitions:
        if not (1 <= lab <= n):
            out.append(f"bad-slave-index: master transition ({q},{a},{q2}) invokes slave {lab} of {n}")
    for i, sl in enumerate(nwa.slaves, start=1):
        out.extend(validate_automaton(sl.base, f"slave {i}"))
        if sl.value_fn not in (ValueFn.SUM, ValueFn.SUM_PLUS):
            out.append(f"bad-slave-valuefn: slave {i} has {sl.value_fn.value}")
        for q, a, q2, lab in sl.base.transitions:
            if lab < INT64_MIN or lab > INT64_MAX:
                out.append(f"bad-weight: slave {i} transition ({q},{a},{q2}) weight {lab} out of 64-bit range")
        if sl.base.alphabet.letters != nwa.alphabet.letters:
            out.append(f"bad-alphabet: slave {i} alphabet differs from master alphabet")
    if nwa.master_value_fn is not ValueFn.LIMAVG:
        out.append(f"bad-master-valuefn: {nwa.master_value_fn.value}")
    return out


def validate_automaton(aut, where: str) -> list[str]:
    """Diagnostics of `aut`'s states and transitions, prefixed with `where`; `aut`
    is a `LabeledAutomaton` or an `Mca`, and only the fields they share are read."""
    out = []
    if aut.n_states <= 0:
        out.append(f"{where}: no states")
    if len(aut.state_names) != aut.n_states:
        out.append(f"{where}: {len(aut.state_names)} names for {aut.n_states} states")
    ok = range(aut.n_states)
    for q in sorted(aut.initials):
        if q not in ok:
            out.append(f"{where}: initial state {q} out of range")
    if not aut.initials:
        out.append(f"{where}: no initial state")
    for q in sorted(aut.accepting):
        if q not in ok:
            out.append(f"{where}: accepting state {q} out of range")
    for q, a, q2, _ in aut.transitions:
        if q not in ok or q2 not in ok:
            out.append(f"{where}: transition ({q},{a},{q2}) endpoint out of range")
        if not (0 <= a < len(aut.alphabet)):
            out.append(f"{where}: transition ({q},{a},{q2}) letter id out of range")
    return out


def is_deterministic(nwa: Nwa) -> tuple[bool, Optional[str]]:
    """Whether master and slaves are deterministic and slave languages prefix-free.

    Prefix-freeness is decided structurally on the trimmed slave: the language
    is prefix-free iff no reachable accepting state has an outgoing transition
    into the co-reachable part.
    """
    if len(nwa.master.initials) != 1:
        return False, "master: multiple initial states"
    for key, succs in sorted(nwa.master.by_source.items()):
        if len(succs) > 1:
            return False, f"master: {len(succs)} transitions from state {key[0]} on letter id {key[1]}"
    for i, sl in enumerate(nwa.slaves, start=1):
        aut = sl.base
        if len(aut.initials) != 1:
            return False, f"slave {i}: multiple initial states"
        for key, succs in sorted(aut.by_source.items()):
            if len(succs) > 1:
                return False, f"slave {i}: {len(succs)} transitions from state {key[0]} on letter id {key[1]}"
        site = _prefix_free_violation(aut)
        if site is not None:
            return False, f"slave {i}: accepting state {site} has a continuation, language not prefix-free"
    return True, None


def _prefix_free_violation(aut: LabeledAutomaton) -> Optional[int]:
    reach = reachable(aut.initials, ((q, q2) for q, _, q2, _ in aut.transitions))
    coreach = reachable(aut.accepting, ((q2, q) for q, _, q2, _ in aut.transitions))
    for q, _, q2, _ in sorted(aut.transitions):
        if q in aut.accepting and q in reach and q2 in coreach:
            return q
    return None

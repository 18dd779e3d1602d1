from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import slave_language
from nwaq.core import (
    Alphabet,
    LabeledAutomaton,
    LassoWord,
    Nwa,
    OverflowLimitError,
    PLUS_INFINITY,
    Threshold,
    ValueFn,
    ValueResult,
    ValueTag,
    WeightedAutomaton,
    is_deterministic,
    limavg_periodic,
    validate_nwa,
)
from nwaq.decide import Certificate
from nwaq.mca import Instr
from nwaq.meanpayoff import CycleWitness, RatioGraph
from nwaq.oracle import Configuration, RunTrace, TraceStep
from nwaq.starcond import StarWitness
from reference import finite_value, normalize_slaves


def test_finite_value_examples():
    assert finite_value(ValueFn.SUM, [1, -1, 0]) == 0
    assert finite_value(ValueFn.SUM_PLUS, [1, -1, 0]) == 2
    assert finite_value(ValueFn.SUM, [5]) == 5
    assert finite_value(ValueFn.SUM, []) == 0


def test_finite_value_overflow():
    with pytest.raises(OverflowLimitError):
        finite_value(ValueFn.SUM, [2**62, 2**62, 2**62])


@given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=20))
def test_sum_plus_dominates_abs_sum(ws):
    plus = finite_value(ValueFn.SUM_PLUS, ws)
    plain = finite_value(ValueFn.SUM, ws)
    assert plus >= abs(plain)
    same_sign = all(w >= 0 for w in ws) or all(w <= 0 for w in ws)
    assert (plus == abs(plain)) == same_sign


def test_limavg_examples():
    assert limavg_periodic([1, 1]) == ValueResult.finite(1)
    assert limavg_periodic([7, -7]) == ValueResult.finite(0)
    assert limavg_periodic([2, None, 4]) == ValueResult.finite(3)
    assert limavg_periodic([None, None]) is PLUS_INFINITY


@given(
    st.lists(st.one_of(st.none(), st.integers(-50, 50)), min_size=1, max_size=8),
    st.integers(0, 7),
    st.integers(1, 4),
)
def test_limavg_rotation_and_repetition(period, rot, reps):
    base = limavg_periodic(period)
    rotated = period[rot % len(period):] + period[: rot % len(period)]
    assert limavg_periodic(rotated) == base
    assert limavg_periodic(period * reps) == base


_BASE = LabeledAutomaton(Alphabet(("a",)), 1, ("q",), frozenset({0}), (), frozenset({0}))


def _step() -> TraceStep:
    return TraceStep(1, Configuration(0, ((1, 0),)), "a", 1, ((1, 4),))


# each value record, built afresh by each call, with its field names in order
RECORDS = [
    (lambda: WeightedAutomaton(_BASE, ValueFn.SUM_PLUS), "base value_fn"),
    (lambda: Configuration(0, ((1, 0),)), "master_state slots"),
    (lambda: ValueResult.finite(Fraction(1, 2)), "tag value"),
    (lambda: Threshold(Fraction(1, 2), strict=True), "value strict"),
    (lambda: LassoWord(("a",), ("a", "a")), "prefix period"),
    (lambda: Certificate("lasso", PLUS_INFINITY, LassoWord((), ("a",)), flags=("not-attained",)),
     "kind value lasso star pumped flags"),
    (lambda: Instr.add(3), "kind amount"),
    (lambda: RatioGraph((0,), (0,), (2,), (1,), ((0,),)), "src dst cost ticks components"),
    (lambda: CycleWitness((0,), Fraction(2), ()), "cycle ratio potentials"),
    (_step, "position config_before letter invoked returned"),
    (lambda: RunTrace((_step(),)), "steps"),
    (lambda: StarWitness(1, (0, 1), -1), "j cycle j_sum"),
]


@pytest.mark.parametrize("make, fields", RECORDS, ids=[type(make()).__name__ for make, _ in RECORDS])
def test_value_records_are_frozen_comparable_and_named(make, fields):
    record, twin = make(), make()
    assert record is not twin and record == twin and hash(record) == hash(twin)
    names = fields.split()
    with pytest.raises(AttributeError):
        setattr(record, names[0], getattr(twin, names[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
    assert repr(record) == f"{type(record).__name__}({shown})"


def test_value_records_check_and_normalise_their_fields():
    with pytest.raises(ValueError, match="finite result needs a value"):
        ValueResult(ValueTag.FINITE)
    with pytest.raises(ValueError, match="carries no value"):
        ValueResult(ValueTag.NEG_INFINITY, 1)
    with pytest.raises(ValueError, match="lasso period must be nonempty"):
        LassoWord((), ())
    assert type(Threshold(1).value) is Fraction and Threshold(1) == Threshold(Fraction(1), False)
    assert type(ValueResult.finite(1).value) is Fraction
    assert type(ValueResult(ValueTag.FINITE, 3).value) is Fraction
    assert ValueResult(ValueTag.PLUS_INFINITY) == PLUS_INFINITY


def _tiny(alphabet, states, initials, trans, acc):
    idx = {s: i for i, s in enumerate(states)}
    return LabeledAutomaton(
        alphabet,
        len(states),
        tuple(states),
        frozenset(idx[s] for s in initials),
        tuple(sorted((idx[q], alphabet.id_of(a), idx[p], w) for q, a, p, w in trans)),
        frozenset(idx[s] for s in acc),
    )


def test_validate_corpus_is_clean(all_corpus):
    for nwa in all_corpus.values():
        assert validate_nwa(nwa) == []


def test_validate_flags_bad_slave_index(a_art1):
    bad_master = LabeledAutomaton(
        a_art1.master.alphabet,
        a_art1.master.n_states,
        a_art1.master.state_names,
        a_art1.master.initials,
        tuple((q, a, p, 3) for q, a, p, _ in a_art1.master.transitions),
        a_art1.master.accepting,
    )
    bad = Nwa(bad_master, a_art1.slaves)
    assert any("bad-slave-index" in d for d in validate_nwa(bad))


def test_validate_flags_limavg_slave(a_art1):
    bad = Nwa(a_art1.master, (WeightedAutomaton(a_art1.slaves[0].base, ValueFn.LIMAVG),) + a_art1.slaves[1:])
    assert any("bad-slave-valuefn" in d for d in validate_nwa(bad))


def test_is_deterministic_corpus(a_art, a_art1):
    assert is_deterministic(a_art) == (True, None)
    assert is_deterministic(a_art1) == (True, None)


def test_prefix_free_violation_detected():
    sigma = Alphabet(("a", "b"))
    # accepting state with a transition back into an accepting path
    slave = WeightedAutomaton(
        _tiny(sigma, ["s0", "s1"], ["s0"], [("s0", "a", "s1", 1), ("s1", "a", "s1", 1)], ["s1"]),
        ValueFn.SUM,
    )
    dummy = WeightedAutomaton(_tiny(sigma, ["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = _tiny(sigma, ["m"], ["m"], [("m", "a", "m", 1), ("m", "b", "m", 2)], ["m"])
    ok, site = is_deterministic(Nwa(master, (slave, dummy)))
    assert not ok
    assert "prefix-free" in site


def test_normalize_identity(a_art1):
    assert normalize_slaves(a_art1) is a_art1


def test_normalize_accepting_selfloop():
    sigma = Alphabet(("a",))
    loop = WeightedAutomaton(
        _tiny(sigma, ["s"], ["s"], [("s", "a", "s", 2)], ["s"]),
        ValueFn.SUM,
    )
    dummy = WeightedAutomaton(_tiny(sigma, ["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = _tiny(sigma, ["m"], ["m"], [("m", "a", "m", 1)], ["m"])
    nwa = Nwa(master, (loop, dummy))
    normalized = normalize_slaves(nwa)
    out = normalized.slaves[0]
    assert out.base.n_states == 2
    assert slave_language(out, 4) == slave_language(loop, 4)


def test_normalize_preserves_language_and_min_values(all_corpus):
    for nwa in all_corpus.values():
        normalized = normalize_slaves(nwa)
        for before, after in zip(nwa.slaves, normalized.slaves):
            assert slave_language(after, 6) == slave_language(before, 6)


def test_deterministic_slaves_have_unique_accepting_runs(all_corpus):
    # exhaustive run count per accepted word, words up to length 6
    for nwa in all_corpus.values():
        ok, _ = is_deterministic(nwa)
        assert ok
        for slave in nwa.slaves:
            aut = slave.base
            letters = aut.alphabet.letters
            counts: dict[tuple, int] = {}
            frontier = [(q, ()) for q in sorted(aut.initials)]
            while frontier:
                q, word = frontier.pop()
                if q in aut.accepting:
                    counts[word] = counts.get(word, 0) + 1
                if len(word) < 6:
                    for a in range(len(letters)):
                        for q2, _ in aut.succ(q, a):
                            frontier.append((q2, word + (letters[a],)))
            assert all(c == 1 for c in counts.values())

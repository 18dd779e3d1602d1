import random
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import random_draw
from nwaq.core import Alphabet, LassoWord, Nwa, NwaError, PLUS_INFINITY, ValueResult
from nwaq.corpus import art1, average_excess, mca_counter
from nwaq.mca import Instr, Mca, evaluate_lasso_mca, mca_to_nwa, nwa_to_mca, validate_mca
from nwaq.oracle import Oracle, evaluate_lasso


def random_lassos(alphabet, count, max_prefix, max_period, seed):
    rng = random.Random(seed)
    letters = alphabet.letters
    out = []
    for _ in range(count):
        prefix = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_prefix)))
        period = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_period)))
        out.append(LassoWord(prefix, period))
    return out


def test_validate_corpus(m_counter):
    assert validate_mca(m_counter) == []


def test_validate_two_starts():
    sigma = Alphabet(("a",))
    bad = Mca(
        alphabet=sigma,
        n_states=1,
        state_names=("q",),
        initials=frozenset({0}),
        accepting=frozenset({0}),
        n_counters=2,
        transitions=((0, 0, 0, (Instr.start(), Instr.start())),),
    )
    assert any("starts more than one" in d for d in validate_mca(bad))


ONE_COUNTER = Mca(
    alphabet=Alphabet(("a",)),
    n_states=1,
    state_names=("q",),
    initials=frozenset({0}),
    accepting=frozenset({0}),
    n_counters=1,
    transitions=((0, 0, 0, (Instr.skip(),)),),
)


def test_validate_shares_the_automaton_checks():
    # the checks of validate_automaton, with the counter checks after them
    assert validate_mca(ONE_COUNTER) == []
    assert validate_mca(replace(ONE_COUNTER, n_states=2)) == ["mca: 1 names for 2 states"]
    assert validate_mca(replace(ONE_COUNTER, n_states=0, state_names=(), initials=frozenset(),
                                accepting=frozenset(), transitions=())) == ["mca: no states", "mca: no initial state"]
    assert validate_mca(replace(ONE_COUNTER, initials=frozenset({5}))) == ["mca: initial state 5 out of range"]
    assert validate_mca(replace(ONE_COUNTER, accepting=frozenset({0, 7}))) == ["mca: accepting state 7 out of range"]
    assert validate_mca(replace(ONE_COUNTER, n_counters=-1, transitions=((0, 3, 2, ()),))) == [
        "mca: transition (0,3,2) endpoint out of range",
        "mca: transition (0,3,2) letter id out of range",
        "bad-counter-count",
        "mca: transition (0,3,2) vector length 0 != -1",
    ]


def test_terminate_inactive_is_runtime_not_static():
    sigma = Alphabet(("a",))
    m = Mca(
        alphabet=sigma,
        n_states=1,
        state_names=("q",),
        initials=frozenset({0}),
        accepting=frozenset({0}),
        n_counters=1,
        transitions=((0, 0, 0, (Instr.terminate(),)),),
    )
    assert validate_mca(m) == []
    assert evaluate_lasso_mca(m, LassoWord((), ("a",))) is PLUS_INFINITY


def test_counter_example_value(m_counter):
    word = LassoWord((), ("hash", "a", "a", "a", "hash", "a"))
    assert evaluate_lasso_mca(m_counter, word) == ValueResult.finite(3)


def test_determinism_is_checked_once():
    # the first evaluation computes `determinism`; later ones read it and
    # look up moves one (state, letter) at a time, with no scan of the table
    m = mca_counter()  # a fresh one: this test swaps its move table
    word = LassoWord((), ("hash", "a", "a", "a", "hash", "a"))
    assert evaluate_lasso_mca(m, word) == ValueResult.finite(3)
    scans = []

    class Watched(dict):
        def values(self):
            scans.append(1)
            return super().values()

    vars(m)["by_source"] = Watched(m.by_source)
    assert evaluate_lasso_mca(m, word) == ValueResult.finite(3)
    assert m.determinism and not scans


def test_add_zero_only():
    sigma = Alphabet(("s", "e"))
    m = Mca(
        alphabet=sigma,
        n_states=2,
        state_names=("q0", "q1"),
        initials=frozenset({0}),
        accepting=frozenset({0}),
        n_counters=1,
        transitions=(
            (0, 0, 1, (Instr.start(),)),
            (1, 0, 1, (Instr.add(0),)),
            (1, 1, 0, (Instr.terminate(),)),
        ),
    )
    assert evaluate_lasso_mca(m, LassoWord((), ("s", "s", "e"))) == ValueResult.finite(0)


@pytest.mark.parametrize("amount", [1, 0])
def test_unterminated_counter_rejects(amount):
    # with add(0) the snapshot differs only in the counter's age, so the age bound rejects
    sigma = Alphabet(("s", "a"))
    m = Mca(
        alphabet=sigma,
        n_states=2,
        state_names=("q0", "q1"),
        initials=frozenset({0}),
        accepting=frozenset({0, 1}),
        n_counters=1,
        transitions=(
            (0, 0, 1, (Instr.start(),)),
            (1, 1, 1, (Instr.add(amount),)),
        ),
    )
    assert evaluate_lasso_mca(m, LassoWord(("s",), ("a",))) is PLUS_INFINITY


def test_one_step_terminates_two_counters():
    # both values enter the average, not only the last counter's
    sigma = Alphabet(("a", "e"))
    m = Mca(
        alphabet=sigma,
        n_states=3,
        state_names=("q0", "q1", "q2"),
        initials=frozenset({0}),
        accepting=frozenset({0}),
        n_counters=2,
        transitions=(
            (0, 0, 1, (Instr.start(), Instr.skip())),
            (1, 0, 2, (Instr.add(3), Instr.start())),
            (2, 1, 0, (Instr.terminate(), Instr.terminate())),
        ),
    )
    word = LassoWord((), ("a", "a", "e"))
    assert evaluate_lasso_mca(m, word) == ValueResult.finite(Fraction(3, 2))
    assert evaluate_lasso(mca_to_nwa(m), word, 2) == ValueResult.finite(Fraction(3, 2))


def test_mca_to_nwa_structure(m_counter):
    nwa = mca_to_nwa(m_counter)
    assert len(nwa.slaves) == m_counter.n_counters + 1
    assert nwa.slaves[-1] == Nwa.dummy_slave(nwa.alphabet)
    labels = {lab for _, _, _, lab in nwa.master.transitions}
    assert labels <= set(range(1, len(nwa.slaves) + 1))


def test_mca_to_nwa_agreement(m_counter):
    nwa = mca_to_nwa(m_counter)
    for word in random_lassos(m_counter.alphabet, 50, 3, 6, seed=101):
        assert evaluate_lasso_mca(m_counter, word) == evaluate_lasso(nwa, word, 1), word


def test_zero_counter_mca():
    sigma = Alphabet(("a",))
    m = Mca(
        alphabet=sigma,
        n_states=1,
        state_names=("q",),
        initials=frozenset({0}),
        accepting=frozenset({0}),
        n_counters=0,
        transitions=((0, 0, 0, ()),),
    )
    nwa = mca_to_nwa(m)
    assert nwa.slaves == (Nwa.dummy_slave(nwa.alphabet),)
    word = LassoWord((), ("a",))
    assert evaluate_lasso_mca(m, word) is PLUS_INFINITY
    assert evaluate_lasso(nwa, word, 1) is PLUS_INFINITY


def test_nwa_to_mca_art1_agreement():
    nwa = art1()
    m = nwa_to_mca(nwa, 1)
    assert m.determinism
    for word in random_lassos(nwa.alphabet, 50, 3, 6, seed=202):
        assert evaluate_lasso(nwa, word, 1) == evaluate_lasso_mca(m, word), word
    # the dense request pattern must agree too
    dense = LassoWord((), ("r", "g"))
    assert evaluate_lasso_mca(m, dense) == ValueResult.finite(1)


def test_nwa_to_mca_ae_negative_values():
    nwa = average_excess()
    m = nwa_to_mca(nwa, 1)
    for blocks in range(1, 6):
        word = LassoWord((), ("dollar",) + ("g",) * blocks)
        assert evaluate_lasso_mca(m, word) == ValueResult.finite(-blocks)
    for word in random_lassos(nwa.alphabet, 50, 3, 6, seed=303):
        assert evaluate_lasso(nwa, word, 1) == evaluate_lasso_mca(m, word), word


def test_round_trip(m_counter):
    again = nwa_to_mca(mca_to_nwa(m_counter), 1)
    assert again.determinism
    for word in random_lassos(m_counter.alphabet, 50, 3, 6, seed=404):
        assert evaluate_lasso_mca(m_counter, word) == evaluate_lasso_mca(again, word), word


def test_nwa_to_mca_random_width_2_agreement():
    # seeded deterministic draws; on some of them two slaves return on one step
    rng = random.Random(0)
    translated = 0
    for _ in range(200):
        nwa = random_draw(rng)
        try:
            m = nwa_to_mca(nwa, 2)
        except NwaError:  # wider than 2, or a one-letter slave run of nonzero weight
            continue
        translated += 1
        for word, value in Oracle(nwa, 2).lasso_values(2, 3):
            assert evaluate_lasso_mca(m, word) == value, (translated, word)
    assert translated >= 30


def test_nwa_to_mca_rejects_a_nonpositive_width():
    with pytest.raises(ValueError):
        nwa_to_mca(art1(), 0)

from fractions import Fraction

import pytest

from helpers import random_nondet
from nwaq.core import (
    Alphabet,
    LabeledAutomaton,
    LassoWord,
    Nwa,
    PLUS_INFINITY,
    ValueFn,
    ValueResult,
    WeightedAutomaton,
    WidthExceededError,
)
from nwaq.corpus import KNOWN_WIDTH
from nwaq.oracle import Oracle, enumerate_lasso_infimum, evaluate_lasso, min_partial_average, run_values


def test_art_request_grant_cycle(a_art):
    assert evaluate_lasso(a_art, LassoWord((), ("r", "g")), 1) == ValueResult.finite(1)


def test_art_only_nulls_is_silent(a_art):
    assert evaluate_lasso(a_art, LassoWord((), ("hash",)), 1) is PLUS_INFINITY
    # a slave held forever returns no value either: only its age changes, so the age bound rejects
    sigma = Alphabet(("s", "a"))
    held = LabeledAutomaton(sigma, 2, ("z0", "z1"), frozenset({0}), ((0, 0, 1, 0), (1, 1, 1, 0)), frozenset())
    master = LabeledAutomaton(sigma, 2, ("m0", "m1"), frozenset({0}), ((0, 0, 1, 1), (1, 1, 1, 2)), frozenset({1}))
    nwa = Nwa(master, (WeightedAutomaton(held, ValueFn.SUM), Nwa.dummy_slave(sigma)))
    assert evaluate_lasso(nwa, LassoWord(("s",), ("a",)), 1) is PLUS_INFINITY


def test_master_death_in_prefix(a_art1):
    # g before any request: the master has no transition and the run dies
    assert evaluate_lasso(a_art1, LassoWord(("g",), ("r", "g")), 1) is PLUS_INFINITY


def test_slave_death_mid_run(a_cond1):
    # the master accepts blocks of a's only after "one two"
    assert evaluate_lasso(a_cond1, LassoWord((), ("one", "one")), 2) is PLUS_INFINITY


def test_ae_one_block_per_period(a_ae):
    assert evaluate_lasso(a_ae, LassoWord((), ("dollar", "g", "g", "g")), 1) == ValueResult.finite(-3)


def test_cond2_balanced_blocks(a_cond2):
    word = LassoWord((), ("two", "one", "a", "a", "a", "a", "a", "hash"))
    assert evaluate_lasso(a_cond2, word, 2) == ValueResult.finite(0)
    # partial averages oscillate but settle toward zero
    vals = run_values(a_cond2, word, 2, 2500)
    assert abs(Fraction(sum(vals), len(vals))) < Fraction(1, 100)


def test_art_paper_value_sequence(a_art):
    word = LassoWord(("r", "r", "r", "hash", "r", "g"), ("r", "g"))
    assert run_values(a_art, word, 64, 5) == [5, 4, 3, 1, 1]


def test_trace_records_invocations(a_art1):
    trace = Oracle(a_art1, 1).trace(LassoWord((), ("r", "g")), 4)
    assert trace.steps[0].invoked == 1
    assert trace.steps[1].invoked is None
    # the value of the slave invoked at position 1 is returned before step 3
    assert trace.steps[2].returned == ((1, 1),)


def test_determinism_bit_identical(a_ae):
    word = LassoWord(("dollar",), ("r", "r", "hash", "g", "dollar"))
    first = evaluate_lasso(a_ae, word, 1)
    assert all(evaluate_lasso(a_ae, word, 1) == first for _ in range(3))
    assert first == ValueResult.finite(1)


@pytest.mark.parametrize(
    "prefix,period",
    [
        ((), ("r", "g")),
        ((), ("r", "hash", "g")),
        (("r", "g"), ("r", "hash", "hash", "g", "hash")),
    ],
)
def test_rotation_invariance(a_art1, prefix, period):
    base = evaluate_lasso(a_art1, LassoWord(prefix, period), 1)
    rotated = LassoWord(prefix + (period[0],), period[1:] + (period[0],))
    assert evaluate_lasso(a_art1, rotated, 1) == base


def test_period_pumping_invariance(all_corpus):
    words = {
        "art1": LassoWord((), ("r", "hash", "g")),
        "average_excess": LassoWord((), ("dollar", "r", "g")),
        "cond_a1": LassoWord((), ("one", "two", "a", "hash")),
        "cond_a2": LassoWord((), ("two", "one", "a", "hash")),
        "k_art_2": LassoWord((), ("r", "r", "g")),
    }
    for name, word in words.items():
        nwa = all_corpus[name]
        cap = KNOWN_WIDTH[name]
        doubled = LassoWord(word.prefix, word.period * 2)
        assert evaluate_lasso(nwa, word, cap) == evaluate_lasso(nwa, doubled, cap)


def test_width_cap_respected_on_corpus(all_corpus):
    # documented width caps never trigger the width error on sample lassos
    samples = {
        "art1": [((), ("r", "g")), ((), ("r", "hash", "g", "hash"))],
        "k_art_2": [((), ("r", "r", "g")), ((), ("r", "g"))],
        "k_art_3": [((), ("r", "r", "r", "g"))],
        "art_types_2": [((), ("r1", "r2", "g1", "g2"))],
        "average_excess": [((), ("dollar", "r", "g")), (("dollar",), ("g",))],
        "cond_a1": [((), ("one", "two", "a", "hash"))],
        "cond_a2": [((), ("two", "one", "hash"))],
    }
    for name, words in samples.items():
        nwa = all_corpus[name]
        cap = KNOWN_WIDTH[name]
        for prefix, period in words:
            evaluate_lasso(nwa, LassoWord(prefix, period), cap)


def test_width_cap_must_be_positive(a_art1):
    # checked on construction, so the nondeterministic infimum rejects it too
    for nwa in (a_art1, random_nondet(9000)):
        with pytest.raises(ValueError, match="width_cap must be positive"):
            Oracle(nwa, 0)


def test_width_exceeded_raises_with_position(a_art):
    with pytest.raises(WidthExceededError) as err:
        evaluate_lasso(a_art, LassoWord((), ("r",)), 1)
    assert err.value.position == 2


def test_enumerate_cond1(a_cond1):
    value, witness = enumerate_lasso_infimum(a_cond1, 2, 6, 2)
    assert value == ValueResult.finite(0)
    assert witness == LassoWord((), ("one", "two", "hash"))


def test_enumerate_ae_longest_block(a_ae):
    value, witness = enumerate_lasso_infimum(a_ae, 1, 7, 1)
    assert value == ValueResult.finite(-6)
    assert witness.period.count("g") == 6
    value8, witness8 = enumerate_lasso_infimum(a_ae, 1, 8, 1)
    assert value8 == ValueResult.finite(-7)
    assert witness8.period.count("g") == 7


def test_enumerate_monotone_in_period_bound(a_ae):
    prev = None
    for bound in range(2, 8):
        value, _ = enumerate_lasso_infimum(a_ae, 1, bound, 1)
        if prev is not None:
            assert value.sort_key() <= prev.sort_key()
        prev = value


def test_enumerate_dummy_only():
    sigma = Alphabet(("a",))
    dummy = WeightedAutomaton(
        LabeledAutomaton(sigma, 1, ("d",), frozenset({0}), (), frozenset({0})), ValueFn.SUM
    )
    master = LabeledAutomaton(sigma, 1, ("m",), frozenset({0}), ((0, 0, 0, 1),), frozenset({0}))
    value, witness = enumerate_lasso_infimum(Nwa(master, (dummy,)), 2, 3, 1)
    assert value is PLUS_INFINITY
    assert witness is None


def test_enumerate_never_beats_pointwise(a_cond1):
    # consistency: the enumerated minimum is attained and not undercut
    oracle = Oracle(a_cond1, 2)
    value, witness = oracle.infimum(1, 4)
    seen = [v for _, v in oracle.lasso_values(1, 4) if v is not PLUS_INFINITY]
    assert min(v.sort_key() for v in seen) == value.sort_key()
    assert oracle.evaluate(witness) == value


def test_edge_lasso_evaluator_matches_direct_simulation(a_art1, a_cond1):
    # on deterministic input, a run lasso in the configuration graph is the
    # unique run of its projected word: the run, replayed through the oracle
    # with one choice index per letter, must agree exactly with the word
    from helpers import edge_records
    from nwaq.determinize import explore
    from reference import decode_configurations

    for nwa, cap in ((a_art1, 1), (a_cond1, 2)):
        keys, graph = explore(nwa, cap)
        adjacency = {}
        choices = {}  # (source, letter) -> edges so far; an edge's choice is its place among them
        for e in edge_records(nwa, graph):
            n = choices[e[:2]] = choices.get(e[:2], -1) + 1
            adjacency.setdefault(e[0], []).append((e, n))
        # shortest edge path from the initial configuration to every config
        (initial,) = (decode_configurations(nwa, keys)[u] for u in graph.initials)
        access = {initial: ()}
        queue = [initial]
        while queue:
            c = queue.pop(0)
            for e, n in adjacency.get(c, ()):
                if e[2] not in access:
                    access[e[2]] = access[c] + ((e, n),)
                    queue.append(e[2])
        oracle = Oracle(nwa, cap)
        checked = 0
        for anchor, prefix_edges in sorted(access.items(), key=lambda kv: len(kv[1])):
            stack = [((), anchor)]
            while stack and checked < 150:
                path, c = stack.pop()
                if path and c == anchor:
                    word = LassoWord(
                        tuple(nwa.alphabet.letters[e[1]] for e, _ in prefix_edges),
                        tuple(nwa.alphabet.letters[e[1]] for e, _ in path),
                    )
                    direct = oracle.evaluate(word)
                    run = [(e[1], n) for e, n in prefix_edges], [(e[1], n) for e, n in path]
                    via_run = oracle.run_value(initial.master_state, *run)
                    assert via_run == direct, word
                    checked += 1
                if len(path) < 5:
                    for e, n in adjacency.get(c, ()):
                        stack.append((path + ((e, n),), e[2]))
        assert checked > 10


def test_min_partial_average_dips(a_cond2):
    word = LassoWord(("two", "one"), ("a",) * 20 + ("hash", "two", "one"))
    assert evaluate_lasso(a_cond2, word, 2) == ValueResult.finite(0)
    assert min_partial_average(a_cond2, word, 2, 8) == Fraction(-20)


def _random_det_nwa(seed):
    import random

    rng = random.Random(seed)
    sigma = Alphabet(("a", "b", "c"))
    slaves = []
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(2, 4)
        trans = []
        for q in range(n - 1):
            for a in range(3):
                if rng.random() < 0.7:
                    trans.append((q, a, rng.randrange(n), rng.randint(-3, 3)))
        slaves.append(
            WeightedAutomaton(
                LabeledAutomaton(
                    sigma,
                    n,
                    tuple(f"s{i}" for i in range(n)),
                    frozenset({0}),
                    tuple(sorted(trans)),
                    frozenset({n - 1}),
                ),
                rng.choice((ValueFn.SUM, ValueFn.SUM_PLUS)),
            )
        )
    slaves.append(
        WeightedAutomaton(
            LabeledAutomaton(sigma, 1, ("d",), frozenset({0}), (), frozenset({0})), ValueFn.SUM
        )
    )
    nm = rng.randint(1, 3)
    trans = []
    for q in range(nm):
        for a in range(3):
            if rng.random() < 0.8:
                trans.append((q, a, rng.randrange(nm), rng.randint(1, len(slaves))))
    master = LabeledAutomaton(
        sigma,
        nm,
        tuple(f"m{i}" for i in range(nm)),
        frozenset({0}),
        tuple(sorted(trans)),
        frozenset({rng.randrange(nm)}),
    )
    from nwaq.core import is_deterministic

    nwa = Nwa(master, tuple(slaves), name=f"det{seed}")
    ok, _ = is_deterministic(nwa)
    return nwa if ok else None


def test_random_rotation_and_pumping_invariance():
    import random

    rng = random.Random(909)
    checked = 0
    seed = 0
    while checked < 15:
        seed += 1
        nwa = _random_det_nwa(seed)
        if nwa is None:
            continue
        letters = nwa.alphabet.letters
        oracle = Oracle(nwa, 8)
        for _ in range(8):
            prefix = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            period = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            word = LassoWord(prefix, period)
            rotated = LassoWord(prefix + (period[0],), period[1:] + (period[0],))
            doubled = LassoWord(prefix, period * 2)
            try:
                base = oracle.evaluate(word)
                doubled_value = oracle.evaluate(doubled)
                rotated_value = oracle.evaluate(rotated)
            except WidthExceededError:
                continue  # the cap bound the run: invariance holds only below it
            assert doubled_value == base, (seed, word)
            if base is not PLUS_INFINITY:
                assert rotated_value == base, (seed, word)
        checked += 1

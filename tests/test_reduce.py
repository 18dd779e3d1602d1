from helpers import slave_language
from nwaq.core import (
    Alphabet,
    LabeledAutomaton,
    LassoWord,
    NEG_INFINITY,
    Nwa,
    ValueFn,
    ValueResult,
    WeightedAutomaton,
)
from nwaq.corpus import KNOWN_WIDTH, STAR_FAILING, corpus, k_art
from nwaq.oracle import Oracle
from nwaq.reduce import reduce_width1
from nwaq.width import has_width
from reference import _fragment_values, fragment_automaton, min_slave_value


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


def test_reduced_outputs_have_width_one(all_corpus):
    for name in STAR_FAILING:
        nwa = all_corpus[name]
        out = reduce_width1(nwa, KNOWN_WIDTH[name])
        assert has_width(out, 1) == (True, None), name


def test_reduced_width_one_input_keeps_values(a_art1):
    out = Oracle(reduce_width1(a_art1, 1), 1)
    for word, value in Oracle(a_art1, 1).lasso_values(2, 6):
        assert out.evaluate(word) == value, word


def test_reduced_cond_a1_keeps_values(a_cond1):
    out = Oracle(reduce_width1(a_cond1, 2), 1)
    for word, value in Oracle(a_cond1, 2).lasso_values(2, 6):
        assert out.evaluate(word) == value, word


def test_reduced_k_art_values_on_random_lassos():
    import random

    nwa = k_art(2)
    oracle, out = Oracle(nwa, 2), Oracle(reduce_width1(nwa, 2), 1)
    rng = random.Random(55)
    letters = nwa.alphabet.letters
    for _ in range(50):
        prefix = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
        period = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        word = LassoWord(prefix, period)
        assert oracle.evaluate(word) == out.evaluate(word), word


def _block_master_nwa(restrict_g: bool) -> Nwa:
    """Average-excess variant used for the fragment-value checks."""
    from nwaq.corpus import average_excess

    nwa = average_excess()
    if not restrict_g:
        return nwa
    master = nwa.master
    keep = tuple(t for t in master.transitions if master.alphabet.letters[t[1]] != "g")
    slaves = []
    for sl in nwa.slaves:
        base = sl.base
        kept = tuple(t for t in base.transitions if base.alphabet.letters[t[1]] != "g")
        slaves.append(
            WeightedAutomaton(
                LabeledAutomaton(
                    base.alphabet, base.n_states, base.state_names, base.initials, kept, base.accepting
                ),
                sl.value_fn,
            )
        )
    return Nwa(
        LabeledAutomaton(
            master.alphabet, master.n_states, master.state_names, master.initials, keep, master.accepting
        ),
        tuple(slaves),
        name="ae_no_g",
    )


def test_min_slave_value_restricted_blocks_zero():
    nwa = _block_master_nwa(restrict_g=True)
    q = list(nwa.master.state_names).index("m_sep")
    got = min_slave_value(nwa, q, "hash", q, 1)
    assert got == ValueResult.finite(0)


def test_min_slave_value_unrestricted_unbounded(a_ae):
    q = list(a_ae.master.state_names).index("m_sep")
    got = min_slave_value(a_ae, q, "hash", q, 1)
    assert got is NEG_INFINITY or got == NEG_INFINITY


def test_min_slave_value_bespoke_negative_run():
    sigma = Alphabet(("a", "b"))
    slave = WeightedAutomaton(
        _tiny(sigma, ["s0", "sm", "s1"], ["s0"], [("s0", "a", "sm", -3), ("sm", "b", "s1", 0)], ["s1"]),
        ValueFn.SUM,
    )
    dummy = WeightedAutomaton(_tiny(sigma, ["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = _tiny(
        sigma, ["m0", "m1"], ["m0"], [("m0", "a", "m1", 1), ("m1", "a", "m1", 2), ("m1", "b", "m0", 2)], ["m0"]
    )
    nwa = Nwa(master, (slave, dummy))
    got = min_slave_value(nwa, 0, "a", 0, 1)
    assert got == ValueResult.finite(-3)


def test_min_slave_value_matches_brute_force(a_art1, a_cond1):
    # brute force over realizing words bounded by slave language length 8
    from nwaq.reduce import reduce_width1 as _r

    for nwa, k in ((a_art1, 1), (reduce_width1(a_cond1, 2), 1)):
        t_letters = nwa.alphabet.letters
        for q1 in range(nwa.master.n_states):
            for a in t_letters:
                got = _fragment_table(nwa, q1, a)
                if got is None:
                    continue
                slave_idx, table = got
                brute = _brute_fragments(nwa, q1, a, slave_idx, 8)
                for q2, value in table.items():
                    if q2 in brute:
                        assert value <= brute[q2]
                        if brute[q2] == min(brute.values()):
                            # shortest realizations within 8 letters attain it
                            assert value == brute[q2] or value < brute[q2]


def _fragment_table(nwa, q1, a):
    got = _fragment_values(nwa, q1, nwa.alphabet.id_of(a))
    if got is None:
        return None
    slave, per_target = got
    return slave, {q2: v for q2, (v, _) in per_target.items() if v is not None}


def _brute_fragments(nwa, q1, a, slave_idx, max_len):
    """min value per endpoint over realizing words of bounded length, walked
    with the oracle's own step: the invocation at (q1, a), then silent master
    moves while the invoked slave runs."""
    step = Oracle(nwa, 1).step
    _, choices = step(q1, (), nwa.alphabet.id_of(a))
    if not choices or choices[0][2] is None:
        return {}
    (m1, slots), weights, label, _ = choices[0]
    acc = nwa.slave(label).base.accepting
    out = {}
    frontier = [(m1, slots, weights[0], 1)]
    while frontier:
        m, slots, val, ln = frontier.pop()
        if slots[0][1] in acc:
            if m not in out or val < out[m]:
                out[m] = val
            continue
        if ln >= max_len:
            continue
        for b in range(len(nwa.alphabet.letters)):
            _, choices = step(m, slots, b)
            if not choices or choices[0][2] is not None:
                continue
            (m2, slots2), weights, _, _ = choices[0]
            frontier.append((m2, slots2, val + weights[0], ln + 1))
    return out


def test_fragment_automaton_art1(a_art1):
    frag = fragment_automaton(a_art1)
    weights = [w for _, letter, _, w in frag.edges if w is not None]
    assert weights and min(weights) == 1
    # no valued letter without a realization
    for _, letter, _, w in frag.edges:
        assert letter in frag.realizations


def test_fragment_automaton_no_consecutive_silent(a_art1, a_cond1):
    for nwa, k in ((a_art1, 1), (reduce_width1(a_cond1, 2), 1)):
        frag = fragment_automaton(nwa)
        silent_targets = {dst for _, letter, dst, _ in frag.edges if letter.silent}
        for src, letter, _, _ in frag.edges:
            if letter.silent:
                assert src not in silent_targets


def test_fragment_automaton_dummy_only_rejects():
    sigma = Alphabet(("a",))
    dummy = WeightedAutomaton(_tiny(sigma, ["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = _tiny(sigma, ["m"], ["m"], [("m", "a", "m", 1)], ["m"])
    frag = fragment_automaton(Nwa(master, (dummy,)))
    assert all(letter.silent for _, letter, _, _ in frag.edges)


def test_fragment_realizations_replay(a_art1):
    frag = fragment_automaton(a_art1)
    for _, letter, _, w in frag.edges:
        if letter.silent:
            continue
        word = frag.realizations[letter]
        # replay: master path from q1 consuming the word reaches q2 and the
        # slave accepts it with the claimed minimal value
        lang = slave_language(a_art1.slave(letter.slave), len(word))
        assert lang.get(word) == w

import random
from fractions import Fraction
from pathlib import Path

import pytest

from nwaq.cli import main
from nwaq.core import (
    Alphabet,
    LabeledAutomaton,
    LassoWord,
    NEG_INFINITY,
    Nwa,
    PLUS_INFINITY,
    PreconditionError,
    Threshold,
    ValueFn,
    ValueResult,
    WeightedAutomaton,
    is_deterministic,
    validate_nwa,
    width_error,
)
from helpers import (
    derived_invoked,
    has_negative_cycle_fw,
    in_reference_order,
    random_draw,
    random_nondet,
    reference_config_graph,
    reference_infimum,
    reference_kinds,
    sign_masked,
    twinned,
)
from reference import materialize_deterministic, mirror
from nwaq.corpus import KNOWN_WIDTH, STAR_FAILING, art_types, cond_a2, k_art
from nwaq.decide import Pipeline, emptiness, infimum, universality_deterministic
from nwaq.determinize import StepTables, explore
from nwaq.oracle import Oracle, enumerate_lasso_infimum, evaluate_lasso, min_partial_average
from nwaq.starcond import check_star_condition
from nwaq.textio import parse_nwa, parse_word, render_nwa
from nwaq.width import has_width


def test_cond_examples(a_cond1, a_cond2):
    assert emptiness(a_cond1, 2, Threshold(Fraction(0)))[0]
    assert not emptiness(a_cond1, 2, Threshold(Fraction(-1)))[0]
    assert emptiness(a_cond2, 2, Threshold(Fraction(-(10**6))))[0]
    assert infimum(a_cond1, 2)[0] == ValueResult.finite(0)
    assert infimum(a_cond2, 2)[0] is NEG_INFINITY


def test_ae_unbounded(a_ae):
    answer, cert = emptiness(a_ae, 1, Threshold(Fraction(-(10**6))))
    assert answer
    # the pumped witness is deep enough for the queried threshold
    assert len(cert.pumped.period) > 10**6
    assert infimum(a_ae, 1)[0] is NEG_INFINITY


def test_art1_threshold_boundary(a_art1):
    assert infimum(a_art1, 1)[0] == ValueResult.finite(1)
    assert emptiness(a_art1, 1, Threshold(Fraction(1)))[0]
    # the infimum 1 is attained by (r g)^omega, so the strict query fails
    assert not emptiness(a_art1, 1, Threshold(Fraction(1), strict=True))[0]


def test_finite_certificates_replay(a_cond1, a_art1):
    for nwa, k in ((a_cond1, 2), (a_art1, 1)):
        value, cert = infimum(nwa, k)
        assert cert.kind == "lasso"
        assert evaluate_lasso(nwa, cert.lasso, k) == value


def test_star_certificate_dip(a_cond2, a_ae):
    for nwa, k in ((a_cond2, 2), (a_ae, 1)):
        t = Threshold(Fraction(-150))
        answer, cert = emptiness(nwa, k, t)
        assert answer and cert.kind == "star"
        assert min_partial_average(nwa, cert.pumped, k, 8) <= t.value


def test_pipeline_oracle_soundness(all_corpus):
    for name in STAR_FAILING:
        nwa = all_corpus[name]
        k = KNOWN_WIDTH[name]
        pipe = Pipeline(nwa, k)
        values = {v.value for _, v in Oracle(nwa, k).lasso_values(2, 6) if v is not PLUS_INFINITY}
        for v in sorted(values):
            assert pipe.emptiness(Threshold(v))[0], (name, v)


def test_pipeline_oracle_tightness(all_corpus):
    bounds = {
        "art1": (3, 10),
        "cond_a1": (3, 10),
        "k_art_2": (3, 10),
        "k_art_3": (3, 9),
        "art_types_2": (2, 6),
        "art_types_3": (2, 5),
    }
    for name in STAR_FAILING:
        nwa = all_corpus[name]
        k = KNOWN_WIDTH[name]
        pipe = Pipeline(nwa, k)
        star_value, _ = pipe.infimum()
        assert star_value.is_finite()
        below = Threshold(star_value.value - Fraction(1, 1000))
        assert not pipe.emptiness(below)[0], name
        mp, mper = bounds[name]
        enum_value, _ = enumerate_lasso_infimum(nwa, mp, mper, k)
        assert enum_value.is_finite()
        assert enum_value.value - star_value.value <= Fraction(1, 2), name
        # the paper's reduction chain, wherever no lasso undercuts it
        old = reference_infimum(nwa, k)
        if old.sort_key() <= enum_value.sort_key():
            assert star_value == old, name


def test_mirror_negates_lasso_values(all_corpus):
    words = {
        "art1": LassoWord((), ("r", "hash", "g")),
        "average_excess": LassoWord((), ("dollar", "r", "g", "g")),
        "cond_a1": LassoWord((), ("one", "two", "a", "hash")),
    }
    for name, word in words.items():
        nwa = all_corpus[name]
        k = KNOWN_WIDTH[name]
        v = evaluate_lasso(nwa, word, k)
        m = evaluate_lasso(mirror(nwa), word, k)
        assert m.value == -v.value


def _universality_cases(all_corpus):
    """Every corpus automaton at k = 1..3 within its width, and the
    sign-masked art_types(3), whose Sum+ slaves the negation turns to Sum."""
    cases = [(nwa, k) for nwa in all_corpus.values() for k in (1, 2, 3)] + [(sign_masked(art_types(3), {2}), 3)]
    return [(nwa, k) for nwa, k in cases if has_width(nwa, k)[0]]


def test_negated_graph_is_the_mirrors_graph(all_corpus):
    cases = _universality_cases(all_corpus)
    for nwa, k in cases:
        keys, got = explore(nwa, k, sign=-1)
        want_keys, want = explore(mirror(nwa), k)
        assert keys == want_keys and got.keys == want.keys, (nwa.name, k)
        for column in ("start", "initials", "src", "dst", "letter", "slot_weights", "returned", "kinds"):
            assert getattr(got, column) == getattr(want, column), (nwa.name, k, column)
        ref_keys, ref_edges, _ = reference_config_graph(nwa, k)
        mapped = in_reference_order(nwa, got, ref_keys)
        assert [e[-1] for e in mapped] == reference_kinds(ref_keys, ref_edges), (nwa.name, k)
        assert [sum(e[3]) for e in mapped] == [-sum(e[3]) for e in ref_edges], (nwa.name, k)
        assert derived_invoked(got) == derived_invoked(want), (nwa.name, k)
        assert [e[4] for e in mapped] == [e[4] for e in ref_edges], (nwa.name, k)
        # the star test's quick exit, on both signs
        assert got.tables.may_descend == _slave_has_negative_cycle(nwa, -1), (nwa.name, k)
        assert StepTables(nwa).may_descend == _slave_has_negative_cycle(nwa, 1), (nwa.name, k)
    assert len(cases) >= 15


def _slave_has_negative_cycle(nwa, sign):
    """Does some slave have a negative cycle through non-accepting states,
    its effective weights times `sign`? Floyd-Warshall per slave."""
    found = False
    for sl in nwa.slaves:
        base = sl.base
        arcs = [(q, q2, sign * sl.effective_weight(w)) for q, _, q2, w in base.transitions
                if q not in base.accepting and q2 not in base.accepting]
        found |= has_negative_cycle_fw(base.n_states, arcs)
    return found


def test_universality_matches_emptiness_of_the_mirror(all_corpus):
    thresholds = [Threshold(Fraction(v), strict) for v, strict in (("0", False), ("0", True), ("1/2", False),
                                                                     ("1", True), ("2", False))]
    decided = 0
    for nwa, k in _universality_cases(all_corpus):
        if not is_deterministic(nwa)[0]:
            continue
        for t in thresholds:
            old = not emptiness(mirror(nwa), k, Threshold(-t.value, not t.strict))[0]
            assert universality_deterministic(nwa, k, t) == old, (nwa.name, k, str(t))
        decided += 1
    assert decided >= 15


def test_universality_says_no_below_the_largest_lasso_value():
    """On seeded deterministic draws of width 2, universality says no at
    and just below the largest finite value m of a short lasso, and the
    negated pipeline's infimum, the negated supremum, is at most -m."""
    rng = random.Random(0)
    kept = 0
    for _ in range(2000):
        nwa = random_draw(rng)
        if validate_nwa(nwa) or not is_deterministic(nwa)[0] or not has_width(nwa, 2)[0]:
            continue
        values = [v.value for _, v in Oracle(nwa, 2).lasso_values(2, 4) if v.is_finite()]
        if not values:
            continue
        m = max(values)
        assert not universality_deterministic(nwa, 2, Threshold(m, strict=True)), m
        assert not universality_deterministic(nwa, 2, Threshold(m - Fraction(1, 7))), m
        negated, _ = Pipeline(nwa, 2, sign=-1).infimum()
        assert negated is NEG_INFINITY or -negated.value >= m, (m, negated)
        kept += 1
        if kept == 150:
            break
    assert kept == 150


def test_universality_constant_value():
    sigma = Alphabet(("a", "b"))

    def tiny(states, initials, trans, acc):
        idx = {s: i for i, s in enumerate(states)}
        return LabeledAutomaton(
            sigma,
            len(states),
            tuple(states),
            frozenset(idx[s] for s in initials),
            tuple(sorted((idx[q], sigma.id_of(x), idx[p], w) for q, x, p, w in trans)),
            frozenset(idx[s] for s in acc),
        )

    # every non-silent value is exactly 3
    slave = WeightedAutomaton(tiny(["s0", "s1"], ["s0"], [("s0", "a", "s1", 3)], ["s1"]), ValueFn.SUM)
    dummy = WeightedAutomaton(tiny(["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = tiny(["m"], ["m"], [("m", "a", "m", 1), ("m", "b", "m", 2)], ["m"])
    nwa = Nwa(master, (slave, dummy))
    assert universality_deterministic(nwa, 1, Threshold(Fraction(3)))
    assert not universality_deterministic(nwa, 1, Threshold(Fraction(2)))


def test_universality_art1(a_art1):
    # (r g)^omega reaches value 1 > 1/2
    assert not universality_deterministic(a_art1, 1, Threshold(Fraction(1, 2)))


def test_universality_ae_unbounded_above(a_ae):
    assert not universality_deterministic(a_ae, 1, Threshold(Fraction(10**6)))


# ROADMAP item 9's automaton: slave 1 lands n at each s of a block s a^n e,
# slave 2 lands 0 at each a, and e invokes a dummy slave, a silent move
SPIKE = parse_nwa((Path(__file__).resolve().parent / "data" / "spike.nwa").read_text())


def test_spike_values_stay_below_one():
    for n in (1, 2, 3, 6):
        word = LassoWord((), ("s",) + ("a",) * n + ("e",))
        assert evaluate_lasso(SPIKE, word, 2) == ValueResult.finite(Fraction(n, n + 1)), n
    # lasso values approach 1, so not every value is below 1
    assert not universality_deterministic(SPIKE, 2, Threshold(Fraction(1), strict=True))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")
@pytest.mark.parametrize("t", [1, 10**6])
def test_spike_universal_at_most(t):
    # no word's liminf passes 1, but the descent in the negated graph answers no
    assert universality_deterministic(SPIKE, 2, Threshold(Fraction(t)))


def test_universality_at_the_largest_threshold(a_art1, a_ae):
    # both negated graphs descend, so no bound holds; the answer builds no
    # pumped word, whose length would grow with the threshold
    for nwa in (a_art1, a_ae):
        for strict in (False, True):
            assert not universality_deterministic(nwa, 1, Threshold(Fraction(2**63 - 1), strict))


def test_nondeterministic_pipeline():
    sigma = Alphabet(("a", "b"))

    def tiny(states, initials, trans, acc):
        idx = {s: i for i, s in enumerate(states)}
        return LabeledAutomaton(
            sigma,
            len(states),
            tuple(states),
            frozenset(idx[s] for s in initials),
            tuple(sorted((idx[q], sigma.id_of(x), idx[p], w) for q, x, p, w in trans)),
            frozenset(idx[s] for s in acc),
        )

    # the slave returns 1 after one letter or -1 after an a b pair
    slave = WeightedAutomaton(
        tiny(
            ["s0", "sa", "sb"],
            ["s0"],
            [("s0", "a", "sa", 1), ("s0", "a", "sb", -1), ("sb", "b", "sa", 0)],
            ["sa"],
        ),
        ValueFn.SUM,
    )
    dummy = WeightedAutomaton(tiny(["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = tiny(
        ["m0", "m1"], ["m0"], [("m0", "a", "m0", 1), ("m0", "a", "m1", 1), ("m1", "b", "m0", 2), ("m0", "b", "m0", 2)], ["m0"]
    )
    nwa = Nwa(master, (slave, dummy), name="nd1")
    value, cert = infimum(nwa, 2)
    assert value.is_finite()
    # nondeterministic certificates are projected to the original alphabet
    assert all(a in sigma.letters for a in cert.lasso.prefix + cert.lasso.period)
    bound, _ = enumerate_lasso_infimum(nwa, 2, 4, 2)
    assert value.sort_key() <= bound.sort_key()


def test_emptiness_answers_from_infimum():
    ladder = [(art_types(k), k) for k in (2, 3, 4)] + [(k_art(k), k) for k in range(2, 7)]
    for nwa, k in ladder:
        pipe = Pipeline(nwa, k)
        value, _ = pipe.infimum()
        assert value.is_finite(), nwa.name
        lam = value.value
        thresholds = [Threshold(lam + d) for d in (-Fraction(1, 7), Fraction(0), Fraction(1, 7))]
        for t in thresholds + [Threshold(lam, strict=True)]:
            answer, cert = pipe.emptiness(t)
            assert answer == t.admits(lam), (nwa.name, str(t))
            if answer:
                assert cert.kind == "lasso"
                replay = evaluate_lasso(nwa, cert.lasso, k)
                assert replay.is_finite() and t.admits(replay.value), (nwa.name, str(t))


def test_pipeline_expands_each_configuration_letter_once(monkeypatch):
    """A `Pipeline` compiles one step table and steps each key on it once,
    the width search included: that search runs at most once per
    `Pipeline`, only when the exploration stops at a descent, on the
    exploration's table, and steps only keys the exploration did not
    expand. Re-exploring, with the same table or a fresh one, fails."""
    import nwaq.determinize

    original, width = nwaq.determinize.StepTables.step, nwaq.determinize.has_width
    for nwa, k, queries, lowest, searches in (
        (cond_a2(), 2, ("infimum", "emptiness"), NEG_INFINITY, 0),
        (sign_masked(art_types(3), {2}), 3, ("infimum",), NEG_INFINITY, 1),
        (sign_masked(art_types(4), {1, 3}), 4, ("infimum",), NEG_INFINITY, 1),
        (twinned(k_art(3), 2), 3, ("infimum", "emptiness"), ValueResult.finite(1), 0),
    ):
        for query in queries:
            calls: dict = {}  # key -> [(tables, stepped by the width search)]
            widths: list = []

            def counting(tables, q, slots):
                calls.setdefault((q, slots), []).append((tables, bool(widths)))
                return original(tables, q, slots)

            def searching(*args):
                widths.append(args)
                return width(*args)

            monkeypatch.setattr(nwaq.determinize.StepTables, "step", counting)
            monkeypatch.setattr(nwaq.determinize, "has_width", searching)
            pipe = Pipeline(nwa, k)
            if query == "infimum":
                assert pipe.infimum()[0] == lowest, nwa.name
            else:
                assert pipe.emptiness(Threshold(Fraction(-5)))[0] == (lowest is NEG_INFINITY), nwa.name
            assert calls and max(map(len, calls.values())) == 1, (nwa.name, query)
            assert {tables for steps in calls.values() for tables, _ in steps} == {pipe.graph.tables}, nwa.name
            assert len(widths) == searches, (nwa.name, query)
            searched = {key for key, [(_, late)] in calls.items() if late}
            # the exploration steps its keys in id order, the first ones of its graph
            explored = [key for key, [(_, late)] in calls.items() if not late]
            assert explored == pipe.graph.keys[: len(explored)], (nwa.name, query)
            assert bool(searched) == bool(searches) and searched.isdisjoint(explored), (nwa.name, query)
            assert all(args[2] is pipe.graph.tables for args in widths), (nwa.name, query)


def test_each_decision_finds_its_descent_once(monkeypatch, tmp_path):
    """`Pipeline` and `nwaq star` read the descent off the graph `explore`
    returns: one star test finds the witness, on the checkpoint graph that
    stopped the exploration or on the complete graph, and the width search
    runs once where the exploration stops early, on that graph's step table,
    from the keys it expanded and the ones it found but did not expand."""
    import nwaq.determinize

    star, width = nwaq.determinize.check_star_condition, nwaq.determinize.has_width
    for nwa, k, searches in ((sign_masked(art_types(3), {2}), 3, 1), (cond_a2(), 2, 0)):
        path = tmp_path / "in.nwa"
        path.write_text(render_nwa(nwa))
        for decide in (lambda: Pipeline(nwa, k).infimum()[0], lambda: main(["star", str(path), "--k", str(k)])):
            found: list = []
            widths: list = []

            def testing(graph):
                found.append((graph, star(graph)))
                return found[-1][1]

            def searching(*args):
                widths.append(args)
                return width(*args)

            monkeypatch.setattr(nwaq.determinize, "check_star_condition", testing)
            monkeypatch.setattr(nwaq.determinize, "has_width", searching)
            assert decide() in (NEG_INFINITY, 0), nwa.name
            [stopped] = [graph for graph, witness in found if witness is not None]
            assert [args[1] for args in widths] == [k] * searches, nwa.name
            for _, _, tables, expanded, frontier in widths:
                assert tables is stopped.tables and expanded == stopped.keys[: len(expanded)], nwa.name
                assert frontier and frontier == stopped.keys[len(expanded):], nwa.name


def _stop_cases() -> list:
    """Seeded random draws, and every sign-masked `art_types(3..4)` at its
    width k and at k - 1, where some descend before they overflow."""
    rng = random.Random(25)
    cases = [(random_draw(rng), rng.randint(1, 3)) for _ in range(400)]
    for k in (3, 4):
        for mask in range(1, 1 << k):
            nwa = sign_masked(art_types(k), {i + 1 for i in range(k) if mask >> i & 1})
            cases += [(nwa, k), (nwa, k - 1)]
    return cases


def test_a_stopped_exploration_decides_as_the_complete_graph():
    """The star test stops `Pipeline`'s exploration at its first witness, and
    it finds one exactly when the complete graph has one. The pumped word of
    every witness found on a partial graph is a run of the complete graph
    whose partial averages dip below 0, and a stopped exploration still
    raises the width error."""
    early = decided = 0
    for nwa, k in _stop_cases():
        if not has_width(nwa, k)[0]:
            with pytest.raises(PreconditionError):
                Pipeline(nwa, k)
            continue
        pipe = Pipeline(nwa, k)
        keys, graph = explore(nwa, k)
        assert (pipe.star is None) == (check_star_condition(graph) is None), (nwa.name, k)
        decided += 1
        if len(pipe.graph.keys) < len(keys):
            assert pipe.star is not None, (nwa.name, k)
            assert set(pipe.graph.keys) < set(keys), (nwa.name, k)
            pumped = pipe.infimum()[1].pumped
            assert evaluate_lasso(nwa, pumped, k).is_finite(), (nwa.name, k)
            assert min_partial_average(nwa, pumped, k, 8) < 0, (nwa.name, k)
            early += 1
    assert decided >= 300 + 22 and early >= 22, (decided, early)


def test_a_stopped_graph_is_a_prefix_of_the_complete_graph(monkeypatch):
    """Configurations are numbered as the exploration finds them, so a
    stopped exploration's keys are the first keys of the complete graph,
    each configuration it expanded has the same out-edges there, in all six
    columns, and the ones it found but did not expand have none."""
    import nwaq.determinize

    step, width = nwaq.determinize.StepTables.step, nwaq.determinize.has_width
    stepped: list = []
    expanded: list = []

    def counting(tables, q, slots):
        stepped.append((q, slots))
        return step(tables, q, slots)

    def searching(*args):
        expanded.append(len(stepped))  # the width search at a stop steps keys too
        return width(*args)

    monkeypatch.setattr(nwaq.determinize.StepTables, "step", counting)
    monkeypatch.setattr(nwaq.determinize, "has_width", searching)
    stops = 0
    for nwa, k in _stop_cases():
        if not has_width(nwa, k)[0]:
            continue
        stepped.clear()
        expanded.clear()
        _, stopped = explore(nwa, k, stop=True)
        _, complete = explore(nwa, k)
        if not expanded:
            assert stopped.keys == complete.keys and stopped.start == complete.start, (nwa.name, k)
            continue
        [m] = expanded
        assert stepped[:m] == stopped.keys[:m] and m < len(stopped.keys), (nwa.name, k)
        assert stopped.keys == complete.keys[: len(stopped.keys)], (nwa.name, k)
        assert stopped.initials == complete.initials, (nwa.name, k)
        for u in range(len(stopped.keys)):
            assert stopped.out(u) == complete.out(u) if u < m else not stopped.out(u), (nwa.name, k, u)
        for column in ("src", "dst", "letter", "slot_weights", "returned", "kinds"):
            assert getattr(stopped, column) == getattr(complete, column)[: len(stopped)], (nwa.name, k, column)
        stops += 1
    assert stops >= 22, stops


def test_a_stopped_exploration_proves_width_as_a_fresh_search(monkeypatch):
    """An exploration that stops at a descent resumes the width search from
    its frontier, and reruns it from the initial keys when that reaches past
    the cap. On either sign it fits exactly when `has_width` from scratch
    says so, and otherwise raises the same width error, witness included."""
    import nwaq.determinize

    width = nwaq.determinize.has_width
    resumed: list = []

    def searching(*args):
        resumed.append(len(args) == 5)
        return width(*args)

    monkeypatch.setattr(nwaq.determinize, "has_width", searching)
    stopped = overflowed = 0
    for nwa, k in _stop_cases():
        fits, witness = has_width(nwa, k)
        for sign in (1, -1):
            resumed.clear()
            if fits:
                explore(nwa, k, sign, stop=True)
            else:
                with pytest.raises(PreconditionError) as error:
                    explore(nwa, k, sign, stop=True)
                assert str(error.value) == str(width_error(k, witness)), (nwa.name, k, sign)
            stopped += resumed == [True]
            overflowed += resumed == [True] and not fits
    assert stopped >= 60 and overflowed >= 20, (stopped, overflowed)


def test_a_descent_stops_before_most_configurations_are_stepped(monkeypatch):
    import nwaq.determinize

    nwa = sign_masked(art_types(4), {1, 3})
    assert len(explore(nwa, 4)[0]) == 261
    original = nwaq.determinize.StepTables.step
    stepped: dict = {}

    def counting(tables, q, slots):
        stepped.setdefault(tables, set()).add((q, slots))
        return original(tables, q, slots)

    monkeypatch.setattr(nwaq.determinize.StepTables, "step", counting)
    pipe = Pipeline(nwa, 4)
    assert pipe.infimum()[0] == NEG_INFINITY
    assert len(stepped[pipe.graph.tables]) < 64


def test_decisions_read_keys_not_configurations(all_corpus):
    cases = [(nwa, k) for nwa in all_corpus.values() for k in (1, 2, 3)] + [(sign_masked(art_types(3), {2}), 3)]
    decided = 0
    for nwa, k in cases:
        if not has_width(nwa, k)[0]:
            continue
        pipe = Pipeline(nwa, k)
        pipe.infimum()
        for t in (Threshold(Fraction(0)), Threshold(Fraction(1), strict=True)):
            pipe.emptiness(t)
        assert "configs" not in vars(pipe.graph), (nwa.name, k)
        decided += 1
    assert decided >= 15


def test_pipeline_computes_components_twice(monkeypatch):
    import sys

    import nwaq.graphs

    original = nwaq.graphs.sccs
    calls = []

    def counting(start, dst):
        calls.append(len(start) - 1)
        return original(start, dst)

    for name, module in list(sys.modules.items()):
        if name.startswith("nwaq.") and getattr(module, "sccs", None) is original:
            monkeypatch.setattr(module, "sccs", counting)
    value, cert = Pipeline(art_types(3), 3).infimum()
    assert value == ValueResult.finite(1) and cert.lasso is not None
    # once for `ConfigGraph.comp`, once for the tight pieces of the certificate
    assert len(calls) == 2, calls


def test_nondeterministic_input_matches_its_determinization():
    compared = 0
    for seed in range(1, 300):
        nwa = random_nondet(8000 + seed)
        if nwa is None:
            continue
        k = random.Random(seed).randint(1, 2)
        if not has_width(nwa, k)[0]:
            continue
        value = Pipeline(nwa, k).infimum()[0]
        assert value == Pipeline(materialize_deterministic(nwa, k), k).infimum()[0], seed
        # lassos of nondeterministic input are run lassos: an upper bound
        assert value.sort_key() <= enumerate_lasso_infimum(nwa, 2, 4, k)[0].sort_key(), seed
        compared += 1
    assert compared >= 80


# Every c starts a Sum slave that adds -1 on each of the next two letters,
# so two slaves are live at every position.
REPRODUCER_A = """nwa
alphabet c
master
  states m0
  initial m0
  accepting m0
  trans m0 c m0 invoke 1
slave 1 valuefn sum
  states s0 s1 s2
  initial s0
  accepting s2
  trans s0 c s1 weight -1
  trans s1 c s2 weight -1
"""


def test_slaves_that_always_overlap():
    nwa = parse_nwa(REPRODUCER_A)
    value, cert = infimum(nwa, 2)
    assert value == ValueResult.finite(-2)
    assert evaluate_lasso(nwa, cert.lasso, 2) == value == cert.value
    answer, cert = emptiness(nwa, 2, Threshold(Fraction(0)))
    assert answer and evaluate_lasso(nwa, cert.lasso, 2) == ValueResult.finite(-2)


def _one_letter_slaves(weights: tuple[int, ...], master: str) -> str:
    """Master lines plus one Sum slave per weight, each returning its weight
    after one letter."""
    slaves = "".join(
        f"slave {i} valuefn sum\n  states t0 t1\n  initial t0\n  accepting t1\n"
        f"  trans t0 a t1 weight {w}\n  trans t0 b t1 weight {w}\n"
        for i, w in enumerate(weights, start=1)
    )
    return "nwa\nalphabet a b\nmaster\n  states m0 m1\n  initial m0\n  accepting m0\n" + master + slaves


def test_certificates_pass_through_acceptance():
    # only m0 accepts; the least-ratio cycle m1 -b-> m1 never returns to it
    nwa = parse_nwa(
        _one_letter_slaves((0, -1), "  trans m0 a m1 invoke 1\n  trans m1 a m0 invoke 1\n  trans m1 b m1 invoke 2\n")
    )
    value, cert = infimum(nwa, 1)
    assert value == ValueResult.finite(-1)
    # no lasso attains -1: 8 turns of the cycle, then a detour through m0
    assert cert.flags == ("not-attained",)
    assert cert.lasso == parse_word("a b | b b b b b b b b a a b")
    assert cert.value == ValueResult.finite(Fraction(-9, 11)) == evaluate_lasso(nwa, cert.lasso, 1)
    t = Threshold(Fraction(-1, 2))
    answer, cert = emptiness(nwa, 1, t)
    assert answer and cert.flags == ("not-attained",)
    assert evaluate_lasso(nwa, cert.lasso, 1) == cert.value and t.admits(cert.value.value)
    # words reach -1 only in the limit, so the infimum itself has no lasso
    answer, cert = emptiness(nwa, 1, Threshold(Fraction(-1)))
    assert answer and cert.lasso is None and cert.flags == ("not-attained",)
    assert not emptiness(nwa, 1, Threshold(Fraction(-1), strict=True))[0]
    # an attained infimum whose least cycle m1 -b-> m1 also misses m0
    nwa = parse_nwa(
        _one_letter_slaves(
            (0,), "  trans m0 a m1 invoke 1\n  trans m0 b m1 invoke 1\n  trans m1 a m0 invoke 1\n  trans m1 b m1 invoke 1\n"
        )
    )
    value, cert = infimum(nwa, 1)
    assert value == ValueResult.finite(0) and not cert.flags
    assert evaluate_lasso(nwa, cert.lasso, 1) == value

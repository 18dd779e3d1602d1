"""Acceptance criteria, one test per criterion, each printing a verdict line.

All comparisons are exact (rationals or structural equality); each criterion
also asserts its stated runtime budget.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import Graph, min_cycle_ratio_brute, random_draw, random_nondet, ratio_graph, reference_infimum
from nwaq.cli import main as cli_main
from nwaq.core import (
    LassoWord,
    NEG_INFINITY,
    PLUS_INFINITY,
    Threshold,
    ValueResult,
    WidthExceededError,
    is_deterministic,
    validate_nwa,
)
from nwaq.corpus import KNOWN_WIDTH, STAR_FAILING, art, art1, art_types, average_excess, cond_a1, cond_a2, corpus, k_art, mca_counter
from nwaq.decide import Pipeline
from nwaq.determinize import explore
from nwaq.mca import evaluate_lasso_mca, mca_to_nwa, nwa_to_mca
from nwaq.meanpayoff import infimum_ratio
from nwaq.oracle import Oracle, enumerate_lasso_infimum, evaluate_lasso, min_partial_average, run_values
from nwaq.reduce import reduce_width1
from nwaq.starcond import check_star_condition, pump_witness
from nwaq.textio import parse_mca, parse_nwa, render_mca, render_nwa
from nwaq.width import has_width
from reference import materialize_deterministic, threshold_emptiness

DATA = Path(__file__).resolve().parent.parent / "src" / "nwaq" / "corpus_data"


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} beyond its runtime budget"
        return False


def test_criterion_1_paper_values_exact():
    with _Budget("1 paper values", 4.0):
        t0 = time.monotonic()
        assert Pipeline(cond_a1(), 2).infimum()[0] == ValueResult.finite(0)
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        assert Pipeline(cond_a2(), 2).infimum()[0] is NEG_INFINITY
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        word = LassoWord((), ("dollar", "r", "r", "hash", "g"))
        assert evaluate_lasso(average_excess(), word, 1) == ValueResult.finite(1)
        assert time.monotonic() - t0 < 1.0
        t0 = time.monotonic()
        seq = run_values(art(), LassoWord(("r", "r", "r", "hash", "r", "g"), ("r", "g")), 64, 5)
        assert seq == [5, 4, 3, 1, 1]
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_width_facts():
    with _Budget("2 width facts", 5.0):
        assert has_width(art1(), 1) == (True, None)
        a = art()
        for k in range(1, 5):
            ok, witness = has_width(a, k)
            assert not ok
            with pytest.raises(WidthExceededError) as err:
                evaluate_lasso(a, LassoWord(witness, ("r",)), k)
            assert err.value.position == len(witness)
        for k in (2, 3):
            nwa = k_art(k)
            assert has_width(nwa, k)[0]
            assert not has_width(nwa, k - 1)[0]


def test_criterion_3_star_soundness():
    with _Budget("3 descent-condition soundness", 5.0):
        for nwa, k in ((cond_a2(), 2), (average_excess(), 1)):
            _, graph = explore(nwa, k)
            witness = check_star_condition(graph)
            assert witness is not None
            dips, oracle = [], Oracle(nwa, k)
            for m in (1, 2, 4, 8):
                lasso = pump_witness(graph, witness, pumps=16 * m)
                assert oracle.evaluate(lasso) is not PLUS_INFINITY
                dips.append(oracle.min_partial_average(lasso, 8))
            assert all(b < a for a, b in zip(dips, dips[1:])), nwa.name
            assert dips[-1] < Fraction(-100), nwa.name


def test_criterion_4_pipeline_oracle_agreement():
    with _Budget("4 pipeline-oracle agreement", 60.0):
        for name in STAR_FAILING:
            nwa = corpus()[name]
            k = KNOWN_WIDTH[name]
            pipe = Pipeline(nwa, k)
            finite_values = set()
            for _, value in Oracle(nwa, k).lasso_values(2, 6):
                if value is not PLUS_INFINITY:
                    finite_values.add(value.value)
            assert finite_values, name
            for v in sorted(finite_values):
                assert pipe.emptiness(Threshold(v))[0], (name, v)
            inf_value, _ = pipe.infimum()
            assert inf_value.is_finite()
            assert not pipe.emptiness(Threshold(inf_value.value - Fraction(1, 1000)))[0], name


def test_criterion_4_differential_fuzz():
    """Criterion 4 on seeded random automata of width <= 2: the infimum is
    never above a lasso the oracle evaluates, every lasso certificate replays
    to exactly its claimed value, and the paper's reduction chain gives the
    same infimum wherever its own value is not above the oracle's."""
    with _Budget("4 differential fuzz", 180.0):
        kept = checked = 0
        for seed in range(3):
            rng = random.Random(seed)
            for draw in range(1500):
                nwa = random_draw(rng)
                if validate_nwa(nwa) or not is_deterministic(nwa)[0] or not has_width(nwa, 2)[0]:
                    continue
                kept += 1
                where = (seed, draw)
                pipe, oracle = Pipeline(nwa, 2), Oracle(nwa, 2)
                value, cert = pipe.infimum()
                bound, _ = oracle.infimum(2, 4)
                assert value.sort_key() <= bound.sort_key(), where
                certs = [cert]
                if value.is_finite():
                    t = Threshold(value.value + Fraction(1, 2))
                    answer, cert = pipe.emptiness(t)
                    assert answer and t.admits(cert.value.value), where
                    certs.append(cert)
                for cert in certs:
                    if cert.kind == "lasso":
                        assert oracle.evaluate(cert.lasso) == cert.value, where
                if value is not NEG_INFINITY:
                    old = reference_infimum(nwa, 2)
                    if old is not None and old.sort_key() <= bound.sort_key():
                        assert value == old, where
                        checked += 1
        assert kept > 3000 and checked > 2500, (kept, checked)


def _random_lassos(alphabet, count, max_prefix, max_period, seed):
    rng = random.Random(seed)
    letters = alphabet.letters
    return [
        LassoWord(
            tuple(rng.choice(letters) for _ in range(rng.randint(0, max_prefix))),
            tuple(rng.choice(letters) for _ in range(rng.randint(1, max_period))),
        )
        for _ in range(count)
    ]


def test_criterion_5_translation_equivalence():
    with _Budget("5 translation equivalence", 30.0):
        m = mca_counter()
        as_nwa = mca_to_nwa(m)
        for word in _random_lassos(m.alphabet, 50, 3, 6, seed=5001):
            assert evaluate_lasso_mca(m, word) == evaluate_lasso(as_nwa, word, 1), word
        round_trip = nwa_to_mca(as_nwa, 1)
        for word in _random_lassos(m.alphabet, 50, 3, 6, seed=5002):
            assert evaluate_lasso_mca(m, word) == evaluate_lasso_mca(round_trip, word), word
        cases = ((art1(), 1, 5003), (average_excess(), 1, 5004), (k_art(2), 2, 5005), (k_art(3), 3, 5006),
                 (art_types(2), 2, 5007))
        for nwa, k, seed in cases:
            as_mca, oracle = nwa_to_mca(nwa, k), Oracle(nwa, k)
            for word in _random_lassos(nwa.alphabet, 50, 3, 6, seed=seed):
                assert oracle.evaluate(word) == evaluate_lasso_mca(as_mca, word), word
            for word, value in oracle.lasso_values(2, 3):
                assert evaluate_lasso_mca(as_mca, word) == value, (nwa.name, word)


def _random_ratio_graph(rng):
    n = rng.randint(2, 8)
    m = rng.randint(1, 16)
    edges = []
    for _ in range(m):
        ticks = rng.randint(0, 1)
        edges.append((rng.randrange(n), rng.randrange(n), rng.randint(-8, 8) if ticks else 0, ticks))
    return Graph(n, tuple(edges), frozenset({rng.randrange(n)}), frozenset(rng.sample(range(n), rng.randint(0, n))))


def test_criterion_6_meanpayoff_oracle():
    with _Budget("6 mean-payoff oracle", 60.0):
        rng = random.Random(6001)
        for trial in range(1000):
            g = _random_ratio_graph(rng)
            expected = min_cycle_ratio_brute(g)
            rg = ratio_graph(g)
            value, _ = infimum_ratio(rg)
            if expected is None:
                assert value is PLUS_INFINITY, trial
                continue
            assert value == ValueResult.finite(expected), trial
            for t in (expected - 1, expected - Fraction(1, 7), expected, expected + Fraction(1, 7)):
                assert threshold_emptiness(rg, Threshold(t))[0] == (expected <= t), trial
            assert not threshold_emptiness(rg, Threshold(expected, strict=True))[0], trial


def test_criterion_7_reduction_fidelity():
    with _Budget("7 reduction fidelity", 60.0):
        for name in STAR_FAILING:
            nwa = corpus()[name]
            k = KNOWN_WIDTH[name]
            reduced = reduce_width1(nwa, k)
            assert has_width(reduced, 1) == (True, None), name
            oracle = Oracle(reduced, 1)
            for word, value in Oracle(nwa, k).lasso_values(2, 6):
                assert oracle.evaluate(word) == value, (name, word)


def test_criterion_8_determinization_fidelity():
    with _Budget("8 determinization fidelity", 120.0):
        done = 0
        nontrivial = 0
        seed = 0
        while done < 20:
            seed += 1
            nwa = random_nondet(8000 + seed)
            if nwa is None:
                continue
            k = random.Random(seed).randint(1, 2)
            det = materialize_deterministic(nwa, k)
            vi, _ = enumerate_lasso_infimum(nwa, 2, 4, k)
            vo, _ = enumerate_lasso_infimum(det, 2, 4, k)
            assert vi == vo, (seed, k, vi, vo)
            if vi is not PLUS_INFINITY:
                nontrivial += 1
            done += 1
        assert nontrivial >= 10, f"only {nontrivial} instances had finite bounded infima"


def test_criterion_9_cli_contract(tmp_path, capsys):
    with _Budget("9 cli contract", 30.0):
        # canonical round trips for every shipped corpus file
        for path in sorted(DATA.iterdir()):
            text = path.read_text()
            if path.suffix == ".nwa":
                assert render_nwa(parse_nwa(text)) == text, path.name
            else:
                assert render_mca(parse_mca(text)) == text, path.name
        # emitted certificates replay under eval within the queried threshold
        cases = [("cond_a1", 2, "0"), ("art1", 1, "1"), ("k_art_2", 2, "3/2")]
        for name, k, t in cases:
            cert_path = tmp_path / f"{name}.json"
            code = cli_main(
                ["empty", str(DATA / f"{name}.nwa"), "--k", str(k), "--le", t, "--certificate", str(cert_path)]
            )
            capsys.readouterr()
            assert code == 0, name
            cert = json.loads(cert_path.read_text())
            code = cli_main(
                ["eval", str(DATA / f"{name}.nwa"), "--word", cert["witness"], "--cap", str(k)]
            )
            out = json.loads(capsys.readouterr().out)
            assert code == 0
            value = Fraction(out["value"]["p"], out["value"]["q"])
            assert value <= Fraction(t), name
        # star certificates carry a pumped word whose average dip meets the threshold
        for name, k in (("cond_a2", 2), ("average_excess", 1)):
            cert_path = tmp_path / f"{name}.json"
            code = cli_main(
                ["empty", str(DATA / f"{name}.nwa"), "--k", str(k), "--le", "-150", "--certificate", str(cert_path)]
            )
            capsys.readouterr()
            assert code == 0, name
            cert = json.loads(cert_path.read_text())
            assert cert["kind"] == "star"
            from nwaq.textio import parse_word

            pumped = parse_word(cert["witness"]["pumped"])
            nwa = parse_nwa((DATA / f"{name}.nwa").read_text())
            assert min_partial_average(nwa, pumped, k, 8) <= Fraction(-150), name
        # exit codes: yes, no, usage, limit
        assert cli_main(["width", str(DATA / "art1.nwa"), "--k", "1"]) == 0
        capsys.readouterr()
        assert cli_main(["width", str(DATA / "art.nwa"), "--k", "3"]) == 1
        capsys.readouterr()
        assert cli_main(["width", str(DATA / "art.nwa")]) == 2
        capsys.readouterr()

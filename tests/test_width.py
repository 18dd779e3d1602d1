import math
import random
from collections import Counter

import pytest

import nwaq.width
from helpers import random_draw, random_nondet, reference_width_witness
from nwaq.core import LassoWord, WidthExceededError, validate_nwa
from nwaq.corpus import KNOWN_WIDTH, corpus, k_art
from nwaq.oracle import evaluate_lasso
from nwaq.width import has_width, minimal_width


def test_art1_has_width_one(a_art1):
    assert has_width(a_art1, 1) == (True, None)


def test_art_width_unbounded_up_to_four(a_art):
    for k in range(1, 5):
        ok, witness = has_width(a_art, k)
        assert not ok
        assert witness == ("r",) * (k + 1)


def test_k_art_widths():
    for k in (2, 3):
        nwa = k_art(k)
        assert has_width(nwa, k)[0]
        ok, witness = has_width(nwa, k - 1)
        assert not ok and witness is not None


def test_minimal_widths(all_corpus):
    expected = {name: KNOWN_WIDTH[name] for name in all_corpus}
    for name, nwa in all_corpus.items():
        want = expected[name]
        got = minimal_width(nwa, 4)
        if want is None or want > 4:
            assert got is None
        else:
            assert got == want


def test_minimal_width_art_unbounded(a_art):
    assert minimal_width(a_art, 8) is None


def test_monotone_in_k(all_corpus):
    for nwa in all_corpus.values():
        previous = False
        for k in range(1, 5):
            ok, _ = has_width(nwa, k)
            assert ok or not previous  # once true, stays true
            previous = previous or ok


def test_witness_replays_in_oracle(all_corpus):
    for nwa in all_corpus.values():
        for k in range(1, 4):
            ok, witness = has_width(nwa, k)
            if ok:
                continue
            lasso = LassoWord(witness, (nwa.alphabet.letters[0],))
            with pytest.raises(WidthExceededError) as err:
                evaluate_lasso(nwa, lasso, k)
            assert err.value.position == len(witness)


def test_minimal_width_is_the_least_width_that_holds():
    # a bisection below the top cap answers as a search at every cap would
    rng = random.Random(3)
    cases = [nwa for nwa in (random_draw(rng) for _ in range(200)) if not validate_nwa(nwa)]
    cases += [nwa for seed in range(9000, 9100) if (nwa := random_nondet(seed)) is not None]
    answers = Counter()
    for nwa in cases:
        for m in (1, 2, 3, 4):
            want = next((k for k in range(1, m + 1) if has_width(nwa, k)[0]), None)
            assert minimal_width(nwa, m) == want, (nwa.name, m)
            answers[want] += 1
    assert min(answers[k] for k in (None, 1, 2)) >= 100 and answers[3], answers


def test_has_width_matches_the_oracle_search(all_corpus):
    # sorted slot keys give the first shortest overflow word of a search
    # over ordered keys by the oracle's own step rule
    rng = random.Random(11)
    cases = list(all_corpus.values())
    cases += [nwa for nwa in (random_draw(rng) for _ in range(150)) if not validate_nwa(nwa)]
    cases += [nwa for seed in range(9200, 9500) if (nwa := random_nondet(seed)) is not None]
    failing = 0
    for nwa in cases:
        for k in (1, 2, 3, 4):
            witness = reference_width_witness(nwa, k)
            assert has_width(nwa, k) == (witness is None, witness), (nwa.name, k)
            failing += witness is not None
    assert failing >= 900, failing


def test_minimal_width_bisects(monkeypatch, a_art):
    # a linear scan over the caps would make m searches, all on one step table
    calls = []

    def counted(nwa, k, tables):
        calls.append((k, tables))
        return has_width(nwa, k, tables)

    monkeypatch.setattr(nwaq.width, "has_width", counted)
    for nwa, m, want in ((k_art(3), 4, 3), (k_art(3), 9, 3), (k_art(2), 2, 2), (a_art, 1, None), (a_art, 200, None)):
        calls.clear()
        assert minimal_width(nwa, m) == want
        assert 1 <= len(calls) <= math.ceil(math.log2(m)) + 1, (m, calls)
        assert len({tables for _, tables in calls}) == 1, (m, calls)

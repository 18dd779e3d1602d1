import random
from fractions import Fraction

import pytest

from helpers import Graph, min_cycle_ratio_brute, min_cycle_ratio_karp, qualifying_components, ratio_graph
from nwaq.core import PLUS_INFINITY, Threshold, ValueResult
from nwaq.corpus import art_types, k_art
from nwaq.decide import Pipeline
from nwaq.meanpayoff import check_ratio_bound, infimum_ratio
from reference import threshold_emptiness


def two_node_cycle() -> Graph:
    # costs 1 and 3, both ticking, accepting on the cycle
    return Graph(
        n_nodes=2,
        edges=((0, 1, 1, 1), (1, 0, 3, 1)),
        initials=frozenset({0}),
        accepting=frozenset({1}),
    )


def test_two_node_threshold():
    g = ratio_graph(two_node_cycle())
    assert threshold_emptiness(g, Threshold(Fraction(2)))[0]
    assert not threshold_emptiness(g, Threshold(Fraction(2), strict=True))[0]
    assert not threshold_emptiness(g, Threshold(Fraction(19, 10)))[0]


def test_cycle_with_silent_edge():
    g = ratio_graph(
        Graph(
            n_nodes=2,
            edges=((0, 1, 4, 1), (1, 0, 0, 0)),
            initials=frozenset({0}),
            accepting=frozenset({0}),
        )
    )
    assert threshold_emptiness(g, Threshold(Fraction(4)))[0]
    assert not threshold_emptiness(g, Threshold(Fraction(4), strict=True))[0]
    value, witness = infimum_ratio(g)
    assert value == ValueResult.finite(4)
    assert witness is not None


def test_no_accepting_reachable():
    g = ratio_graph(
        Graph(
            n_nodes=3,
            edges=((0, 1, -5, 1), (1, 0, 0, 1)),
            initials=frozenset({0}),
            accepting=frozenset({2}),
        )
    )
    for t in (Fraction(100), Fraction(0), Fraction(-100)):
        assert not threshold_emptiness(g, Threshold(t))[0]
    assert infimum_ratio(g)[0] is PLUS_INFINITY


def test_infimum_examples():
    assert infimum_ratio(ratio_graph(two_node_cycle()))[0] == ValueResult.finite(2)
    g = ratio_graph(
        Graph(
            n_nodes=2,
            edges=((0, 1, -2, 1), (1, 0, -3, 1)),
            initials=frozenset({0}),
            accepting=frozenset({0}),
        )
    )
    assert infimum_ratio(g)[0] == ValueResult.finite(Fraction(-5, 2))


def test_negative_silent_cycle_is_rejected():
    # a tick self-loop at 0 and a silent cycle 0 -> 1 -> 0 of cost -1
    g = ratio_graph(Graph(2, ((0, 0, 0, 1), (0, 1, -1, 0), (1, 0, 0, 0)), frozenset({0}), frozenset({0})))
    with pytest.raises(ValueError):
        infimum_ratio(g)
    # the same cycle outside every qualifying component is never solved
    g = ratio_graph(Graph(2, ((0, 0, 0, 1), (0, 1, -1, 0), (1, 1, -1, 0)), frozenset({0}), frozenset({0})))
    assert infimum_ratio(g)[0] == ValueResult.finite(0)


def random_graph(rng: random.Random) -> Graph:
    n = rng.randint(2, 8)
    m = rng.randint(1, 16)
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        ticks = rng.randint(0, 1)
        cost = rng.randint(-8, 8) if ticks else 0
        edges.append((u, v, cost, ticks))
    initials = frozenset({rng.randrange(n)})
    accepting = frozenset(rng.sample(range(n), rng.randint(0, n)))
    return Graph(n, tuple(edges), initials, accepting)


def test_random_graphs_against_cycle_enumeration():
    rng = random.Random(12345)
    for trial in range(300):
        g = random_graph(rng)
        expected = min_cycle_ratio_brute(g)
        rg = ratio_graph(g)
        value, witness = infimum_ratio(rg)
        if expected is None:
            assert value is PLUS_INFINITY, trial
            continue
        assert value == ValueResult.finite(expected), trial
        # the witness replays to exactly the claimed ratio
        ticks = sum(g.edges[i][3] for i in witness.cycle)
        cost = sum(g.edges[i][2] for i in witness.cycle)
        assert Fraction(cost, ticks) == expected
        assert witness.ratio == expected
        # the cycle closes
        walk = witness.cycle
        for first, second in zip(walk, walk[1:]):
            assert g.edges[first][1] == g.edges[second][0], trial
        assert g.edges[walk[-1]][1] == g.edges[walk[0]][0], trial
        for t in (expected - 1, expected, expected + Fraction(1, 3)):
            answer, _ = threshold_emptiness(rg, Threshold(t))
            assert answer == (expected <= t), trial
        answer, _ = threshold_emptiness(rg, Threshold(expected, strict=True))
        assert not answer


def costed_silent_graph(rng: random.Random, n_min: int, n_max: int) -> Graph:
    """A random graph whose silent edges carry cost but no silent cycle is
    negative: a silent edge u -> v costs h(v) - h(u) plus a slack >= 0."""
    n = rng.randint(n_min, n_max)
    h = [rng.randint(-6, 6) for _ in range(n)]
    edges = []
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.5:
            edges.append((u, v, rng.randint(-8, 8), 1))
        else:
            edges.append((u, v, h[v] - h[u] + rng.randint(0, 3), 0))
    initials = frozenset({rng.randrange(n)})
    accepting = frozenset(rng.sample(range(n), rng.randint(0, n)))
    return Graph(n, tuple(edges), initials, accepting)


def test_costed_silent_edges_against_oracles():
    rng = random.Random(5150)
    finite = 0
    for trial in range(300):
        g = costed_silent_graph(rng, 2, 8) if trial < 200 else costed_silent_graph(rng, 10, 30)
        expected = min_cycle_ratio_brute(g) if trial < 200 else min_cycle_ratio_karp(g)
        value, witness = infimum_ratio(ratio_graph(g))
        if expected is None:
            assert value is PLUS_INFINITY, trial
            continue
        finite += 1
        assert value == ValueResult.finite(expected), trial
        assert_certified(g, value, witness)
    assert finite >= 150


def test_threshold_monotone():
    rng = random.Random(777)
    for _ in range(50):
        g = ratio_graph(random_graph(rng))
        answers = [threshold_emptiness(g, Threshold(Fraction(t)))[0] for t in range(-9, 10)]
        for a, b in zip(answers, answers[1:]):
            assert b or not a


def random_large_graph(rng: random.Random) -> Graph:
    n = rng.randint(20, 60)
    edges = []
    for _ in range(rng.randint(n, 4 * n)):
        ticks = int(rng.random() < 0.6)
        edges.append((rng.randrange(n), rng.randrange(n), rng.randint(-8, 8) if ticks else 0, ticks))
    initials = frozenset(rng.sample(range(n), rng.randint(1, 2)))
    accepting = frozenset(rng.sample(range(n), rng.randint(0, n // 4)))
    return Graph(n, tuple(edges), initials, accepting)


def _generic(pipe: Pipeline) -> Graph:
    """A pipeline's ratio graph in generic form: the configurations, the
    edges, the initial configurations, and the members of the qualifying
    components as accepting nodes."""
    g = pipe.ratio
    edges = tuple(zip(g.src, g.dst, g.cost, g.ticks))
    initials = frozenset(pipe.graph.initials)
    return Graph(len(pipe.graph.keys), edges, initials, frozenset(g.src[n] for ns in g.components for n in ns))


@pytest.fixture(scope="module")
def ladder_graphs():
    pipes = {f"art_types({k})": Pipeline(art_types(k), k) for k in (2, 3, 4)}
    pipes.update({f"k_art({k})": Pipeline(k_art(k), k) for k in range(2, 7)})
    return {name: (pipe.ratio, _generic(pipe)) for name, pipe in pipes.items()}


def assert_certified(g: Graph, value: ValueResult, witness) -> None:
    """The witness cycle attains the value, its potentials prove the value is
    a lower bound, and they cover every qualifying component that ticks."""
    assert witness.ratio == value.value
    cost = sum(g.edges[i][2] for i in witness.cycle)
    ticks = sum(g.edges[i][3] for i in witness.cycle)
    assert Fraction(cost, ticks) == value.value
    rg = ratio_graph(g)
    assert check_ratio_bound(rg, value.value, witness.potentials)
    assert not check_ratio_bound(rg, value.value + Fraction(1, g.n_nodes + 1), witness.potentials)
    ticking = {
        comp for comp in qualifying_components(g) if any(e[3] and e[0] in comp and e[1] in comp for e in g.edges)
    }
    assert set(witness.potentials) == set().union(*ticking)


def test_karp_on_large_random_graphs():
    rng = random.Random(2024)
    finite = 0
    for trial in range(120):
        g = random_large_graph(rng)
        expected = min_cycle_ratio_karp(g)
        value, witness = infimum_ratio(ratio_graph(g))
        if expected is None:
            assert value is PLUS_INFINITY and witness is None, trial
            continue
        finite += 1
        assert value == ValueResult.finite(expected), trial
        assert_certified(g, value, witness)
    assert finite >= 60


def test_certificates_on_small_random_graphs():
    rng = random.Random(4242)
    for trial in range(300):
        g = random_graph(rng)
        value, witness = infimum_ratio(ratio_graph(g))
        if witness is not None:
            assert_certified(g, value, witness)


def test_ladder_graphs_against_karp(ladder_graphs):
    for name, (rg, g) in ladder_graphs.items():
        value, witness = infimum_ratio(rg)
        assert value == ValueResult.finite(1), name
        assert_certified(g, value, witness)
        if name != "art_types(4)":
            assert min_cycle_ratio_karp(g) == 1, name


def test_ratio_bound_rejects_broken_potentials():
    g = ratio_graph(two_node_cycle())
    value, witness = infimum_ratio(g)
    pi = witness.potentials
    assert check_ratio_bound(g, Fraction(2), pi)
    assert not check_ratio_bound(g, Fraction(2), {0: pi[0] + 1, 1: pi[1]})
    # a component node without a potential proves nothing
    assert not check_ratio_bound(g, Fraction(2), {0: pi[0]})

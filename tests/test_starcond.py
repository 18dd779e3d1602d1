import random
from fractions import Fraction

import reference
from helpers import edge_records, has_negative_cycle_fw, random_draw, random_nondet, sign_masked
from nwaq.core import (
    PLUS_INFINITY,
    Alphabet,
    LabeledAutomaton,
    Nwa,
    PreconditionError,
    ValueFn,
    WeightedAutomaton,
    is_deterministic,
)
from nwaq.corpus import KNOWN_WIDTH, STAR_FAILING, art_types, cond_a2, k_art
from nwaq.determinize import ACCEPT, RELEASE, TICK, explore
from nwaq.graphs import negative_cycle, sccs
from nwaq.oracle import enumerate_lasso_infimum, evaluate_lasso, min_partial_average
from nwaq.starcond import check_star_condition, pump_witness
from nwaq.textio import parse_nwa
from nwaq.width import has_width


def _witness(nwa, k):
    """The configuration graph of nwa at width k and the descent witness found in it."""
    _, graph = explore(nwa, k)
    return graph, check_star_condition(graph)


def _j_sum(graph, witness) -> int:
    """The witness cycle's total weight on its j oldest slots, summed from the graph."""
    return sum(sum(graph.slot_weights[n][: witness.j]) for n in witness.cycle)


def test_cond_a2_witness(a_cond2):
    _, witness = _witness(a_cond2, 2)
    assert witness is not None
    assert witness.j == 1
    assert witness.j_sum < 0


def test_cond_a1_none(a_cond1):
    assert _witness(a_cond1, 2)[1] is None


def test_sum_plus_family_trivially_none(all_corpus):
    for name in ("art1", "k_art_2", "k_art_3", "art_types_2", "art_types_3"):
        nwa = all_corpus[name]
        assert reference.min_effective_weight(nwa) >= 0
        assert _witness(nwa, KNOWN_WIDTH[name])[1] is None


def test_ae_witness_on_grant_loop(a_ae):
    graph, witness = _witness(a_ae, 1)
    assert witness is not None
    assert witness.j == 1
    letters = {a_ae.alphabet.letters[graph.letter[n]] for n in witness.cycle}
    assert letters == {"g"}


def test_witness_self_consistency(a_cond2, a_ae):
    for nwa, k in ((a_cond2, 2), (a_ae, 1)):
        graph, witness = _witness(nwa, k)
        assert _j_sum(graph, witness) == witness.j_sum
        assert witness.j_sum < 0
        anchor = graph.src[witness.cycle[0]]
        assert graph.dst[witness.cycle[-1]] == anchor


def test_pumping_drives_partial_averages_down(a_cond2, a_ae):
    for nwa, k in ((a_cond2, 2), (a_ae, 1)):
        graph, witness = _witness(nwa, k)
        dips = []
        for m in (1, 2, 4, 8):
            lasso = pump_witness(graph, witness, pumps=16 * m)
            value = evaluate_lasso(nwa, lasso, k)
            assert value is not PLUS_INFINITY  # pumped word stays accepted
            dips.append(min_partial_average(nwa, lasso, k, 8))
        assert all(b < a for a, b in zip(dips, dips[1:]))
        assert dips[-1] < -100


def test_ae_pumped_values_unbounded(a_ae):
    graph, witness = _witness(a_ae, 1)
    values = []
    for m in (1, 2, 4, 8):
        lasso = pump_witness(graph, witness, pumps=16 * m)
        values.append(evaluate_lasso(a_ae, lasso, 1))
    keys = [v.sort_key() for v in values]
    assert all(b < a for a, b in zip(keys, keys[1:]))
    assert values[-1].value < -100


def test_completeness_at_desk_scale(all_corpus):
    # no unbounded descent within bounds when the condition fails
    bounds = {
        "art1": (3, 8),
        "cond_a1": (3, 8),
        "k_art_2": (3, 8),
        "k_art_3": (3, 8),
        "art_types_2": (2, 6),
        "art_types_3": (2, 5),
    }
    for name in STAR_FAILING:
        nwa = all_corpus[name]
        k = KNOWN_WIDTH[name]
        assert _witness(nwa, k)[1] is None
        mp, mper = bounds[name]
        value, _ = enumerate_lasso_infimum(nwa, mp, mper, k)
        floor = k * reference.min_effective_weight(nwa) * 8
        if value is not PLUS_INFINITY:
            assert value.value >= floor


def _defect_c_automaton():
    """`c` invokes a Sum slave that loses 1 per `a` and ends after `b`; the
    master state accepts throughout, so acceptance alone never forces the
    pumped slave to end."""
    return parse_nwa(
        """nwa
alphabet c a b
master
  states m0
  initial m0
  accepting m0
  trans m0 c m0 invoke 1
  trans m0 a m0 invoke 2
  trans m0 b m0 invoke 2
slave 1 valuefn sum
  states s0 s1 s2
  initial s0
  accepting s2
  trans s0 c s1 weight 0
  trans s1 a s1 weight -1
  trans s1 b s2 weight 0
slave 2 valuefn sum
  states d0
  initial d0
  accepting d0
"""
    )


def test_pumped_word_releases_the_pumped_slots():
    nwa = _defect_c_automaton()
    graph, witness = _witness(nwa, 1)
    assert witness is not None and witness.j == 1
    lasso = pump_witness(graph, witness, pumps=8)
    assert evaluate_lasso(nwa, lasso, 1) is not PLUS_INFINITY
    assert min_partial_average(nwa, lasso, 1, 8) < 0


def test_negative_cycle_search_matches_floyd_warshall():
    rng = random.Random(9001)
    found = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(2, 30)
        arcs = [
            (rng.randrange(n), rng.randrange(n), rng.randint(-4, 9))
            for _ in range(rng.randint(1, 3 * n))
        ]
        cycle = negative_cycle(n, arcs)
        assert (cycle is not None) == has_negative_cycle_fw(n, arcs)
        found[cycle is not None] += 1
        if cycle is not None:
            ring = [arcs[i] for i in cycle]
            assert all(a[1] == b[0] for a, b in zip(ring, ring[1:] + ring[:1]))
            assert sum(w for _, _, w in ring) < 0
    assert min(found.values()) > 50


def _random_signed_nwa(rng):
    """A small deterministic automaton whose Sum slaves have weights of both signs.

    A slave leaves its entry state on `c` (and perhaps on `a` or `b`) and
    then reads only `a` and `b`, so a slot blocks the next `c` invocation and
    most draws keep width 1 or 2.
    """
    sigma = Alphabet(("a", "b", "c"))
    slaves = []
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(3, 5)
        trans = {(0, a, rng.randrange(1, n), rng.randint(-3, 2)) for a in range(3) if a == 2 or rng.random() < 0.3}
        trans |= {
            (q, a, rng.randrange(1, n), rng.randint(-3, 2))
            for q in range(1, n - 1)
            for a in range(2)
            if rng.random() < 0.85
        }
        names = tuple(f"s{i}" for i in range(n))
        aut = LabeledAutomaton(sigma, n, names, frozenset({0}), tuple(sorted(trans)), frozenset({n - 1}))
        slaves.append(WeightedAutomaton(aut, ValueFn.SUM))
    dummy = len(slaves) + 1
    aut = LabeledAutomaton(sigma, 1, ("d",), frozenset({0}), (), frozenset({0}))
    slaves.append(WeightedAutomaton(aut, ValueFn.SUM))
    nm = rng.randint(1, 3)
    trans = [
        (q, a, rng.randrange(nm), rng.randrange(1, dummy) if a == 2 or rng.random() < 0.1 else dummy)
        for q in range(nm)
        for a in range(3)
        if rng.random() < 0.9
    ]
    names = tuple(f"m{i}" for i in range(nm))
    master = LabeledAutomaton(sigma, nm, names, frozenset({0}), tuple(trans), frozenset({rng.randrange(nm)}))
    return Nwa(master, tuple(slaves))


def _closure(succ, start) -> set:
    seen, todo = {start}, [start]
    while todo:
        for v in succ(todo.pop()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _components(nodes, edges) -> set[frozenset]:
    """Node sets of the components of a graph given as (u, v) pairs, found by mutual reachability."""
    succ: dict = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    reach = {u: _closure(lambda x: succ.get(x, ()), u) for u in nodes}
    return {frozenset(v for v in reach[u] if u in reach[v]) for u in nodes}


def _descent_by_floyd_warshall(nwa, k) -> bool:
    """The negative-descent condition, checked independently: inside a
    component with an accepting master state, from which every slot alive at
    one of its configurations can be released without leaving it, the edges
    that keep the j oldest slots alive close a negative cycle (Floyd-Warshall)."""
    _, graph = explore(nwa, k)
    edges = edge_records(nwa, graph)
    for comp in _components(reference.decode_configurations(nwa, graph.keys), [(u, v) for u, _, v, _, _ in edges]):
        if not any(c.master_state in nwa.master.accepting for c in comp):
            continue
        inner = [e for e in edges if e[0] in comp and e[2] in comp]

        def release(state):
            c, alive = state
            for u, _, v, _, returned in inner:
                if u == c:
                    yield v, alive - sum(1 for p in returned if p <= alive)

        anchor = min(comp, key=lambda c: (c.master_state, c.slots))
        if not any(alive == 0 for _, alive in _closure(release, (anchor, len(anchor.slots)))):
            continue
        pos = {c: n for n, c in enumerate(comp)}
        for j in range(1, k + 1):
            arcs = [
                (pos[u], pos[v], sum(weights[:j]))
                for u, _, v, weights, returned in inner
                if len(u.slots) >= j and all(p > j for p in returned)
            ]
            if has_negative_cycle_fw(len(comp), arcs):
                return True
    return False


def test_descent_test_matches_floyd_warshall_on_random_automata():
    rng = random.Random(9002)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        nwa = _random_signed_nwa(rng)
        k = rng.randint(1, 2)
        if not has_width(nwa, k)[0]:
            continue
        graph, witness = _witness(nwa, k)
        assert (witness is not None) == _descent_by_floyd_warshall(nwa, k)
        verdicts[witness is not None] += 1
        if witness is None:
            continue
        ring = witness.cycle
        comp = {graph.comp[graph.src[n]] for n in ring}
        assert len(comp) == 1
        (ci,) = comp
        configs = reference.decode_configurations(nwa, graph.keys)
        assert any(c.master_state in nwa.master.accepting for n, c in enumerate(configs) if graph.comp[n] == ci)
        # the cycle chains and closes at its anchor, the source of its first edge
        assert all(graph.dst[a] == graph.src[b] for a, b in zip(ring, ring[1:] + ring[:1]))
        j = witness.j
        assert all(len(configs[graph.src[n]].slots) >= j and all(p > j for p in graph.returned[n]) for n in ring)
        assert _j_sum(graph, witness) == witness.j_sum < 0
        lasso = pump_witness(graph, witness, pumps=8)
        assert evaluate_lasso(nwa, lasso, k) is not PLUS_INFINITY
        assert min_partial_average(nwa, lasso, k, 8) < 0
    assert min(verdicts.values()) > 30


def test_components_and_descent_witness_match_the_reference(all_corpus):
    # `ConfigGraph.comp` (Tarjan on the edge offsets) and the star test on
    # `ConfigGraph.qualifying` number components and find witnesses exactly
    # as the dict-adjacency Kosaraju and the per-j edge filter over the
    # components with an accepting configuration and a way back, on each
    # graph and on the negated graph of each deterministic case
    cases = [(nwa, k) for nwa in all_corpus.values() for k in range(1, 6)]
    cases += [(art_types(k), k) for k in (2, 3, 4)] + [(k_art(k), k) for k in range(2, 7)]
    rng = random.Random(11)
    cases += [(random_draw(rng), rng.randint(1, 3)) for _ in range(150)]
    cases += [(nwa, 1 + seed % 2) for seed in range(40) if (nwa := random_nondet(8000 + seed)) is not None]
    hits = {1: 0, -1: 0}
    for nwa, k in cases:
        for sign in (1, -1) if is_deterministic(nwa)[0] else (1,):
            try:
                _, graph = explore(nwa, k, sign)
            except PreconditionError:
                break  # wider than k
            assert graph.comp == reference.sccs(len(graph.keys), zip(graph.src, graph.dst)), (nwa.name, k)
            found = check_star_condition(graph)
            assert found == reference.check_star_condition(graph), (nwa.name, k, sign)
            hits[sign] += found is not None
    assert min(hits.values()) >= 8, hits


def test_components_of_graphs_with_sinks_match_the_reference():
    # a node with no successors closes as its own component at once, and the
    # ids stay those of the dict-adjacency Kosaraju: on random graphs with
    # many sinks, and on the checkpoint graphs of the descent inputs, whose
    # configurations found but not expanded are sinks
    rng = random.Random(28)
    for _ in range(400):
        n = rng.randint(1, 30)
        succ = [[rng.randrange(n) for _ in range(rng.randint(1, 4))] if rng.random() < 0.6 else [] for _ in range(n)]
        start = [0]
        for targets in succ:
            start.append(start[-1] + len(targets))
        dst = [v for targets in succ for v in targets]
        assert sccs(start, dst) == reference.sccs(n, [(u, v) for u, targets in enumerate(succ) for v in targets])
    cases = [(sign_masked(art_types(4), {i + 1 for i in range(4) if mask >> i & 1}), 4, 1) for mask in range(1, 16)]
    cases += [(cond_a2(), 2, 1), (art_types(4), 4, -1)] + [(k_art(k), k, -1) for k in range(2, 7)]
    sinks = 0
    for nwa, k, sign in cases:
        _, graph = explore(nwa, k, sign, stop=True)
        assert graph.descent is not None, (nwa.name, sign)
        n = len(graph.keys)
        # the graph returned at the stop, and those of the checkpoints before it
        for u in [16, 64, 256, 1024, n]:
            if u <= n:
                start = graph.start[: u + 1] + [graph.start[u]] * (n - u)
                dst = graph.dst[: start[-1]]
                assert sccs(start, dst) == reference.sccs(n, zip(graph.src, dst)), (nwa.name, u)
                sinks += n - u
    assert sinks > 1000


def test_qualifying_components_are_the_descent_tests_rule(all_corpus):
    # the lemma in `ConfigGraph.qualifying`: wherever a descent cycle can
    # sit, a component qualifies iff it holds an accepting configuration and
    # a way back from each of its configurations with a slot
    cases = [(nwa, k) for nwa in all_corpus.values() for k in (1, 2, 3)]
    rng = random.Random(13)
    cases += [(random_draw(rng), rng.randint(1, 3)) for _ in range(150)]
    cases += [(nwa, 1 + seed % 2) for seed in range(40) if (nwa := random_nondet(8000 + seed)) is not None]
    verdicts = {True: 0, False: 0}
    for nwa, k in cases:
        for sign in (1, -1):
            try:
                _, graph = explore(nwa, k, sign)
            except PreconditionError:
                break  # wider than k
            comp = graph.comp
            qualifying = {comp[graph.src[ns[0]]] for ns in graph.qualifying}
            internal = {comp[u] for u, v in zip(graph.src, graph.dst) if comp[u] == comp[v]}
            accepting = {comp[u] for u, (q, _) in enumerate(graph.keys) if q in nwa.master.accepting}
            for u, (_, slots) in enumerate(graph.keys):
                if slots and comp[u] in internal:
                    old = comp[u] in accepting and graph.way_back(u) is not None
                    assert (comp[u] in qualifying) == old, (nwa.name, k, sign, u)
                    verdicts[old] += 1
    assert min(verdicts.values()) >= 40, verdicts


def test_closed_walks_match_the_searches_they_replaced(all_corpus):
    # `ConfigGraph.way_back` is the old closing path from every configuration
    # with a slot, and `ConfigGraph.closed_walk` the pipeline's old walk from
    # the least node of each qualifying component, through all three kinds
    # on its internal edges and through ACCEPT and RELEASE in the component,
    # on complete graphs and on those stopped at a descent
    cases = [(nwa, k) for nwa in all_corpus.values() for k in (1, 2, 3)] + [(art_types(4), 4), (k_art(5), 5)]
    rng = random.Random(30)
    cases += [(random_draw(rng), rng.randint(1, 3)) for _ in range(300)]
    cases += [(nwa, 1 + seed % 2) for seed in range(60) if (nwa := random_nondet(9000 + seed)) is not None]
    walks, found = 0, 0
    for nwa, k in cases:
        for sign, stop in ((1, False), (1, True), (-1, False), (-1, True)):
            try:
                _, graph = explore(nwa, k, sign, stop)
            except PreconditionError:
                break  # wider than k
            comp = graph.comp
            for u, (_, slots) in enumerate(graph.keys):
                if slots:
                    walk = graph.way_back(u)
                    assert walk == reference.closing_path(graph, u), (nwa.name, k, sign, stop, u)
                    walks, found = walks + 1, found + (walk is not None)
            for ns in graph.qualifying:
                root, inside = graph.src[ns[0]], set(ns).__contains__
                for allowed, need in ((inside, TICK | ACCEPT | RELEASE),
                                      (lambda n: comp[graph.dst[n]] == comp[root], ACCEPT | RELEASE)):
                    walk = graph.closed_walk(root, allowed, need)
                    assert walk == reference.closed_walk(graph, root, allowed, need), (nwa.name, k, sign, stop, root)
                    walks, found = walks + 1, found + (walk is not None)
    assert walks >= 5000 and 4000 <= found < walks, (walks, found)

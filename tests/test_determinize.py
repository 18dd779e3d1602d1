import itertools
import random

import pytest

from helpers import (
    edge_records,
    in_reference_order,
    random_draw,
    random_nondet,
    reference_config_graph,
    reference_kinds,
    reference_width_witness,
    sign_masked,
    twinned,
)
from nwaq.core import (
    Alphabet,
    LabeledAutomaton,
    Nwa,
    PreconditionError,
    ValueFn,
    WeightedAutomaton,
    is_deterministic,
    width_error,
)
from nwaq.corpus import KNOWN_WIDTH, art_types, k_art
from nwaq.determinize import TICK, StepTables, explore
from nwaq.oracle import Configuration, enumerate_lasso_infimum
from nwaq.width import has_width
from reference import (
    config_bound,
    count_configurations,
    decode_configurations,
    master_table,
    materialize_deterministic,
    slave_moves,
    normalize_slaves,
)


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


def _initial_configs(nwa):
    keys, graph = explore(nwa, 1)
    return [decode_configurations(nwa, keys)[u] for u in graph.initials]


def test_graph_initials(a_art1):
    assert _initial_configs(a_art1) == [Configuration(next(iter(a_art1.master.initials)), ())]


def test_graph_initials_two_masters():
    sigma = Alphabet(("a",))
    dummy = WeightedAutomaton(_tiny(sigma, ["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = _tiny(sigma, ["m0", "m1"], ["m0", "m1"], [("m0", "a", "m1", 1)], ["m1"])
    assert _initial_configs(Nwa(master, (dummy,))) == [Configuration(0, ()), Configuration(1, ())]


def test_graph_initials_unchanged_by_normalization(a_ae):
    assert _initial_configs(normalize_slaves(a_ae)) == _initial_configs(a_ae)


def test_access_paths_are_shortest_from_the_initials(all_corpus):
    for name, nwa in all_corpus.items():
        k = KNOWN_WIDTH[name]
        if k is None:
            continue
        keys, graph = explore(nwa, k)
        dist = dict.fromkeys(graph.initials, 0)
        queue = list(graph.initials)
        for u in queue:
            for e in graph.out(u):
                if graph.dst[e] not in dist:
                    dist[graph.dst[e]] = dist[u] + 1
                    queue.append(graph.dst[e])
        assert sorted(dist) == list(range(len(keys))), name
        for u in range(len(keys)):
            path = graph.access(u)
            assert len(path) == dist[u], (name, u)
            walk = [graph.src[path[0]]] + [graph.dst[e] for e in path] if path else [u]
            assert walk[0] in graph.initials and walk[-1] == u, (name, u)
            assert all(graph.src[e] == v for e, v in zip(path, walk)), (name, u)


def test_configs_decode_the_keys(all_corpus):
    for nwa in all_corpus.values():
        for k in (1, 2, 3):
            try:
                keys, graph = explore(nwa, k)
            except PreconditionError:
                continue  # wider than k
            configs = decode_configurations(nwa, keys)
            assert keys == graph.keys and len(set(keys)) == len(keys), (nwa.name, k)
            # slot ids sort as the (slave, state) pairs they name
            by_ids = [configs[u] for u in sorted(range(len(keys)), key=keys.__getitem__)]
            assert sorted(configs, key=lambda c: (c.master_state, c.slots)) == by_ids, (nwa.name, k)


def test_edges_share_one_payload_per_value():
    _, graph = explore(art_types(4), 4)
    for column in (graph.slot_weights, graph.returned):
        assert len({id(x) for x in column}) == len(set(column)) < len(column) // 10


def test_deterministic_single_edge(a_art1):
    _, graph = explore(a_art1, 1)
    per_key = {}
    for edge in edge_records(a_art1, graph):
        per_key.setdefault(edge[:2], []).append(edge)
    assert all(len(v) == 1 for v in per_key.values())


def test_nondet_master_and_slot_choices_multiply():
    sigma = Alphabet(("a",))
    slave = WeightedAutomaton(
        _tiny(sigma, ["s0", "s1"], ["s0"], [("s0", "a", "s0", 1), ("s0", "a", "s1", 2)], ["s1"]),
        ValueFn.SUM,
    )
    master = _tiny(sigma, ["m0", "m1"], ["m0"], [("m0", "a", "m0", 1), ("m0", "a", "m1", 1)], ["m0"])
    nwa = Nwa(master, (slave,))
    # one active slave with two moves
    tables = StepTables(nwa)
    choices = [edge for edge in tables.step(0, (tables.slot_of.index((1, 0)),)) if edge[0] == 0]
    # 2 master choices x 2 slot choices x 2 fresh-slot choices
    assert len(choices) == 8


def test_master_table_matches_the_per_move_derivation(all_corpus):
    # the tables walk the master's transitions, with each slave's starts once per letter
    rng = random.Random(27)
    automata = list(all_corpus.values()) + [random_draw(rng) for _ in range(150)]
    automata += [nwa for seed in range(60) if (nwa := random_nondet(8400 + seed)) is not None]
    for nwa in automata + [art_types(4), k_art(4)]:
        for sign in (1, -1):
            tables = StepTables(nwa, sign)
            assert tables.master == master_table(nwa, tables), (nwa.name, sign)


def test_slave_moves_match_the_per_state_derivation(all_corpus):
    # the tables walk each slave's sorted transitions once; the moves equal
    # those of one `succ` call per letter and slave state, in the same order
    rng = random.Random(29)
    automata = list(all_corpus.values()) + [random_draw(rng) for _ in range(150)]
    automata += [nwa for seed in range(60) if (nwa := random_nondet(8400 + seed)) is not None]
    automata += [twinned(k_art(3), 2), twinned(art_types(2), 2, slave=1), twinned(all_corpus["cond_a2"], 5, slave=2)]
    # sign masking negates weights, which leaves a Sum slave's transitions out of order
    automata += [sign_masked(art_types(4), {2, 3}), art_types(4), k_art(4)]
    sigma = Alphabet(("a", "b"))
    plus = WeightedAutomaton(
        _tiny(sigma, ["s0", "s1", "s2"], ["s0"],
              [("s0", "a", "s0", -3), ("s0", "a", "s1", 2), ("s0", "b", "s0", -1), ("s1", "b", "s2", -5),
               ("s1", "b", "s1", 0), ("s1", "a", "s2", 4)], ["s2"]),
        ValueFn.SUM_PLUS,
    )
    master = _tiny(sigma, ["m0"], ["m0"], [("m0", "a", "m0", 1), ("m0", "b", "m0", 1)], ["m0"])
    automata.append(Nwa(master, (plus,)))
    for nwa in automata:
        for sign in (1, -1):
            assert StepTables(nwa, sign).moves == slave_moves(nwa, sign), (nwa.name, sign)
    # Sum+ stores absolute weights, times the sign
    assert StepTables(automata[-1], -1).moves[0][0] == ((0, -3), (1, -2))


def test_forced_release_recorded(a_art1):
    # the slot sits in an accepting state; every edge releases it
    accepting_state = next(iter(a_art1.slaves[0].base.accepting))
    tables = StepTables(a_art1)
    edges = tables.step(2, (tables.slot_of.index((1, accepting_state)),))
    assert edges and all(returned == (1,) for *_, returned, _ in edges)


def test_count_configurations(a_art1, a_ae):
    n = count_configurations(a_art1, 1)
    assert 0 < n <= config_bound(a_art1, 1)
    # brute count by explicit exploration
    keys, _ = explore(a_ae, 1)
    assert count_configurations(a_ae, 1) == len(keys)


def test_count_dummy_only():
    sigma = Alphabet(("a", "b"))
    dummy = WeightedAutomaton(_tiny(sigma, ["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = _tiny(sigma, ["m0", "m1"], ["m0"], [("m0", "a", "m1", 1), ("m1", "b", "m0", 1)], ["m0"])
    assert count_configurations(Nwa(master, (dummy,)), 2) == 2


def _random_nondet_nwa(seed: int) -> Nwa:
    rng = random.Random(seed)
    sigma = Alphabet(("a", "b"))
    n_master = rng.randint(2, 3)
    n_slaves = rng.randint(1, 2)
    slaves = []
    for _ in range(n_slaves):
        n_states = rng.randint(2, 3)
        states = [f"s{i}" for i in range(n_states)]
        trans = []
        for _ in range(rng.randint(2, 5)):
            trans.append(
                (
                    rng.randrange(n_states - 1),
                    rng.choice(sigma.letters),
                    rng.randrange(n_states),
                    rng.randint(-2, 2),
                )
            )
        aut = LabeledAutomaton(
            sigma,
            n_states,
            tuple(states),
            frozenset({0}),
            tuple(sorted({(q, sigma.id_of(a), p, w) for q, a, p, w in trans})),
            frozenset({n_states - 1}),
        )
        slaves.append(WeightedAutomaton(aut, rng.choice((ValueFn.SUM, ValueFn.SUM_PLUS))))
    dummy = WeightedAutomaton(_tiny(sigma, ["d"], ["d"], [], ["d"]), ValueFn.SUM)
    slaves.append(dummy)
    dummy_index = len(slaves)
    m_states = [f"m{i}" for i in range(n_master)]
    trans = []
    for _ in range(rng.randint(3, 6)):
        trans.append(
            (
                rng.randrange(n_master),
                rng.choice(sigma.letters),
                rng.randrange(n_master),
                rng.randint(1, dummy_index),
            )
        )
    master = LabeledAutomaton(
        sigma,
        n_master,
        tuple(m_states),
        frozenset({0}),
        tuple(sorted({(q, sigma.id_of(a), p, l) for q, a, p, l in trans})),
        frozenset({rng.randrange(n_master)}),
    )
    return Nwa(master, tuple(slaves), name=f"rand{seed}")


def test_materialize_deterministic_output_properties():
    for seed in range(6):
        nwa = _random_nondet_nwa(seed)
        k = 2
        det = materialize_deterministic(nwa, k)
        ok, site = is_deterministic(det)
        assert ok, site
        assert has_width(det, k)[0]


def test_materialize_preserves_bounded_infimum():
    for seed in range(8):
        nwa = _random_nondet_nwa(100 + seed)
        det = materialize_deterministic(nwa, 2)
        vi, _ = enumerate_lasso_infimum(nwa, 2, 4, 2)
        vo, _ = enumerate_lasso_infimum(det, 2, 4, 2)
        assert vi == vo, (seed, vi, vo)


def test_materialize_deterministic_input_matches_config_graph(a_art1):
    det = materialize_deterministic(a_art1, 1)
    ok, _ = is_deterministic(det)
    assert ok
    _, edges = explore(a_art1, 1)
    # one output letter per live edge of the input explorer
    assert len(det.alphabet) == len(edges)
    vi, _ = enumerate_lasso_infimum(a_art1, 2, 4, 1)
    vo, _ = enumerate_lasso_infimum(det, 2, 4, 1)
    assert vi == vo


def test_materialize_edges_biject_with_letters():
    # each choice letter appears as exactly one live edge of the output explorer
    from collections import Counter

    for seed in range(4):
        nwa = _random_nondet_nwa(300 + seed)
        det = materialize_deterministic(nwa, 2)
        _, live = explore(det, 2)
        if not live:
            continue  # degenerate sample: the input has no live step at all
        counts = Counter(letter for _, letter, *_ in edge_records(det, live))
        assert len(live) == len(det.alphabet)
        assert max(counts.values()) == 1


def test_materialize_omits_unreachable_slaves():
    sigma = Alphabet(("a",))
    used = WeightedAutomaton(
        _tiny(sigma, ["s0", "s1"], ["s0"], [("s0", "a", "s1", 1)], ["s1"]), ValueFn.SUM
    )
    unused = WeightedAutomaton(
        _tiny(sigma, ["u0", "u1"], ["u0"], [("u0", "a", "u1", 5)], ["u1"]), ValueFn.SUM
    )
    dummy = WeightedAutomaton(_tiny(sigma, ["d"], ["d"], [], ["d"]), ValueFn.SUM)
    master = _tiny(sigma, ["m"], ["m"], [("m", "a", "m", 1)], ["m"])
    nwa = Nwa(master, (used, unused, dummy))
    det = materialize_deterministic(nwa, 2)
    # slave 2 never runs: only copies of slave 1 plus the dummy remain
    assert len(det.slaves) <= 1 + 2  # at most two copies of slave 1 and a dummy


def _many_initials_nwa() -> Nwa:
    # two initial master states; slave 1 has two initial states, one of them
    # accepting (silent or a move), slave 2 is Sum+ with two plain initials
    sigma = Alphabet(("a", "b"))
    one_moves = [("s0", "a", "s1", 1), ("s0", "a", "s0", -1), ("s0", "b", "s1", 0)]
    one = _tiny(sigma, ["s0", "s1"], ["s0", "s1"], one_moves, ["s1"])
    two_moves = [("t0", "a", "t2", -2), ("t1", "a", "t2", 3), ("t1", "b", "t1", -1)]
    two = _tiny(sigma, ["t0", "t1", "t2"], ["t0", "t1"], two_moves, ["t2"])
    dummy = _tiny(sigma, ["d"], ["d"], [], ["d"])
    master = _tiny(
        sigma,
        ["m0", "m1"],
        ["m0", "m1"],
        [("m0", "a", "m1", 1), ("m0", "a", "m0", 2), ("m1", "b", "m0", 3), ("m1", "a", "m1", 2)],
        ["m1"],
    )
    slaves = (WeightedAutomaton(one, ValueFn.SUM), WeightedAutomaton(two, ValueFn.SUM_PLUS))
    return Nwa(master, slaves + (WeightedAutomaton(dummy, ValueFn.SUM),), name="many_initials")


def test_explore_matches_reference_successors(all_corpus):
    cases = [(art_types(k), k) for k in (2, 3, 4)] + [(k_art(k), k) for k in range(2, 7)]
    cases += [(nwa, KNOWN_WIDTH[name] or 2) for name, nwa in all_corpus.items()]
    cases += [(twinned(k_art(3), 2), 3), (_many_initials_nwa(), 2), (_many_initials_nwa(), 1)]
    # below the width: some step needs one more slot
    cases += [(art_types(3), 2), (k_art(4), 3), (all_corpus["cond_a2"], 1), (all_corpus["art"], 1)]
    rng = random.Random(5)
    cases += [(random_draw(rng), rng.randint(1, 2)) for _ in range(150)]
    cases += [(nwa, 1 + seed % 2) for seed in range(40) if (nwa := random_nondet(8000 + seed)) is not None]
    overflows = 0
    for nwa, k in cases:
        keys, edges, overflow = reference_config_graph(nwa, k)
        if overflow:
            # exploration raises at the first step past the cap, with the
            # first shortest overflow word of the oracle's own search
            with pytest.raises(PreconditionError) as err:
                explore(nwa, k)
            assert str(err.value) == str(width_error(k, reference_width_witness(nwa, k))), nwa.name
            overflows += 1
            continue
        _, got = explore(nwa, k)
        assert (got.nwa, got.k) == (nwa, k)
        assert sorted((c.master_state, c.slots) for c in decode_configurations(nwa, got.keys)) == keys, nwa.name
        # ids are discovery numbers: the initials, then each configuration
        # where it is first a target, in edge order
        assert list(dict.fromkeys([*got.initials, *got.dst])) == list(range(len(keys))), nwa.name
        mapped = in_reference_order(nwa, got, keys)
        assert [e[:-1] for e in mapped] == [e[:-1] for e in edges], nwa.name
        assert [e[-1] for e in mapped] == reference_kinds(keys, edges), nwa.name
        assert [sum(e[3]) for e in mapped] == [sum(e[3]) for e in edges]
        assert got.src == sorted(got.src), nwa.name
        assert got.start == [sum(1 for u2 in got.src if u2 < u) for u in range(len(keys) + 1)]
    assert overflows >= 4


def test_tick_edges_append_the_invoked_slot(all_corpus):
    # readers take an edge's invoked slave from its target's last slot and
    # its cost from its slot weights; the graph stores neither
    draws = [nwa for seed in range(40) if (nwa := random_nondet(8200 + seed)) is not None]
    edges_checked = 0
    for nwa, k in itertools.product([*all_corpus.values(), *draws], (1, 2, 3)):
        if not has_width(nwa, k)[0]:
            continue
        _, graph = explore(nwa, k)
        ref_keys, edges, _ = reference_config_graph(nwa, k)
        for n, (u, v) in enumerate(zip(graph.src, graph.dst)):
            survivors = len(graph.keys[u][1]) - len(graph.returned[n])
            assert len(graph.keys[v][1]) - survivors == bool(graph.kinds[n] & TICK), (nwa.name, k, n)
        assert [e[4] for e in in_reference_order(nwa, graph, ref_keys)] == [e[4] for e in edges], (nwa.name, k)
        edges_checked += len(graph)
    assert edges_checked >= 700

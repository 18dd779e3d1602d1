"""Brute-force reference implementations used as independent oracles."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple, Optional

from nwaq.core import (
    Alphabet,
    LabeledAutomaton,
    Nwa,
    ValueFn,
    ValueResult,
    WeightedAutomaton,
    is_deterministic,
)
from nwaq.determinize import ACCEPT, RELEASE, TICK
from nwaq.meanpayoff import RatioGraph, infimum_ratio
from nwaq.oracle import Oracle
from nwaq.reduce import reduce_width1
from reference import (
    NegInfinityFragmentError,
    SilentLimAvgAutomaton,
    decode_configurations,
    finite_value,
    fragment_automaton,
)


def reference_config_graph(nwa: Nwa, k: int):
    """The configuration graph at width k by breadth-first search with the
    oracle's own step rule: the (master state, slots) keys in sorted order,
    the edges (source id, target id, letter, slot weights, invoked,
    released, accepting) by source, then letter, then emission order, and
    whether some step needs a (k+1)-th slot."""
    step = Oracle(nwa, k).step
    out: dict[tuple, list[tuple]] = {(q, ()): [] for q in sorted(nwa.master.initials)}
    queue = deque(out)
    overflow = False
    while queue:
        key = queue.popleft()
        for a in range(len(nwa.alphabet)):
            returned, choices = step(*key, a)
            for target, weights, invoked, accepting in choices:
                if len(target[1]) > k:
                    overflow = True
                    continue
                if target not in out:
                    out[target] = []
                    queue.append(target)
                out[key].append((target, a, weights, invoked, returned, accepting))
    keys = sorted(out)
    ids = {key: n for n, key in enumerate(keys)}
    edges = [(ids[key], ids[dst], *rest) for key in keys for dst, *rest in out[key]]
    return keys, edges, overflow


def reference_width_witness(nwa: Nwa, k: int) -> Optional[tuple[str, ...]]:
    """The first shortest word on which some step needs a (k+1)-th slot, or
    None: a breadth-first search over ordered (master state, slots) keys
    with the oracle's own step rule, letter by letter, each new key keeping
    the word that first reached it. It stops there, unlike
    `reference_config_graph`, which explores the whole capped graph."""
    step = Oracle(nwa, k).step
    words = {(q, ()): () for q in sorted(nwa.master.initials)}
    queue = deque(words)
    while queue:
        key = queue.popleft()
        for a in range(len(nwa.alphabet)):
            word = words[key] + (nwa.alphabet.letters[a],)
            for target, *_ in step(*key, a)[1]:
                if len(target[1]) > k:
                    return word
                if target not in words:
                    words[target] = word
                    queue.append(target)
    return None


def reference_kinds(keys, edges) -> list[int]:
    """The kind bits of each edge of `reference_config_graph`: TICK from the
    invoked slave, ACCEPT from the master target, RELEASE from the returned
    positions and the target's slots."""
    return [TICK * (invoked is not None) | ACCEPT * accepting | RELEASE * (1 in returned or not keys[v][1])
            for _, v, _, _, invoked, returned, accepting in edges]


def slave_language(slave: WeightedAutomaton, max_len: int) -> dict[tuple[str, ...], int]:
    """Accepted words up to max_len with the minimal accepting-run value,
    found by exhaustive run enumeration (handles nondeterminism)."""
    aut = slave.base
    letters = aut.alphabet.letters
    out: dict[tuple[str, ...], int] = {}
    # frontier: (state, word, weights)
    frontier = [(q, (), ()) for q in sorted(aut.initials)]
    while frontier:
        q, word, weights = frontier.pop()
        if q in aut.accepting:
            value = finite_value(slave.value_fn, weights)
            if word not in out or value < out[word]:
                out[word] = value
        if len(word) < max_len:
            for a in range(len(letters)):
                for q2, w in aut.succ(q, a):
                    frontier.append((q2, word + (letters[a],), weights + (w,)))
    return out


def simple_cycles(n_nodes: int, edges) -> list[list[int]]:
    """All simple cycles as edge-index lists; edges are (u, v, ...) tuples."""
    adjacency: dict[int, list[int]] = {}
    for idx, e in enumerate(edges):
        adjacency.setdefault(e[0], []).append(idx)
    cycles = []

    def dfs(start: int, node: int, path: list[int], seen: set[int]):
        for idx in adjacency.get(node, ()):
            v = edges[idx][1]
            if v == start:
                cycles.append(path + [idx])
            elif v > start and v not in seen:
                dfs(start, v, path + [idx], seen | {v})

    for start in range(n_nodes):
        dfs(start, start, [], {start})
    return cycles


class Graph(NamedTuple):
    """A limit-average graph in the generic form the references read: edges
    (u, v, cost, ticks), with initial and accepting nodes."""

    n_nodes: int
    edges: tuple
    initials: frozenset
    accepting: frozenset


def ratio_graph(graph: Graph) -> RatioGraph:
    """`graph` as `infimum_ratio` takes it: its edge columns and, for each
    qualifying component that holds a tick edge, its internal edges, the
    components in order of their least node."""
    components = []
    for comp in sorted(qualifying_components(graph), key=min):
        inner = [n for n, (u, v, _, _) in enumerate(graph.edges) if u in comp and v in comp]
        if any(graph.edges[n][3] for n in inner):
            components.append(inner)
    return RatioGraph(*(tuple(zip(*graph.edges)) or ((),) * 4), components)


def _reach(graph, sources) -> set[int]:
    """Nodes reachable from `sources` (themselves included)."""
    succ: dict[int, list[int]] = {}
    for e in graph.edges:
        succ.setdefault(e[0], []).append(e[1])
    seen = set(sources)
    todo = list(seen)
    while todo:
        for v in succ.get(todo.pop(), ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def qualifying_components(graph) -> set[frozenset[int]]:
    """Node sets of the components that are reachable from an initial node and
    hold an accepting node, each found as the nodes mutually reachable with
    one of its members."""
    reach = {u: _reach(graph, {u}) for u in range(graph.n_nodes)}
    out = set()
    for u in _reach(graph, graph.initials):
        comp = frozenset(v for v in reach[u] if u in reach[v])
        if comp & graph.accepting:
            out.add(comp)
    return out


def min_cycle_ratio_brute(graph) -> Optional[Fraction]:
    """Minimum cost/ticks over qualifying simple cycles, or None.

    Qualifying: reachable from an initial node, in a component containing an
    accepting node, at least one tick.
    """
    comps = qualifying_components(graph)
    best = None
    for cycle in simple_cycles(graph.n_nodes, graph.edges):
        ticks = sum(graph.edges[i][3] for i in cycle)
        if ticks == 0:
            continue
        # a cycle lies inside the component of any of its nodes
        if not any(graph.edges[cycle[0]][0] in comp for comp in comps):
            continue
        cost = sum(graph.edges[i][2] for i in cycle)
        ratio = Fraction(cost, ticks)
        if best is None or ratio < best:
            best = ratio
    return best


def min_cycle_ratio_karp(graph) -> Optional[Fraction]:
    """Minimum cost/ticks over qualifying cycles by Karp's minimum mean cycle
    algorithm (Karp, 1978), or None.

    Inside each qualifying component, every run of silent edges followed by a
    tick edge u ->* w -> v is contracted into one edge u -> v whose cost is
    the least cost of a silent path from u to w plus the tick edge's cost;
    no silent cycle may be negative, so that least cost exists. A cycle with
    t ticks becomes a cycle of t contracted edges that costs no more, so its
    ratio is at least the least contracted mean, and every contracted cycle
    unfolds into a closed walk with the same cost and ticks.
    """
    best = None
    for comp in qualifying_components(graph):
        inner = [e for e in graph.edges if e[0] in comp and e[1] in comp]
        silent: dict[int, list[tuple[int, int]]] = {}
        ticking: dict[int, list[tuple[int, int]]] = {}
        for u, v, cost, ticks in inner:
            (ticking if ticks else silent).setdefault(u, []).append((v, cost))
        contracted = set()
        for u in comp:
            dist = {u: 0}  # least silent-path cost from u, by label correcting
            todo = [u]
            while todo:
                w = todo.pop()
                for v, cost in silent.get(w, ()):
                    if v not in dist or dist[w] + cost < dist[v]:
                        dist[v] = dist[w] + cost
                        todo.append(v)
            for w, d in dist.items():
                for v, cost in ticking.get(w, ()):
                    contracted.add((u, v, d + cost))
        mean = _karp(sorted(comp), contracted)
        if mean is not None and (best is None or mean < best):
            best = mean
    return best


def _karp(nodes: list[int], edges) -> Optional[Fraction]:
    """Minimum mean over the cycles of a graph, or None when it has none.

    d[k][v] is the least weight of a k-edge walk ending at v, starting
    anywhere; the minimum mean is the least over v of the largest
    (d[n][v] - d[k][v]) / (n - k).
    """
    n = len(nodes)
    pos = {u: i for i, u in enumerate(nodes)}
    d: list[list[Optional[int]]] = [[0] * n]
    for _ in range(n):
        prev, cur = d[-1], [None] * n
        for u, v, cost in edges:
            if prev[pos[u]] is not None:
                cand = prev[pos[u]] + cost
                if cur[pos[v]] is None or cand < cur[pos[v]]:
                    cur[pos[v]] = cand
        d.append(cur)
    best = None
    for v in range(n):
        if d[n][v] is None:
            continue
        worst = max(Fraction(d[n][v] - d[k][v], n - k) for k in range(n) if d[k][v] is not None)
        if best is None or worst < best:
            best = worst
    return best


def derived_invoked(graph) -> list[Optional[int]]:
    """Each edge's invoked slave as the package's readers derive it: the
    slave of the target's last slot on a TICK edge, None on the others."""
    slot_of, keys = graph.tables.slot_of, graph.keys
    return [slot_of[keys[v][1][-1]][0] if kind & TICK else None for v, kind in zip(graph.dst, graph.kinds)]


def in_reference_order(nwa: Nwa, graph, ref_keys) -> list[tuple]:
    """Each edge of `graph` as (source, target, letter, slot weights,
    invoked, returned, kinds), its ids mapped through the keys to those of
    `ref_keys`, the sorted keys of `reference_config_graph`, and stably
    sorted by source: the order that function lists its edges in."""
    ids = {key: n for n, key in enumerate(ref_keys)}
    to_ref = [ids[c.master_state, c.slots] for c in decode_configurations(nwa, graph.keys)]
    columns = zip(graph.src, graph.dst, graph.letter, graph.slot_weights, derived_invoked(graph), graph.returned,
                  graph.kinds)
    return sorted(((to_ref[u], to_ref[v], *rest) for u, v, *rest in columns), key=lambda e: e[0])


def edge_records(nwa: Nwa, graph) -> list[tuple]:
    """Each edge of the configuration graph of `nwa`, in edge order, as
    (from_config, letter, to_config, slot_weights, returned)."""
    c = decode_configurations(nwa, graph.keys)
    columns = zip(graph.src, graph.letter, graph.dst, graph.slot_weights, graph.returned)
    return [(c[u], a, c[v], weights, returned) for u, a, v, weights, returned in columns]


def has_negative_cycle_fw(n_nodes: int, arcs) -> bool:
    """Does the graph on nodes 0..n-1 with arcs (u, v, w) have a negative
    cycle? Floyd-Warshall with d[i][i] = 0: some d[i][i] ends below 0 exactly
    when one exists."""
    d: list[list[Optional[int]]] = [[0 if i == j else None for j in range(n_nodes)] for i in range(n_nodes)]
    for u, v, w in arcs:
        if d[u][v] is None or w < d[u][v]:
            d[u][v] = w
    for m in range(n_nodes):
        row_m = d[m]
        for i in range(n_nodes):
            row_i = d[i]
            dim = row_i[m]
            if dim is None:
                continue
            for j in range(n_nodes):
                if row_m[j] is not None and (row_i[j] is None or dim + row_m[j] < row_i[j]):
                    row_i[j] = dim + row_m[j]
    return any(d[i][i] < 0 for i in range(n_nodes))


def fragment_ratio_graph(frag: SilentLimAvgAutomaton) -> RatioGraph:
    """The fragment automaton as a limit-average graph: a valued letter ticks
    and costs its fragment's least value, a silent letter is free."""
    edges = tuple((src, dst, 0, 0) if w is None else (src, dst, w, 1) for src, _, dst, w in frag.edges)
    return ratio_graph(Graph(frag.n_states, edges, frozenset({frag.initial}), frag.accepting))


def reference_infimum(nwa: Nwa, k: int) -> Optional[ValueResult]:
    """The paper's own chain on deterministic input without a negative
    descent: width-1 reduction, fragment summary, least cycle ratio. None
    when some fragment has no least value."""
    try:
        frag = fragment_automaton(reduce_width1(nwa, k))
    except NegInfinityFragmentError:
        return None
    return infimum_ratio(fragment_ratio_graph(frag))[0]


def random_draw(rng) -> Nwa:
    """One automaton of the seeded differential fuzz: 2-3 letters; 1-3
    master states, each (state, letter) move present with p = 0.85 and
    invoking a random slave; 1-2 Sum or Sum+ slaves of 2-3 states with
    weights in [-2, 2], whose last state is an accepting sink."""
    sigma = Alphabet(("a", "b", "c")[: rng.randint(2, 3)])
    n_slaves = rng.randint(1, 2)

    def automaton(n, trans, accepting):
        names = tuple(f"q{i}" for i in range(n))
        return LabeledAutomaton(sigma, n, names, frozenset({0}), tuple(sorted(trans)), frozenset(accepting))

    n_master = rng.randint(1, 3)
    trans = [
        (q, a, rng.randrange(n_master), rng.randint(1, n_slaves))
        for q in range(n_master)
        for a in range(len(sigma))
        if rng.random() < 0.85
    ]
    accepting = [q for q in range(n_master) if rng.random() < 0.5] or [rng.randrange(n_master)]
    master = automaton(n_master, trans, accepting)
    slaves = []
    for _ in range(n_slaves):
        n = rng.randint(2, 3)
        trans = [
            (q, a, rng.randint(1, n - 1), rng.randint(-2, 2))
            for q in range(n - 1)
            for a in range(len(sigma))
            if rng.random() < 0.85
        ]
        slaves.append(WeightedAutomaton(automaton(n, trans, [n - 1]), rng.choice((ValueFn.SUM, ValueFn.SUM_PLUS))))
    return Nwa(master, tuple(slaves))


def twinned(nwa: Nwa, weight: int, slave: Optional[int] = None, letter: Optional[str] = None) -> Nwa:
    """Give each step of the chosen slaves (all when None) on the chosen
    letter (all when None) a parallel twin of the given weight, with the
    same source and target. Twins make the input nondeterministic; a twin
    heavier than its step leaves every word's least run unchanged."""
    slaves = []
    for i, sl in enumerate(nwa.slaves, start=1):
        base = sl.base
        twins = {
            (q, a, q2, weight)
            for q, a, q2, _ in base.transitions
            if slave in (None, i) and letter in (None, base.alphabet.letters[a])
        }
        trans = tuple(sorted(set(base.transitions) | twins))
        slaves.append(WeightedAutomaton(replace(base, transitions=trans), sl.value_fn))
    return Nwa(nwa.master, tuple(slaves), nwa.master_value_fn, nwa.name + ".twins")


def sign_masked(nwa, negative):
    """Negate the weights of the listed (1-based) slaves, which become Sum slaves."""
    slaves = tuple(
        WeightedAutomaton(
            replace(sl.base, transitions=tuple((q, a, q2, -w) for q, a, q2, w in sl.base.transitions)), ValueFn.SUM
        )
        if n in negative
        else sl
        for n, sl in enumerate(nwa.slaves, start=1)
    )
    return Nwa(nwa.master, slaves, name=nwa.name + ".masked")


def random_nondet(seed):
    """A small nondeterministic automaton over a b, or None when the seeded
    draw happens to be deterministic."""
    rng = random.Random(seed)
    sigma = Alphabet(("a", "b"))
    n_master = rng.randint(2, 3)
    slaves = []
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(2, 3)
        trans = set()
        for _ in range(rng.randint(3, 6)):
            trans.add((rng.randrange(n - 1), rng.randrange(2), rng.randrange(n), rng.randint(-2, 2)))
        # a short accepting path keeps slave terminations reachable
        trans.add((0, rng.randrange(2), n - 1, rng.randint(-2, 2)))
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
    trans = set()
    for _ in range(rng.randint(4, 7)):
        trans.add((rng.randrange(n_master), rng.randrange(2), rng.randrange(n_master), rng.randint(1, len(slaves))))
    # force a nondeterministic choice on some (state, letter)
    q, a = rng.randrange(n_master), rng.randrange(2)
    trans.add((q, a, rng.randrange(n_master), len(slaves)))
    trans.add((q, a, (q + 1) % n_master, rng.randint(1, len(slaves))))
    master = LabeledAutomaton(
        sigma,
        n_master,
        tuple(f"m{i}" for i in range(n_master)),
        frozenset({0}),
        tuple(sorted(trans)),
        frozenset({0, rng.randrange(n_master)}),
    )
    nwa = Nwa(master, tuple(slaves), name=f"rand{seed}")
    return nwa if not is_deterministic(nwa)[0] else None

"""Golden automata used across the test suites.

The fixed instances are the packaged `corpus_data` files, parsed; the
parametric families `k_art(k)` and `art_types(k)` are built here. Each
instance is validated in tests against the documented facts (determinism,
width, specific word values, infima). The request/grant counter slave yields
the response-time sequence 5,4,3,1,1 on r r r # r g r g..., which pins its
weight structure: 1 per letter before the grant, 0 on the grant itself.
"""

from __future__ import annotations

from dataclasses import replace
from importlib.resources import files

from .core import Alphabet, LabeledAutomaton, Nwa, ValueFn, WeightedAutomaton
from .mca import Mca
from .textio import parse_mca, parse_nwa


def _automaton(alphabet: Alphabet, states: list[str], initials, transitions, accepting) -> LabeledAutomaton:
    idx = {s: i for i, s in enumerate(states)}
    return LabeledAutomaton(
        alphabet=alphabet,
        n_states=len(states),
        state_names=tuple(states),
        initials=frozenset(idx[s] for s in initials),
        transitions=tuple(sorted((idx[q], alphabet.id_of(a), idx[q2], lab) for q, a, q2, lab in transitions)),
        accepting=frozenset(idx[s] for s in accepting),
    )


def _response_time_slave(alphabet: Alphabet, grant: str = "g") -> WeightedAutomaton:
    """Sum+ slave counting letters from invocation up to, excluding, the grant."""
    trans = [("s0", a, "s0", 1) for a in alphabet.letters if a != grant]
    trans.append(("s0", grant, "s1", 0))
    return WeightedAutomaton(_automaton(alphabet, ["s0", "s1"], ["s0"], trans, ["s1"]), ValueFn.SUM_PLUS)


def _load(name: str, suffix: str, parse):
    """The packaged `corpus_data/<name><suffix>`, parsed, named after its file."""
    text = (files(__package__) / "corpus_data" / (name + suffix)).read_text(encoding="utf-8")
    return replace(parse(text), name=name)


def art() -> Nwa:
    """ART: every request invokes the response-time slave; unbounded width."""
    return _load("art", ".nwa", parse_nwa)


def art1() -> Nwa:
    """1-ART: ART restricted to (r hash* g hash*)^omega; width 1."""
    return _load("art1", ".nwa", parse_nwa)


def average_excess() -> Nwa:
    """Average excess over dollar-separated blocks; deterministic, width 1.

    The block slave is invoked at the first content letter of each block and
    reads through the closing dollar, summing +1/-1/0 for r/g/#. Invoking it
    at the block's first letter rather than at the separator keeps a single
    slave active at a time under run-from-invocation-position semantics.
    """
    return _load("average_excess", ".nwa", parse_nwa)


def cond_a1() -> Nwa:
    """Blocks 1 2 a^m #: the incrementing slave is invoked first; infimum 0."""
    return _load("cond_a1", ".nwa", parse_nwa)


def cond_a2() -> Nwa:
    """Blocks 2 1 a^m #: the decrementing slave is invoked first; infimum -inf."""
    return _load("cond_a2", ".nwa", parse_nwa)


def mca_counter() -> Mca:
    """One-counter automaton: start on #, add 1 per a, terminate on the next #."""
    return _load("mca_counter", ".mca", parse_mca)


def k_art(k: int) -> Nwa:
    """k-ART: at most k requests pending before each grant; width k."""
    if k < 1:
        raise ValueError("k must be positive")
    sigma = Alphabet(("r", "g", "hash"))
    states = [f"p{i}" for i in range(k + 1)]
    trans = []
    for i in range(k + 1):
        trans.append((f"p{i}", "hash", f"p{i}", 2))
        if i < k:
            trans.append((f"p{i}", "r", f"p{i+1}", 1))
        if i >= 1:
            trans.append((f"p{i}", "g", "p0", 2))
    master = _automaton(sigma, states, ["p0"], trans, ["p0"])
    return Nwa(master, (_response_time_slave(sigma), Nwa.dummy_slave(sigma)), name=f"k_art_{k}")


def art_types(k: int) -> Nwa:
    """1-ART[k]: k request/grant types, each non-overlapping with itself; width k.

    Master states are the sets of pending types; between two grants of a type
    there is at most one request of that type.
    """
    if k < 1:
        raise ValueError("k must be positive")
    letters = tuple(f"r{i}" for i in range(1, k + 1)) + tuple(f"g{i}" for i in range(1, k + 1)) + ("hash",)
    sigma = Alphabet(letters)
    subsets = []
    for mask in range(1 << k):
        subsets.append(frozenset(i + 1 for i in range(k) if mask & (1 << i)))
    name_of = {s: "S" + "".join(str(i) for i in sorted(s)) if s else "S" for s in subsets}
    dummy_index = k + 1
    trans = []
    for s in subsets:
        trans.append((name_of[s], "hash", name_of[s], dummy_index))
        for i in range(1, k + 1):
            if i not in s:
                trans.append((name_of[s], f"r{i}", name_of[s | {i}], i))
            else:
                trans.append((name_of[s], f"g{i}", name_of[s - {i}], dummy_index))
    master = _automaton(sigma, [name_of[s] for s in subsets], [name_of[frozenset()]], trans, [name_of[frozenset()]])
    slaves = tuple(_response_time_slave(sigma, grant=f"g{i}") for i in range(1, k + 1)) + (Nwa.dummy_slave(sigma),)
    return Nwa(master, slaves, name=f"art_types_{k}")


def corpus() -> dict[str, Nwa]:
    """All NWA instances, keyed by name."""
    items = [
        art(),
        art1(),
        k_art(2),
        k_art(3),
        art_types(2),
        art_types(3),
        average_excess(),
        cond_a1(),
        cond_a2(),
    ]
    return {n.name: n for n in items}


#: documented width bound per corpus automaton, None for unbounded
KNOWN_WIDTH: dict[str, int | None] = {
    "art": None,
    "art1": 1,
    "k_art_2": 2,
    "k_art_3": 3,
    "art_types_2": 2,
    "art_types_3": 3,
    "average_excess": 1,
    "cond_a1": 2,
    "cond_a2": 2,
}

#: corpus instances on which the negative-descent condition fails (finite infimum)
STAR_FAILING = ("art1", "k_art_2", "k_art_3", "art_types_2", "art_types_3", "cond_a1")

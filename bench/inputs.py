"""Seeded input families for the benchmark, rendered as `.nwa` text.

The generators are written against the file format, not the package API, so
a change to the program cannot change what the benchmark feeds it. Every
family is a function of its arguments and a `random.Random`; the same seed
gives byte-identical text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Aut:
    """One section of an `.nwa` file: states in order, labeled transitions."""

    states: list[str]
    initial: str
    accepting: list[str]
    trans: list[tuple[str, str, str, int]] = field(default_factory=list)
    valuefn: str = "sum"


@dataclass
class Nwa:
    alphabet: list[str]
    master: Aut
    slaves: list[Aut]

    def render(self) -> str:
        """Canonical text: transitions sorted by state, letter, target, label ids."""
        letter = {a: i for i, a in enumerate(self.alphabet)}
        out = ["nwa", "alphabet " + " ".join(self.alphabet), "master"]
        out += _section(self.master, letter, "invoke")
        for n, sl in enumerate(self.slaves, start=1):
            out.append(f"slave {n} valuefn {sl.valuefn}")
            out += _section(sl, letter, "weight")
        return "\n".join(out) + "\n"

    def is_dummy(self, i: int) -> bool:
        sl = self.slaves[i - 1]
        return not sl.trans and sl.initial in sl.accepting


def _section(aut: Aut, letter: dict[str, int], keyword: str) -> list[str]:
    sid = {s: i for i, s in enumerate(aut.states)}
    out = ["  states " + " ".join(aut.states), "  initial " + aut.initial]
    if aut.accepting:
        out.append("  accepting " + " ".join(sorted(aut.accepting, key=sid.__getitem__)))
    for q, a, q2, lab in sorted(aut.trans, key=lambda t: (sid[t[0]], letter[t[1]], sid[t[2]], t[3])):
        out.append(f"  trans {q} {a} {q2} {keyword} {lab}")
    return out


def _dummy() -> Aut:
    return Aut(["d0"], "d0", ["d0"])


def _response_time(alphabet: list[str], grant: str) -> Aut:
    """Sum+ slave adding 1 per letter up to the grant, which adds 0 and accepts."""
    trans = [("s0", a, "s0", 1) for a in alphabet if a != grant] + [("s0", grant, "s1", 0)]
    return Aut(["s0", "s1"], "s0", ["s1"], trans, "sum+")


# --- ladder: the corpus request/grant families -----------------------------


def k_art(k: int) -> Nwa:
    """At most k requests pending before each grant; width k, infimum 1."""
    sigma = ["r", "g", "hash"]
    trans = []
    for i in range(k + 1):
        trans.append((f"p{i}", "hash", f"p{i}", 2))
        if i < k:
            trans.append((f"p{i}", "r", f"p{i + 1}", 1))
        if i >= 1:
            trans.append((f"p{i}", "g", "p0", 2))
    master = Aut([f"p{i}" for i in range(k + 1)], "p0", ["p0"], trans)
    return Nwa(sigma, master, [_response_time(sigma, "g"), _dummy()])


def art_types(k: int) -> Nwa:
    """k request/grant types, each pending at most once; width k, infimum 1."""
    sigma = [f"r{i}" for i in range(1, k + 1)] + [f"g{i}" for i in range(1, k + 1)] + ["hash"]
    subsets = [frozenset(i + 1 for i in range(k) if mask >> i & 1) for mask in range(1 << k)]

    def name(s: frozenset) -> str:
        return "S" + "".join(str(i) for i in sorted(s))

    dummy = k + 1
    trans = []
    for s in subsets:
        trans.append((name(s), "hash", name(s), dummy))
        for i in range(1, k + 1):
            if i not in s:
                trans.append((name(s), f"r{i}", name(s | {i}), i))
            else:
                trans.append((name(s), f"g{i}", name(s - {i}), dummy))
    master = Aut([name(s) for s in subsets], "S", ["S"], trans)
    slaves = [_response_time(sigma, f"g{i}") for i in range(1, k + 1)] + [_dummy()]
    return Nwa(sigma, master, slaves)


def cond_a2() -> Nwa:
    """Blocks `two one a^m hash`: the decrementing slave runs first; infimum -inf."""
    sigma = ["one", "two", "a", "hash"]

    def counting(step: int) -> Aut:
        trans = [("v0", "one", "v0", 0), ("v0", "two", "v0", 0), ("v0", "a", "v0", step), ("v0", "hash", "v1", 0)]
        return Aut(["v0", "v1"], "v0", ["v1"], trans)

    master = Aut(
        ["n0", "n1", "n2"],
        "n0",
        ["n0"],
        [("n0", "two", "n1", 2), ("n1", "one", "n2", 1), ("n2", "a", "n2", 3), ("n2", "hash", "n0", 3)],
    )
    return Nwa(sigma, master, [counting(1), counting(-1), _dummy()])


# --- nondet: twin-slave variants --------------------------------------------


def twin_variant(base: Nwa, twins: int, rng: random.Random) -> Nwa:
    """Give `twins` seeded slave transitions a parallel weight-2 twin.

    Twins share source, letter and target with the original step and weigh
    at least as much (the originals weigh 0 or 1), so the least run on every
    word is the base automaton's run: the infimum and every word's value stay
    those of `base`, while the input becomes nondeterministic.
    """
    steps = [(n, t) for n, sl in enumerate(base.slaves) for t in sl.trans]
    chosen = rng.sample(steps, twins)
    slaves = [Aut(sl.states, sl.initial, sl.accepting, list(sl.trans), sl.valuefn) for sl in base.slaves]
    for n, (q, a, q2, _) in chosen:
        slaves[n].trans.append((q, a, q2, 2))
    return Nwa(base.alphabet, base.master, slaves)


# --- descent: sign-masked request/grant types --------------------------------


def sign_masked(base: Nwa, negative: set[int]) -> Nwa:
    """Flip the weights of the listed (1-based) slaves; flipped slaves become Sum.

    A flipped response-time slave loses 1 per pending letter, and the `hash`
    self-loops keep it pending for as long as the word likes, so the infimum
    is minus infinity whenever `negative` is nonempty.
    """
    slaves = []
    for n, sl in enumerate(base.slaves, start=1):
        if n in negative:
            sl = Aut(sl.states, sl.initial, sl.accepting, [(q, a, q2, -w) for q, a, q2, w in sl.trans], "sum")
        slaves.append(sl)
    return Nwa(base.alphabet, base.master, slaves)


# --- fuzz: the small random family -------------------------------------------


def random_draw(rng: random.Random, letters: int, master_states: int, slaves: int) -> Nwa:
    """`letters` letters; `master_states` master states, each (state, letter)
    move present with p = 0.85; `slaves` Sum or Sum+ slaves of 2-3 states with
    weights in [-2, 2], whose last state is an accepting sink. Deterministic
    by construction.
    """
    sigma = ["a", "b", "c"][:letters]
    mstates = [f"m{i}" for i in range(master_states)]
    mtrans = [
        (q, a, rng.choice(mstates), rng.randint(1, slaves))
        for q in mstates
        for a in sigma
        if rng.random() < 0.85
    ]
    accepting = [q for q in mstates if rng.random() < 0.5] or [rng.choice(mstates)]
    master = Aut(mstates, "m0", accepting, mtrans)
    out = []
    for _ in range(slaves):
        states = [f"s{i}" for i in range(rng.randint(2, 3))]
        trans = [
            (q, a, rng.choice(states[1:]), rng.randint(-2, 2))
            for q in states[:-1]
            for a in sigma
            if rng.random() < 0.85
        ]
        out.append(Aut(states, "s0", [states[-1]], trans, rng.choice(["sum", "sum+"])))
    return Nwa(sigma, master, out)


def within_width(nwa: Nwa, k: int) -> bool:
    """No reachable run of the deterministic `nwa` keeps more than k slaves active.

    Independent of the package: a configuration is the master state plus the
    active slaves' states, oldest first; accepting slaves are released before
    the next letter, and an invoked non-dummy slave takes the letter at once.
    """
    mstep = {(q, a): (q2, i) for q, a, q2, i in nwa.master.trans}
    sstep = [{(q, a): q2 for q, a, q2, _ in sl.trans} for sl in nwa.slaves]
    start = (nwa.master.initial, ())
    seen = {start}
    todo = [start]
    while todo:
        q, slots = todo.pop()
        live = tuple((i, s) for i, s in slots if s not in nwa.slaves[i - 1].accepting)
        for a in nwa.alphabet:
            if (q, a) not in mstep:
                continue
            q2, inv = mstep[q, a]
            moved = tuple((i, sstep[i - 1].get((s, a))) for i, s in live)
            if any(s is None for _, s in moved):
                continue
            if not nwa.is_dummy(inv):
                first = sstep[inv - 1].get((nwa.slaves[inv - 1].initial, a))
                if first is None:
                    continue
                moved += ((inv, first),)
            if len(moved) > k:
                return False
            nxt = (q2, moved)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def random_lasso(nwa: Nwa, rng: random.Random, max_prefix: int = 2, max_period: int = 4) -> str:
    """A seeded lasso word `prefix | period`, walking master moves where there are any."""
    moves: dict[str, list[tuple[str, str]]] = {}
    for q, a, q2, _ in nwa.master.trans:
        moves.setdefault(q, []).append((a, q2))
    prefix_len = rng.randint(0, max_prefix)
    q = nwa.master.initial
    word = []
    for _ in range(prefix_len + rng.randint(1, max_period)):
        options = sorted(moves.get(q, ()))
        if options:
            a, q = rng.choice(options)
        else:
            a = rng.choice(nwa.alphabet)
        word.append(a)
    return (" ".join(word[:prefix_len]) + " | " + " ".join(word[prefix_len:])).strip()

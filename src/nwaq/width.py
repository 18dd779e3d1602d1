"""The package's one width search: `nwaq width`, `minimal_width` and the
explorer's width error all read `has_width`.

A violation is a step on which k slaves are active after the forced releases
and one more slave starts in a slot; a silent invocation, such as any of
`Nwa.dummy_slave`, takes none. Each slot steps on its own and an invocation
only appends one, so width does not depend on slot order: the search runs
over (master state, sorted slot ids) keys, far fewer than the ordered ones,
and keeps no edges.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Optional, Sequence

from .core import Nwa
from .graphs import shortest_path

if TYPE_CHECKING:
    from .determinize import StepTables

Key = tuple[int, tuple[int, ...]]  # (master state, slot ids)


def has_width(nwa: Nwa, k: int, tables: Optional[StepTables] = None,
              expanded: Sequence[Key] = (), frontier: Sequence[Key] = ()) -> tuple[bool, Optional[tuple[str, ...]]]:
    """True iff no reachable run ever needs a (k+1)-th simultaneous slave.

    Breadth first, stopping at the first key past the cap in (expansion,
    letter) order. Sorting commutes with a step, so sorted and ordered keys
    are reached by the same words; where each word reaches one configuration
    (deterministic input) either gives the lexicographically least shortest
    violating word, and otherwise the step's choice order breaks ties. The
    witness ends with the violating invocation's letter: replayed in the
    oracle at cap k, it blows up at its last position.

    `tables` are the step tables of `nwa`, of either sign, as the search
    reads only step targets; without them it compiles its own (`StepTables`
    is imported at the call, since `determinize` imports this module).

    An exploration under cap k that stopped early passes the keys it has
    `expanded`, every step of which it checked against the cap, and the
    keys it has found but not expanded (`frontier`). The search then first
    resumes from there: the sorted expanded keys count as seen, and it
    starts from the sorted frontier keys. Only when that reaches a key past
    the cap does the search above run from the initial keys, for its
    witness. The resumed search decides the same: every key it reaches is
    reachable, and if a key past the cap is reachable, take a sorted found
    key x, one at the least distance d from a key past the cap. Found keys
    are within the cap, so d >= 1. Were x the sorted key of an expanded
    configuration c, the next key on a shortest such path would be the
    sorted key of a step target of c, which was found, at distance d - 1.
    So x is a start, no key after it on that path is a sorted found key, so
    none is seen, and the resumed search reaches past the cap.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if tables is None:
        from .determinize import StepTables
        tables = StepTables(nwa)
    moves = lambda key: ((a, _sorted(target)) for a, target, *_ in tables.step(*key))
    past = lambda key: len(key[1]) > k
    if expanded and shortest_path((_sorted(key) for key in frontier), moves, past, map(_sorted, expanded)) is None:
        return True, None
    path = shortest_path(sorted((q, ()) for q in nwa.master.initials), moves, past)
    return path is None, None if path is None else tuple(nwa.alphabet.letters[a] for a in path)


def _sorted(key: Key) -> Key:
    return key[0], tuple(sorted(key[1]))


def minimal_width(nwa: Nwa, k_max: int) -> Optional[int]:
    """Smallest k <= k_max for which has_width holds, or None: one search at
    cap k_max, then a bisection below it, at most ceil(log2 k_max) + 1 in
    all, every one on the same step tables. has_width is monotone in k: when
    no reachable step needs k + 1 slots, a larger cap reaches the same
    configurations."""
    from .determinize import StepTables  # which imports this module
    tables = StepTables(nwa)
    if not has_width(nwa, k_max, tables)[0]:
        return None
    return 1 + bisect_left(range(1, k_max), True, key=lambda k: has_width(nwa, k, tables)[0])

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
from typing import Optional

from .core import Nwa
from .graphs import shortest_path


def has_width(nwa: Nwa, k: int) -> tuple[bool, Optional[tuple[str, ...]]]:
    """True iff no reachable run ever needs a (k+1)-th simultaneous slave.

    Breadth first, stopping at the first key past the cap in (expansion,
    letter) order. Sorting commutes with a step, so sorted and ordered keys
    are reached by the same words; where each word reaches one configuration
    (deterministic input) either gives the lexicographically least shortest
    violating word, and otherwise the step's choice order breaks ties. The
    witness ends with the violating invocation's letter: replayed in the
    oracle at cap k, it blows up at its last position.
    """
    from .determinize import StepTables  # which imports this module
    if k < 1:
        raise ValueError("k must be positive")
    tables = StepTables(nwa)
    starts = sorted((q, ()) for q in nwa.master.initials)
    path = shortest_path(starts, lambda key: ((a, (q2, tuple(sorted(slots))))
                                              for a, (q2, slots), *_ in tables.step(*key)),
                         lambda key: len(key[1]) > k)
    return path is None, None if path is None else tuple(nwa.alphabet.letters[a] for a in path)


def minimal_width(nwa: Nwa, k_max: int) -> Optional[int]:
    """Smallest k <= k_max for which has_width holds, or None: one search at
    cap k_max, then a bisection below it, at most ceil(log2 k_max) + 1 in
    all. has_width is monotone in k: when no reachable step needs k + 1
    slots, a larger cap reaches the same configurations."""
    if not has_width(nwa, k_max)[0]:
        return None
    return 1 + bisect_left(range(1, k_max), True, key=lambda k: has_width(nwa, k)[0])

"""Deciding whether a nested automaton keeps at most k slaves active at once.

The check is plain reachability in the configuration graph capped at k: a
violation is a step on which k slaves are active after the forced releases
and another non-dummy slave is invoked. Dummy invocations never occupy a
slot. The witness is the letter sequence of a shortest violating prefix,
lexicographically least among shortest.
"""

from __future__ import annotations

from typing import Optional

from .core import Nwa, PreconditionError
from .determinize import StepTables, explore
from .graphs import shortest_path


def has_width(nwa: Nwa, k: int) -> tuple[bool, Optional[tuple[str, ...]]]:
    """True iff no reachable run ever needs a (k+1)-th simultaneous slave.

    A breadth-first search over (master state, slot ids) keys that stops at
    the first key past the cap, found first in (expansion, letter) order. On
    failure the witness prefix ends with the letter of the violating
    invocation; replaying it in the oracle at width cap k blows up at its
    last position.
    """
    if k < 1:
        raise ValueError("k must be positive")
    tables = StepTables(nwa)
    starts = sorted((q, ()) for q in nwa.master.initials)
    path = shortest_path(starts, lambda key: ((a, target) for a, target, *_ in tables.step(*key)),
                         lambda key: len(key[1]) > k)
    return path is None, None if path is None else tuple(nwa.alphabet.letters[a] for a in path)


def minimal_width(nwa: Nwa, k_max: int) -> Optional[int]:
    """Smallest k <= k_max for which has_width holds, or None: one
    exploration at cap k_max, whose widest configuration, or 1, is the
    answer when the exploration does not raise `width_error`."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    try:
        keys, _ = explore(nwa, k_max)
    except PreconditionError:
        return None
    return max(1, *(len(slots) for _, slots in keys))

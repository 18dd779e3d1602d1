"""Deciding whether a nested automaton keeps at most k slaves active at once.

The check is plain reachability in the configuration graph capped at k: a
violation is a step on which k slaves are active after the forced releases
and another non-dummy slave is invoked. Dummy invocations never occupy a
slot. The witness is the letter sequence of a shortest violating prefix,
lexicographically least among shortest.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .core import Nwa
from .determinize import StepTables


def has_width(nwa: Nwa, k: int) -> tuple[bool, Optional[tuple[str, ...]]]:
    """True iff no reachable run ever needs a (k+1)-th simultaneous slave.

    On failure the witness prefix ends with the letter of the violating
    invocation; replaying it in the oracle at width cap k blows up at its
    last position.
    """
    if k < 1:
        raise ValueError("k must be positive")
    letters = nwa.alphabet.letters
    tables = StepTables(nwa)
    initials = sorted((q, ()) for q in nwa.master.initials)
    parent: dict[tuple, Optional[tuple[tuple, int]]] = {key: None for key in initials}
    queue = deque(initials)
    while queue:
        key = queue.popleft()
        for a, target, *_ in tables.step(*key):
            if len(target[1]) > k:
                word = [letters[a]]
                back = key
                while parent[back] is not None:
                    back, la = parent[back]
                    word.append(letters[la])
                word.reverse()
                return False, tuple(word)
            if target not in parent:
                parent[target] = (key, a)
                queue.append(target)
    return True, None


def minimal_width(nwa: Nwa, k_max: int) -> Optional[int]:
    """Smallest k <= k_max for which has_width holds, or None."""
    if k_max < 1:
        raise ValueError("k_max must be positive")
    for k in range(1, k_max + 1):
        ok, _ = has_width(nwa, k)
        if ok:
            return k
    return None

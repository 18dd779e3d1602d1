"""Configuration-graph exploration.

A configuration couples the master state with the states of active slaves,
least recently invoked first. `StepTables` compiles an automaton once into
integer tables and steps a configuration by them; it is the pipeline's one
release, choose and invoke rule (the oracle has its own, written apart). The
explorer enumerates every joint choice a nondeterministic automaton has on a
letter, so each edge is one choice and the decisions run on this graph
directly. Each edge carries its kinds, the facts the acceptance rule reads,
and `ConfigGraph.qualifying` applies that rule once for every stage.
"""

from __future__ import annotations

import gc
from functools import cached_property
from typing import Callable, Optional

from .core import LassoWord, Nwa, width_error
from .graphs import negative_cycle, sccs, shortest_path
from .starcond import StarWitness, check_star_condition
from .width import has_width

# the edge kinds: a non-silent invocation, an accepting master target, and a
# release of slot position 1 or a target with no slot
TICK, ACCEPT, RELEASE = 1, 2, 4


class StepTables:
    """An automaton compiled into integer step tables.

    Slave states get global ids in (slave, state) order, so tuples of ids
    sort as the (slave, state) pairs they stand for; `slot_of[g]` is the pair
    of id g. `moves[a][g]` lists the moves of id g on letter a as (target id,
    effective weight), or is None when g is accepting and its slot
    terminates. `master[q]` pairs each letter a on which q moves with those
    master moves, as (target, its kinds for a silent move and for an
    invocation, starts): ACCEPT when the target is accepting, and TICK for
    an invocation. Starts are the choices for the invoked slot, a move
    (target id, weight) of the invoked slave from an initial state, or None
    for the silent move an accepting initial state gives (the one start of
    `Nwa.dummy_slave`); the target id names the slave. Moves whose invoked
    slave dies at once are left out. `payloads` keeps one object per distinct slot-weight and
    released-position tuple `step` has returned, which all its edges share.
    Weights are stored times `sign`, -1 for universality and +1 otherwise.

    `may_descend` holds iff some slave has a negative cycle through
    non-accepting states under the stored weights. Without one no
    configuration graph of these tables has a descent: a descent cycle keeps
    its j oldest slots alive, and a live slot is never in an accepting state
    (an accepting slot terminates at its next step), so each of those slots
    walks a closed walk through its own slave's non-accepting states, and as
    their summed weights are negative, one of these walks is negative and
    holds a negative simple cycle.
    """

    def __init__(self, nwa: Nwa, sign: int = 1):
        self.slot_of = tuple((i, s) for i, sl in enumerate(nwa.slaves, start=1) for s in range(sl.base.n_states))
        # one pass over each slave's transitions, sorted as `succ` lists them, from its first id on
        moves = [[()] * len(self.slot_of) for _ in nwa.alphabet.letters]
        arcs, starts, first = [], [], 0
        for sl in nwa.slaves:
            aut = sl.base
            for q, a, q2, w in sorted(aut.transitions):
                if q not in aut.accepting:
                    arcs.append((first + q, first + q2, sign * sl.effective_weight(w)))
                    moves[a][first + q] += (arcs[-1][1:],)  # (target id, weight)
            for table in moves:
                for s in aut.accepting:
                    table[first + s] = None
            # the slave's starts on each letter, shared by every master move that invokes it
            initial_ids = [first + s0 for s0 in sorted(aut.initials - aut.accepting)]
            silent = (None,) * bool(aut.initials & aut.accepting)
            starts.append([sum((table[g] for g in initial_ids), ()) + silent for table in moves])
            first += aut.n_states
        self.moves = tuple(map(tuple, moves))
        # ids of different slaves never meet, and accepting ids have no moves, so no cycle passes one
        self.may_descend = negative_cycle(first, arcs) is not None
        # one pass over the master's sorted transitions: a row lists each letter once, in order
        rows: list[list] = [[] for _ in range(nwa.master.n_states)]
        for q, a, q2, label in sorted(nwa.master.transitions):
            if new := starts[label - 1][a]:
                row, accept = rows[q], ACCEPT * (q2 in nwa.master.accepting)
                if not row or row[-1][0] != a:
                    row.append((a, []))
                row[-1][1].append((q2, accept, TICK | accept, new))
        self.master = tuple(tuple((a, tuple(ms)) for a, ms in row) for row in rows)
        self.payloads: dict[tuple[int, ...], tuple[int, ...]] = {}

    def step(self, q: int, slots: tuple[int, ...]) -> list[tuple]:
        """Every joint choice from configuration (q, slots), slots given as
        ids, as (letter, (master target, target slots), slot weights,
        released positions, kinds), by letter.

        Accepting-state slots terminate first (forced), then a master move is
        chosen, each surviving slot picks a move independently, and a
        non-silent invocation appends a fresh slot that also consumes the
        letter. Choices come in master move order, then the surviving slots'
        moves in lexicographic order, then the invoked slot's. A choice is a
        non-silent invocation exactly when its kinds hold TICK, and then its
        last target slot is the invoked one.
        """
        out, share = [], self.payloads.setdefault
        bare = 0 if slots else RELEASE  # a silent move from here leaves no slot
        for a, masters in self.master[q]:
            table = self.moves[a]
            returned: tuple[int, ...] = ()
            # kept slots and their weights: the one choice while each slot
            # has one move, then `combos` lists every choice
            kept, weights, combos = (), (), None
            for pos, g in enumerate(slots, start=1):
                moves = table[g]
                if moves is None:
                    returned += (pos,)
                elif not moves:
                    break  # the slot dies, and every choice with it
                elif combos is None and len(moves) == 1:
                    (t, w), = moves
                    kept, weights = kept + (t,), weights + (w,)
                else:
                    combos = [(ks + (t,), ws + (w,)) for ks, ws in combos or [(kept, weights)] for t, w in moves]
            else:
                # the release bit of an invocation, and of a silent move
                if returned:  # positions ascend, and () is shared already
                    returned = share(returned, returned)
                    freed = quiet = RELEASE if returned[0] == 1 else 0
                else:
                    freed, quiet = 0, bare
                for q2, silent, tick, starts in masters:
                    for ks, ws in combos or [(kept, weights)]:
                        for new in starts:
                            if new is None:
                                out.append((a, (q2, ks), share(ws, ws), returned, silent | quiet))
                            else:
                                t, w = new
                                ws1 = ws + (w,)
                                out.append((a, (q2, ks + (t,)), share(ws1, ws1), returned, tick | freed))
        return out


class ConfigGraph:
    """The reachable configuration graph of one exploration, on integer ids:
    complete unless stopped at a descent after the width search (`explore`),
    and then the exploration so far, whose configurations found but not
    expanded have no out-edges.

    Configurations are numbered in the order `explore` finds them;
    `keys[u]`, (master state, slot ids), is configuration u, and
    `tables.slot_of` names the (slave, state) pair of each slot id.
    `initials` lists the ids of the slot-free initial ones, the first ids, in
    master state order. Edge n is one joint step of master and active
    slaves: it runs from configuration `src[n]` to `dst[n]` on letter
    `letter[n]`. `slot_weights[n]` aligns with
    the source's surviving slots in order, the newly invoked slot last, and
    holds effective weights (absolute for Sum+ slaves) times the tables'
    sign; their sum is the edge's cost, which readers derive. `returned[n]`
    lists the 1-based positions of the source's slots that terminate before
    the letter is consumed; their values live in run simulations, not in the
    finite graph. Edges share one tuple per distinct `slot_weights` and
    `returned` value. `kinds[n]` holds the edge's kind bits: TICK for a
    non-silent invocation, whose slave is that of the target's last slot,
    ACCEPT for an accepting master target, RELEASE when the edge frees slot
    position 1 or leaves no slot. Edges are sorted by source, then letter,
    then the order `StepTables.step` emits them; the edges of configuration
    u are `start[u]` to `start[u + 1] - 1`, and `len` counts them. `nwa` and `k` are the
    automaton and width cap it was explored from. `comp` gives each
    configuration's strongly connected component, `qualifying` the
    components an accepted run can repeat, and `descent` the star test's
    witness or None, each computed on first use.
    """

    def __init__(self, nwa: Nwa, k: int, keys: list[tuple[int, tuple[int, ...]]], tables: StepTables,
                 start: list[int], initials: range, *columns: list):
        self.nwa, self.k, self.keys, self.tables, self.start, self.initials = nwa, k, keys, tables, start, initials
        self.src, self.dst, self.letter, self.slot_weights, self.returned, self.kinds = columns

    def __len__(self) -> int:
        return len(self.src)

    def out(self, u: int) -> range:
        """Indexes of the edges leaving configuration u."""
        return range(self.start[u], self.start[u + 1])

    @cached_property
    def comp(self) -> list[int]:
        return sccs(self.start, self.dst)

    @cached_property
    def descent(self) -> Optional[StarWitness]:
        return check_star_condition(self)

    @cached_property
    def qualifying(self) -> list[list[int]]:
        """The internal edges, in index order, of every component that holds
        a TICK, an ACCEPT and a RELEASE edge, in ascending component id: the
        components whose cycles an accepted run can repeat.

        Where a descent cycle can sit, in a component with internal edges at
        an anchor u with m >= 1 slots, this is the rule the negative-descent
        test needs: the component holds a configuration with an accepting
        master state, and a path inside it from u back to u passes one and
        releases all m slots of u.
        - Every node of a component with internal edges has an internal
          in-edge, so it holds an accepting configuration iff one of its
          internal edges has ACCEPT.
        - The oldest slot of u still alive always sits at position 1, so a
          way back that releases all m slots exists iff some internal edge
          frees position 1: a walk that passes that edge m times, returning
          to u in between, releases them all. An internal edge that leaves
          no slot frees position 1 itself or, when its source has no slot,
          ends a path from u that does.
        - Such a way back must invoke again to return to m slots, so the
          component also has a TICK edge.
        """
        return qualifying_parts(self.comp, zip(range(len(self)), self.src, self.dst), self.kinds)

    def closed_walk(self, root: int, allowed: Callable[[int], bool], need: int, free: int = 0) -> Optional[list[int]]:
        """Edge indexes of the first shortest closed walk from configuration
        `root` over allowed edges that passes every edge kind in `need` and
        releases the `free` oldest slots of `root`, or None.

        The search runs breadth first over (configuration, number of those
        slots still alive, kinds passed). The slots still alive are always
        the oldest, a prefix of the slot list.
        """
        dst, returned, kinds = self.dst, self.returned, self.kinds

        def moves(state):
            u, alive, got = state
            for n in self.out(u):
                if allowed(n):
                    yield n, (dst[n], alive - sum(1 for pos in returned[n] if pos <= alive), got | kinds[n] & need)

        return shortest_path([(root, free, 0)], moves, (root, 0, need).__eq__)

    def way_back(self, anchor: int) -> Optional[list[int]]:
        """The closed walk that closes a pumped period at `anchor`: inside its
        component, releasing every slot alive at `anchor` and passing an
        accepting master state. A walk back to an accepting anchor ends in
        one, so ACCEPT is needed only when the anchor's master state is not
        accepting."""
        comp, (q, slots) = self.comp, self.keys[anchor]
        need = 0 if q in self.nwa.master.accepting else ACCEPT
        return self.closed_walk(anchor, lambda n: comp[self.dst[n]] == comp[anchor], need, len(slots))

    def access(self, u: int) -> list[int]:
        """Edge indexes of a shortest path from an initial configuration to
        configuration u, the first in edge order."""
        dst = self.dst
        return shortest_path(self.initials, lambda v: ((n, dst[n]) for n in self.out(v)), u.__eq__)

    def lasso(self, root: int, period: list[int]) -> LassoWord:
        """The letters of `access(root)`, then of the closed walk `period`
        from `root` forever."""
        letters = self.nwa.alphabet.letters
        return LassoWord(*(tuple(letters[self.letter[n]] for n in walk) for walk in (self.access(root), period)))


def qualifying_parts(part: list[int], edges, kinds: list[int]) -> list[list[int]]:
    """The internal edges of each part, in ascending part id, that holds a
    TICK, an ACCEPT and a RELEASE edge; `part` maps nodes to parts and
    `edges` yields (index, source, target) triples, kept in their order."""
    inner: list[list[int]] = [[] for _ in range(max(part, default=-1) + 1)]
    held = [0] * len(inner)
    for n, u, v in edges:
        c = part[u]
        if c == part[v]:
            inner[c].append(n)
            held[c] |= kinds[n]
    return [ns for ns, got in zip(inner, held) if got == TICK | ACCEPT | RELEASE]


def explore(nwa: Nwa, k: int, sign: int = 1, stop: bool = False) -> tuple[list[tuple[int, tuple[int, ...]]], ConfigGraph]:
    """The keys (master state, slot ids) of the reachable configurations
    under width cap k in the order found, and the graph over them, its
    weights times `sign` (see `StepTables`).

    One breadth-first worklist over the keys expands each configuration with
    one `StepTables.step` call, with the garbage collector paused. A key's id
    is its discovery number, the initial keys first in master state order, so
    the graph is built on the worklist's own columns and nothing is
    renumbered. The first step past the cap stops it and raises
    `width_error` with the witness of `has_width`, the one width search,
    which runs only then and at a stop (below), on these tables. No
    `Configuration` is built here.

    The graph is complete unless stopped at a descent after the width search.
    When `stop` holds and the tables allow a descent (`may_descend`), the
    exploration so far is wrapped as a graph at checkpoints: at 16 expanded,
    then at 4 times as many each time, so the partial graphs stay a bounded
    share of the work, while at least as many found configurations wait as
    have been expanded, since a short queue suggests little is left. In that
    graph the configurations found but not expanded have no out-edges, so
    its ids and edges are a prefix of the complete graph's. The first whose
    `descent` is not None ends the exploration: the rest might still pass the
    cap, so `has_width` resumes from the keys found but not expanded (its
    docstring proves this decides as a fresh search) and the width error is
    raised as above, and otherwise that partial graph is returned, its
    `descent` already found (`starcond` proves its witnesses are the
    complete graph's).
    """
    tables = StepTables(nwa, sign)
    keys = sorted((q, ()) for q in nwa.master.initials)
    found = {key: n for n, key in enumerate(keys)}  # key -> id
    initials = range(len(keys))
    # the steps taken, by source: source and target ids, then the other columns
    columns = src, dst, letter, slot_weights, returned, kinds = tuple([] for _ in range(6))
    ends = [0]  # per id, the end of its steps
    check = 16 if stop and tables.may_descend else -1  # the expanded count of the next checkpoint
    collecting = gc.isenabled()
    gc.disable()
    try:
        while len(ends) <= len(keys):
            u = len(ends) - 1
            if u == check:
                check *= 4
                if len(keys) >= 2 * u:
                    # the configurations found but not expanded have no steps yet; the graph
                    # shares the worklist's lists, so it is read before the worklist resumes
                    graph = ConfigGraph(nwa, k, keys, tables, ends + [len(dst)] * (len(keys) - u), initials, *columns)
                    if graph.descent is not None:
                        fits, witness = has_width(nwa, k, tables, keys[:u], keys[u:])
                        if not fits:
                            raise width_error(k, witness)
                        return keys, graph
            for a, target, weights, released, kind in tables.step(*keys[u]):
                if len(target[1]) > k:
                    raise width_error(k, has_width(nwa, k, tables)[1])
                d = found.get(target)
                if d is None:
                    d = found[target] = len(keys)
                    keys.append(target)
                src.append(u)
                dst.append(d)
                letter.append(a)
                slot_weights.append(weights)
                returned.append(released)
                kinds.append(kind)
            ends.append(len(dst))
    finally:
        if collecting:
            gc.enable()
    return keys, ConfigGraph(nwa, k, keys, tables, ends, initials, *columns)

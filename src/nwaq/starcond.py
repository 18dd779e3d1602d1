"""The negative-descent test: is the infimum over all words minus infinity?

The decision works on the reachable configuration graph, explored once
(`determinize.ConfigGraph`) and shared with the pumping witness. The infimum
is unbounded below iff some qualifying component (`ConfigGraph.qualifying`,
the components whose cycles an accepted run can repeat, which the ratio
search reads too) contains a cycle along which, for some j, the j least
recently invoked slaves never terminate and their summed step weights are
negative. Pumping such a cycle drives the partial averages of the
returned-value sequence arbitrarily low. Wherever such a cycle can sit, a
component qualifies iff it holds a configuration with an accepting master
state and a path inside it can release every active slave and come back;
`ConfigGraph.qualifying` carries the proof.

For each j, the internal edges of each qualifying component that keep the j
oldest slots alive are searched for a negative cycle by Bellman-Ford over
integer (u, v, w_j) arrays, which stops at the first pass after which the
parent graph has a cycle, always a negative one, instead of running all n
passes. Nondeterministic input needs no determinization: each edge is one
joint choice of master and slave moves, so each path is a run, and a word's
value is the least over its runs.

The graph is complete unless stopped at a descent after the width search:
`explore` reads this test's witness, `ConfigGraph.descent`, on the
exploration so far, in which the configurations found but not yet expanded
have no out-edges, and returns the first such graph that has one. A witness
on such a partial graph is a witness of the complete graph. Ids are
discovery numbers and edges are sorted by source, so the partial graph's
configurations and edges are a prefix of the complete graph's, with the same
ids, edge indexes, letters, slot weights, releases and kinds. Each of its
components therefore lies inside a component of the complete graph, and each
of its internal edges is internal there too. The configurations not yet
expanded are sinks, so each is a component with no internal edge and none
qualifies. A qualifying partial component therefore lies in a qualifying
complete one, and the witness's cycle, its way back
(`ConfigGraph.way_back`) and the access path to its anchor are paths of the
complete graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .core import LassoWord
from .graphs import negative_cycle

if TYPE_CHECKING:
    from .determinize import ConfigGraph


class StarWitness(NamedTuple):
    """A reachable negative cycle over the j least recently invoked slaves.

    `cycle` lists edge indexes of the configuration graph it was found in,
    in path order; its anchor is the source of its first edge. The cycle
    never terminates a slot at position <= j, so slot identity is stable
    along it; j_sum is the (negative) total of those slots' weights over one
    turn. The anchor lies in a qualifying component, so it has a way back
    (`ConfigGraph.way_back`).
    """

    j: int
    cycle: tuple[int, ...]
    j_sum: int


def check_star_condition(graph: ConfigGraph) -> Optional[StarWitness]:
    """First witness in deterministic order (ascending j, then component order),
    or None when every such cycle test is empty or the graph's step tables
    allow no descent (`StepTables.may_descend`)."""
    if not graph.tables.may_descend:
        return None

    keys, src, dst, returned, slot_weights = graph.keys, graph.src, graph.dst, graph.returned, graph.slot_weights
    for j in range(1, graph.k + 1):
        for edges in graph.qualifying:
            ns, arcs = [], []
            ids: dict[int, int] = {}
            for n in edges:
                u, v, gone = src[n], dst[n], returned[n]
                if (gone[0] - 1 if gone else len(keys[u][1])) >= j:  # the edge keeps the j oldest slots alive
                    ns.append(n)
                    w = slot_weights[n]
                    arcs.append((ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids)), sum(w[:j]) if j > 1 else w[0]))
            cycle = negative_cycle(len(ids), arcs)
            if cycle is not None:
                return StarWitness(j=j, cycle=tuple(ns[i] for i in cycle), j_sum=sum(arcs[i][2] for i in cycle))
    return None


def pump_witness(graph: ConfigGraph, witness: StarWitness, pumps: int) -> LassoWord:
    """Lasso (path to the cycle, cycle^pumps . way back), for a witness found
    in `graph`.

    The way back (`ConfigGraph.way_back`) passes a configuration with an
    accepting master state and releases every slot that was alive when it
    started, the pumped slots among them, so each period terminates every
    slave that entered it.
    """
    anchor = graph.src[witness.cycle[0]]
    return graph.lasso(anchor, list(witness.cycle * pumps) + graph.way_back(anchor))

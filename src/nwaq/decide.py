"""End-to-end decisions: threshold emptiness, exact infimum, and deterministic
universality.

The pipeline determinizes nondeterministic input on the configuration graph,
tests the negative-descent condition (a hit settles every threshold at minus
infinity), reduces to width 1, summarizes runs as a fragment automaton, and
decides thresholds on its cycle ratios. Certificates are words over the
original alphabet wherever a lasso can witness the verdict; a minus-infinity
verdict carries the witness cycle and a pumping recipe instead, because no
single lasso need evaluate below the threshold (pumping drives the partial
averages down, not necessarily the lasso value).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    LassoWord,
    NEG_INFINITY,
    Nwa,
    PLUS_INFINITY,
    PreconditionError,
    Threshold,
    ValueFn,
    ValueResult,
    LabeledAutomaton,
    WeightedAutomaton,
    is_deterministic,
    validate_nwa,
)
from .determinize import ConfigGraph, explore, materialize_deterministic
from .meanpayoff import CycleWitness, RatioGraph, check_ratio_bound, infimum_ratio
from .reduce import (
    NegInfinityFragmentError,
    SilentLimAvgAutomaton,
    fragment_automaton,
    reduce_width1,
)
from .starcond import StarWitness, check_star_condition, pump_witness
from .width import has_width


@dataclass(frozen=True)
class Certificate:
    """Evidence behind a verdict.

    kind "lasso": `lasso` (over the original alphabet for deterministic
    input) replays through the oracle to `value`. kind "star": `star` is the
    negative cycle; `pumped` is a lasso whose partial averages dip below any
    bound as the cycle is pumped further. kind "infimum": the computed
    infimum used to refute a threshold.
    """

    kind: str
    value: Optional[ValueResult] = None
    lasso: Optional[LassoWord] = None
    star: Optional[StarWitness] = None
    pumped: Optional[LassoWord] = None
    flags: tuple[str, ...] = ()


class Pipeline:
    """All decision stages for one automaton and width bound, built once."""

    def __init__(self, nwa: Nwa, k: int):
        problems = validate_nwa(nwa)
        if problems:
            raise PreconditionError("; ".join(problems))
        graph = ConfigGraph(*explore(nwa, k))
        if graph.overflow:
            _, witness = has_width(nwa, k)
            raise PreconditionError(f"automaton exceeds width {k} (witness {' '.join(witness)})")
        self.original = nwa
        self.k = k
        det, _ = is_deterministic(nwa)
        self.determinized = nwa if det else materialize_deterministic(nwa, k)
        self.star: Optional[StarWitness] = None
        self._config_graph: Optional[ConfigGraph] = None
        # the descent test needs the decided automaton's graph only when some
        # weight is negative; a hit keeps it for the pumping witness
        if self.determinized.min_effective_weight() < 0:
            if not det:
                graph = ConfigGraph(*explore(self.determinized, k))
            self.star = check_star_condition(self.determinized, k, graph)
            if self.star is not None:
                self._config_graph = graph
        del graph  # the reduction below does not need it
        self.flags: tuple[str, ...] = ()
        self.fragments: Optional[SilentLimAvgAutomaton] = None
        self.graph: Optional[RatioGraph] = None
        self._infimum: Optional[ValueResult] = None
        self._witness: Optional[CycleWitness] = None
        if self.star is None:
            self.reduced = reduce_width1(self.determinized, k)
            try:
                self.fragments = fragment_automaton(self.reduced)
            except NegInfinityFragmentError as err:
                # should be pre-empted by the descent check; report and flag
                self.flags = ("neg-infinity-fragment",)
                self._infimum = NEG_INFINITY
                return
            self.graph = _ratio_graph(self.fragments)
            self._infimum, self._witness = infimum_ratio(self.graph)
            if self._witness is not None:
                assert check_ratio_bound(self.graph, self._witness.ratio, self._witness.potentials)
        else:
            self._infimum = NEG_INFINITY

    def infimum(self) -> tuple[ValueResult, Certificate]:
        if self.star is not None:
            return NEG_INFINITY, Certificate(
                kind="star",
                value=NEG_INFINITY,
                star=self.star,
                pumped=pump_witness(self.determinized, self.star, self.k, pumps=8, graph=self._config_graph),
            )
        if self._infimum is NEG_INFINITY:
            return NEG_INFINITY, Certificate(kind="star", value=NEG_INFINITY, flags=self.flags)
        if self._witness is None:
            return PLUS_INFINITY, Certificate(kind="infimum", value=PLUS_INFINITY)
        return self._infimum, Certificate(
            kind="lasso", value=self._infimum, lasso=self._expand(self._witness)
        )

    def emptiness(self, t: Threshold) -> tuple[bool, Certificate]:
        """Does some word have value below the threshold?"""
        if self.star is not None:
            pumps = _pumps_for(self.star, t, self.k)
            return True, Certificate(
                kind="star",
                value=NEG_INFINITY,
                star=self.star,
                pumped=pump_witness(self.determinized, self.star, self.k, pumps=pumps, graph=self._config_graph),
            )
        if self._infimum is NEG_INFINITY:
            return True, Certificate(kind="star", value=NEG_INFINITY, flags=self.flags)
        if self._witness is None:
            return False, Certificate(kind="infimum", value=PLUS_INFINITY)
        # the least-ratio cycle is a witness exactly when the threshold admits the infimum
        if t.admits(self._witness.ratio):
            return True, Certificate(kind="lasso", value=self._infimum, lasso=self._expand(self._witness))
        return False, Certificate(kind="infimum", value=self._infimum)

    def _expand(self, witness: CycleWitness) -> LassoWord:
        """Turn a fragment-cycle witness into a word over the input alphabet."""
        assert self.fragments is not None
        frag = self.fragments
        edge_letter = {n: frag.edges[n][1] for n in range(len(frag.edges))}

        def expand(edge_idxs) -> list[str]:
            out: list[str] = []
            for n in edge_idxs:
                out.extend(frag.realizations[edge_letter[n]])
            return out

        prefix = expand(witness.access)
        period = expand(witness.cycle)
        if self.determinized is not self.original:
            # map materialized edge letters back to input letters
            prefix = [_original_letter(self.original, self.determinized, a) for a in prefix]
            period = [_original_letter(self.original, self.determinized, a) for a in period]
        return LassoWord(tuple(prefix), tuple(period))


def _pumps_for(star: StarWitness, t: Threshold, k: int) -> int:
    """Enough cycle turns for the pumped word's average dip to pass t.

    The pumped slaves' values land within the first few returned values, so
    the dip is at least the pumped sum divided by a count bounded by the
    access length plus k; scaling by k + 2 leaves ample margin.
    """
    need = -t.value if t.value < 0 else Fraction(0)
    per_turn = -star.j_sum
    return max(8, int(need * (k + 2) // per_turn) + 8)


def _original_letter(original: Nwa, determinized: Nwa, letter: str) -> str:
    table = determinized.__dict__.get("letter_projection", {})
    return table.get(letter, letter)


def _ratio_graph(frag: SilentLimAvgAutomaton) -> RatioGraph:
    edges = []
    for src, letter, dst, weight in frag.edges:
        if weight is None:
            edges.append((src, dst, 0, 0))
        else:
            edges.append((src, dst, weight, 1))
    return RatioGraph(
        n_nodes=frag.n_states,
        edges=tuple(edges),
        initials=frozenset({frag.initial}),
        accepting=frag.accepting,
    )


def emptiness(nwa: Nwa, k: int, t: Threshold) -> tuple[bool, Certificate]:
    """Is there a word with value <= t (or < t when strict)?"""
    return Pipeline(nwa, k).emptiness(t)


def infimum(nwa: Nwa, k: int) -> tuple[ValueResult, Certificate]:
    """Exact infimum over all words, with a certificate."""
    return Pipeline(nwa, k).infimum()


def mirror(nwa: Nwa) -> Nwa:
    """Negate every slave's effective weights; Sum+ slaves become Sum slaves
    over the negated absolute values so that word values flip sign exactly."""
    slaves = []
    for sl in nwa.slaves:
        base = sl.base
        flipped = tuple(
            (q, a, q2, -sl.effective_weight(w)) for q, a, q2, w in base.transitions
        )
        slaves.append(
            WeightedAutomaton(
                LabeledAutomaton(
                    alphabet=base.alphabet,
                    n_states=base.n_states,
                    state_names=base.state_names,
                    initials=base.initials,
                    transitions=flipped,
                    accepting=base.accepting,
                ),
                ValueFn.SUM,
            )
        )
    return Nwa(nwa.master, tuple(slaves), nwa.master_value_fn, nwa.name + ".mirror" if nwa.name else "")


def universality_deterministic(nwa: Nwa, k: int, t: Threshold) -> bool:
    """No word has value above the threshold.

    Decided by mirroring the weights, flipping the threshold and strictness,
    and negating the emptiness verdict. Negating weights turns the liminf
    into a limsup, so in general this decides the limsup variant of the
    complement; the two agree on ultimately periodic words.
    """
    ok, site = is_deterministic(nwa)
    if not ok:
        from .core import NondeterministicInputError

        raise NondeterministicInputError(site or "universality needs a deterministic automaton")
    flipped = Threshold(-t.value, not t.strict)
    answer, _ = emptiness(mirror(nwa), k, flipped)
    return not answer

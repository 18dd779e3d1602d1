"""Nested weighted automata of bounded width: exact lasso evaluation, width
checking, the negative-descent test, reduction to mean-payoff cycle analysis,
and threshold emptiness/universality decisions."""

from .core import (
    Alphabet,
    LabeledAutomaton,
    LassoWord,
    NEG_INFINITY,
    Nwa,
    NwaError,
    PLUS_INFINITY,
    Threshold,
    ValueFn,
    ValueResult,
    WeightedAutomaton,
    is_deterministic,
    limavg_periodic,
    validate_nwa,
)
from .decide import Pipeline, emptiness, infimum, universality_deterministic
from .mca import Instr, Mca, evaluate_lasso_mca, mca_to_nwa, nwa_to_mca, validate_mca
from .oracle import enumerate_lasso_infimum, evaluate_lasso, min_partial_average, run_values
from .reduce import reduce_width1
from .starcond import StarWitness, check_star_condition, pump_witness
from .width import has_width, minimal_width

__all__ = [name for name in dir() if not name.startswith("_")]

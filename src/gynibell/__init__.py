"""Multipartite Bell inequalities with no quantum advantage.

Exact classical / no-signaling / time-ordered-bilocal bounds by rational
linear programming, facet certification, unextendible product bases, and
the associated entanglement witnesses and bound-entangled states.
"""

from .core import (
    BellExpression,
    Box,
    DeterministicStrategy,
    InputDistribution,
    Scenario,
    Symmetry,
    bell_value,
    binary_scenario,
    box_from_strategy,
    enumerate_deterministic_strategies,
    is_nonsignaling,
    lift_box,
    mix_boxes,
    postselect,
)
from .lp import LPProblem, LPResult, Rows, feasible_point, make_problem, solve
from .polytope import (
    FacetReport,
    classical_max,
    facet_check,
    local_membership,
    ns_max,
    polytope_dimension,
    tobl_max,
)
from .gyni import (
    GyniGame,
    classical_bound_formula,
    gyni_expression,
    gyni_sum_expression,
    orthogonality_certificate,
    parity_promise,
    uniform_promise,
)
from .upb import (
    AmbiguousSubsetsError,
    ProductVectorSet,
    UpbVerdict,
    bell_from_set,
    build_local_sets,
    build_local_subsets,
    check_local_independence,
    four_partite_tight_inequality,
    gen_shifts,
    is_upb,
    is_wupb,
    niset_cerf,
    shifts,
    tiles,
    tiles_set,
    wupb_example,
)
from .witness import (
    HermitianOp,
    WitnessReport,
    epsilon_min,
    epsilon_min_restricted,
    is_ppt,
    measure_operator,
    partial_transpose,
    projector_onto_span,
    witness_and_state,
)

__version__ = "0.1.0"

"""Cone-type automata of hyperbolic triangle groups and two-sided
spectral-radius bounds, the upper one exactly certified, for the simple
random walk on their Cayley graphs."""

from .automaton import (
    ConeTypeAutomaton,
    ReducedAutomaton,
    automaton_from_json,
    automaton_to_json,
    check_on_ball,
    extract_automaton,
    reduce_automaton,
    theorem_case,
    to_digraph_dot,
    types_on_ball,
)
from .coxeter import CayleyBall, GroupParams, build_ball, new_params
from .errors import (
    ConeTypesError,
    HorizonExceedsBall,
    IdentificationAmbiguity,
    InvalidParameter,
    MemoryCap,
    MultipleTerminalSCCs,
    NonHyperbolic,
    NotConverged,
    NotPrimitive,
    SchemaError,
    VerificationFailed,
    ZeroPredecessor,
)
from .lower import LowerBoundResult, lower_bound, perron, symmetrize, tilde_matrix
from .oracle import empirical_envelope, return_probabilities
from .pipeline import (
    BoundReport,
    RunConfig,
    curvature,
    report_to_csv_row,
    report_to_json,
    run_from_automaton,
    run_group,
    run_table,
    table_params,
    table_to_csv,
    table_to_markdown,
)
from .upper import (
    Diverged,
    TreeWalkSpec,
    UpperBoundResult,
    default_root_type,
    first_return_value,
    fold_point,
    is_below_least,
    is_post_fixed_point,
    minimal_fixed_point,
    tree_walk_spec,
    upper_bound,
)

__version__ = "0.1.0"

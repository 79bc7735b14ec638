"""Cone-type automata of hyperbolic triangle groups and certified
spectral-radius bounds for the simple random walk on their Cayley graphs."""

from .automaton import (
    ConeTypeAutomaton,
    ReducedAutomaton,
    TruncatedCone,
    VerificationReport,
    automaton_from_json,
    automaton_to_json,
    cones_isomorphic,
    extract_automaton,
    reduce_automaton,
    sphere_type_census,
    theorem_case,
    to_digraph_dot,
    truncated_cone,
    verify_counts,
)
from .certificate import (
    CertificateReport,
    MultiPoly,
    RootInterval,
    UnivariateCandidateSet,
    candidate_set,
    certify,
    discriminant,
    eliminate,
    real_positive_roots,
    resultant,
    system_polynomials,
)
from .coxeter import (
    CayleyBall,
    GroupParams,
    ReflectionRep,
    build_ball,
    free_reduce,
    new_params,
    reflection_rep,
    tits_equal,
)
from .errors import (
    CapExceeded,
    ConeTypesError,
    DepthExceedsBall,
    HorizonExceedsBall,
    IdentificationAmbiguity,
    Infeasible,
    InvalidParameter,
    InvalidRoot,
    MemoryCap,
    MultipleTerminalSCCs,
    NoMatchingCandidate,
    NonDeterministic,
    NonHyperbolic,
    NotConverged,
    NotPrimitive,
    NotStabilized,
    SchemaError,
    VerificationFailed,
    ZeroPredecessor,
    ZeroResultant,
)
from .lower import LowerBoundResult, lower_bound, perron, symmetrize, tilde_matrix
from .oracle import (
    ReturnSeries,
    empirical_envelope,
    return_probabilities,
    tree_return_series,
)
from .pipeline import (
    BoundReport,
    RunConfig,
    curvature,
    extract_escalating,
    report_to_csv_row,
    report_to_json,
    run_from_automaton,
    run_group,
    run_table,
    table_params,
    table_to_csv,
    table_to_markdown,
)
from .ring import CosineRing, minpoly_2cos, reflection_tensors
from .upper import (
    Diverged,
    FixedPointSolution,
    TreeWalkSpec,
    UpperBoundResult,
    critical_radius,
    default_root_type,
    first_return_value,
    fold_point,
    minimal_fixed_point,
    tree_walk_spec,
    upper_bound,
)

__version__ = "0.1.0"

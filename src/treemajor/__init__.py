"""treemajor: the majorization order on degree sequences of trees.

Exact comparison of degree sequences under prefix-sum dominance, Lorenz
curves as rational polylines, unit-transfer planning between comparable
sequences, degree-constrained branch moves on explicit trees, constructive
realization of feasible sequences, enumeration of all tree classes at small
n, and exhaustive verification of the order/reachability theory with
machine-checkable certificates.
"""

from .errors import (
    BoundExceeded,
    DegreeRuleViolation,
    DonorIsLeaf,
    DonorWouldVanish,
    InvalidPlan,
    LengthMismatch,
    NonPositiveDegree,
    NotConnected,
    NotMajorized,
    NotTreeFeasible,
    ParseError,
    SameRank,
    TreeMajorError,
    WouldDisconnect,
)
from .sequences import (
    CONVEX_TEST_FAMILY,
    ComparisonResult,
    DeltaSequence,
    LorenzCurve,
    compare,
    convex_functional,
    format_sequence,
    lorenz_curve,
    majorization_gap,
    parse_sequence,
    prefix_sums,
    validate_tree_sequence,
)
from .transfers import (
    TransferPlan,
    TransferStep,
    basic_transfer,
    format_plan,
    plan_from_dict,
    plan_to_dict,
    plan_transfers,
    replay,
)
from .trees import (
    Branch,
    CanonicalCode,
    Graph,
    Tree,
    apply_moves,
    branch_members,
    branches_at,
    canonical_code,
    chain,
    complete_graph,
    cycle_graph,
    delta_sequence,
    format_tree,
    is_isomorphic,
    legal_moves,
    move_branch,
    parse_tree,
    star,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
)
from .realize import (
    MoveTrace,
    format_trace,
    parse_trace,
    realize_direct,
    realize_from_chain,
    replay_plan_on_tree,
    trace_from_dict,
    trace_to_dict,
)
from .enumeration import (
    CENSUS_MAX_NODES,
    MAX_NODES,
    delta_census,
    enumerate_trees,
    tree_from_prufer,
    trees_with_delta,
)
from .verify import (
    DEFAULT_SEED,
    REACHABILITY_MAX_NODES,
    OrderReport,
    ReachabilityCertificate,
    certify_reachability,
    check_certificate,
    check_total_order,
    closure_is_closed,
    covering_relations,
    find_move_trace,
    find_unreachable_pair,
    hasse_diagram,
    random_connected_graph,
    reachability_closure,
    reachable_classes,
    standard_graph_suite,
    verify_chain_minimality,
    verify_convex_monotonicity,
    verify_majorization_reachability,
)

__version__ = "0.1.0"

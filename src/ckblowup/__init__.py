"""Transversal cycle tilings of cyclically structured multipartite graphs.

A graph here has k parts of equal size n with edges only between
cyclically consecutive parts.  The package provides exact searches for
maximum transversal cycle tilings and minimum covers, extremal
constructions, a three-part move machine that reaches a near factor
under summed degree hypotheses, a randomized absorption pipeline for
full factors above the asymptotic threshold, and exact-arithmetic
certificates for the inequality systems behind the counting steps.
"""

from .core import (
    JSON_FORMAT,
    BlowupGraph,
    DegreeProfile,
    PreconditionError,
    VertexRef,
    build_graph,
    degree_profile,
    graph_from_json,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json,
    graph_to_json_dict,
    part_after,
    part_before,
    validate_cycle,
    validate_tiling,
)
from .matching import max_matching_matrix
from .generators import (
    CoverExample,
    complete_blowup,
    cover_example,
    haggkvist_example,
    random_min_degree,
)
from .exact import (
    CoverResult,
    InfeasibleSizeError,
    LinkedResult,
    MaxTilingResult,
    cover_number,
    has_factor,
    is_cover,
    is_linked,
    linking_pattern,
    max_tiling,
    path_linking_count,
    union_linking_bits,
)
from .swap3 import (
    CounterexampleError,
    LabeledTiling,
    Labeling,
    NearFactorResult,
    near_factor3,
    relabel_abc,
)
from .constructive import (
    AbsorberSet,
    FactorResult,
    Gadget,
    PoolConditionError,
    RoundResult,
    StageFailure,
    asymp_factor,
    build_absorber,
    round_tiling,
)
from .inequality import (
    ALL_SYSTEMS,
    Certificate,
    Constraint,
    DepthExhaustedError,
    FeasiblePoint,
    GridScanResult,
    System,
    certify_infeasible,
    grid_scan,
    lemma_system,
)

__version__ = "0.1.0"

__all__ = [
    "JSON_FORMAT",
    "BlowupGraph",
    "DegreeProfile",
    "PreconditionError",
    "VertexRef",
    "build_graph",
    "degree_profile",
    "graph_from_json",
    "graph_from_json_dict",
    "graph_to_dot",
    "graph_to_json",
    "graph_to_json_dict",
    "part_after",
    "part_before",
    "validate_cycle",
    "validate_tiling",
    "max_matching_matrix",
    "CoverExample",
    "complete_blowup",
    "cover_example",
    "haggkvist_example",
    "random_min_degree",
    "CoverResult",
    "InfeasibleSizeError",
    "LinkedResult",
    "MaxTilingResult",
    "cover_number",
    "has_factor",
    "is_cover",
    "is_linked",
    "linking_pattern",
    "max_tiling",
    "path_linking_count",
    "union_linking_bits",
    "CounterexampleError",
    "LabeledTiling",
    "Labeling",
    "NearFactorResult",
    "near_factor3",
    "relabel_abc",
    "AbsorberSet",
    "FactorResult",
    "Gadget",
    "PoolConditionError",
    "RoundResult",
    "StageFailure",
    "asymp_factor",
    "build_absorber",
    "round_tiling",
    "ALL_SYSTEMS",
    "Certificate",
    "Constraint",
    "DepthExhaustedError",
    "FeasiblePoint",
    "GridScanResult",
    "System",
    "certify_infeasible",
    "grid_scan",
    "lemma_system",
    "__version__",
]

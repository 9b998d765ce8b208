"""Exact graph-engineering toolkit around maximal odd-book-free graphs.

An (s, k) odd book is the graph formed by s odd cycles of length 2k+1 all
sharing one common edge.  The package builds the dense block construction
whose minimum member avoids the pattern, verifies freeness and maximality
exhaustively, solves maximum induced complete bipartite subgraphs exactly,
and runs the vertex-deletion pipeline that extracts a large induced
complete bipartite core from a maximal pattern-free graph.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    GraphFormatError,
    decode_graph6,
    encode_graph6,
    induced_subgraph,
)
from .pattern import OddBook, build_odd_book, is_color_critical_edge
from .construction import (
    BlockLayout,
    ConstructionResult,
    DigitParams,
    LayoutInfeasibleError,
    build_min_member,
    certify_structure,
    digit,
    edge_bound_check,
    plan_layout,
)
from .freeness import (
    NotBookFreeError,
    NotMaximalError,
    Witness,
    find_book_at_edge,
    find_book_using_edge,
    is_book_free,
    is_maximal_book_free,
    saturate,
    validate_witness,
)
from .bipartite import (
    Biclique,
    BicliqueSearch,
    CorePartition,
    build_uvt_partition,
    find_long_path,
    find_parity_path,
    max_induced_complete_bipartite,
    truncate_into_disjoint_paths,
    validate_biclique,
)
from .stability import (
    ClassifiedNonEdge,
    DeletionTrace,
    NonEdgeClass,
    bound_report,
    classify_non_edge,
    deletion_pipeline,
)

__all__ = [
    "Graph",
    "GraphFormatError",
    "decode_graph6",
    "encode_graph6",
    "induced_subgraph",
    "OddBook",
    "build_odd_book",
    "is_color_critical_edge",
    "BlockLayout",
    "ConstructionResult",
    "DigitParams",
    "LayoutInfeasibleError",
    "build_min_member",
    "certify_structure",
    "digit",
    "edge_bound_check",
    "plan_layout",
    "NotBookFreeError",
    "NotMaximalError",
    "Witness",
    "find_book_at_edge",
    "find_book_using_edge",
    "is_book_free",
    "is_maximal_book_free",
    "saturate",
    "validate_witness",
    "Biclique",
    "BicliqueSearch",
    "CorePartition",
    "build_uvt_partition",
    "find_long_path",
    "find_parity_path",
    "max_induced_complete_bipartite",
    "truncate_into_disjoint_paths",
    "validate_biclique",
    "ClassifiedNonEdge",
    "DeletionTrace",
    "NonEdgeClass",
    "bound_report",
    "classify_non_edge",
    "deletion_pipeline",
]

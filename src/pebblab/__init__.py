"""Oriented-graph pebbling: state graphs, isomorphism, and classification."""

from .assignment_graph import (
    DEFAULT_STATE_BUDGET,
    AssignmentGraph,
    build,
    find_downward_4_cycle,
)
from .classify import (
    ClassificationResult,
    ClassifiedPair,
    canonical_pair_key,
    classify_downward_4_cycle,
    search_isomorphic_pairs,
    state_graph_isomorphism,
)
from .errors import (
    AssignmentError,
    BidirectionalEdgeError,
    BudgetExceededError,
    DuplicateVertexError,
    EmbeddingNotFoundError,
    GraphError,
    IllegalMoveError,
    ParseError,
    PebblabError,
    SearchBudgetExceededError,
    SelfLoopError,
    StateBudgetExceededError,
    UnknownClaimError,
    UnknownEndpointError,
    UnknownVertexError,
)
from .generate import (
    enumerate_downward_trees,
    enumerate_oriented_graphs,
    random_assignment,
    random_downward_tree,
    random_oriented_graph,
)
from .graphs import (
    OrientedGraph,
    cartesian_product,
    downward_cycle,
    oriented_complete_bipartite,
    oriented_path,
)
from .iso import (
    IsoMapping,
    automorphisms,
    canonical_form,
    canonical_labeling,
    digraph_isomorphic,
    find_induced_undirected_embedding,
    find_oriented_subgraph,
    undirected_isomorphic,
    verify_mapping,
)
from .pebbling import (
    Assignment,
    heavy_step_assignment,
    near_sink_assignment,
    path_vertex_order,
    product_assignment,
    simple_assignment,
    tree_assignment,
)
from .textio import format_assignment, format_graph, parse_graph_text
from .theorems import (
    BUDGET_EXCEEDED,
    CLAIM_IDS,
    COUNTEREXAMPLE,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    VerificationReport,
    check_thm_2_1,
    construct_thm_8_1,
    replay,
    run_claim,
    verify_cor_1_1,
    verify_cor_1_2,
    verify_cor_2_1,
    verify_cor_7_1,
    verify_lemma_7_1,
    verify_lemma_7_1_sweep,
    verify_lemma_7_2,
    verify_lemma_7_2_sweep,
    verify_prop_1_1,
    verify_sec_6,
    verify_thm_2_2,
    verify_thm_3_1,
    verify_thm_4_1,
    verify_thm_5_1,
    verify_thm_5_1_batch,
    verify_thm_7_1,
    verify_thm_7_1_sweep,
    verify_thm_7_2,
)

__version__ = "0.1.0"

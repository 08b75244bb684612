"""Edge-identifying codes: exact search, bounds, families, reductions.

An edge-identifying code of a graph G is an edge subset C such that
every edge has a nonempty, pairwise distinct trace N[e] ∩ C, where N[e]
collects e and the edges sharing an endpoint with it.  Equivalently, C
is an identifying code of the line graph of G.
"""

from .bounds import (
    BoundEntry,
    BoundsReport,
    bounds_report,
    connected_code_max_edges,
    half_order_lower,
    log_lower,
    max_edges_for_code_size,
    min_code_for_edges,
    sqrt_lower_ceiling,
    upper_bounds,
)
from .families import (
    FamilyInstance,
    claw_free_example,
    extremal_low1,
    hypercube_matching,
    jk_graph,
    known_code,
    standard_graph,
    subdivided_regular_code,
)
from .graph_core import (
    EdgeSet,
    FormatError,
    Graph,
    GraphBuilder,
    Multigraph,
    RejectedInput,
    closed_edge_neighborhood,
    connected_components,
    girth,
    induced_by_edges,
    is_bipartite,
    is_k_degenerate,
    line_graph,
    pendant_pairs,
    read_code_file,
    read_edge_list,
    read_multigraph,
    subdivide_once,
    twin_pairs,
    write_edge_list,
)
from .identify import VerifyReport, verify_edge_code, verify_vertex_code
from .reduction import (
    ReductionInstance,
    SatFormula,
    assignment_to_code,
    attach_p_gadget,
    build_reduction,
    build_reduction_girth,
    code_to_assignment,
    read_dimacs,
    validate_formula,
)
from .solver import (
    SolveOptions,
    SolveResult,
    approx_edge_code,
    min_edge_code,
    min_vertex_code,
    shrink_to_minimal,
)

__version__ = "0.1.0"

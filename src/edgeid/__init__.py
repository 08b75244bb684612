"""Edge-identifying codes: exact search, bounds, families, reductions.

An edge-identifying code of a graph G is an edge subset C such that
every edge has a nonempty, pairwise distinct trace N[e] ∩ C, where N[e]
collects e and the edges sharing an endpoint with it.  Equivalently, C
is an identifying code of the line graph of G.

The public names below are loaded on first access (PEP 562), so
``import edgeid`` imports no submodule and a caller pays only for the
modules it uses.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundEntry", "BoundsReport", "bounds_report", "connected_code_max_edges",
        "half_order_lower", "log_lower", "max_edges_for_code_size",
        "min_code_for_edges", "sqrt_lower_ceiling", "upper_bounds",
    ),
    "families": (
        "FamilyInstance", "claw_free_example", "extremal_low1", "hypercube_matching",
        "jk_graph", "known_code", "standard_graph", "subdivide_once",
        "subdivided_regular_code",
    ),
    "graph_core": (
        "EdgeSet", "FormatError", "Graph", "GraphBuilder", "Multigraph",
        "RejectedInput", "connected_components", "line_graph", "pendant_pairs",
        "read_code_file", "read_edge_list", "read_multigraph", "write_edge_list",
    ),
    "identify": ("VerifyReport", "verify_edge_code", "verify_vertex_code"),
    "properties": (
        "closed_edge_neighborhood", "girth", "induced_by_edges", "is_bipartite",
        "is_k_degenerate", "twin_pairs",
    ),
    "reduction": (
        "ReductionInstance", "SatFormula", "assignment_to_code", "attach_p_gadget",
        "build_reduction", "build_reduction_girth", "code_to_assignment",
        "read_dimacs", "validate_formula",
    ),
    "solver": (
        "SolveOptions", "SolveResult", "approx_edge_code", "min_edge_code",
        "min_vertex_code", "shrink_to_minimal",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCE))

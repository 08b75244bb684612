"""Exact and approximate solvers for edge-identifying codes.

The exact solver turns a code search into an exact-size hitting-set
problem.  A set of edges is an edge-identifying code iff it intersects
the closed neighborhood of every edge (domination) and the symmetric
difference of every pair of closed neighborhoods (separation).  Pairs
with disjoint neighborhoods are separated by domination alone, so only
intersecting pairs contribute constraints.

Search runs at a fixed size k, starting from an analytic lower bound and
growing k until a hit.  The first success is therefore an optimum, and
within each size the kernel returns the lexicographically least code.
A node budget caps the total work; runs that exhaust it fall back to a
verified hint when one was supplied.
"""

from dataclasses import dataclass

from ._search import ConstraintSystem, search_exact_size
from .bounds import log_lower, solver_lower_bound
from .graph_core import (EdgeSet, RejectedInput, bits, mask_of, pendant_pairs,
                         vertex_closed_masks)
from .identify import verify_edge_code, verify_vertex_code

DEFAULT_BUDGET = 10**8

STATUS_OPTIMAL = "Optimal"
STATUS_FEASIBLE = "Feasible"
STATUS_INFEASIBLE = "Infeasible"
STATUS_BUDGET = "BudgetExhausted"


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the exact solvers.

    ``upper_hint`` is a known code (edge indices for ``min_edge_code``,
    vertex indices for ``min_vertex_code``).  It caps the search: sizes
    below it are refuted one by one, and if all are refuted the hint is
    returned as optimal.
    """

    budget: int = DEFAULT_BUDGET
    upper_hint: object = None


@dataclass(frozen=True)
class SolveResult:
    status: str
    code: object = None
    size: object = None
    lower_bound_used: object = None
    nodes_used: int = 0


def _constraints_from_masks(masks):
    """Domination and separation constraints of a closed-neighborhood system.

    Only pairs whose masks intersect give a separation constraint.  Since
    ``j`` is in ``masks[x]`` exactly when ``x`` is in ``masks[j]``, the
    partners of ``i`` are the two-hop reach of ``i`` above index ``i``.
    """
    cons = set(masks)
    for i, mi in enumerate(masks):
        reach = 0
        for x in bits(mi):
            reach |= masks[x]
        shift = i + 1
        for j in bits(reach >> shift):
            d = mi ^ masks[j + shift]
            if d == 0:
                raise ValueError("universe contains twins")
            cons.add(d)
    return sorted(cons)


def _solve_masks(universe, masks, lower, budget, hint_mask, hint_len):
    """Shared size sweep.  Returns ``(status, mask, size, bound_used, nodes)``.

    The sweep starts at ``lower``, a ``(value, name)`` analytic bound.  The
    caller has excluded twins and verified the hint.  Without a hint the
    sweep is capped at the full universe, which is always a code here, so
    it cannot fall through.  Constraints are built and prepared for the
    kernel on the first search, once for every size, so a hint that the
    lower bound already certifies costs no build.
    """
    start, name = lower
    bound_used = (name, start)
    system = None
    cap = hint_len - 1 if hint_mask is not None else universe
    nodes_total = 0
    for k in range(start, cap + 1):
        remaining = budget - nodes_total
        if remaining <= 0:
            break
        if system is None:
            system = ConstraintSystem(universe, _constraints_from_masks(masks))
        found, mask, nodes, exhausted = search_exact_size(
            universe, system, k, remaining
        )
        nodes_total += nodes
        if found:
            return STATUS_OPTIMAL, mask, k, bound_used, nodes_total
        if exhausted:
            break
    else:
        if hint_mask is not None:
            return STATUS_OPTIMAL, hint_mask, hint_len, bound_used, nodes_total
        raise RuntimeError("size sweep fell through without a code")
    # the budget ran out before the sweep finished
    if hint_mask is not None:
        return STATUS_FEASIBLE, hint_mask, hint_len, None, nodes_total
    return STATUS_BUDGET, None, None, None, nodes_total


def min_edge_code(g, options=None):
    """Minimum edge-identifying code of ``g``.

    Returns a SolveResult whose ``code`` is an EdgeSet on success.  The
    graph admits no code exactly when it has a pendant pair, reported as
    Infeasible.  With default options the returned code is the
    lexicographically least optimum by edge index.
    """
    opts = options if options is not None else SolveOptions()
    if g.m == 0:
        return SolveResult(STATUS_OPTIMAL, EdgeSet.from_indices(g, ()), 0, None, 0)
    if pendant_pairs(g):
        return SolveResult(STATUS_INFEASIBLE)
    hint_mask = None
    hint_len = 0
    if opts.upper_hint is not None:
        hint = opts.upper_hint
        if not isinstance(hint, EdgeSet):
            hint = EdgeSet.from_indices(g, hint)
        hint.check_owner(g)
        if not verify_edge_code(g, hint).is_code:
            raise RejectedInput("upper_hint is not an edge-identifying code")
        hint_mask = hint.mask
        hint_len = len(hint)
    status, mask, size, bound_used, nodes = _solve_masks(
        g.m, g.all_edge_masks(), solver_lower_bound(g), opts.budget,
        hint_mask, hint_len
    )
    code = EdgeSet(g.fingerprint, mask) if mask is not None else None
    return SolveResult(status, code, size, bound_used, nodes)


def min_vertex_code(g, options=None):
    """Minimum identifying code of ``g`` on vertices.

    Same sweep as the edge solver over vertex closed neighborhoods.
    Twins (vertices with equal closed neighborhoods) make the instance
    Infeasible.  ``code`` is a sorted tuple of vertices on success.
    """
    opts = options if options is not None else SolveOptions()
    if g.n == 0:
        return SolveResult(STATUS_OPTIMAL, (), 0, None, 0)
    masks = vertex_closed_masks(g)
    if len(set(masks)) < g.n:
        return SolveResult(STATUS_INFEASIBLE)
    hint_mask = None
    hint_len = 0
    if opts.upper_hint is not None:
        hint_mask = mask_of(opts.upper_hint, g.n)
        if not verify_vertex_code(g, bits(hint_mask)).is_code:
            raise RejectedInput("upper_hint is not an identifying code")
        hint_len = hint_mask.bit_count()
    status, mask, size, bound_used, nodes = _solve_masks(
        g.n, masks, (log_lower(g.n), "log-universe"), opts.budget,
        hint_mask, hint_len
    )
    code = tuple(bits(mask)) if mask is not None else None
    return SolveResult(status, code, size, bound_used, nodes)


def shrink_to_minimal(g, code):
    """Drop edges from a code until it is minimal under inclusion.

    One ascending pass over the indices suffices: the working set only
    ever shrinks, so an edge that cannot be dropped at its turn cannot
    become droppable later.  Raises ValueError if ``code`` is not a code.
    """
    if not isinstance(code, EdgeSet):
        code = EdgeSet.from_indices(g, code)
    code.check_owner(g)
    if not verify_edge_code(g, code).is_code:
        raise ValueError("not an edge-identifying code")
    masks = g.all_edge_masks()
    mask = code.mask
    traces = [mk & mask for mk in masks]
    seen = set(traces)
    for i in code.indices():
        # Dropping i changes only the traces of N[i], each by losing bit i.
        # The old traces all hold bit i and the new ones do not, so the
        # drop keeps a code iff no new trace is empty or already present.
        bit = 1 << i
        near = bits(masks[i])
        dropped = [traces[j] ^ bit for j in near]
        if all(t and t not in seen for t in dropped):
            for j, t in zip(near, dropped):
                seen.discard(traces[j])
                seen.add(t)
                traces[j] = t
            mask ^= bit
    return EdgeSet(g.fingerprint, mask)


def approx_edge_code(g):
    """Minimal edge-identifying code found by shrinking the full edge set.

    On pendant-free graphs the result is at most four times optimal: each
    component holds at least half its order as a lower bound, while a
    minimal code never exceeds twice the order less three.  Raises
    RejectedInput when no code exists.
    """
    if pendant_pairs(g):
        raise RejectedInput("graph has a pendant pair, no edge-identifying code exists")
    return shrink_to_minimal(g, EdgeSet.full(g))

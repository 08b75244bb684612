"""Exact and approximate solvers for edge-identifying codes.

The exact solver turns a code search into an exact-size hitting-set
problem.  A set of edges is an edge-identifying code iff it intersects
the closed neighborhood of every edge (domination) and the symmetric
difference of every pair of closed neighborhoods (separation).  Pairs
with disjoint neighborhoods are separated by domination alone, so only
intersecting pairs contribute constraints.

Every code holds the position of a singleton constraint.  These forced
positions are split off first: the constraints they hit are dropped, the
positions left in some constraint are renumbered in order, and the
search runs on that residual with the bound and the cap lowered by the
forced count.  Renumbering keeps the order of positions, so the forced
set plus the residual's lex-least optimum is the lex-least optimum.  On
reduction instances this removes about a third of the edges and most of
the constraints; graphs without a singleton are searched as they are.

The residual goes to ``_search.least_optimum``, which returns its
lex-least optimum up to the cap by Russian-doll search: exact suffix
optima first, then at most two sizes of the whole residual (see
``_search``).  A node budget caps the total work; runs that exhaust it
fall back to a verified hint when one was supplied.

The kernel and the bounds are imported where they are first used, so
``approx_edge_code`` loads neither and a solve whose hint the lower
bound certifies loads no kernel.
"""

from collections import namedtuple

from .graph_core import (EdgeSet, RejectedInput, bits, mask_of, pendant_pairs,
                         vertex_closed_masks)
from .identify import verify_edge_code, verify_vertex_code

DEFAULT_BUDGET = 10**8

STATUS_OPTIMAL = "Optimal"
STATUS_FEASIBLE = "Feasible"
STATUS_INFEASIBLE = "Infeasible"
STATUS_BUDGET = "BudgetExhausted"


class SolveOptions(namedtuple("SolveOptions", "budget upper_hint",
                               defaults=(DEFAULT_BUDGET, None))):
    """Knobs for the exact solvers.

    ``upper_hint`` is a known code (edge indices for ``min_edge_code``,
    vertex indices for ``min_vertex_code``).  Only sizes below it are
    searched, and if every one is refuted the hint is returned as optimal.

    ``budget`` caps search nodes only, over every search of a solve.  It
    does not bound the preparation before the first node: the constraint
    build grows faster than the number of constraints, and a solve on the
    plain loop builds the automorphism group of the positions at its
    first search.  K_25's 45,150 constraints take about 0.10 s to build,
    most of a 2,000-node solve of about 0.10 s, and its group, found on
    its 25 vertices and lifted to its 300 edges, about 0.003 s (0.026 s
    on the line graph; best of 9 in-process runs on one core of a 2-core
    Xeon, Python 3.11).  A group build that finds nothing costs most: on
    the random Latin-square graphs of order 9 measured (81 vertices, 972
    edges, no automorphism but the identity) it spends its whole budget
    of 648 refinements in about 0.09 s (best of 3, same host).
    """

    __slots__ = ()


class SolveResult(namedtuple("SolveResult",
                             "status code size lower_bound_used nodes_used",
                             defaults=(None, None, None, 0))):
    __slots__ = ()


def _constraints_from_masks(masks):
    """Domination and separation constraints of a closed-neighborhood system.

    Only pairs whose masks intersect give a separation constraint.  Since
    ``j`` is in ``masks[x]`` exactly when ``x`` is in ``masks[j]``, the
    partners of ``i`` are the two-hop reach of ``i`` above index ``i``.
    """
    cons = set(masks)
    for i, mi in enumerate(masks):
        reach = 0
        rest = mi
        while rest:
            low = rest & -rest
            rest ^= low
            reach |= masks[low.bit_length() - 1]
        # the partners j > i, each read off its bit 1 << (j - i - 1)
        rest = reach >> i + 1
        while rest:
            low = rest & -rest
            rest ^= low
            d = mi ^ masks[low.bit_length() + i]
            if d == 0:
                raise ValueError("universe contains twins")
            cons.add(d)
    return sorted(cons)


def _strip_forced(universe, constraints):
    """Split off the positions that singleton constraints force.

    Every code holds a singleton's position, so the forced set ``F`` is
    in every code, and the constraints that meet it need nothing more.  The
    rest is a residual system over the positions still in some
    constraint, renumbered in ascending order: the codes of size ``k``
    are ``F`` plus the residual solutions of size ``k - |F|``, and the
    renumbering keeps their lexicographic order.  Returns ``(forced,
    residual constraints, positions)``, where ``positions[i]`` is the
    position that residual position ``i`` stands for.  When nothing is
    forced, the constraints come back as they are.
    """
    forced = 0
    for c in constraints:
        if c & (c - 1) == 0:
            forced |= c
    if not forced:
        return 0, constraints, range(universe)
    rest = [c for c in constraints if not c & forced]
    live = 0
    for c in rest:
        live |= c
    positions = bits(live)
    index = {q: i for i, q in enumerate(positions)}
    rest = [sum(1 << index[q] for q in bits(c)) for c in rest]
    return forced, rest, positions


def _solve_masks(universe, masks, lower, budget, hint_mask, graph):
    """Shared exact solve.  Returns ``(status, mask, size, bound_used, nodes)``.

    ``lower`` is a ``(value, name)`` analytic bound.  The caller has
    excluded twins and verified the hint.  Without a hint the cap is the
    full universe, which is always a code here, so the search cannot
    come back empty.  Constraints are built only when a search is due,
    so a hint that the lower bound already certifies costs no build.
    The forced positions are split off first, and the residual is
    searched with the bound and the cap lowered by their count; an
    empty residual needs no search.  The residual goes with ``graph``
    and its positions, ``graph`` being the ``Graph`` whose edges the
    positions are or the closed neighbourhoods ``masks`` of the vertices
    they are: the plain loop bans by its automorphisms, each of which
    maps the forced positions, and so the residual, onto themselves.
    """
    start, name = lower
    bound_used = (name, start)
    cap = hint_mask.bit_count() - 1 if hint_mask is not None else universe
    mask, nodes, exhausted = None, 0, False
    if start <= cap:
        forced, rest, positions = _strip_forced(
            universe, _constraints_from_masks(masks)
        )
        size = forced.bit_count()
        if not rest:
            mask = forced if size <= cap else None
        elif size < cap:  # the residual needs at least one more position
            from ._search import least_optimum

            sub, nodes, exhausted = least_optimum(
                rest, (graph, positions), start - size, cap - size, budget)
            if sub is not None:
                mask = forced | sum(1 << positions[i] for i in bits(sub))
    if mask is not None:
        return STATUS_OPTIMAL, mask, mask.bit_count(), bound_used, nodes
    if not exhausted:
        if hint_mask is None:
            raise RuntimeError("size sweep fell through without a code")
        return STATUS_OPTIMAL, hint_mask, hint_mask.bit_count(), bound_used, nodes
    if hint_mask is not None:
        return STATUS_FEASIBLE, hint_mask, hint_mask.bit_count(), None, nodes
    return STATUS_BUDGET, None, None, None, nodes


def _options(options):
    """``options``, or the defaults if None, once its budget is checked."""
    opts = options if options is not None else SolveOptions()
    if not isinstance(opts.budget, int) or opts.budget < 1:
        raise ValueError("need a positive node budget")
    return opts


def min_edge_code(g, options=None):
    """Minimum edge-identifying code of ``g``.

    Returns a SolveResult whose ``code`` is an EdgeSet on success.  The
    search starts from ``solver_lower_bound(g)``, the best lower entry of
    ``bounds_report``.  The graph admits no code exactly when it has a
    pendant pair, where that bound is None; this is reported as
    Infeasible.  With default options the returned code is the
    lexicographically least optimum by edge index.
    """
    opts = _options(options)
    if g.m == 0:
        return SolveResult(STATUS_OPTIMAL, EdgeSet.from_indices(g, ()), 0, None, 0)
    from .bounds import solver_lower_bound

    lower = solver_lower_bound(g)
    if lower is None:
        return SolveResult(STATUS_INFEASIBLE)
    hint_mask = None
    if opts.upper_hint is not None:
        hint = opts.upper_hint
        if not isinstance(hint, EdgeSet):
            hint = EdgeSet.from_indices(g, hint)
        hint.check_owner(g)
        if not verify_edge_code(g, hint).is_code:
            raise RejectedInput("upper_hint is not an edge-identifying code")
        hint_mask = hint.mask
    status, mask, size, bound_used, nodes = _solve_masks(
        g.m, g.all_edge_masks(), lower, opts.budget, hint_mask, g
    )
    code = EdgeSet(g.fingerprint, mask) if mask is not None else None
    return SolveResult(status, code, size, bound_used, nodes)


def min_vertex_code(g, options=None):
    """Minimum identifying code of ``g`` on vertices.

    Same sweep as the edge solver over vertex closed neighborhoods.
    Twins (vertices with equal closed neighborhoods) make the instance
    Infeasible.  ``code`` is a sorted tuple of vertices on success.
    """
    opts = _options(options)
    if g.n == 0:
        return SolveResult(STATUS_OPTIMAL, (), 0, None, 0)
    masks = vertex_closed_masks(g)
    if len(set(masks)) < g.n:
        return SolveResult(STATUS_INFEASIBLE)
    hint_mask = None
    if opts.upper_hint is not None:
        hint_mask = mask_of(opts.upper_hint, g.n)
        if not verify_vertex_code(g, bits(hint_mask)).is_code:
            raise RejectedInput("upper_hint is not an identifying code")
    from .bounds import log_lower

    status, mask, size, bound_used, nodes = _solve_masks(
        g.n, masks, (log_lower(g.n), "log-universe"), opts.budget, hint_mask, masks
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

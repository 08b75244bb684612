"""Verification of edge- and vertex-identifying codes.

A code C identifies a graph when every element's closed neighborhood meets C
(domination) and those intersections are pairwise distinct (separation).  For
edge codes the elements are edges and adjacency means sharing an endpoint;
for vertex codes they are vertices.  Verification groups elements by their
neighborhood trace N[.] & C, so it runs in one pass over the elements.
"""

from collections import namedtuple

from .graph_core import (bits, girth, induced_by_edges, mask_of, pendant_pairs,
                         vertex_closed_masks)

GIRTH5 = "Girth5"
TRIANGLE_FREE_NO_C4 = "TriangleFreeNoC4"
NOT_APPLICABLE = "NotApplicable"


class VerifyReport(namedtuple(
        "VerifyReport", "is_dominating is_separating undominated unseparated truncated")):
    """Outcome of a code verification.

    ``undominated`` lists elements whose neighborhood misses the code.
    ``unseparated`` lists pairs (e, f, trace) with identical nonunique
    traces; the trace is the shared N[e] & C = N[f] & C as a sorted tuple
    (empty when both elements are undominated).  Pairs are reported
    exhaustively in lexicographic order up to ``truncated``-marked cap.
    """

    __slots__ = ()

    def __new__(cls, is_dominating, is_separating, undominated=None,
                unseparated=None, truncated=False):
        # a fresh list per report: a default list would be shared by all
        return super().__new__(
            cls, is_dominating, is_separating,
            [] if undominated is None else undominated,
            [] if unseparated is None else unseparated, truncated)

    @property
    def is_code(self):
        return self.is_dominating and self.is_separating

    def to_text(self):
        lines = [
            "DOMINATING " + ("yes" if self.is_dominating else "no"),
            "SEPARATING " + ("yes" if self.is_separating else "no"),
        ]
        for e in self.undominated:
            lines.append(f"UNDOM {e}")
        for e, f, trace in self.unseparated:
            shared = " ".join(str(i) for i in trace)
            lines.append(f"UNSEP {e} {f} : {shared}".rstrip())
        if self.truncated:
            lines.append("UNSEP-TRUNCATED")
        return "\n".join(lines) + "\n"


def _verify_masks(masks, code_mask, max_pairs):
    """Shared domination/separation check over closed-neighborhood bitmasks."""
    traces = [m & code_mask for m in masks]
    undominated = [i for i, t in enumerate(traces) if t == 0]
    groups = {}
    for i, t in enumerate(traces):
        groups.setdefault(t, []).append(i)
    unseparated = []
    truncated = False
    done = False
    for i in range(len(masks)):
        if done:
            break
        members = groups[traces[i]]
        if len(members) == 1:
            continue
        for j in members:
            if j <= i:
                continue
            if len(unseparated) >= max_pairs:
                truncated = True
                done = True
                break
            unseparated.append((i, j, tuple(bits(traces[i]))))
    return VerifyReport(
        is_dominating=not undominated,
        is_separating=not unseparated and not truncated,
        undominated=undominated,
        unseparated=unseparated,
        truncated=truncated,
    )


def verify_edge_code(g, c, max_pairs=100):
    """Check whether edge set c identifies every edge of g.

    Two edges with equal traces count as unseparated even when both traces
    are empty.  All offending pairs are reported, capped at ``max_pairs``.
    """
    c.check_owner(g)
    return _verify_masks(g.all_edge_masks(), c.mask, max_pairs)


def verify_vertex_code(g, vertices, max_pairs=100):
    """Check whether a vertex subset identifies every vertex of g."""
    return _verify_masks(vertex_closed_masks(g), mask_of(vertices, g.n), max_pairs)


def separation_witness(g, c, e, f):
    """Lowest-index code edge adjacent to exactly one of e, f; None if absent."""
    if e == f:
        raise ValueError("separation witness requires two distinct edges")
    c.check_owner(g)
    diff = (g.edge_mask(e) ^ g.edge_mask(f)) & c.mask
    if diff == 0:
        return None
    return (diff & -diff).bit_length() - 1


def cover_lemma_applicability(g, c):
    """Which sufficiency shortcut certifies c as a code, if any.

    Both require c to cover every vertex and to induce a pendant-free
    subgraph.  GIRTH5 additionally needs girth >= 5.  TRIANGLE_FREE_NO_C4
    needs g triangle-free and no two isolated code edges spanning an
    induced 4-cycle.  Returns one of the module constants.
    """
    c.check_owner(g)
    covered = set()
    for e in c:
        covered.update(g.edges[e])
    if len(covered) != g.n:
        return NOT_APPLICABLE
    sub, _ = induced_by_edges(g, c)
    if pendant_pairs(sub):
        return NOT_APPLICABLE
    gir = girth(g)
    if gir >= 5:
        return GIRTH5
    if gir == 3:
        return NOT_APPLICABLE
    # Triangle-free: check isolated code edges pairwise for induced C_4s.
    isolated = []
    for e in c:
        u, v = g.edges[e]
        if (g.edge_mask(e) & c.mask) == 1 << e:
            isolated.append((u, v))
    for i in range(len(isolated)):
        x, y = isolated[i]
        for j in range(i + 1, len(isolated)):
            u, v = isolated[j]
            straight = g.has_edge(x, u) and g.has_edge(y, v)
            crossed = g.has_edge(x, v) and g.has_edge(y, u)
            # In a triangle-free graph at most one of the two pairings can
            # be present; either one closes a C_4 and it is induced.
            if straight or crossed:
                return NOT_APPLICABLE
    return TRIANGLE_FREE_NO_C4

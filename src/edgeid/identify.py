"""Verification of edge- and vertex-identifying codes.

A code C identifies a graph when every element's closed neighborhood meets C
(domination) and those intersections are pairwise distinct (separation).  For
edge codes the elements are edges and adjacency means sharing an endpoint;
for vertex codes they are vertices.  Verification groups elements by their
neighborhood trace N[.] & C, so it runs in one pass over the elements.
"""

from collections import namedtuple

from .graph_core import bits, mask_of, vertex_closed_masks

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



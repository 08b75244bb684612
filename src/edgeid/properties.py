"""Structural checks on graphs and codes.

Bipartiteness, degeneracy, girth, twins, isomorphism, the subgraph a
code spans, separation witnesses and the applicability of the
cover-based certification lemma.  The library and the tests call these;
no subcommand does, so the command line never loads this module.
"""

import math
from itertools import combinations

from .graph_core import EdgeSet, Graph, pendant_pairs, vertex_closed_masks

GIRTH5 = "Girth5"
TRIANGLE_FREE_NO_C4 = "TriangleFreeNoC4"
NOT_APPLICABLE = "NotApplicable"


def closed_edge_neighborhood(g, e):
    """All edges sharing an endpoint with edge e, plus e itself."""
    return EdgeSet(g.fingerprint, g.edge_mask(e))


def twin_pairs(g):
    """Pairs of vertices with equal closed neighborhoods, sorted."""
    closed = vertex_closed_masks(g)
    groups = {}
    for v in range(g.n):
        groups.setdefault(closed[v], []).append(v)
    pairs = []
    for members in groups.values():
        for a, b in combinations(members, 2):
            pairs.append((a, b))
    return sorted(pairs)


def girth(g):
    """Length of a shortest cycle, or math.inf for acyclic graphs."""
    best = math.inf
    for s in range(g.n):
        dist = [-1] * g.n
        parent_edge = [-1] * g.n
        dist[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            # No cycle first seen from a can beat 2*dist[a].
            if 2 * dist[a] >= best:
                continue
            for e in g.incident_edges(a):
                u, v = g.edges[e]
                b = u if v == a else v
                if e == parent_edge[a]:
                    continue
                if dist[b] == -1:
                    dist[b] = dist[a] + 1
                    parent_edge[b] = e
                    queue.append(b)
                else:
                    cyc = dist[a] + dist[b] + 1
                    if cyc < best:
                        best = cyc
    return best


def is_bipartite(g):
    """(True, coloring) with colors 0/1, or (False, odd_cycle_vertices)."""
    color = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            a = queue[qi]
            qi += 1
            for b in g.neighbors(a):
                if color[b] == -1:
                    color[b] = 1 - color[a]
                    parent[b] = a
                    queue.append(b)
                elif color[b] == color[a]:
                    # Walk both endpoints up to the BFS root; trimming the
                    # shared tail leaves an odd cycle.
                    pa = []
                    x = a
                    while x != -1:
                        pa.append(x)
                        x = parent[x]
                    pb = []
                    x = b
                    while x != -1:
                        pb.append(x)
                        x = parent[x]
                    sb = set(pb)
                    meet = next(x for x in pa if x in sb)
                    cyc = pa[:pa.index(meet) + 1] + pb[:pb.index(meet)][::-1]
                    return False, cyc
    return True, color


def is_k_degenerate(g, k):
    """Whether g can be emptied by removing vertices of degree <= k.

    Returns (True, elimination_order) or (False, None).  The order removes
    the lowest-index qualifying vertex first, so it is deterministic.
    """
    deg = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    order = []
    for _ in range(g.n):
        pick = -1
        for v in range(g.n):
            if not removed[v] and deg[v] <= k:
                pick = v
                break
        if pick == -1:
            return False, None
        removed[pick] = True
        order.append(pick)
        for u in g.neighbors(pick):
            if not removed[u]:
                deg[u] -= 1
    return True, order


def induced_by_edges(g, s):
    """Subgraph spanned by the edges of s, with the vertex back-map.

    Returns (subgraph, old_labels) where old_labels[new_vertex] gives the
    vertex label in g.  Only endpoints of edges in s appear.
    """
    s.check_owner(g)
    used = sorted({v for e in s for v in g.edges[e]})
    back = {old: new for new, old in enumerate(used)}
    edges = [(back[g.edges[e][0]], back[g.edges[e][1]]) for e in s]
    return Graph(len(used), edges), used


def isomorphic(g1, g2):
    """Whether g1 and g2 are isomorphic (see ``symmetry.isomorphic``)."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    from .symmetry import isomorphic
    return isomorphic(vertex_closed_masks(g1), vertex_closed_masks(g2))


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

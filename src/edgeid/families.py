"""Graph families with known edge-identifying codes.

Each constructor fixes a canonical labeling so edge indices, and the
codes phrased in terms of them, are reproducible across runs:

* path(n): vertices 0..n-1, edge i joins i and i+1.
* cycle(n): edge i joins i and i+1 mod n.
* complete(n): edges in lexicographic pair order.
* complete_bipartite(a, b): left side 0..a-1, right side a..a+b-1,
  edges grouped by left endpoint.
* hypercube(d): vertices are d-bit integers, edges enumerated per vertex
  by ascending flipped bit.
* petersen: outer cycle 0..4, inner vertices 5..9 with 5+i adjacent to
  5+((i+2) mod 5), then the five spokes i to i+5.

``known_code`` pairs these graphs with explicit optimal codes where one
is known.  The remaining constructors build the special families used to
show tightness of the edge-count bounds, the subdivision construction
for regular multigraphs, and the claw-free example on which the
square-root lower bound fails.
"""

import math
from collections import namedtuple
from itertools import combinations

from .graph_core import (
    EdgeSet,
    Graph,
    GraphBuilder,
    Multigraph,
    bits,
)

STANDARD_KINDS = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "hypercube",
    "petersen",
)


class FamilyInstance(namedtuple(
        "FamilyInstance", "graph claimed_code claimed_gamma provenance code_kind",
        defaults=(None, None, "", "edge"))):
    """A constructed graph with the code and optimum claimed for it.

    ``claimed_code`` is an EdgeSet for edge codes and a sorted vertex
    tuple when ``code_kind`` is "vertex".  ``provenance`` describes the
    construction in words.  When both code and gamma are present the
    code has exactly that size.
    """

    __slots__ = ()


def _int_params(kind, params, count):
    if params is None:
        tup = ()
    elif isinstance(params, int):
        tup = (params,)
    else:
        tup = tuple(params)
    if len(tup) != count or not all(isinstance(p, int) and not isinstance(p, bool)
                                    for p in tup):
        raise ValueError(f"{kind} expects {count} integer parameter(s)")
    return tup


def standard_graph(kind, params=None):
    """Build one of the named graphs under its canonical labeling."""
    if kind == "path":
        (n,) = _int_params(kind, params, 1)
        if n < 1:
            raise ValueError("path needs n >= 1")
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        (n,) = _int_params(kind, params, 1)
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        (n,) = _int_params(kind, params, 1)
        if n < 1:
            raise ValueError("complete needs n >= 1")
        return Graph(n, combinations(range(n), 2))
    if kind == "complete_bipartite":
        a, b = _int_params(kind, params, 2)
        if a < 1 or b < 1:
            raise ValueError("complete_bipartite needs both sides nonempty")
        return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if kind == "hypercube":
        (d,) = _int_params(kind, params, 1)
        if d < 1:
            raise ValueError("hypercube needs d >= 1")
        edges = []
        for u in range(1 << d):
            for t in range(d):
                if not u >> t & 1:
                    edges.append((u, u | 1 << t))
        return Graph(1 << d, edges)
    if kind == "petersen":
        _int_params(kind, params, 0)
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        return Graph(10, edges)
    raise ValueError(f"unknown graph kind {kind!r}")


def _complete_code(n):
    g = standard_graph("complete", n)
    if n in (4, 5):
        if n == 4:
            idx = list(range(5))
            how = "any five of the six edges"
        else:
            cyc = [(i, (i + 1) % 5) for i in range(5)]
            idx = [g.edge_index(u, v) for u, v in cyc]
            how = "edges of a spanning five-cycle"
        return FamilyInstance(g, EdgeSet.from_indices(g, idx), 5, how)
    pairs = [(i, i + 1) for i in range(n - 2)] + [(0, n - 2)]
    idx = [g.edge_index(u, v) for u, v in pairs]
    return FamilyInstance(
        g,
        EdgeSet.from_indices(g, idx),
        n - 1,
        "edges of a cycle through all vertices but one",
    )


def _balanced_bipartite_code(n):
    g = standard_graph("complete_bipartite", (n, n))
    pairs = []
    start = 0
    if n % 2 == 1:
        pairs.append((0, n))
        start = 1
    for i in range(start, n - 1, 2):
        pairs += [(i, n + i), (n + i, i + 1), (i + 1, n + i + 1)]
    idx = [g.edge_index(u, v) for u, v in pairs]
    return FamilyInstance(
        g,
        EdgeSet.from_indices(g, idx),
        (3 * n) // 2,
        "both sides split into three-edge paths, plus one lone edge when "
        "the side size is odd",
    )


def _two_by_n_code(a, b):
    g = standard_graph("complete_bipartite", (a, b))
    # Drop both edges at the first vertex of the degree-two side's
    # opposite side; every remaining vertex there keeps its two edges.
    if a == 2:
        small, big = (0, 1), range(2, 2 + b)
    else:
        small, big = (a, a + 1), range(0, a)
    first = next(iter(big))
    dropped = {g.edge_index(small[0], first), g.edge_index(small[1], first)}
    idx = [i for i in range(g.m) if i not in dropped]
    return FamilyInstance(
        g,
        EdgeSet.from_indices(g, idx),
        g.m - 2,
        "all edges except the two at one degree-two vertex",
    )


def _hypercube_code(d):
    g = standard_graph("hypercube", d)
    if d == 2:
        return FamilyInstance(
            g, EdgeSet.from_indices(g, [0, 1, 2]), 3, "any three of the four edges"
        )
    if d == 3:
        pairs = [(4, 5), (5, 7), (3, 7), (0, 1), (2, 3)]
        idx = [g.edge_index(u, v) for u, v in pairs]
        return FamilyInstance(
            g, EdgeSet.from_indices(g, idx), 5, "five-edge code of the three-cube"
        )
    return FamilyInstance(
        g,
        hypercube_matching(d),
        1 << (d - 1),
        "perfect matching with no two edges on a common four-cycle",
    )


def known_code(kind, params=None):
    """FamilyInstance for the kinds whose optimum is known exactly.

    Covered: complete(n >= 4), complete_bipartite with equal sides
    (n >= 3) or one side of size 2 (other >= 3), hypercube(d >= 2), and
    petersen.  Everything else raises.
    """
    if kind == "complete":
        (n,) = _int_params(kind, params, 1)
        if n >= 4:
            return _complete_code(n)
    elif kind == "complete_bipartite":
        a, b = _int_params(kind, params, 2)
        if a == b and a >= 3:
            return _balanced_bipartite_code(a)
        if min(a, b) == 2 and max(a, b) >= 3:
            return _two_by_n_code(a, b)
    elif kind == "hypercube":
        (d,) = _int_params(kind, params, 1)
        if d >= 2:
            return _hypercube_code(d)
    elif kind == "petersen":
        _int_params(kind, params, 0)
        g = standard_graph("petersen")
        idx = [g.edge_index(i, i + 5) for i in range(5)]
        return FamilyInstance(
            g, EdgeSet.from_indices(g, idx), 5, "the five spokes, a perfect matching"
        )
    raise ValueError(f"no known optimal code for {kind} with params {params!r}")


# A perfect matching of the 4-cube with no two edges on a common 4-cycle,
# and a second one sharing no edge and, at every vertex, using a different
# direction than the first.  The second property is what the inductive
# doubling below needs.
_M4 = ((0, 1), (3, 7), (4, 6), (2, 10), (5, 13), (8, 12), (9, 11), (14, 15))
_M4_PARTNER = ((0, 2), (6, 7), (1, 5), (13, 15), (8, 9), (10, 14), (4, 12), (3, 11))


def _matching_pairs(d):
    if d == 4:
        return list(_M4)
    if d == 5:
        return list(_M4) + [(u | 16, v | 16) for u, v in _M4_PARTNER]
    prev = _matching_pairs(d - 1)
    flip = 1 << (d - 2)
    top = 1 << (d - 1)
    return prev + [((u ^ flip) | top, (v ^ flip) | top) for u, v in prev]


def hypercube_matching(d):
    """Perfect matching of the d-cube avoiding shared 4-cycles, d >= 4.

    No matching edge crosses the highest coordinate: the top half carries
    a translated copy of the lower matching, shifted across the previous
    top coordinate so that two same-direction edges never end up at
    Hamming distance one.  Returns the matching as an EdgeSet over
    ``standard_graph("hypercube", d)``, where it is an edge-identifying
    code of size 2^(d-1).
    """
    if d < 4:
        raise ValueError("matching needs d >= 4")
    g = standard_graph("hypercube", d)
    idx = [g.edge_index(u, v) for u, v in _matching_pairs(d)]
    return EdgeSet.from_indices(g, idx)


def jk_graph(k):
    """Near-complete graph on k+2 vertices identified by a k-edge path.

    Vertices 0..k form a path, vertex k+1 sits adjacent to every path
    vertex except 1 and k-1, and the two chords 0-2 and (k-2)-k are also
    missing.  That is four edges short of complete, the most a graph
    with a k-edge code can carry.  ``claimed_code`` is the path.
    """
    if k < 3:
        raise ValueError("jk needs k >= 3")
    builder = GraphBuilder()
    _, path_edges = _add_j_block(builder, k)
    g = builder.to_graph()
    assert g.m == math.comb(k + 2, 2) - 4
    return FamilyInstance(
        g,
        EdgeSet.from_indices(g, path_edges),
        None,
        "complete graph minus four edges, code = the spanning path",
    )


def _add_j_block(builder, j):
    """Append a disjoint copy of the jk_graph(j) block to the builder.

    Returns (path_vertices, path_edge_indices).
    """
    base = builder.add_vertices(j + 2)
    w = base[j + 1]
    removed = {
        (base[1], w),
        (base[j - 1], w),
        (base[0], base[2]),
        (base[j - 2], base[j]),
    }
    index_of = {}
    for a, b in combinations(base, 2):
        if (a, b) not in removed:
            index_of[(a, b)] = builder.add_edge(a, b)
    path = base[: j + 1]
    path_edges = [index_of[(base[i], base[i + 1])] for i in range(j)]
    return path, path_edges


def extremal_low1(k):
    """Densest known graph whose minimum edge code has size k.

    Disjoint path-plus-apex blocks, one per three code edges (one block
    upgraded to absorb k mod 3), joined by every edge between path
    vertices of distinct blocks.  The edge count meets
    ``max_edges_for_code_size(k)`` exactly and the block paths together
    form a code of size k.
    """
    if k < 3:
        raise ValueError("extremal1 needs k >= 3")
    r = k % 3
    if r == 0:
        block_sizes = [3] * (k // 3)
    elif r == 1:
        block_sizes = [4] + [3] * ((k - 4) // 3)
    else:
        block_sizes = [5] + [3] * ((k - 5) // 3)
    builder = GraphBuilder()
    paths = []
    code_edges = []
    for j in block_sizes:
        path, path_edges = _add_j_block(builder, j)
        paths.append(path)
        code_edges += path_edges
    for p1, p2 in combinations(paths, 2):
        for a in p1:
            for b in p2:
                builder.add_edge(a, b)
    g = builder.to_graph()
    return FamilyInstance(
        g,
        EdgeSet.from_indices(g, code_edges),
        k,
        "disjoint path-plus-apex blocks with all cross edges between "
        "their path vertices",
    )


def subdivide_once(mg):
    """Subdivide every edge of a multigraph exactly once.

    Original vertices keep their labels; the subdivision vertex of edge i
    is mg.n + i.  The result is always a simple bipartite graph.
    """
    edges = []
    for i, (u, v) in enumerate(mg.edges):
        s = mg.n + i
        edges.append((u, s))
        edges.append((v, s))
    return Graph(mg.n + mg.m, edges)


def bipartite_perfect_matching(mg, left):
    """Perfect matching of a bipartite multigraph, or None when absent.

    ``left`` is one side of the bipartition; every edge must cross it.
    Returns a sorted list of edge indices (augmenting-path search, processing
    left vertices in increasing order, so the result is deterministic).
    """
    left = frozenset(left)
    for u, v in mg.edges:
        if (u in left) == (v in left):
            raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
    right = [v for v in range(mg.n) if v not in left]
    if len(left) != len(right):
        return None
    match_edge_of_right = {}
    matched_left = {}

    def far_end(e, u):
        a, b = mg.edges[e]
        return b if a == u else a

    def augment(root):
        # Depth-first search for an augmenting path from root, with an
        # explicit stack so that path length is not bounded by the
        # recursion limit.  path[i] is the edge taken out of stack[i].
        visited = set()
        stack = [(root, iter(mg.incident_edges(root)))]
        path = []
        while stack:
            u, edges = stack[-1]
            for e in edges:
                w = far_end(e, u)
                if w in visited:
                    continue
                visited.add(w)
                path.append(e)
                if w not in match_edge_of_right:
                    for (x, _), f in zip(stack, path):
                        match_edge_of_right[far_end(f, x)] = f
                        matched_left[x] = f
                    return True
                oa, ob = mg.edges[match_edge_of_right[w]]
                other_u = oa if oa in left else ob
                stack.append((other_u, iter(mg.incident_edges(other_u))))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    for u in sorted(left):
        if not augment(u):
            return None
    return sorted(matched_left.values())


def subdivided_regular_code(mg, k):
    """Subdivide a k-regular multigraph once and code it optimally.

    The code keeps every edge except one per original vertex, chosen via
    a perfect matching of the double cover (vertex u matched to an edge
    e = uv drops the far half of e, the one from v to e's subdivision
    vertex).  Size (k-1)|V|, which is optimal for k >= 3.
    """
    if k < 3:
        raise ValueError("subdivided needs k >= 3")
    if not mg.is_regular(k):
        raise ValueError("multigraph is not k-regular")
    g1 = subdivide_once(mg)
    n = mg.n
    cover_edges = []
    for u, v in mg.edges:
        cover_edges.append((u, v + n))
        cover_edges.append((v, u + n))
    cover = Multigraph(2 * n, cover_edges)
    matching = bipartite_perfect_matching(cover, range(n))
    assert matching is not None  # regular bipartite multigraphs always have one
    dropped = set()
    for h in matching:
        _, y = cover.edges[h]
        partner = y - n
        e = h // 2
        dropped.add(g1.edge_index(partner, n + e))
    assert len(dropped) == n
    idx = [i for i in range(g1.m) if i not in dropped]
    return FamilyInstance(
        g1,
        EdgeSet.from_indices(g1, idx),
        (k - 1) * n,
        "once-subdivided regular multigraph, all edges except one per "
        "original vertex",
    )


def claw_free_example(k):
    """Claw-free graph whose identifying code is far below the sqrt bound.

    Vertices are k elements plus the 2^k - 1 nonempty subsets of them,
    both sides complete, with element a adjacent to subset b when a is
    in b.  The elements together with the singleton subsets identify
    everything, so 2k code vertices suffice on ~2^k vertices.  This is a
    vertex code; the graph is not a line graph.
    """
    if not 2 <= k <= 12:
        raise ValueError("clawfree needs 2 <= k <= 12")
    edges = list(combinations(range(k), 2))
    for s in range(1, 1 << k):
        bv = k + s - 1
        edges += [(a, bv) for a in bits(s)]
    nb = (1 << k) - 1
    for s in range(1, nb):
        for t in range(s + 1, nb + 1):
            edges.append((k + s - 1, k + t - 1))
    g = Graph(k + nb, edges)
    code = tuple(range(k)) + tuple(k + (1 << a) - 1 for a in range(k))
    return FamilyInstance(
        g,
        code,
        None,
        "element clique joined to the subset clique by membership, "
        "code = elements plus singletons",
        code_kind="vertex",
    )

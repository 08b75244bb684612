"""Simple graphs, multigraphs and indexed edge sets.

Edges are unordered vertex pairs stored as (u, v) with u < v.  The position of
an edge in the construction order is its index, and every other module refers
to edges by these indices: codes are bitsets over them, file formats serialize
them, and the line graph maps edge index i to vertex i.
"""

import math
from itertools import combinations


class FormatError(ValueError):
    """Raised when an edge-list or code file cannot be parsed."""


class RejectedInput(ValueError):
    """Raised when well-formed input fails its check, as a non-code hint does."""


def bits(mask):
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices, size):
    """Bitmask with the bits of ``indices`` set; each must lie in range(size)."""
    mask = 0
    for i in indices:
        if not 0 <= i < size:
            raise ValueError(f"index {i} out of range for size {size}")
        mask |= 1 << i
    return mask


class Multigraph:
    """Immutable loopless multigraph with stably indexed edges.

    Vertices are 0..n-1.  Edges keep construction order; each is normalized
    to (u, v) with u < v.  Self-loops are rejected and parallel edges kept,
    so a multigraph can be the input of a subdivision.  ``neighbors`` lists
    a vertex once per edge to it.
    """

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        norm = []
        adj = [[] for _ in range(n)]
        inc = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            norm.append((u, v))
            adj[u].append(v)
            adj[v].append(u)
            inc[u].append(i)
            inc[v].append(i)
        self.edges = tuple(norm)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._inc = tuple(tuple(a) for a in inc)

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self._inc[v])

    def neighbors(self, v):
        return self._adj[v]

    def incident_edges(self, v):
        """Indices of edges incident to v, in edge-index order."""
        return self._inc[v]

    def is_regular(self, k):
        return all(len(inc) == k for inc in self._inc)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class Graph(Multigraph):
    """Immutable simple graph: a multigraph without parallel edges."""

    def __init__(self, n, edges):
        super().__init__(n, edges)
        self._index = {}
        for i, e in enumerate(self.edges):
            if self._index.setdefault(e, i) != i:
                raise ValueError(f"duplicate edge {e}")
        self._edge_masks = None
        self.fingerprint = (n, len(self.edges), hash(self.edges))

    def _ensure_masks(self):
        # Quadratic-size data, built on first use so that merely holding a
        # large graph stays cheap.
        if self._edge_masks is None:
            m = self.m
            vert_mask = [mask_of(inc, m) for inc in self._inc]
            self._edge_masks = tuple(
                vert_mask[u] | vert_mask[v] for u, v in self.edges
            )

    def edge_index(self, u, v):
        e = (u, v) if u < v else (v, u)
        return self._index[e]

    def has_edge(self, u, v):
        e = (u, v) if u < v else (v, u)
        return e in self._index

    def edge_mask(self, e):
        """Bitmask of the closed neighborhood of edge e (includes e)."""
        if not 0 <= e < self.m:
            raise ValueError(f"edge index {e} out of range")
        self._ensure_masks()
        return self._edge_masks[e]

    def all_edge_masks(self):
        self._ensure_masks()
        return self._edge_masks


class GraphBuilder:
    """Mutable helper for assembling a Graph vertex by vertex.

    Edges are checked only when ``to_graph`` hands them to ``Graph``.
    """

    def __init__(self):
        self.n = 0
        self.edges = []

    def add_vertex(self):
        v = self.n
        self.n += 1
        return v

    def add_vertices(self, count):
        ids = list(range(self.n, self.n + count))
        self.n += count
        return ids

    def add_edge(self, u, v):
        """Add edge u-v, returning its index in the final graph."""
        self.edges.append((u, v))
        return len(self.edges) - 1

    def to_graph(self):
        return Graph(self.n, self.edges)


class EdgeSet:
    """Subset of a graph's edges as a bitset, tied to the owner's fingerprint.

    Operations between edge sets require matching fingerprints, so sets from
    different graphs (or differently indexed copies) cannot be mixed silently.
    """

    __slots__ = ("fingerprint", "mask")

    def __init__(self, fingerprint, mask):
        self.fingerprint = fingerprint
        self.mask = mask

    @classmethod
    def from_indices(cls, g, indices):
        return cls(g.fingerprint, mask_of(indices, g.m))

    @classmethod
    def full(cls, g):
        return cls(g.fingerprint, (1 << g.m) - 1)

    def check_owner(self, g):
        if self.fingerprint != g.fingerprint:
            raise ValueError("edge set does not belong to this graph")

    def _check_mate(self, other):
        if self.fingerprint != other.fingerprint:
            raise ValueError("edge sets belong to different graphs")

    def indices(self):
        return bits(self.mask)

    def __iter__(self):
        return iter(self.indices())

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, i):
        return 0 <= i < self.fingerprint[1] and bool(self.mask >> i & 1)

    def __eq__(self, other):
        return (isinstance(other, EdgeSet)
                and self.fingerprint == other.fingerprint
                and self.mask == other.mask)

    def __hash__(self):
        return hash((self.fingerprint, self.mask))

    def union(self, other):
        self._check_mate(other)
        return EdgeSet(self.fingerprint, self.mask | other.mask)

    def intersection(self, other):
        self._check_mate(other)
        return EdgeSet(self.fingerprint, self.mask & other.mask)

    def difference(self, other):
        self._check_mate(other)
        return EdgeSet(self.fingerprint, self.mask & ~other.mask)

    def symmetric_difference(self, other):
        self._check_mate(other)
        return EdgeSet(self.fingerprint, self.mask ^ other.mask)

    def issubset(self, other):
        self._check_mate(other)
        return self.mask & ~other.mask == 0

    def add(self, i):
        return EdgeSet(self.fingerprint, self.mask | mask_of((i,), self.fingerprint[1]))

    def remove(self, i):
        return EdgeSet(self.fingerprint, self.mask & ~mask_of((i,), self.fingerprint[1]))

    def __repr__(self):
        return f"EdgeSet({self.indices()})"


def closed_edge_neighborhood(g, e):
    """All edges sharing an endpoint with edge e, plus e itself."""
    return EdgeSet(g.fingerprint, g.edge_mask(e))


def line_graph(g):
    """Line graph of g together with the edge-index -> vertex-index map.

    Vertex i of the result is edge i of g; the returned map is that identity,
    made explicit so callers can translate edge sets to vertex sets.
    """
    lg_edges = []
    seen = set()
    for v in range(g.n):
        inc = g.incident_edges(v)
        for a, b in combinations(sorted(inc), 2):
            if (a, b) not in seen:
                seen.add((a, b))
                lg_edges.append((a, b))
    return Graph(g.m, lg_edges), {i: i for i in range(g.m)}


def vertex_closed_masks(g):
    """Closed vertex neighborhoods N[v] as bitmasks over vertices."""
    return [mask_of(g.neighbors(v), g.n) | 1 << v for v in range(g.n)]


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


def pendant_pairs(g):
    """Adjacent edge pairs that no edge set can separate.

    Two adjacent edges form such a pair when their non-shared endpoints
    either both have degree 1, or both have degree 2 and are adjacent to
    each other.  Returns sorted pairs of edge indices.
    """
    pairs = set()
    for w in range(g.n):
        inc = g.incident_edges(w)
        for ei, ej in combinations(inc, 2):
            u1, v1 = g.edges[ei]
            x = u1 if v1 == w else v1
            u2, v2 = g.edges[ej]
            y = u2 if v2 == w else v2
            dx, dy = g.degree(x), g.degree(y)
            if dx == 1 and dy == 1:
                pairs.add((min(ei, ej), max(ei, ej)))
            elif dx == 2 and dy == 2 and g.has_edge(x, y):
                pairs.add((min(ei, ej), max(ei, ej)))
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


def connected_components(g):
    """Vertex lists of connected components, each sorted, ordered by minimum."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            a = stack.pop()
            for b in g.neighbors(a):
                if not seen[b]:
                    seen[b] = True
                    comp.append(b)
                    stack.append(b)
        comps.append(sorted(comp))
    return comps


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


def _data_lines(text):
    """``(lineno, fields)`` of each line with data; ``#`` starts a comment."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if parts:
            yield lineno, parts


def _code_index(lineno, parts):
    """The edge index of a ``c <edge index>`` line split into ``parts``."""
    if parts[0] != "c" or len(parts) != 2:
        raise FormatError(f"line {lineno}: expected 'c <edge index>'")
    try:
        return int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: bad code index") from None


def _parse_edge_list(text):
    """Parse the edge-list format into ``(n, edges, code, k)``.

    ``#`` starts a comment that runs to the end of the line.  The first
    data line is ``n m``, followed by m lines ``u v``.  ``c <index>`` lines
    (an embedded code, each index below m) and one ``k <value>`` trailer
    may appear among them; ``code`` is None when there are no ``c`` lines.
    """
    header = None
    edges = []
    code = []
    kval = None
    for lineno, parts in _data_lines(text):
        if header is None:
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected 'n m' header")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer header") from None
            if min(header) < 0:
                raise FormatError(f"line {lineno}: negative count in 'n m' header")
            continue
        if parts[0] == "c":
            code.append(_code_index(lineno, parts))
            continue
        if parts[0] == "k":
            if len(parts) != 2 or kval is not None:
                raise FormatError(f"line {lineno}: bad 'k' trailer")
            try:
                kval = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad 'k' trailer") from None
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer endpoints") from None
        if len(edges) >= header[1]:
            raise FormatError(f"line {lineno}: more than {header[1]} edges")
        edges.append((u, v))
    if header is None:
        raise FormatError("missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise FormatError(f"expected {m} edges, found {len(edges)}")
    for i in code:
        if not 0 <= i < m:
            raise FormatError(f"code index {i} out of range")
    return n, edges, code or None, kval


def read_edge_list(text):
    """Parse an edge-list file into ``(graph, code_indices_or_None, k_or_None)``.

    The format is the one ``_parse_edge_list`` describes; the graph must be
    simple.
    """
    n, edges, code, kval = _parse_edge_list(text)
    try:
        return Graph(n, edges), code, kval
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def read_multigraph(text):
    """Parse an edge-list file into a Multigraph: parallel edges allowed.

    ``c`` and ``k`` lines are checked as in ``read_edge_list`` and dropped.
    """
    n, edges, _, _ = _parse_edge_list(text)
    try:
        return Multigraph(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_edge_list(g, code=None, k=None, comments=()):
    """Render a graph (optionally with an embedded code and k trailer)."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {g.m}")
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    if code is not None:
        for i in sorted(code):
            lines.append(f"c {i}")
    if k is not None:
        lines.append(f"k {k}")
    return "\n".join(lines) + "\n"


def read_code_file(text, m):
    """Parse a code file of ``c <edge index>`` lines and ``#`` comments."""
    indices = []
    for lineno, parts in _data_lines(text):
        i = _code_index(lineno, parts)
        if not 0 <= i < m:
            raise FormatError(f"line {lineno}: code index {i} out of range")
        indices.append(i)
    return indices

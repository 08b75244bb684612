"""Simple graphs, multigraphs and indexed edge sets.

Edges are unordered vertex pairs stored as (u, v) with u < v.  The position of
an edge in the construction order is its index, and every other module refers
to edges by these indices: codes are bitsets over them, file formats serialize
them, and the line graph maps edge index i to vertex i.
"""

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


def pendant_pairs(g):
    """Adjacent edge pairs that no edge set can separate.

    Two adjacent edges form such a pair when their non-shared endpoints
    either both have degree 1, or both have degree 2 and are adjacent to
    each other.  Returns sorted pairs of edge indices.
    """
    edges = g.edges
    inc = g._inc
    deg = [len(around) for around in inc]
    has_edge = g.has_edge
    pairs = set()
    for w, around in enumerate(inc):
        # incidence lists ascend, so ei < ej
        for ei, ej in combinations(around, 2):
            u, v = edges[ei]
            x = u if v == w else v
            dx = deg[x]
            if dx > 2:
                continue
            u, v = edges[ej]
            y = u if v == w else v
            if dx == deg[y] and (dx == 1 or has_edge(x, y)):
                pairs.add((ei, ej))
    return sorted(pairs)


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

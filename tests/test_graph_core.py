"""Graph container, derived structure, and file format tests."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    connected_graphs,
    naive_edge_neighborhoods,
    naive_isomorphic,
    reference_perfect_matching,
)
from edgeid import symmetry
from edgeid.families import standard_graph
from edgeid.graph_core import (
    EdgeSet,
    FormatError,
    Graph,
    GraphBuilder,
    Multigraph,
    bipartite_perfect_matching,
    bits,
    closed_edge_neighborhood,
    connected_components,
    girth,
    induced_by_edges,
    is_bipartite,
    is_k_degenerate,
    isomorphic,
    line_graph,
    mask_of,
    pendant_pairs,
    read_code_file,
    read_edge_list,
    read_multigraph,
    subdivide_once,
    twin_pairs,
    write_edge_list,
)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12))
    return Graph(n, edges)


def test_construction_normalizes_and_validates():
    g = Graph(4, [(2, 0), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.n == 4 and g.m == 2
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_edges_keep_construction_order():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    assert g.edges == ((2, 3), (0, 1), (1, 2))
    assert g.edge_index(1, 2) == 2
    assert g.edge_index(3, 2) == 0
    with pytest.raises(KeyError):
        g.edge_index(0, 3)


def test_degrees_neighbors_incidence():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (2, 3)])
    assert g.degree(0) == 3 and g.degree(4) == 0
    assert g.neighbors(0) == (1, 2, 3)
    assert g.neighbors(4) == ()
    assert g.incident_edges(3) == (2, 3)
    assert g.has_edge(3, 2) and not g.has_edge(1, 2)


def test_edge_masks_match_naive_neighborhoods():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    naive = naive_edge_neighborhoods(g)
    for i in range(g.m):
        mask = g.edge_mask(i)
        assert {j for j in range(g.m) if mask >> j & 1} == naive[i]
    assert list(g.all_edge_masks()) == [g.edge_mask(i) for i in range(g.m)]


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_edge_mask_property(g):
    naive = naive_edge_neighborhoods(g)
    for i in range(g.m):
        assert g.edge_mask(i) == sum(1 << j for j in naive[i])


def test_closed_edge_neighborhood_returns_edge_set():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    nb = closed_edge_neighborhood(g, 1)
    assert sorted(nb) == [0, 1, 2]
    with pytest.raises(ValueError):
        closed_edge_neighborhood(g, 3)


class TestEdgeSet:
    def test_basics(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        s = EdgeSet.from_indices(g, [2, 0])
        assert len(s) == 2
        assert list(s) == [0, 2]
        assert 0 in s and 1 not in s
        assert s.indices() == [0, 2]
        full = EdgeSet.full(g)
        assert len(full) == 3

    def test_set_algebra(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        a = EdgeSet.from_indices(g, [0, 1])
        b = EdgeSet.from_indices(g, [1, 2])
        assert sorted(a.union(b)) == [0, 1, 2]
        assert sorted(a.intersection(b)) == [1]
        assert sorted(a.symmetric_difference(b)) == [0, 2]
        assert sorted(a.difference(b)) == [0]
        assert a.issubset(a.union(b)) and not a.issubset(b)
        assert a.add(2) == EdgeSet.from_indices(g, [0, 1, 2])
        assert a.remove(1) == EdgeSet.from_indices(g, [0])
        h = Graph(4, [(0, 1), (1, 2), (0, 3)])
        with pytest.raises(ValueError):
            a.union(EdgeSet.from_indices(h, [0]))

    def test_owner_check(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        h = Graph(4, [(0, 1), (1, 2), (0, 3)])
        s = EdgeSet.from_indices(g, [0])
        s.check_owner(g)
        with pytest.raises(ValueError):
            s.check_owner(h)
        with pytest.raises(ValueError):
            EdgeSet.from_indices(g, [3])
        # add and remove check the index against the owner's edges too
        k5 = standard_graph("complete", 5)
        for op, i in (("add", 99), ("add", 10), ("add", -1), ("remove", -1),
                      ("remove", 10)):
            with pytest.raises(ValueError, match="out of range"):
                getattr(EdgeSet.from_indices(k5, [0]), op)(i)
        assert EdgeSet.from_indices(k5, [0]).add(9).remove(0) == EdgeSet.from_indices(k5, [9])
        # membership is False, not an error, outside the owner's edges
        s = EdgeSet.from_indices(k5, [0])
        assert 0 in s and 1 not in s and -1 not in s and 99 not in s

    def test_hash_and_eq(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert EdgeSet.from_indices(g, [1]) == EdgeSet.from_indices(g, (1,))
        assert len({EdgeSet.from_indices(g, [1]), EdgeSet.from_indices(g, [1])}) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 200))
def test_bits_matches_naive_scan(mask):
    naive = [i for i in range(mask.bit_length()) if mask >> i & 1]
    assert bits(mask) == naive
    assert mask_of(naive, mask.bit_length()) == mask


def test_multigraph_allows_parallel_edges():
    mg = Multigraph(2, [(0, 1), (1, 0), (0, 1)])
    assert mg.m == 3
    assert mg.edges == ((0, 1), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 0)])
    text = "# theta\n2 3 # header\n0 1\n1 0  # parallel\n0 1\nc 2\nk 2\n"
    mg = read_multigraph(text)
    assert mg.n == 2 and mg.edges == ((0, 1), (0, 1), (0, 1))
    with pytest.raises(FormatError):
        read_edge_list(text)  # a simple graph has no parallel edges


@st.composite
def edge_lists(draw):
    """``(n, edges, fault)``: a random simple edge list, in either endpoint
    order, with at most one injected fault at a random position."""
    n = draw(st.integers(1, 7))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=10)) if pool else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    fault = draw(st.sampled_from([None, "out of range for n=", "self-loop at vertex",
                                  "duplicate edge"]))
    if fault == "duplicate edge" and not edges:
        fault = None
    if fault is not None:
        if fault == "out of range for n=":
            bad = (draw(st.sampled_from([-1, n])), draw(st.integers(-1, n)))
            bad = bad[::-1] if draw(st.booleans()) else bad
        elif fault == "self-loop at vertex":
            v = draw(st.integers(0, n - 1))
            bad = (v, v)
        else:
            bad = draw(st.sampled_from(edges))[::-1]
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges, fault


def _built(make):
    try:
        return make(), None
    except ValueError as exc:
        return None, str(exc)


def _via_builder(n, edges):
    b = GraphBuilder()
    b.add_vertices(n)
    assert [b.add_edge(u, v) for u, v in edges] == list(range(len(edges)))
    return b.to_graph()


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_graph_builder_and_multigraph_check_edges_alike(case):
    n, edges, fault = case
    g, err = _built(lambda: Graph(n, edges))
    assert _built(lambda: _via_builder(n, edges))[1] == err
    mg, mg_err = _built(lambda: Multigraph(n, edges))
    if fault is None:
        assert err is None
    else:
        assert fault in err
    if fault == "duplicate edge":
        assert mg_err is None
    else:
        assert mg_err == err
    if g is None:
        return
    h = _via_builder(n, edges)
    for simple in (g, h):
        assert simple.edges == mg.edges
        assert simple.m == mg.m
        for v in range(n):
            assert simple.degree(v) == mg.degree(v)
            assert simple.incident_edges(v) == mg.incident_edges(v)
            assert simple.neighbors(v) == mg.neighbors(v)
    assert repr(g) == f"Graph(n={n}, m={g.m})"
    assert repr(mg) == f"Multigraph(n={n}, m={g.m})"


def test_graph_builder_tracks_indices():
    b = GraphBuilder()
    u = b.add_vertex()
    v, w = b.add_vertices(2)
    assert (u, v, w) == (0, 1, 2)
    assert b.add_edge(w, u) == 0
    assert b.add_edge(u, v) == 1
    g = b.to_graph()
    assert g.n == 3 and g.edges == ((0, 2), (0, 1))


def test_line_graph_of_cycle_is_cycle():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    lg, mapping = line_graph(c5)
    assert mapping == {i: i for i in range(5)}
    assert lg.n == 5 and lg.m == 5
    assert isomorphic(lg, c5)


def test_line_graph_of_star_is_complete():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    lg, _ = line_graph(star)
    assert lg.n == 4 and lg.m == 6


def test_line_graph_adjacency_matches_definition():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    lg, _ = line_graph(g)
    for i in range(g.m):
        for j in range(i + 1, g.m):
            shares = bool(set(g.edges[i]) & set(g.edges[j]))
            assert lg.has_edge(i, j) == shares


def test_twin_pairs():
    assert twin_pairs(Graph(2, [(0, 1)])) == [(0, 1)]
    assert twin_pairs(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) == []
    # two isolated vertices have the same (empty) closed neighborhood? no:
    # each contains itself, so they differ
    assert twin_pairs(Graph(2, [])) == []
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert twin_pairs(k3) == [(0, 1), (0, 2), (1, 2)]


def test_pendant_pairs_named_cases():
    p3 = Graph(3, [(0, 1), (1, 2)])
    assert pendant_pairs(p3) == [(0, 1)]
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert pendant_pairs(p4) == []
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert len(pendant_pairs(k3)) == 3
    paw = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert pendant_pairs(paw) == [(0, 1)]
    bull = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    assert pendant_pairs(bull) == []


def test_girth_values():
    assert girth(Graph(4, [(0, 1), (1, 2), (2, 3)])) == math.inf
    assert girth(Graph(3, [(0, 1), (1, 2), (0, 2)])) == 3
    c7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    assert girth(c7) == 7
    petersen_outer = [(i, (i + 1) % 5) for i in range(5)]
    petersen_inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    assert girth(Graph(10, petersen_outer + petersen_inner + spokes)) == 5
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert girth(k4) == 3


def test_connected_components():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    assert connected_components(g) == [[0, 1], [2, 3, 4], [5]]


def test_is_bipartite():
    ok, colors = is_bipartite(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert ok
    assert colors[0] != colors[1] and colors[1] != colors[2]
    ok, cycle = is_bipartite(Graph(5, [(i, (i + 1) % 5) for i in range(5)]))
    assert not ok
    assert len(cycle) % 2 == 1
    cyc = list(cycle)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert Graph(5, [(i, (i + 1) % 5) for i in range(5)]).has_edge(a, b)


def test_is_k_degenerate():
    tree = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    ok, order = is_k_degenerate(tree, 1)
    assert ok and sorted(order) == [0, 1, 2, 3, 4]
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert is_k_degenerate(k4, 2) == (False, None)
    assert is_k_degenerate(k4, 3)[0]


def test_induced_by_edges():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    sub, labels = induced_by_edges(g, EdgeSet.from_indices(g, [1, 3]))
    assert sub.m == 2 and sub.n == 4
    assert [labels[v] for v in range(sub.n)] == [1, 2, 4, 5]
    assert sub.edges == ((0, 1), (2, 3))


def test_subdivide_once_structure():
    mg = Multigraph(2, [(0, 1), (0, 1)])
    s = subdivide_once(mg)
    assert s.n == 4 and s.m == 4
    assert sorted(s.edges) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert is_bipartite(s)[0]


def test_bipartite_perfect_matching():
    mg = Multigraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    match = bipartite_perfect_matching(mg, [0, 1])
    assert match is not None
    matched = [mg.edges[i] for i in match]
    assert len({u for u, _ in matched}) == 2
    assert len({v for _, v in matched}) == 2
    # no perfect matching when one side vertex is isolated from the rest
    mg2 = Multigraph(4, [(0, 2), (1, 2)])
    assert bipartite_perfect_matching(mg2, [0, 1]) is None
    # parallel edges are usable
    mg3 = Multigraph(2, [(0, 1), (0, 1)])
    assert bipartite_perfect_matching(mg3, [0]) is not None
    # every edge must cross the bipartition
    with pytest.raises(ValueError, match="does not cross the bipartition"):
        bipartite_perfect_matching(Multigraph(4, [(0, 2), (0, 1)]), [0, 1])


@st.composite
def bipartite_multigraphs(draw):
    """Multigraphs with left side 0..a-1 and right side a..a+b-1."""
    a = draw(st.integers(1, 5))
    b = draw(st.sampled_from([a, a, a, max(a - 1, 1), a + 1]))
    edge = st.tuples(st.integers(0, a - 1), st.integers(a, a + b - 1))
    edges = draw(st.lists(edge, max_size=3 * a + 3))
    return Multigraph(a + b, edges), range(a)


@settings(max_examples=400, deadline=None)
@given(bipartite_multigraphs())
def test_perfect_matching_matches_recursive_reference(case):
    mg, left = case
    assert bipartite_perfect_matching(mg, left) == reference_perfect_matching(mg, left)


def test_isomorphic_positive_and_negative():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c4b = Graph(4, [(0, 2), (2, 1), (1, 3), (0, 3)])
    assert isomorphic(c4, c4b)
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not isomorphic(c4, path)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not isomorphic(path, star)
    # no size cap: strongly regular graphs that refinement cannot tell
    # apart, the 4-cube against a relabelled C_4 x C_4, and edgeless graphs
    assert isomorphic(Graph(11, []), Graph(11, []))
    assert not isomorphic(shrikhande(), rook_4x4())
    torus = relabelled(torus_4x4([(0, 1), (1, 0)]), random.Random(4))
    assert isomorphic(standard_graph("hypercube", 4), torus)


def relabelled(g, rng):
    """g with its vertices shuffled by ``rng``."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def torus_4x4(steps):
    """Cayley graph of Z_4 x Z_4 with the connection set +-``steps``."""
    edges = set()
    for a, b in itertools.product(range(4), repeat=2):
        for x, y in steps:
            u, v = 4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4
            edges.add((min(u, v), max(u, v)))
    return Graph(16, sorted(edges))


def shrikhande():
    return torus_4x4([(0, 1), (1, 0), (1, 1)])


def rook_4x4():
    return torus_4x4([(0, 1), (0, 2), (1, 0), (2, 0)])


def test_isomorphic_runs_without_the_orbit_budget(monkeypatch):
    # with no refinement allowed to the orbit searches, a budgeted test
    # would find no map between two relabellings of the 4-cube
    monkeypatch.setattr(symmetry, "REFINE_LIMIT", 0)
    q4 = standard_graph("hypercube", 4)
    assert isomorphic(q4, relabelled(q4, random.Random(5)))


def test_isomorphic_matches_permutation_oracle():
    # half the pairs relabel the first graph, half draw a second graph
    # with as many edges
    rng = random.Random(12)
    for i in range(1000):
        n = rng.randint(0, 7)
        pairs = list(itertools.combinations(range(n), 2))
        g1 = Graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        g2 = relabelled(g1, rng) if i % 2 else Graph(n, rng.sample(pairs, g1.m))
        assert isomorphic(g1, g2) == naive_isomorphic(g1, g2), (g1.edges, g2.edges)


def test_corpus_generator_matches_known_counts():
    # unlabeled connected graphs by edge count, a published sequence
    counts = {m: len([g for g in connected_graphs(8) if g.m == m]) for m in range(1, 9)}
    assert counts == {1: 1, 2: 1, 3: 3, 4: 5, 5: 12, 6: 30, 7: 79, 8: 227}


def test_read_edge_list_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    text = write_edge_list(g, code=[0, 2], k=3, comments=["sample"])
    g2, code, k = read_edge_list(text)
    assert g2.edges == g.edges and g2.n == g.n
    assert code == [0, 2] and k == 3
    assert text.startswith("# sample\n")


def test_read_edge_list_errors():
    for read in (read_edge_list, read_multigraph):
        with pytest.raises(FormatError):
            read("")
        with pytest.raises(FormatError):
            read("2\n")
        with pytest.raises(FormatError, match="non-integer header"):
            read("2 x\n")
        with pytest.raises(FormatError, match="self-loop"):
            read("2 1\n1 1\n")
        with pytest.raises(FormatError):
            read("2 1\n0 1\n0 1\n")
        with pytest.raises(FormatError):
            read("2 2\n0 1\n")
        with pytest.raises(FormatError):
            read("2 1\n0 x\n")
        with pytest.raises(FormatError):
            read("3 1\n0 1\nc 5\n")
        with pytest.raises(FormatError) as err:
            read("2 1\n0 1\nk nope\n")
        assert "line 3" in str(err.value)


@st.composite
def edge_list_texts(draw):
    """Edge-list texts using every part of the format (comments, inline
    comments, either endpoint order, c and k lines), some with one fault:
    a loop, a repeated edge, a bad line or a wrong edge count."""
    pool = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=8))
    body = [f"{u} {v}" if draw(st.booleans()) else f"{v} {u} # e" for u, v in edges]
    if edges:
        body += [f"c {i}" for i in draw(st.lists(st.integers(0, len(edges) - 1),
                                                 max_size=3))]
    body += draw(st.lists(st.sampled_from(["", "# note", "k 3"]), max_size=3))
    m = len(edges)
    fault = draw(st.sampled_from([None] * 6 + ["loop", "repeat", "count", "c 9",
                                               "c x", "k", "k 3", "0", "1 2 3"]))
    if fault == "loop":
        body.append("1 1")
        m += 1
    elif fault == "repeat" and edges:
        body.append(f"{edges[0][1]} {edges[0][0]}")
        m += 1
    elif fault == "count":
        m += draw(st.sampled_from([1, -1]))
    elif fault is not None:
        body.append(fault)
    lines = draw(st.permutations(body))
    return "\n".join(["# header next", f"5 {m}"] + lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_readers_agree_on_every_accepted_text(text):
    try:
        g, _, _ = read_edge_list(text)
    except FormatError:
        return
    mg = read_multigraph(text)
    assert mg.n == g.n and mg.edges == g.edges


def test_read_code_file():
    assert read_code_file("c 0\n# note\nc 2\n", 3) == [0, 2]
    with pytest.raises(FormatError):
        read_code_file("c 7\n", 3)
    with pytest.raises(FormatError):
        read_code_file("0\n", 3)


def test_code_lines_parse_alike_in_both_readers():
    # The same c line at line 5 of a code file and of an edge list gives
    # the same index or the same error.
    shape = "line 5: expected 'c <edge index>'"
    bad_index = "line 5: bad code index"
    for line, expect in [("c 1", [1]), ("c 2 # first", [2]), ("\tc 0\t#", [0]),
                         ("c 1#x", [1]), ("c", shape), ("c 1 2", shape),
                         ("c # 1", shape), ("c x", bad_index), ("c 1.5", bad_index)]:
        results = []
        for read, head in [(lambda t: read_code_file(t, 3), "# code\n\n#\n  # x\n"),
                           (lambda t: read_edge_list(t)[1], "3 3\n0 1\n1 2\n0 2\n")]:
            try:
                results.append(read(head + line + "\n"))
            except FormatError as exc:
                results.append(str(exc))
        assert results == [expect, expect], line


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_write_read_round_trip_property(g):
    g2, code, k = read_edge_list(write_edge_list(g))
    assert g2.n == g.n and g2.edges == g.edges
    assert code is None and k is None


def test_fingerprint_distinguishes_graphs():
    g = Graph(3, [(0, 1), (1, 2)])
    h = Graph(3, [(0, 1), (0, 2)])
    assert g.fingerprint != h.fingerprint
    assert g.fingerprint == Graph(3, [(0, 1), (1, 2)]).fingerprint

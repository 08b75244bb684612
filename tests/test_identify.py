"""Verification primitives against the definition-level oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_is_code
from edgeid.graph_core import EdgeSet, Graph
from edgeid.identify import verify_edge_code, verify_vertex_code
from edgeid.properties import (
    GIRTH5,
    NOT_APPLICABLE,
    TRIANGLE_FREE_NO_C4,
    cover_lemma_applicability,
    separation_witness,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


@st.composite
def graph_and_subset(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=10))
    g = Graph(n, edges)
    subset = draw(st.sets(st.integers(0, g.m - 1)))
    return g, sorted(subset)


@settings(max_examples=200, deadline=None)
@given(graph_and_subset())
def test_verify_matches_naive_oracle(gs):
    g, subset = gs
    report = verify_edge_code(g, EdgeSet.from_indices(g, subset))
    assert report.is_code == naive_is_code(g, subset)
    # the report's failure detail must be consistent with its verdict
    assert report.is_dominating == (not report.undominated)
    assert report.is_separating == (not report.unseparated and not report.truncated)


def test_petersen_spokes_are_a_code():
    g = petersen()
    spokes = EdgeSet.from_indices(g, [10, 11, 12, 13, 14])
    report = verify_edge_code(g, spokes)
    assert report.is_code
    assert report.to_text() == "DOMINATING yes\nSEPARATING yes\n"


def test_failure_reporting_on_triangle():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    report = verify_edge_code(g, EdgeSet.from_indices(g, [0]))
    assert not report.is_code
    # every neighborhood is the whole edge set, so all pairs share a trace
    assert len(report.unseparated) == 3
    text = report.to_text()
    assert "DOMINATING yes" in text and "SEPARATING no" in text
    assert "UNSEP 0 1 : 0" in text


def test_undominated_reporting():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    report = verify_edge_code(g, EdgeSet.from_indices(g, [0, 1]))
    assert report.undominated == [2]
    assert "UNDOM 2" in report.to_text()


def test_unseparated_truncation():
    star = Graph(8, [(0, i) for i in range(1, 8)])
    report = verify_edge_code(g=star, c=EdgeSet.from_indices(star, []), max_pairs=3)
    assert report.truncated
    assert len(report.unseparated) == 3
    assert not report.is_code
    assert "UNSEP-TRUNCATED" in report.to_text()


def test_empty_code_on_single_edge():
    g = Graph(2, [(0, 1)])
    assert not verify_edge_code(g, EdgeSet.from_indices(g, [])).is_code
    assert verify_edge_code(g, EdgeSet.from_indices(g, [0])).is_code


def test_verify_vertex_code_basics():
    # C_4 vertex codes have size 3; any 3 vertices work
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert verify_vertex_code(c4, [0, 1, 2]).is_code
    assert not verify_vertex_code(c4, [0, 2]).is_code
    # twins can never be separated
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert not verify_vertex_code(k3, [0, 1, 2]).is_code
    with pytest.raises(ValueError):
        verify_vertex_code(c4, [4])


def test_vertex_and_edge_verification_agree_through_line_graph():
    from edgeid.graph_core import line_graph

    g = petersen()
    lg, mapping = line_graph(g)
    for subset in ([10, 11, 12, 13, 14], [0, 1, 2, 3], [0, 5, 10]):
        edge_ver = verify_edge_code(g, EdgeSet.from_indices(g, subset))
        vert_ver = verify_vertex_code(lg, [mapping[i] for i in subset])
        assert edge_ver.is_code == vert_ver.is_code


def test_separation_witness():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c = EdgeSet.from_indices(g, [0, 2])
    # edges 0 and 2 are separated by both code edges; lowest index wins
    assert separation_witness(g, c, 0, 2) == 0
    # edges 0 and 1 share edge 0's endpoint; only edge 2 tells them apart
    assert separation_witness(g, c, 0, 1) == 2
    none_code = EdgeSet.from_indices(g, [1])
    assert separation_witness(g, none_code, 0, 1) is None
    with pytest.raises(ValueError):
        separation_witness(g, c, 1, 1)


def test_edge_index_out_of_range():
    # -1 must not index from the end, and m must not reach past it
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    c = EdgeSet.from_indices(g, [0, 2])
    for bad in (-1, g.m):
        with pytest.raises(ValueError, match=f"edge index {bad} out of range"):
            g.edge_mask(bad)
        with pytest.raises(ValueError, match=f"edge index {bad} out of range"):
            separation_witness(g, c, bad, 0)
        with pytest.raises(ValueError, match=f"edge index {bad} out of range"):
            separation_witness(g, c, 0, bad)


@settings(max_examples=150, deadline=None)
@given(graph_and_subset())
def test_separation_witness_consistent_with_verify(gs):
    g, subset = gs
    c = EdgeSet.from_indices(g, subset)
    report = verify_edge_code(g, c, max_pairs=10**9)
    unsep = {(e, f) for e, f, _ in report.unseparated}
    for e, f in itertools.combinations(range(g.m), 2):
        witness = separation_witness(g, c, e, f)
        if witness is None:
            assert (e, f) in unsep
        else:
            assert (e, f) not in unsep
            assert witness in c


def test_cover_lemma_on_girth5_graph():
    g = petersen()
    spokes = EdgeSet.from_indices(g, [10, 11, 12, 13, 14])
    assert cover_lemma_applicability(g, spokes) == GIRTH5
    # a non-covering subset gets no certificate
    assert cover_lemma_applicability(g, EdgeSet.from_indices(g, [10])) == NOT_APPLICABLE


def test_cover_lemma_sufficiency_girth5_exhaustive():
    """On girth >= 5 graphs, a pendant-free-inducing edge cover is a code."""
    g = petersen()
    # spot the lemma over all 5-subsets extending a spoke pair
    for extra in itertools.combinations(range(10), 3):
        subset = sorted((10, 11) + extra)
        c = EdgeSet.from_indices(g, subset)
        if cover_lemma_applicability(g, c) == GIRTH5:
            assert verify_edge_code(g, c).is_code


def test_cover_lemma_triangle_free_branch():
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    alternating = EdgeSet.from_indices(c6, [0, 2, 4])
    # girth 6 >= 5: the stronger certificate applies
    assert cover_lemma_applicability(c6, alternating) == GIRTH5

    # C_4 has girth 4; two opposite isolated edges span it
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    opposite = EdgeSet.from_indices(c4, [0, 2])
    assert cover_lemma_applicability(c4, opposite) == NOT_APPLICABLE
    assert not verify_edge_code(c4, opposite).is_code

    # K_{2,3} is triangle-free with girth 4; a connected covering tree of
    # code edges has no isolated pair, so the weaker certificate applies
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    cover = EdgeSet.from_indices(k23, [0, 1, 2, 3])
    verdict = cover_lemma_applicability(k23, cover)
    if verdict == TRIANGLE_FREE_NO_C4:
        assert verify_edge_code(k23, cover).is_code


def test_cover_lemma_rejects_triangles():
    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    c = EdgeSet.from_indices(k4, [0, 5])
    assert cover_lemma_applicability(k4, c) == NOT_APPLICABLE


def test_owner_mismatch_rejected():
    g = Graph(3, [(0, 1), (1, 2)])
    h = Graph(3, [(0, 1), (0, 2)])
    with pytest.raises(ValueError):
        verify_edge_code(g, EdgeSet.from_indices(h, [0]))

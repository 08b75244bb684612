"""Exact solver, approximation, and minimalization."""

import random

import pytest

from conftest import (
    naive_constraints_from_masks,
    naive_is_code,
    naive_min_edge_code,
    naive_shrink,
    random_connected_pendant_free,
)
from edgeid.families import standard_graph
from edgeid.graph_core import EdgeSet, Graph, line_graph, pendant_pairs
from edgeid.identify import verify_edge_code, verify_vertex_code, vertex_closed_masks
from edgeid.solver import (
    SolveOptions,
    _constraints_from_masks,
    approx_edge_code,
    min_edge_code,
    min_vertex_code,
    shrink_to_minimal,
)


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def sample_graphs():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    p5 = Graph(5, [(i, i + 1) for i in range(4)])
    bull = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    h3 = Graph(8, [(u, u | 1 << t) for u in range(8) for t in range(3) if not u >> t & 1])
    return [c4, c5, p5, bull, complete(4), complete(5), h3]


def test_matches_naive_oracle_on_samples():
    for g in sample_graphs():
        res = min_edge_code(g)
        naive = naive_min_edge_code(g)
        assert res.status == "Optimal"
        assert res.size == len(naive)
        assert tuple(res.code.indices()) == naive  # lex-least, like the oracle
        assert verify_edge_code(g, res.code).is_code


def test_infeasible_graphs():
    for g in [
        Graph(3, [(0, 1), (1, 2)]),  # P_3
        Graph(3, [(0, 1), (0, 2), (1, 2)]),  # triangle
        Graph(4, [(0, 1), (0, 2), (0, 3)]),  # star
    ]:
        res = min_edge_code(g)
        assert res.status == "Infeasible"
        assert res.code is None and res.size is None


def test_empty_graph_is_trivially_coded():
    res = min_edge_code(Graph(3, []))
    assert res.status == "Optimal" and res.size == 0
    assert len(res.code) == 0


def test_lower_bound_is_reported_on_optimal():
    res = min_edge_code(petersen())
    assert res.status == "Optimal" and res.size == 5
    name, value = res.lower_bound_used
    # half-order and edge-count-inverse tie at 5; the first candidate wins
    assert value == 5 and name == "half-order"


@pytest.mark.parametrize(
    "kind, params, size, nodes",
    [
        ("petersen", None, 5, 387),
        ("complete", 7, 6, 3689),
        ("complete_bipartite", (4, 5), 7, 26192),
        ("cycle", 30, 15, 3676),
    ],
)
def test_node_counts_are_pinned(kind, params, size, nodes):
    # node counts are deterministic: a pruning change that moves one must
    # update the pin and say why
    res = min_edge_code(standard_graph(kind, params))
    assert (res.status, res.size, res.nodes_used) == ("Optimal", size, nodes)


def test_budget_exhaustion_and_hint_fallback():
    g = complete(5)
    starved = min_edge_code(g, SolveOptions(budget=3))
    assert starved.status == "BudgetExhausted"
    assert starved.code is None

    full = EdgeSet.full(g)
    rescued = min_edge_code(g, SolveOptions(budget=3, upper_hint=full))
    assert rescued.status == "Feasible"
    assert rescued.code == full and rescued.size == g.m


def test_hint_caps_the_sweep():
    g = complete(5)
    opt = min_edge_code(g)
    hinted = min_edge_code(g, SolveOptions(upper_hint=opt.code))
    assert hinted.status == "Optimal" and hinted.size == opt.size
    # a hint matching the lower bound is returned without any search
    h3 = sample_graphs()[-1]
    res3 = min_edge_code(h3)
    assert res3.size == 5
    hinted3 = min_edge_code(h3, SolveOptions(upper_hint=res3.code))
    assert hinted3.status == "Optimal" and hinted3.code == res3.code


def test_invalid_hint_rejected():
    g = complete(5)
    with pytest.raises(ValueError):
        min_edge_code(g, SolveOptions(upper_hint=EdgeSet.from_indices(g, [0])))
    h = complete(4)
    with pytest.raises(ValueError):
        min_edge_code(g, SolveOptions(upper_hint=EdgeSet.full(h)))


def test_hint_as_plain_indices():
    g = petersen()
    res = min_edge_code(g, SolveOptions(upper_hint=[10, 11, 12, 13, 14]))
    assert res.status == "Optimal" and res.size == 5


def test_min_vertex_code_on_line_graphs():
    for g in sample_graphs():
        lg, _ = line_graph(g)
        edge_res = min_edge_code(g)
        vert_res = min_vertex_code(lg)
        assert edge_res.status == vert_res.status
        if edge_res.status == "Optimal":
            assert edge_res.size == vert_res.size
            assert verify_vertex_code(lg, vert_res.code).is_code


def test_min_vertex_code_twins_infeasible():
    k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert min_vertex_code(k3).status == "Infeasible"
    empty = Graph(0, [])
    res = min_vertex_code(empty)
    assert res.status == "Optimal" and res.size == 0


def test_min_vertex_code_hint_and_result_shape():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    res = min_vertex_code(c4)
    assert res.status == "Optimal" and res.size == 3
    assert res.code == (0, 1, 2)
    hinted = min_vertex_code(c4, SolveOptions(upper_hint=[0, 1, 2]))
    assert hinted.status == "Optimal" and hinted.size == 3
    with pytest.raises(ValueError):
        min_vertex_code(c4, SolveOptions(upper_hint=[0, 9]))


def test_shrink_to_minimal():
    rng = random.Random(3)
    for g in sample_graphs():
        full = EdgeSet.full(g)
        if pendant_pairs(g):
            continue
        minimal = shrink_to_minimal(g, full)
        assert verify_edge_code(g, minimal).is_code
        # inclusionwise minimal: every single removal breaks it
        for i in minimal:
            smaller = minimal.remove(i)
            assert not verify_edge_code(g, smaller).is_code
        # idempotent
        assert shrink_to_minimal(g, minimal) == minimal
    with pytest.raises(ValueError):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        shrink_to_minimal(c4, EdgeSet.from_indices(c4, [0]))


def test_constraints_match_all_pairs_build():
    rng = random.Random(17)
    graphs = sample_graphs() + [petersen()]
    graphs += [random_connected_pendant_free(rng, 14) for _ in range(40)]
    for g in graphs:
        for masks in (g.all_edge_masks(), vertex_closed_masks(g)):
            try:
                expect = naive_constraints_from_masks(masks)
            except ValueError:
                with pytest.raises(ValueError, match="twins"):
                    _constraints_from_masks(masks)
                continue
            assert _constraints_from_masks(masks) == expect
    # K_3's closed vertex neighborhoods are all equal
    with pytest.raises(ValueError, match="twins"):
        _constraints_from_masks(vertex_closed_masks(complete(3)))


def random_code(rng, g):
    """A verified code: the full edge set less some edges dropped at random
    while the rest stays a code, so usually not minimal."""
    chosen = set(range(g.m))
    order = list(range(g.m))
    rng.shuffle(order)
    for i in order[: rng.randint(0, g.m)]:
        if naive_is_code(g, chosen - {i}):
            chosen.discard(i)
    return EdgeSet.from_indices(g, chosen)


def test_shrink_matches_one_removal_at_a_time():
    rng = random.Random(29)
    for _ in range(60):
        g = random_connected_pendant_free(rng, 12)
        for start in (EdgeSet.full(g), random_code(rng, g), random_code(rng, g)):
            assert verify_edge_code(g, start).is_code
            got = shrink_to_minimal(g, start)
            assert got.indices() == naive_shrink(g, start.indices())


def test_approx_edge_code():
    for g in sample_graphs():
        code = approx_edge_code(g)
        assert verify_edge_code(g, code).is_code
        assert naive_is_code(g, list(code))
    with pytest.raises(ValueError):
        approx_edge_code(Graph(3, [(0, 1), (1, 2)]))


def test_determinism():
    g = petersen()
    first = min_edge_code(g)
    second = min_edge_code(g)
    assert first == second

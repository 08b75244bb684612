"""Bound arithmetic and report assembly."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import disjoint_union, pendant_free_unions, random_connected_pendant_free
from corpus_nodes import corpus, read
from edgeid.bounds import (
    bounds_report,
    conjecture_check,
    connected_code_max_edges,
    half_order_lower,
    log_lower,
    max_edges_for_code_size,
    min_code_for_edges,
    solver_lower_bound,
    sqrt_lower_ceiling,
    upper_bounds,
)
from edgeid.graph_core import Graph, isomorphic, line_graph, pendant_pairs


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_log_lower_values():
    assert [log_lower(n) for n in [1, 2, 3, 4, 7, 8, 15, 16]] == [
        1, 2, 2, 3, 3, 4, 4, 5,
    ]
    for n in range(1, 200):
        assert log_lower(n) == math.ceil(math.log2(n + 1))
    with pytest.raises(ValueError):
        log_lower(0)


def test_half_order_lower():
    assert half_order_lower(complete(4)) == 2
    assert half_order_lower(complete(5)) == 3
    hypercube2 = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert half_order_lower(hypercube2) == 2
    with pytest.raises(ValueError):
        half_order_lower(Graph(3, [(0, 1), (1, 2)]))  # pendant pair


def test_max_edges_small_values():
    assert [max_edges_for_code_size(k) for k in range(1, 9)] == [
        1, 3, 6, 11, 17, 28, 37, 47,
    ]
    with pytest.raises(ValueError):
        max_edges_for_code_size(0)


def test_connected_code_max_edges():
    assert connected_code_max_edges(3) == 6
    assert connected_code_max_edges(4) == 11
    assert connected_code_max_edges(6) == 24
    # the connected bound never exceeds the general one
    for k in range(3, 30):
        assert connected_code_max_edges(k) <= max_edges_for_code_size(k)
    with pytest.raises(ValueError):
        connected_code_max_edges(1)


def test_min_code_inverts_max_edges():
    for k in range(1, 40):
        top = max_edges_for_code_size(k)
        assert min_code_for_edges(top) == k
        assert min_code_for_edges(top + 1) == k + 1
    assert min_code_for_edges(1) == 1
    with pytest.raises(ValueError):
        min_code_for_edges(0)


def test_max_edges_is_strictly_increasing():
    values = [max_edges_for_code_size(k) for k in range(1, 100)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_sqrt_lower_ceiling_matches_float_formula():
    for m in range(1, 2000):
        expect = math.ceil(3 * math.sqrt(2) / 4 * math.sqrt(m) - 1e-12)
        assert sqrt_lower_ceiling(m) == expect, m


def test_exact_inverse_dominates_smoothed_bound_above_one_edge():
    # the piecewise inverse is the sharp form; the sqrt expression is its
    # smoothed underestimate for every m >= 2
    for m in range(2, 1001):
        assert min_code_for_edges(m) >= sqrt_lower_ceiling(m), m


def test_single_edge_is_the_sole_smoothed_bound_exception():
    # at m = 1 the smoothed constant overshoots the true optimum of 1
    assert min_code_for_edges(1) == 1
    assert sqrt_lower_ceiling(1) == 2


def test_bounds_report_on_k4():
    rep = bounds_report(complete(4))
    by_name = {e.name: e for e in rep.entries}
    assert by_name["log-universe"].value == 3
    assert by_name["half-order"].value == 2
    assert by_name["edge-count-inverse"].value == 3
    assert by_name["minimal-code-degeneracy"].value == 5
    assert not by_name["order-doubled-minus-4"].applicable
    assert not by_name["order-doubled-minus-5"].applicable
    assert by_name["identified-universe-minus-1"].value == 5
    assert not by_name["dense-average-degree"].applicable
    assert rep.best_lower() == 3
    assert rep.best_upper() == 5  # tight: the optimum is 5


def test_bounds_report_on_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    rep = bounds_report(Graph(10, outer + inner + spokes))
    assert rep.best_lower() == 5  # edge-count-inverse at m = 15
    assert rep.best_upper() >= 5
    by_name = {e.name: e for e in rep.entries}
    assert by_name["order-doubled-minus-4"].value == 16
    assert by_name["order-doubled-minus-5"].value == 15


def test_bounds_report_upper_gates():
    # K_2: order-based bounds would be nonpositive and are gated off
    rep = bounds_report(Graph(2, [(0, 1)]))
    by_name = {e.name: e for e in rep.entries}
    assert not by_name["order-doubled-minus-4"].applicable
    assert not by_name["identified-universe-minus-1"].applicable
    assert rep.best_lower() == 1
    assert rep.best_upper() == 1

    # dense graphs: average degree >= 5 activates the density bound,
    # floor(m - m/max_line_degree) = floor(21 - 21/10) for K_7
    k7 = complete(7)
    rep7 = bounds_report(k7)
    by_name7 = {e.name: e for e in rep7.entries}
    assert by_name7["dense-average-degree"].applicable
    assert by_name7["dense-average-degree"].value == 18


def test_identified_universe_entries_match_line_graph():
    # the report counts line-graph edges from the degrees; restate both
    # entries from the line graph itself.  An isolated edge of g is an
    # isolated vertex of the line graph, which every code holds, so the
    # exceptions are matched against the line graph without those.
    rng = random.Random(5)
    graphs = pendant_free_unions(8) + [
        random_connected_pendant_free(rng, 14) for _ in range(30)
    ]
    # the six identified graphs that escape the order-minus-2 bound
    exceptions = [
        Graph(3, [(0, 1), (1, 2)]),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        Graph(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 1), (4, 2), (4, 3)]),
        Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 0), (4, 1), (4, 2), (4, 3)]),
        line_graph(complete(4))[0],
    ]
    for g in graphs:
        lg, _ = line_graph(g)
        if lg.m >= 2:
            linked = [v for v in range(lg.n) if lg.degree(v)]
            index = {v: i for i, v in enumerate(linked)}
            core = Graph(len(linked), [(index[u], index[v]) for u, v in lg.edges])
            exceptional = core.n <= 6 and any(isomorphic(core, h) for h in exceptions)
            reason = "line graph is one of the six extremal exceptions"
            expect = [
                ("identified-universe-minus-1", g.m - 1, "upper", True, ""),
                ("identified-universe-minus-2", g.m - 2, "upper", not exceptional,
                 reason if exceptional else ""),
            ]
        else:
            reason = "line graph has fewer than two edges"
            expect = [
                ("identified-universe-minus-1", g.m - 1, "upper", False, reason),
                ("identified-universe-minus-2", g.m - 2, "upper", False, reason),
            ]
        got = [
            (e.name, e.value, e.direction, e.applicable, e.reason)
            for e in bounds_report(g).entries
            if e.name.startswith("identified-universe")
        ]
        assert got == expect, g.edges


def test_bounds_report_empty_graph():
    rep = bounds_report(Graph(3, []))
    assert rep.applicable("lower") == []
    assert rep.applicable("upper") == []


def test_bounds_report_text_formats():
    rep = bounds_report(complete(4))
    text = rep.to_text()
    kv = rep.to_key_values()
    assert "log-universe" in text
    assert "lower log-universe 3" in kv
    assert "best_lower 3" in kv and "best_upper 5" in kv


def test_upper_bounds_helper():
    ups = upper_bounds(complete(4))
    assert all(e.direction == "upper" for e in ups)
    assert min(e.value for e in ups if e.applicable) == 5


def test_solver_lower_bound_picks_best():
    value, name = solver_lower_bound(complete(7))
    assert (value, name) == (6, "edge-count-inverse")
    value, name = solver_lower_bound(Graph(2, [(0, 1)]))
    assert value == 1
    assert solver_lower_bound(Graph(3, [])) is None


def test_solver_lower_bound_reads_the_report(small_connected, pendant_free_all):
    # None exactly on a pendant pair, else the report's largest lower entry
    p3 = Graph(3, [(0, 1), (1, 2)])
    graphs = small_connected + pendant_free_all + [
        disjoint_union([g, p3]) for g in pendant_free_all[:40]
    ]
    for g in graphs:
        got = solver_lower_bound(g)
        if pendant_pairs(g):
            assert got is None, g.edges
        else:
            lower = bounds_report(g).applicable("lower")
            assert got == max((e.value, e.name) for e in lower), g.edges


def test_every_bound_brackets_the_optimum():
    # the optima are the corpus's pinned solves, not new ones
    pinned = read(Path(__file__).with_name("corpus_nodes.jsonl"))
    optimum = {r["name"]: r["size"] for r in pinned}
    wrong = []
    for name, g in corpus():
        opt = optimum[name]
        for e in bounds_report(g).entries:
            if e.applicable and (e.value > opt if e.direction == "lower" else e.value < opt):
                wrong.append((name, e.name, e.value, opt))
    assert not wrong, wrong


def test_conjecture_check():
    k4 = complete(4)
    # gamma_EID(K_4) = 5 on L(K_4): n = 6 vertices, Delta = 4
    from edgeid.graph_core import line_graph

    lg, _ = line_graph(k4)
    assert conjecture_check(lg, 5, 1)
    assert not conjecture_check(lg, 6, Fraction(1, 2))
    with pytest.raises(ValueError):
        conjecture_check(Graph(2, []), 0, 1)

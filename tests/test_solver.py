"""Exact solver, approximation, and minimalization."""

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SEED0_SAT2,
    SEED0_SAT3,
    brute_force_suffix_optimum,
    naive_constraints_from_masks,
    naive_is_code,
    naive_min_edge_code,
    naive_min_vertex_code,
    naive_shrink,
    naive_sweep,
    pendant_free_unions,
    random_connected_pendant_free,
)
from corpus_nodes import compare, corpus, read, solve_all, worse
from edgeid import _search, solver
from edgeid._search import ConstraintSystem, _sweep
from edgeid.families import standard_graph
from edgeid.graph_core import (EdgeSet, Graph, RejectedInput, bits, line_graph,
                               pendant_pairs)
from edgeid.identify import verify_edge_code, verify_vertex_code, vertex_closed_masks
from edgeid.reduction import build_reduction
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
        ("petersen", None, 5, 192),
        ("complete", 7, 6, 323),
        ("complete_bipartite", (4, 5), 7, 479),
        ("complete", 8, 7, 1780),
        ("cycle", 30, 15, 141),
        ("cycle", 60, 30, 291),
        ("cycle", 100, 50, 491),
        # suffix witnesses mapped through the ban group's generators, the
        # ones a raise implies among them, settle six suffix optima without
        # a search: 68,286 nodes with none
        ("hypercube", 4, 8, 16579),
    ],
)
def test_node_counts_are_pinned(kind, params, size, nodes):
    # node counts are deterministic: a pruning change that moves one must
    # update the pin and say why
    res = min_edge_code(standard_graph(kind, params))
    assert (res.status, res.size, res.nodes_used) == ("Optimal", size, nodes)


def test_corpus_keeps_its_codes_and_node_counts():
    # every graph of the corpus keeps its pinned status, size and code, and
    # none needs more nodes; a change that cuts nodes regenerates the pins
    # with corpus_nodes.py and says why
    report = compare(read(Path(__file__).with_name("corpus_nodes.jsonl")),
                     list(solve_all()))
    assert not worse(report), report


def test_k9_is_optimal_within_the_benchmark_budget():
    # solve_budget's cap: bans from the line graph's automorphisms and the
    # reused suffix witness bring K_9 under it; generators found lowest
    # candidate first pass the bans' tests more often (23,662 nodes before)
    res = min_edge_code(standard_graph("complete", 9), SolveOptions(budget=300_000))
    assert (res.status, res.size, res.nodes_used) == ("Optimal", 8, 8713)


def test_k11_is_optimal_within_ten_million_nodes():
    # bans by the node's setwise stabiliser: K_11 took 98,801,278 nodes
    # with the pointwise stabiliser's orbits alone
    res = min_edge_code(standard_graph("complete", 11), SolveOptions(budget=10**7))
    assert (res.status, res.size) == ("Optimal", 10)


@pytest.mark.parametrize("formula, nodes", [(SEED0_SAT2, 6513), (SEED0_SAT3, 49290)])
def test_reduction_node_counts_are_pinned(formula, nodes):
    # forced edges are split off and the table cuts revisited states, so
    # these reach their optimum k inside solve_budget's node budget
    inst = build_reduction(formula)
    res = min_edge_code(inst.graph, SolveOptions(budget=300_000))
    assert (res.status, res.size, res.nodes_used) == ("Optimal", inst.k, nodes)
    assert verify_edge_code(inst.graph, res.code).is_code


def test_forced_edges_are_split_off():
    # K_2: its one edge is forced and nothing is left to search
    res = min_edge_code(Graph(2, [(0, 1)]))
    assert (res.status, res.size, res.code.indices(), res.nodes_used) == (
        "Optimal", 1, [0], 0)
    # K_4 less an edge: the four forced edges already form a code, one
    # above the lower bound
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    forced, rest, _ = solver._strip_forced(g.m, _constraints_from_masks(g.all_edge_masks()))
    assert forced.bit_count() == 4 and rest == []
    res = min_edge_code(g)
    assert (res.status, res.size, res.lower_bound_used[1]) == ("Optimal", 4, 3)
    assert tuple(res.code.indices()) == naive_min_edge_code(g)
    # a hint of the forced size leaves the residual a cap below zero, so
    # the hint is optimal at once
    hinted = min_edge_code(g, SolveOptions(upper_hint=res.code))
    assert (hinted.status, hinted.code, hinted.nodes_used) == ("Optimal", res.code, 0)


def test_min_vertex_code_with_forced_vertices():
    # on paths, separating an end from its neighbour takes one vertex
    rng = random.Random(5)
    graphs = [Graph(n, [(i, i + 1) for i in range(n - 1)]) for n in range(3, 9)]
    graphs += [random_connected_pendant_free(rng, 8) for _ in range(30)]
    forcing = 0
    for g in graphs:
        masks = vertex_closed_masks(g)
        if len(set(masks)) < g.n:
            continue
        forcing += bool(solver._strip_forced(g.n, _constraints_from_masks(masks))[0])
        res = min_vertex_code(g)
        assert res.status == "Optimal" and res.code == naive_min_vertex_code(g), g.edges
        hinted = min_vertex_code(g, SolveOptions(upper_hint=res.code))
        assert (hinted.status, hinted.code) == ("Optimal", res.code)
    assert forcing >= 6


@pytest.mark.parametrize(
    "kind, params, budget, status",
    [
        ("petersen", None, solver.DEFAULT_BUDGET, "Optimal"),
        ("complete", 9, 5000, "BudgetExhausted"),
    ],
)
def test_every_search_goes_through_search_exact_size(monkeypatch, kind, params,
                                                     budget, status):
    # the suffix pass and the sweep both call the public kernel entry, so
    # a wrapper there sees every node the solve reports
    seen = []
    kernel = _search.search_exact_size

    def counting(*args):
        out = kernel(*args)
        seen.append(out[2])
        return out

    monkeypatch.setattr(_search, "search_exact_size", counting)
    res = min_edge_code(standard_graph(kind, params), SolveOptions(budget=budget))
    assert res.status == status and len(seen) > 1
    assert sum(seen) == res.nodes_used
    if status == "BudgetExhausted":
        assert res.nodes_used == budget + 1


def test_every_search_asks_at_least_the_next_floor(monkeypatch):
    # the last-level scan counts only the nodes that the loop visits when
    # a search from start asks k >= floor[start + 1] (search_exact_size's
    # rule); the suffix pass and the sweep both keep it
    asked = []
    kernel = _search.search_exact_size

    def checking(universe, system, k, budget, start=0):
        if start < universe:
            asked.append((start, k, system.floor[start + 1]))
        return kernel(universe, system, k, budget, start)

    monkeypatch.setattr(_search, "search_exact_size", checking)
    for i, (_, g) in enumerate(corpus()):
        if i % 10 == 0:
            min_edge_code(g)
    budgeted = [standard_graph("complete", 9), standard_graph("hypercube", 4),
                standard_graph("hypercube", 5), build_reduction(SEED0_SAT2).graph,
                build_reduction(SEED0_SAT3).graph]
    for g in budgeted:
        min_edge_code(g, SolveOptions(budget=300_000))
    assert [ask for ask in asked if ask[1] < ask[2]] == []
    # suffix searches and searches from 0 both ran
    assert {start > 0 for start, _, _ in asked} == {True, False}


@pytest.mark.parametrize("kind, params", [("complete", 5), ("cycle", 12),
                                           ("petersen", None), ("hypercube", 3)])
def test_budget_sweep(kind, params):
    # below the full node count N every budget runs out, counting at most
    # the node that crossed it; budget N is just enough
    g = standard_graph(kind, params)
    full = min_edge_code(g)
    exact = []
    for budget in range(1, full.nodes_used):
        res = min_edge_code(g, SolveOptions(budget=budget))
        assert res.status == "BudgetExhausted", budget
        assert budget <= res.nodes_used <= budget + 1, budget
        if res.nodes_used == budget:
            exact.append(budget)
    res = min_edge_code(g, SolveOptions(budget=full.nodes_used))
    assert res == full and full.status == "Optimal"
    if kind == "cycle":
        # these budgets run out between two searches of the suffix pass
        assert exact == [6, 13, 20, 27, 34]


@st.composite
def swept_systems(draw):
    universe = draw(st.integers(1, 12))
    # narrow constraints, like those of sparse graphs, make suffix searches
    # do real work; wide ones are mostly hit by a reused witness
    narrow = st.sets(st.integers(0, universe - 1), min_size=1, max_size=3).map(
        lambda positions: sum(1 << i for i in positions))
    mask = st.one_of(narrow, st.integers(1, (1 << universe) - 1))
    constraints = draw(st.lists(mask, max_size=2 * universe))
    opt, _ = naive_sweep(universe, constraints)
    lower = draw(st.integers(0, opt))
    cap = draw(st.integers(max(lower - 1, 0), universe))
    return universe, constraints, lower, cap


@settings(max_examples=300, deadline=None)
@given(swept_systems())
# small systems on which a wrong pre-marked mask, a missing +1 after a
# refutation, a reused witness that misses a constraint, or a {0} | W
# shortcut taken from a search at p > 1 each change an answer
@example((4, [4, 10], 0, 2))
@example((4, [10, 4], 0, 4))
@example((6, [1, 2, 36, 40], 0, 3))
def test_suffix_floors_and_sweep_match_naive_oracles(case):
    universe, constraints, lower, cap = case
    optima = [brute_force_suffix_optimum(universe, constraints, p)
              for p in range(universe + 1)]
    size, expect = naive_sweep(universe, constraints)
    for budget in (1, 3, 10, 40, 10**6):
        system = ConstraintSystem(universe, constraints)
        mask, nodes, exhausted = _sweep(system, lower, cap, budget)
        # every floor stays a valid bound, and the finished pass is exact
        assert all(f <= h for f, h in zip(system.floor, optima)), budget
        if not exhausted and cap == universe:
            assert system.floor[1:] == optima[1:], budget
        if exhausted:
            # the node that crossed the line is counted, unless the budget
            # ran out exactly between two searches
            assert mask is None and nodes in (budget, budget + 1)
            continue
        assert nodes <= budget
        if size <= cap:
            assert (mask.bit_count(), mask) == (size, expect), budget
        else:
            assert mask is None, budget


def test_solver_matches_naive_sweep_on_graphs():
    rng = random.Random(41)
    dense = []
    while len(dense) < 20:
        n = rng.randint(7, 11)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4])
        if g.m and not pendant_pairs(g):
            dense.append(g)
    sparse = [random_connected_pendant_free(rng, 11) for _ in range(40)]
    for g in pendant_free_unions(8) + sparse + dense:
        res = min_edge_code(g)
        assert res.status == "Optimal"
        naive = naive_sweep(g.m, naive_constraints_from_masks(g.all_edge_masks()))
        assert (res.size, res.code.mask) == naive, g.edges


def test_solver_with_orbits_matches_naive_sweep(monkeypatch):
    # with no keyed position allowed, every residual runs the plain loop
    # with the orbits of its positions, also where forced edges leave a
    # residual numbered apart from the graph's edges
    monkeypatch.setattr(_search, "KEY_LIMIT", -1)
    graphs = pendant_free_unions(8) + [standard_graph("complete", 5),
                                       standard_graph("petersen"),
                                       standard_graph("complete_bipartite", (3, 4))]
    forcing = 0
    for g in graphs:
        constraints = naive_constraints_from_masks(g.all_edge_masks())
        forcing += bool(solver._strip_forced(g.m, constraints)[0])
        res = min_edge_code(g)
        assert res.status == "Optimal"
        assert (res.size, res.code.mask) == naive_sweep(g.m, constraints), g.edges
    assert forcing >= 10


def _plain_residual(g):
    """The system that ``_solve_masks`` sweeps for ``g``'s residual, built
    with its graph, and the residual's constraints."""
    masks = g.all_edge_masks()
    _, rest, positions = solver._strip_forced(g.m, _constraints_from_masks(masks))
    return ConstraintSystem(len(positions), rest, (g, g.edges, positions)), rest


@pytest.mark.parametrize("kind, params", [
    ("complete", 5), ("complete_bipartite", (3, 4)), ("hypercube", 3)])
def test_mapped_returns_a_checked_image(monkeypatch, kind, params):
    # every answer is an image under a generator that lies in the suffix
    # and hits every constraint inside it, and None means that no image
    # does; the witnesses straddle the start on purpose.  With no keyed
    # position allowed, these residuals run the plain loop and are built
    # with a group
    monkeypatch.setattr(_search, "KEY_LIMIT", -1)
    system, rest = _plain_residual(standard_graph(kind, params))
    universe = system.universe
    rng = random.Random(7)
    answers = set()
    for _ in range(300):
        start = rng.randrange(universe)
        witness = sum(1 << q for q in rng.sample(range(universe), rng.randint(1, 6)))
        candidates = {sum(1 << images[q] for q in bits(witness))
                      for images, _, _ in system.group.moves}
        good = {image for image in candidates if image >> start << start == image
                and all(image & c for c in rest if c >> start << start == c)}
        out = system.mapped(witness, start)
        assert out in good if good else out is None, (start, witness)
        answers.add(out is None)
    assert answers == {True, False}


def test_system_is_built_with_its_group():
    # a plain-loop system built with its graph holds its group before any
    # search, and maps a code from 0 at once: every generator maps the
    # constraints onto themselves, so the first generator's image is
    # returned; a table-loop system, or one built without a graph, holds
    # no group and maps nothing
    k7 = standard_graph("complete", 7)
    system, rest = _plain_residual(k7)
    assert system.keys is None and system.group.moves
    code, _, _ = _sweep(_plain_residual(k7)[0], 0, system.universe, 10**6)
    images = system.group.moves[0][0]
    assert system.mapped(code, 0) == sum(1 << images[q] for q in bits(code))
    table, _ = _plain_residual(standard_graph("petersen"))
    bare = ConstraintSystem(system.universe, rest)
    for other in (table, bare):
        assert other.group is None and other.mapped(code, 0) is None
    assert table.keys is not None and bare.keys is None


@pytest.mark.parametrize("kind, params", [
    ("complete", 5), ("complete", 6), ("complete_bipartite", (3, 4)), ("hypercube", 3)])
def test_mapped_witnesses_keep_exact_floors(monkeypatch, kind, params):
    # with no keyed position allowed, these residuals run the plain loop
    # and hold a group; a mapped witness that left its suffix or missed a
    # constraint, or a held one that a raise did not imply, would settle a
    # floor below the brute-force optimum
    monkeypatch.setattr(_search, "KEY_LIMIT", -1)
    system, rest = _plain_residual(standard_graph(kind, params))
    universe = system.universe
    mask, _, exhausted = _sweep(system, 0, universe, 10**6)
    assert not exhausted and system.keys is None and system.group.moves
    assert system.floor[1:] == [brute_force_suffix_optimum(universe, rest, p)
                                for p in range(1, universe + 1)]
    assert (mask.bit_count(), mask) == naive_sweep(universe, rest)


@pytest.mark.parametrize("kind, params", [("hypercube", 4), ("complete_bipartite", (5, 5))])
def test_suffix_pass_maps_implied_witnesses(monkeypatch, kind, params):
    # a raised floor[p] = floor[p + 1] + 1 implies the witness W + {p}, W
    # the one held for p + 1: it solves the suffix problem from p and has
    # p as its lowest position, though no search found it and no map gave
    # it; some image of such a witness settles a later suffix optimum
    system, rest = _plain_residual(standard_graph(kind, params))
    given = []  # the witnesses that a search found or a map gave
    sources = []  # the witness that each accepted image is an image of
    kernel = _search.search_exact_size
    mapped = ConstraintSystem.mapped

    def searching(*args):
        out = kernel(*args)
        if out[0]:
            given.append(out[1])
        return out

    def spy(system, witness, start):
        out = mapped(system, witness, start)
        if out is not None:
            given.append(out)
            sources.append(witness)
        return out

    monkeypatch.setattr(_search, "search_exact_size", searching)
    monkeypatch.setattr(ConstraintSystem, "mapped", spy)
    _, _, exhausted = _sweep(system, 0, system.universe, 10**7)
    assert not exhausted and system.keys is None
    implied = [w for w in sources if w not in given]
    assert implied
    floor = system.floor
    for w in implied:
        p = (w & -w).bit_length() - 1
        assert w.bit_count() == floor[p] == floor[p + 1] + 1, p
        assert all(w & c for c in rest if c >> p << p == c), p


@pytest.mark.parametrize("kind, params, lower", [
    ("hypercube", 4, 0), ("hypercube", 4, 8), ("complete", 8, 0),
    ("complete_bipartite", (5, 5), 0)])
def test_mapped_witnesses_match_the_unmapped_pass(monkeypatch, kind, params, lower):
    # the same floors and code as the pass that searches every suffix
    g = standard_graph(kind, params)
    accepted = []
    mapped = ConstraintSystem.mapped

    def spy(system, witness, start):
        out = mapped(system, witness, start)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(ConstraintSystem, "mapped", spy)
    system, _ = _plain_residual(g)
    mask, nodes, exhausted = _sweep(system, lower, system.universe, 10**7)
    assert not exhausted and system.keys is None
    monkeypatch.setattr(ConstraintSystem, "mapped", lambda *args: None)
    unmapped, _ = _plain_residual(g)
    plain_mask, plain_nodes, _ = _sweep(unmapped, lower, unmapped.universe, 10**7)
    assert (system.floor, mask) == (unmapped.floor, plain_mask)
    if kind == "hypercube":
        # Q_4 settles six suffix optima by a mapped witness, saving the
        # searches of about 50,000 nodes behind them
        assert sum(accepted) == 6 and nodes < plain_nodes - 50000
    elif kind == "complete_bipartite":
        assert sum(accepted) == 3 and nodes < plain_nodes
    else:
        assert not any(accepted) and nodes == plain_nodes


def test_budget_exhaustion_and_hint_fallback():
    g = complete(5)
    starved = min_edge_code(g, SolveOptions(budget=3))
    assert starved.status == "BudgetExhausted"
    assert starved.code is None

    full = EdgeSet.full(g)
    rescued = min_edge_code(g, SolveOptions(budget=3, upper_hint=full))
    assert rescued.status == "Feasible"
    assert rescued.code == full and rescued.size == g.m


@pytest.mark.parametrize("budget", [None, 0, -3, 1.5, True])
def test_solvers_reject_a_budget_that_is_no_positive_int(budget):
    # both solvers check the budget before any work, with the kernel's
    # message, so a graph with no edge or no vertex is rejected too; an
    # unchecked 1.5 counted 2.5 nodes, None failed inside the search, and
    # True, an int to isinstance, ran as a budget of 1
    options = SolveOptions(budget=budget)
    cycle = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    for solve, g in ((min_edge_code, complete(5)), (min_edge_code, Graph(3, [])),
                     (min_vertex_code, cycle), (min_vertex_code, Graph(0, []))):
        with pytest.raises(ValueError, match="need a positive node budget"):
            solve(g, options)


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
    with pytest.raises(RejectedInput, match="not an identifying code"):
        min_vertex_code(c4, SolveOptions(upper_hint=[0]))


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
            assert sorted(_constraints_from_masks(masks)) == expect
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
            # a plain index list gives the same code
            assert shrink_to_minimal(g, start.indices()) == got


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

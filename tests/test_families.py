"""Family constructors and their claimed codes."""

import itertools
import math

import pytest

from edgeid.bounds import half_order_lower, max_edges_for_code_size, solver_lower_bound
from edgeid.families import (
    FamilyInstance,
    claw_free_example,
    extremal_low1,
    hypercube_matching,
    jk_graph,
    known_code,
    standard_graph,
    subdivided_regular_code,
)
from edgeid.graph_core import Multigraph, connected_components
from edgeid.identify import verify_edge_code, verify_vertex_code
from edgeid.properties import (
    TRIANGLE_FREE_NO_C4,
    cover_lemma_applicability,
    girth,
    induced_by_edges,
    isomorphic,
)
from edgeid.solver import min_edge_code


class TestStandardGraphs:
    def test_path_and_cycle(self):
        p4 = standard_graph("path", 4)
        assert p4.n == 4 and p4.edges == ((0, 1), (1, 2), (2, 3))
        c5 = standard_graph("cycle", 5)
        assert c5.m == 5 and girth(c5) == 5
        with pytest.raises(ValueError):
            standard_graph("cycle", 2)

    def test_complete(self):
        k5 = standard_graph("complete", 5)
        assert k5.n == 5 and k5.m == 10
        assert all(k5.has_edge(u, v) for u in range(5) for v in range(u + 1, 5))

    def test_complete_bipartite(self):
        k23 = standard_graph("complete_bipartite", (2, 3))
        assert k23.n == 5 and k23.m == 6
        left, right = range(2), range(2, 5)
        assert all(k23.has_edge(u, v) for u in left for v in right)
        assert not any(k23.has_edge(u, v) for u, v in itertools.combinations(left, 2))

    def test_hypercube(self):
        h3 = standard_graph("hypercube", 3)
        assert h3.n == 8 and h3.m == 12
        for u, v in h3.edges:
            assert bin(u ^ v).count("1") == 1
        assert standard_graph("hypercube", 1).m == 1
        with pytest.raises(ValueError):
            standard_graph("hypercube", 0)

    def test_petersen(self):
        p = standard_graph("petersen")
        assert p.n == 10 and p.m == 15
        assert girth(p) == 5
        assert all(p.degree(v) == 3 for v in range(10))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            standard_graph("wheel", 5)

    @pytest.mark.parametrize("kind, params", [
        ("path", True), ("cycle", (True,)), ("complete", False),
        ("complete_bipartite", (2, True)), ("hypercube", True)])
    def test_bool_is_no_parameter(self, kind, params):
        # True passed as an int: path(True) was Graph(n=True), whose edge
        # list header "True 0" read_edge_list rejects
        with pytest.raises(ValueError, match="integer parameter"):
            standard_graph(kind, params)


class TestKnownCodes:
    def assert_claim_consistent(self, inst):
        assert isinstance(inst, FamilyInstance)
        report = verify_edge_code(inst.graph, inst.claimed_code)
        assert report.is_code, inst.provenance
        if inst.claimed_gamma is not None:
            assert len(inst.claimed_code) == inst.claimed_gamma

    def assert_optimal(self, inst):
        res = min_edge_code(inst.graph)
        assert res.status == "Optimal"
        assert res.size == inst.claimed_gamma, inst.provenance

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_complete(self, n):
        inst = known_code("complete", n)
        self.assert_claim_consistent(inst)
        assert inst.claimed_gamma == (5 if n <= 5 else n - 1)
        if inst.graph.m <= 16:
            self.assert_optimal(inst)
        if n == 7:
            # too large to sweep blindly, but the edge-count bound is tight
            assert solver_lower_bound(inst.graph)[0] == inst.claimed_gamma

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_balanced_bipartite(self, n):
        inst = known_code("complete_bipartite", (n, n))
        self.assert_claim_consistent(inst)
        assert inst.claimed_gamma == math.ceil((3 * n - 1) / 2)
        if inst.graph.m <= 16:
            self.assert_optimal(inst)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_two_by_n(self, n):
        inst = known_code("complete_bipartite", (2, n))
        self.assert_claim_consistent(inst)
        assert inst.claimed_gamma == 2 * n - 2
        if inst.graph.m <= 16:
            self.assert_optimal(inst)
        # orientation must not matter
        flipped = known_code("complete_bipartite", (n, 2))
        self.assert_claim_consistent(flipped)
        assert flipped.claimed_gamma == 2 * n - 2

    @pytest.mark.parametrize("d,gamma", [(2, 3), (3, 5), (4, 8), (5, 16)])
    def test_hypercube(self, d, gamma):
        inst = known_code("hypercube", d)
        self.assert_claim_consistent(inst)
        assert inst.claimed_gamma == gamma
        if inst.graph.m <= 16:
            self.assert_optimal(inst)
        else:
            assert half_order_lower(inst.graph) == gamma  # bound-certified

    def test_petersen(self):
        inst = known_code("petersen")
        self.assert_claim_consistent(inst)
        assert inst.claimed_gamma == 5
        # the code is the spoke perfect matching
        spokes = {inst.graph.edge_index(i, i + 5) for i in range(5)}
        assert set(inst.claimed_code) == spokes
        self.assert_optimal(inst)

    def test_no_catalog_entry(self):
        with pytest.raises(ValueError):
            known_code("path", 5)
        with pytest.raises(ValueError):
            known_code("complete_bipartite", (3, 4))
        with pytest.raises(ValueError):
            known_code("complete_bipartite", (2, 2))
        with pytest.raises(ValueError):
            known_code("complete", 3)


class TestJkGraph:
    @pytest.mark.parametrize("k", range(3, 11))
    def test_edge_count_and_code(self, k):
        inst = jk_graph(k)
        g = inst.graph
        assert g.n == k + 2
        assert g.m == math.comb(k + 2, 2) - 4
        assert len(inst.claimed_code) == k
        assert verify_edge_code(g, inst.claimed_code).is_code
        assert inst.claimed_gamma is None

    def test_structure_of_removals(self):
        # apex is the last vertex; it misses u_2 and u_k; the chords
        # u_1 u_3 and u_{k-1} u_{k+1} are gone; everything else is present
        k = 5
        g = jk_graph(k).graph
        w = k + 1
        missing = {(1, w), (k - 1, w), (0, 2), (k - 2, k)}
        for u in range(k + 2):
            for v in range(u + 1, k + 2):
                assert g.has_edge(u, v) == ((u, v) not in missing)

    def test_code_is_the_path(self):
        inst = jk_graph(4)
        path = [inst.graph.edge_index(i, i + 1) for i in range(4)]
        assert sorted(inst.claimed_code) == sorted(path)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            jk_graph(2)


class TestExtremalLow1:
    @pytest.mark.parametrize("k", range(4, 13))
    def test_edge_count_meets_bound(self, k):
        inst = extremal_low1(k)
        assert inst.graph.m == max_edges_for_code_size(k)
        assert len(inst.claimed_code) == k
        assert inst.claimed_gamma == k
        assert verify_edge_code(inst.graph, inst.claimed_code).is_code
        # by construction the edge count makes the inverse bound tight,
        # so the verified code is optimal without any search
        assert solver_lower_bound(inst.graph)[0] == k

    def test_k3_single_block(self):
        inst = extremal_low1(3)
        assert inst.graph.m == 6
        assert verify_edge_code(inst.graph, inst.claimed_code).is_code

    def test_solver_confirms_small_cases(self):
        for k in (4, 5):
            inst = extremal_low1(k)
            res = min_edge_code(inst.graph)
            assert res.status == "Optimal" and res.size == k

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            extremal_low1(2)


class TestHypercubeMatching:
    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_perfect_matching_without_shared_squares(self, d):
        g = standard_graph("hypercube", d)
        matching = hypercube_matching(d)
        assert len(matching) == 1 << (d - 1)
        covered = []
        directions = []
        for e in matching:
            u, v = g.edges[e]
            covered.extend((u, v))
            directions.append((u ^ v, min(u, v)))
        assert sorted(covered) == list(range(1 << d))  # perfect
        # two disjoint hypercube edges share a 4-cycle exactly when they
        # point the same way and their bases differ in one other bit
        by_dir = {}
        for direction, base in directions:
            by_dir.setdefault(direction, []).append(base)
        for bases in by_dir.values():
            for a, b in itertools.combinations(bases, 2):
                assert bin(a ^ b).count("1") != 1

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_matching_is_a_code(self, d):
        g = standard_graph("hypercube", d)
        matching = hypercube_matching(d)
        assert cover_lemma_applicability(g, matching) == TRIANGLE_FREE_NO_C4
        assert verify_edge_code(g, matching).is_code

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_no_edge_crosses_the_new_coordinate(self, d):
        g = standard_graph("hypercube", d)
        top = 1 << (d - 1)
        for e in hypercube_matching(d):
            u, v = g.edges[e]
            assert (u ^ v) & top == 0

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            hypercube_matching(3)


class TestSubdividedRegular:
    def test_k4(self):
        mg = Multigraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        inst = subdivided_regular_code(mg, 3)
        g = inst.graph
        assert g.n == 10 and g.m == 12
        assert inst.claimed_gamma == 8
        assert verify_edge_code(g, inst.claimed_code).is_code
        res = min_edge_code(g)
        assert res.status == "Optimal" and res.size == 8

    def test_parallel_edges_theta(self):
        theta = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
        inst = subdivided_regular_code(theta, 3)
        # the subdivision of the triple edge is K_{2,3}
        k23 = standard_graph("complete_bipartite", (2, 3))
        assert isomorphic(inst.graph, k23)
        assert inst.claimed_gamma == 4
        res = min_edge_code(inst.graph)
        assert res.status == "Optimal" and res.size == 4

    def test_four_regular_double_vertex(self):
        mg = Multigraph(2, [(0, 1)] * 4)
        inst = subdivided_regular_code(mg, 4)
        assert inst.claimed_gamma == 6
        assert verify_edge_code(inst.graph, inst.claimed_code).is_code
        res = min_edge_code(inst.graph)
        assert res.status == "Optimal" and res.size == 6

    def test_k33_verifies(self):
        mg = Multigraph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        inst = subdivided_regular_code(mg, 3)
        assert inst.claimed_gamma == 12
        assert verify_edge_code(inst.graph, inst.claimed_code).is_code

    def test_rejects_irregular_or_low_degree(self):
        with pytest.raises(ValueError):
            subdivided_regular_code(Multigraph(3, [(0, 1), (1, 2)]), 3)
        with pytest.raises(ValueError):
            subdivided_regular_code(Multigraph(3, [(0, 1), (1, 2), (0, 2)]), 2)


class TestClawFree:
    @staticmethod
    def has_claw(g):
        for v in range(g.n):
            nbrs = g.neighbors(v)
            for trio in itertools.combinations(nbrs, 3):
                if not any(
                    g.has_edge(a, b) for a, b in itertools.combinations(trio, 2)
                ):
                    return True
        return False

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_claw_free_exhaustively(self, k):
        inst = claw_free_example(k)
        assert not self.has_claw(inst.graph)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_vertex_code_verifies(self, k):
        inst = claw_free_example(k)
        assert inst.code_kind == "vertex"
        assert inst.graph.n == k + (1 << k) - 1
        assert len(inst.claimed_code) == 2 * k
        assert verify_vertex_code(inst.graph, inst.claimed_code).is_code

    def test_construction_scales(self):
        inst = claw_free_example(7)
        assert inst.graph.n == 7 + 127
        assert len(inst.claimed_code) == 14

    def test_range_errors(self):
        with pytest.raises(ValueError):
            claw_free_example(1)
        with pytest.raises(ValueError):
            claw_free_example(13)


class TestCompleteExtremalShapes:
    @pytest.mark.parametrize("n", [6, 7])
    def test_optimal_codes_are_long_cycles_plus_isolated_vertex(self, n):
        g = standard_graph("complete", n)
        masks = g.all_edge_masks()
        target = n - 1
        found = 0
        for combo in itertools.combinations(range(g.m), target):
            cm = 0
            for i in combo:
                cm |= 1 << i
            traces = [mk & cm for mk in masks]
            if 0 in traces or len(set(traces)) != g.m:
                continue
            found += 1
            sub, labels = induced_by_edges(g, combo_set(g, combo))
            comps = connected_components(sub)
            assert sub.n == n - 1  # exactly one vertex of K_n left out
            for comp in comps:
                comp_edges = [
                    e for e, (u, v) in enumerate(sub.edges) if u in comp
                ]
                assert len(comp) >= 5
                assert len(comp_edges) == len(comp)  # each component a cycle
                assert all(sub.degree(v) == 2 for v in comp)
        assert found > 0


def combo_set(g, combo):
    from edgeid.graph_core import EdgeSet

    return EdgeSet.from_indices(g, combo)

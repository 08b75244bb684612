"""Formula-to-graph reduction: counts, labels, round trips, gadget claims."""

import itertools
import random

import pytest

from edgeid.graph_core import EdgeSet, FormatError, GraphBuilder, pendant_pairs
from edgeid.identify import verify_edge_code
from edgeid.properties import girth, is_bipartite
from edgeid.reduction import (
    ReductionInstance,
    SatFormula,
    assignment_to_code,
    attach_p_gadget,
    build_reduction,
    build_reduction_girth,
    code_to_assignment,
    labels_to_text,
    read_dimacs,
    validate_formula,
)

from conftest import (
    build_forcing_tree_host,
    build_variable_zone,
    random_formula,
    satisfying_assignment,
    zone_valid,
)

# x0: ++-, x1: +-+; only (True, True) satisfies all three clauses
FIXTURE = SatFormula(2, (((0, True), (1, True)), ((0, True), (1, False)), ((0, False), (1, True))))


class TestFormulaValidation:
    def test_fixture_is_valid(self):
        assert validate_formula(FIXTURE) == []

    def test_clause_size(self):
        f = SatFormula(1, (((0, True),),))
        assert any("1 literals" in p for p in validate_formula(f))

    def test_repeated_literal(self):
        f = SatFormula(1, (((0, True), (0, True)),))
        assert any("repeats" in p for p in validate_formula(f))

    def test_unknown_variable(self):
        f = SatFormula(1, (((0, True), (4, False)),))
        assert any("unknown variable 4" in p for p in validate_formula(f))

    def test_negative_variable_count(self):
        assert validate_formula(SatFormula(-1, ())) == ["negative variable count -1"]

    def test_occurrence_profile(self):
        f = SatFormula(2, (((0, True), (1, True)), ((0, False), (1, False))))
        problems = validate_formula(f)
        assert any("variable 0 occurs" in p for p in problems)
        assert any("variable 1 occurs" in p for p in problems)

    def test_builder_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid formula"):
            build_reduction(SatFormula(1, (((0, True), (0, False)),)))

    def test_normalization(self):
        f = SatFormula(2, [[(0, 1), [1, 0]], [(0, 1), (1, 1)], [[0, 0], (1, 1)]])
        assert isinstance(f.clauses, tuple)
        assert f.clauses[0] == ((0, True), (1, False))


class TestAttachPGadget:
    def test_shape(self):
        b = GraphBuilder()
        b.add_vertex()
        named = attach_p_gadget(b, 0)
        g = b.to_graph()
        assert g.n == 6 and g.m == 5
        assert sorted(named) == ["a", "b", "c", "d", "e"]
        a, bb, c, d, e = (named[x] for x in "abcde")
        assert g.edges[a][0] == 0
        p = g.edges[a][1]
        assert g.degree(p) == 3
        assert p in g.edges[bb] and p in g.edges[c]
        assert g.edges[d][0] == g.edges[c][1]
        assert g.edges[e][0] == g.edges[d][1]


class TestBuiltShape:
    @pytest.mark.parametrize("lam,mu", [(1, 2), (2, 2), (1, 3), (2, 3)])
    def test_counts_and_degrees(self, lam, mu):
        f = FIXTURE
        m, n = len(f.clauses), f.num_vars
        if (lam, mu) == (1, 2):
            inst = build_reduction(f)
            assert inst.params == "base"
        else:
            inst = build_reduction_girth(f, lam, mu)
            assert inst.params == (lam, mu)
        g = inst.graph
        assert g.n == (36 * lam + 9) * m + (30 * mu - 18) * n
        assert g.m == (36 * lam + 8) * m + (30 * mu - 18) * n
        assert inst.k == (21 * lam + 4) * m + (17 * mu - 12) * n
        assert max(g.degree(v) for v in range(g.n)) <= 3
        assert is_bipartite(g)[0]
        assert pendant_pairs(g) == []

    def test_base_girth_is_eight(self):
        assert girth(build_reduction(FIXTURE).graph) == 8

    @pytest.mark.parametrize("lam,mu,floor", [(2, 2, 8), (1, 3, 12), (2, 3, 12)])
    def test_stretched_girth(self, lam, mu, floor):
        inst = build_reduction_girth(FIXTURE, lam, mu)
        assert floor == min(4 * mu, 8 * (lam + 1))
        assert girth(inst.graph) >= floor

    def test_girth_params_validated(self):
        with pytest.raises(ValueError):
            build_reduction_girth(FIXTURE, 0, 2)
        with pytest.raises(ValueError):
            build_reduction_girth(FIXTURE, 1, 1)

    def test_random_formulas(self):
        rng = random.Random(7)
        for _ in range(5):
            f = random_formula(rng, rng.randrange(2, 5))
            assert validate_formula(f) == []
            inst = build_reduction(f)
            assert inst.graph.n == 45 * len(f.clauses) + 42 * f.num_vars
            assert girth(inst.graph) == 8


class TestLabels:
    def test_every_edge_labelled_once(self):
        inst = build_reduction(FIXTURE)
        m, n = len(FIXTURE.clauses), FIXTURE.num_vars
        assert set(inst.labels.values()) == set(range(inst.graph.m))
        # aliases: a{t} and b{t} per clause arm, tbar2 per variable
        assert len(inst.labels) == inst.graph.m + 6 * m + n

    def test_alias_identities(self):
        inst = build_reduction_girth(FIXTURE, 2, 2)
        lam = 2
        for i in range(len(FIXTURE.clauses)):
            for t in (1, 2, 3):
                assert inst.labels[f"Q{i}.a{t}"] == inst.labels[f"Q{i}.arm{t}.{2 * lam}"]
                assert inst.labels[f"Q{i}.b{t}"] == inst.labels[f"Q{i}.arm{t}.1"]
        for j in range(FIXTURE.num_vars):
            assert inst.labels[f"x{j}.tbar2"] == inst.labels[f"x{j}.u1"]

    def test_per_gadget_cardinality(self):
        inst = build_reduction(FIXTURE)
        names = set(inst.labels)
        for i in range(len(FIXTURE.clauses)):
            assert {f"Q{i}.c0", f"Q{i}.c1", f"Q{i}.c2"} <= names
            arms = [x for x in names if x.startswith(f"Q{i}.arm")]
            assert len(arms) == 6  # 2 per arm at lambda 1
            ps = [x for x in names if x.startswith(f"Q{i}.P")]
            assert len(ps) == 35  # 7 gadgets, 5 edges each
        for j in range(FIXTURE.num_vars):
            assert {f"x{j}.t1", f"x{j}.t2", f"x{j}.tbar1", f"x{j}.tbar2"} <= names
            assert {f"x{j}.d{i}" for i in range(1, 5)} <= names
            assert {f"x{j}.e{i}" for i in range(1, 5)} <= names
            assert {f"x{j}.f{i}" for i in range(1, 6)} <= names
            assert f"x{j}.u1" in names and f"x{j}.u2" not in names

    def test_labels_to_text(self):
        assert labels_to_text({"b": 2, "a": 0}) == "0 a\n2 b\n"


class TestRoundTrip:
    @pytest.mark.parametrize("lam,mu", [(1, 2), (2, 2), (1, 3), (2, 3)])
    def test_forward_then_back(self, lam, mu):
        if (lam, mu) == (1, 2):
            inst = build_reduction(FIXTURE)
        else:
            inst = build_reduction_girth(FIXTURE, lam, mu)
        code = assignment_to_code(inst, (True, True))
        assert len(code) == inst.k
        assert verify_edge_code(inst.graph, code).is_code
        assert code_to_assignment(inst, code) == (True, True)

    def test_random_formulas_round_trip(self):
        rng = random.Random(19)
        for _ in range(4):
            while True:
                f = random_formula(rng, rng.randrange(2, 5))
                asg = satisfying_assignment(f)
                if asg is not None:
                    break
            inst = build_reduction(f)
            code = assignment_to_code(inst, asg)
            assert verify_edge_code(inst.graph, code).is_code
            assert code_to_assignment(inst, code) == asg

    def test_unsatisfying_assignment_rejected(self):
        inst = build_reduction(FIXTURE)
        with pytest.raises(ValueError, match="does not satisfy clause"):
            assignment_to_code(inst, (True, False))

    def test_wrong_length_rejected(self):
        inst = build_reduction(FIXTURE)
        with pytest.raises(ValueError, match="length"):
            assignment_to_code(inst, (True,))

    def test_back_rejects_oversize(self):
        inst = build_reduction(FIXTURE)
        with pytest.raises(ValueError, match="target"):
            code_to_assignment(inst, EdgeSet.full(inst.graph))

    def test_back_rejects_non_code(self):
        inst = build_reduction(FIXTURE)
        with pytest.raises(ValueError, match="not an edge-identifying"):
            code_to_assignment(inst, EdgeSet.from_indices(inst.graph, ()))

    def test_back_returns_none_without_pattern(self):
        # hand-built instance whose labels dodge both selection patterns
        b = GraphBuilder()
        b.add_vertices(5)
        for i in range(5):
            b.add_edge(i, (i + 1) % 5)
        g = b.to_graph()
        code = EdgeSet.from_indices(g, (0, 1, 2))
        assert verify_edge_code(g, code).is_code
        labels = {"x0.t1": 0, "x0.t2": 3, "x0.tbar1": 3, "x0.tbar2": 4}
        inst = ReductionInstance(g, 3, labels, "base", SatFormula(1, ()), ())
        assert code_to_assignment(inst, code) is None


class TestDimacs:
    def test_basic(self):
        f = read_dimacs("c comment\np cnf 2 3\n1 2 0\n1 -2 0\n-1 2 0\n")
        assert f == FIXTURE

    def test_clause_spanning_lines(self):
        f = read_dimacs("p cnf 2 1\n1\n2 0\n")
        assert f.clauses == (((0, True), (1, True)),)

    def test_header_problems(self):
        with pytest.raises(FormatError, match="missing"):
            read_dimacs("c nothing here\n")
        with pytest.raises(FormatError, match="line 2"):
            read_dimacs("p cnf 2 1\np cnf 2 1\n")
        with pytest.raises(FormatError, match="header"):
            read_dimacs("p cnf two 1\n")
        with pytest.raises(FormatError, match="line 1: bad DIMACS header"):
            read_dimacs("p cnf -1 0\n")
        with pytest.raises(FormatError, match="before the header"):
            read_dimacs("1 2 0\n")

    def test_literal_problems(self):
        with pytest.raises(FormatError, match="bad literal"):
            read_dimacs("p cnf 2 1\n1 x 0\n")
        with pytest.raises(FormatError, match="out of range"):
            read_dimacs("p cnf 2 1\n1 3 0\n")
        with pytest.raises(FormatError, match="unterminated"):
            read_dimacs("p cnf 2 1\n1 2\n")
        with pytest.raises(FormatError, match="declares 2"):
            read_dimacs("p cnf 2 2\n1 2 0\n")


class TestForcingTreeClaims:
    """Exhaustive check of what any code must take from a forcing tree."""

    def test_three_tree_edges_and_a_host_edge_forced(self):
        g, named = build_forcing_tree_host()
        tree = set(named.values())
        host_at_attachment = {0, 3}  # the two cycle edges at vertex 0
        best_tree_share = g.m
        acd_seen = False
        for bits in range(1 << g.m):
            c = EdgeSet.from_indices(g, [i for i in range(g.m) if bits >> i & 1])
            if not verify_edge_code(g, c).is_code:
                continue
            inside = {i for i in c if i in tree}
            assert len(inside) >= 3
            assert any(i in c for i in host_at_attachment)
            best_tree_share = min(best_tree_share, len(inside))
            if inside == {named["a"], named["c"], named["d"]}:
                acd_seen = True
        assert best_tree_share == 3
        assert acd_seen  # the selection the forward map uses suffices


class TestVariableZoneClaim:
    """Selections of at most mu edges that keep the cycle separated."""

    @pytest.mark.parametrize("mu", [2, 3])
    def test_survivors_are_the_two_alternating_patterns(self, mu):
        g, cycle_edges, platforms, t_edges = build_variable_zone(mu)
        base = 0
        for e in platforms:
            base |= 1 << e
        pool = cycle_edges + t_edges
        survivors = set()
        for r in range(mu + 1):
            for combo in itertools.combinations(pool, r):
                chosen = base
                for e in combo:
                    chosen |= 1 << e
                if zone_valid(g, cycle_edges, chosen):
                    survivors.add(frozenset(combo))
        true_pattern = frozenset(t_edges[0::2])  # t1, t2, u2, ...
        false_pattern = frozenset(t_edges[1::2])  # tbar1, u1, u3, ...
        assert survivors == {true_pattern, false_pattern}

    def test_mixed_selection_fails(self):
        # one occurrence edge plus a cycle edge leaves two cycle edges
        # with identical traces
        g, cycle_edges, platforms, t_edges = build_variable_zone(2)
        masks = g.all_edge_masks()
        chosen = 0
        for e in platforms:
            chosen |= 1 << e
        d2, e2 = cycle_edges[2], cycle_edges[3]
        chosen |= 1 << t_edges[0] | 1 << d2
        assert masks[d2] & chosen == masks[e2] & chosen
        assert not zone_valid(g, cycle_edges, chosen)


class TestClauseSeparationClaim:
    """The two center edges are told apart only by the anchor edges."""

    def test_center_difference_is_the_anchors(self):
        inst = build_reduction(FIXTURE)
        masks = inst.graph.all_edge_masks()
        for i in range(len(FIXTURE.clauses)):
            c1 = inst.labels[f"Q{i}.c1"]
            c2 = inst.labels[f"Q{i}.c2"]
            anchors = 0
            for t in (1, 2, 3):
                anchors |= 1 << inst.labels[f"Q{i}.a{t}"]
            assert masks[c1] ^ masks[c2] == anchors

    def test_all_false_arms_leave_centers_unseparated(self):
        inst = build_reduction(FIXTURE)
        code = set(assignment_to_code(inst, (True, True)))
        # rewrite clause 0's arms to the unsatisfied parity: drop even
        # positions, add odd ones; no anchor edge survives
        for t in (1, 2, 3):
            code.discard(inst.labels[f"Q0.arm{t}.2"])
            code.add(inst.labels[f"Q0.arm{t}.1"])
        report = verify_edge_code(inst.graph, EdgeSet.from_indices(inst.graph, code))
        assert not report.is_code
        bad = {frozenset((e, f)) for e, f, _ in report.unseparated}
        assert frozenset((inst.labels["Q0.c1"], inst.labels["Q0.c2"])) in bad

"""Search kernel: correctness, parity with the recursive references, budget
accounting, depth."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SEED0_SAT2, RefutedTable, _group_by_top_bit, numbered,
                      pendant_free_unions, reference_build, reference_keys,
                      reference_pruned_search, reference_search)
from edgeid import _search, solver
from edgeid._search import ConstraintSystem, search_exact_size
from edgeid.families import standard_graph
from edgeid.graph_core import bits
from edgeid.identify import verify_edge_code
from edgeid.reduction import SatFormula, build_reduction
from edgeid.solver import SolveOptions, _constraints_from_masks, min_edge_code
from edgeid.symmetry import edge_orbits


def brute_force(universe, constraints, k):
    """First k-subset in lexicographic order hitting every constraint."""
    for combo in itertools.combinations(range(universe), k):
        mask = sum(1 << i for i in combo)
        if all(mask & c for c in constraints):
            return mask
    return None


def random_instance(rng, max_universe=14):
    universe = rng.randint(1, max_universe)
    count = rng.randint(0, 2 * universe)
    constraints = []
    for _ in range(count):
        c = rng.getrandbits(universe)
        if c:
            constraints.append(c)
    k = rng.randint(0, universe)
    return universe, constraints, k


def test_group_by_top_bit_validation():
    groups = _group_by_top_bit(4, [0b1010, 0b0001])
    assert groups[3] == [0b1010] and groups[0] == [0b0001]
    # the kernel rejects the same masks as the reference, with the same text
    for check in (_group_by_top_bit, lambda u, cs: search_exact_size(u, cs, 1, 10)):
        with pytest.raises(ValueError, match="constraint masks must be nonzero"):
            check(4, [0b1, 0])
        with pytest.raises(ValueError, match="constraint mask exceeds the universe"):
            check(3, [0b1, 0b1000])
    with pytest.raises(ValueError, match="another universe"):
        search_exact_size(5, ConstraintSystem(4, [0b1]), 1, 10)


def test_python_kernel_finds_lex_least():
    rng = random.Random(7)
    for _ in range(300):
        universe, constraints, k = random_instance(rng)
        found, mask, nodes, exhausted = search_exact_size(
            universe, constraints, k, 10**7
        )
        assert not exhausted
        expect = brute_force(universe, constraints, k)
        assert found == (expect is not None)
        if found:
            assert mask == expect
        assert nodes >= 1


def test_suffix_search_finds_lex_least():
    # from start p, which counts the constraints whose lowest bit lies
    # below p as hit, the kernel finds the lex-least k-subset of
    # [p, universe) hitting the constraints inside that range
    rng = random.Random(11)
    for _ in range(300):
        universe, constraints, k = random_instance(rng)
        system = ConstraintSystem(universe, constraints)
        p = rng.randint(0, universe)
        found, mask, _, exhausted = search_exact_size(universe, system, k, 10**7, p)
        assert not exhausted
        inside = [c >> p for c in constraints if c >> p << p == c]
        expect = brute_force(universe - p, inside, k)
        assert found == (expect is not None)
        if found:
            assert mask == expect << p


BUDGETS = (1, 2, 3, 5, 10, 50, 10**6)


@st.composite
def constraint_systems(draw):
    universe = draw(st.integers(0, 16))
    if universe == 0:
        return 0, []
    mask = st.integers(1, (1 << universe) - 1)
    return universe, draw(st.lists(mask, max_size=2 * universe))


@settings(max_examples=200, deadline=None)
@given(constraint_systems())
def test_kernel_matches_recursive_reference(system):
    universe, constraints = system
    prepared = ConstraintSystem(universe, constraints)
    shared = RefutedTable()
    churned = ConstraintSystem(universe, constraints)
    churning = RefutedTable(cap=2)
    for k in range(universe + 2):
        for budget in BUDGETS:
            got = search_exact_size(universe, constraints, k, budget)
            # the recursive restatement of the pruned search, node for node
            assert got == reference_pruned_search(universe, constraints, k, budget), (
                k, budget)
            # a prepared system keeps its table from one search to the next
            again = search_exact_size(universe, prepared, k, budget)
            assert again == reference_pruned_search(
                universe, constraints, k, budget, shared), (k, budget)
            if not got[3] and not again[3]:
                assert again[:2] == got[:2] and again[2] <= got[2], (k, budget)
            # a table that holds at most two states, node for node
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_search, "TABLE_CAP", 2)
                tight = search_exact_size(universe, churned, k, budget)
            assert tight == reference_pruned_search(
                universe, constraints, k, budget, churning), (k, budget)
            # pruning keeps the answer of the unpruned search, in fewer nodes
            plain = reference_search(universe, constraints, k, budget)
            if not got[3] and not plain[3]:
                assert got[:2] == plain[:2] and got[2] <= plain[2], (k, budget)


@settings(max_examples=200, deadline=None)
@given(constraint_systems(), st.data())
def test_plain_loop_matches_recursive_reference(system, data):
    # universes this small always have a keyed position, so
    # search_exact_size runs the table loop on them; call the plain loop
    # directly.  From a start p it searches like the reference on the
    # constraints inside [p, universe) shifted down by p, node for node.
    universe, constraints = system
    start = data.draw(st.integers(0, universe), label="start")
    prepared = ConstraintSystem(universe, constraints)
    inside = [c >> start for c in constraints if c >> start << start == c]
    for k in range(universe + 2):
        for budget in BUDGETS:
            got = _search._search(prepared, k, budget, start)
            found, mask, nodes, exhausted = reference_pruned_search(
                universe - start, inside, k, budget, keyed=False)
            assert got == (found, mask << start, nodes, exhausted), (k, budget)


def residual_of(g):
    """``(constraints, positions)`` of the edge-code residual of g."""
    _, constraints, positions = solver._strip_forced(
        g.m, _constraints_from_masks(g.all_edge_masks()))
    return constraints, positions


def shifted_bans(group, start):
    """The bans of ``group`` for a search from ``start``, in the terms of
    the suffix problem shifted down by ``start``: the orbits, and the
    generators that map ``range(start)`` onto itself."""
    orbits = [[r - start for r in orbit] for orbit in group.orbits[start:]]
    gens = [[r - start for r in images[start:]] for images, _, _ in group.moves
            if sorted(images[:start]) == list(range(start))]
    return orbits, gens


class Pointwise:
    """``group`` with the prefix test of each generator made pointwise: it
    passes at ``p`` only when the generator fixes every position below
    ``p``.  Those generators generate the pointwise stabiliser of the
    positions below ``p``, whose orbits ``group.orbits`` lists, so the plain
    loop then bans exactly those orbits."""

    def __init__(self, group):
        self.orbits = group.orbits
        self.reach = group.reach
        self.moves = []
        for images, _, _ in group.moves:
            first = next(p for p, r in enumerate(images) if r != p)
            self.moves.append((images, (2 << first) - 1, 1 << first))


def test_bans_keep_the_lex_least_subset():
    # each edge-code residual runs the plain loop with the bans of its
    # graph's group lifted to its edges; from every start and at every
    # size it returns the subset found without bans, in no more nodes
    # than with no bans or with the pointwise bans alone (the plain loop
    # without a group and with a Pointwise one match the reference node
    # for node)
    graphs = pendant_free_unions(8) + [
        standard_graph(kind, params) for kind, params in (
            ("complete", 4), ("complete", 5), ("complete", 6), ("complete", 7),
            ("complete_bipartite", (3, 3)), ("complete_bipartite", (3, 4)),
            ("complete_bipartite", (4, 5)), ("hypercube", 3), ("hypercube", 4),
            ("petersen", None))
    ]
    saved = 0
    for g in graphs:
        constraints, positions = residual_of(g)
        universe = len(positions)
        plain = ConstraintSystem(universe, constraints)
        pointwise = ConstraintSystem(universe, constraints)
        system = ConstraintSystem(universe, constraints)
        system.group = edge_orbits(g, g.edges, positions)
        pointwise.group = Pointwise(system.group)
        for start in range(universe + 1):
            for k in range(universe - start + 2):
                found, mask, nodes, _ = _search._search(plain, k, 10**9, start)
                fewer = _search._search(pointwise, k, 10**9, start)[2]
                got = _search._search(system, k, 10**9, start)
                assert got[:2] + got[3:] == (found, mask, False), (g.edges, start, k)
                assert got[2] <= fewer <= nodes, (g.edges, start, k)
                saved += fewer - got[2]
    assert saved > 0


def test_bans_match_reference_node_for_node():
    # the plain loop with the bans of the graph's group lifted to its
    # edges, against the recursive reference applying the same bans: the
    # same 4-tuple at every start, size and budget; with the Pointwise
    # group, against the reference banning the pointwise orbits alone
    graphs = [standard_graph(kind, params) for kind, params in (
        ("complete", 4), ("complete", 5), ("complete", 6),
        ("complete_bipartite", (3, 3)), ("complete_bipartite", (3, 4)),
        ("hypercube", 3))]
    graphs += random.Random(14).sample(pendant_free_unions(8), 24)
    banned = 0
    for g in graphs:
        constraints, positions = residual_of(g)
        universe = len(positions)
        group = edge_orbits(g, g.edges, positions)
        system = ConstraintSystem(universe, constraints)
        system.group = group
        pointwise = ConstraintSystem(universe, constraints)
        pointwise.group = Pointwise(group)
        for start in range(universe, -1, -1):
            orbits, gens = shifted_bans(group, start)
            banned += any(orbits)
            inside = [c >> start for c in constraints if c >> start << start == c]
            for k in range(universe - start + 2):
                for budget in BUDGETS:
                    found, mask, nodes, exhausted = reference_pruned_search(
                        universe - start, inside, k, budget, keyed=False,
                        orbits=orbits, generators=gens)
                    assert _search._search(system, k, budget, start) == (
                        found, mask << start, nodes, exhausted), (
                        g.edges, start, k, budget)
                    found, mask, nodes, exhausted = reference_pruned_search(
                        universe - start, inside, k, budget, keyed=False,
                        orbits=orbits)
                    assert _search._search(pointwise, k, budget, start) == (
                        found, mask << start, nodes, exhausted), (
                        g.edges, start, k, budget)
    assert banned > 0


@pytest.mark.parametrize("kind, params", [
    ("complete", 6), ("complete_bipartite", (3, 4)), ("hypercube", 3)])
def test_every_budget_through_the_scan(kind, params):
    # a search of N nodes exhausts at every budget b < N with b + 1 nodes,
    # also where b falls inside a last-level scan, and finishes at N
    g = standard_graph(kind, params)
    constraints, positions = residual_of(g)
    universe = len(positions)
    group = edge_orbits(g, g.edges, positions)
    for bans in (False, True):
        for start in range(4):
            system = ConstraintSystem(universe, constraints)
            if bans:
                system.group = group
            for k in range(1, universe - start + 1):
                full = _search._search(system, k, 10**9, start)
                for budget in range(1, full[2]):
                    assert _search._search(system, k, budget, start) == (
                        False, 0, budget + 1, True), (bans, start, k, budget)
                assert _search._search(system, k, full[2], start) == full


def masks_over(universe):
    """Constraint masks over ``range(universe)``, half of them with at most
    three positions: narrow constraints make searches long enough to
    revisit states and make one constraint inside another common."""
    narrow = st.sets(st.integers(0, universe - 1), min_size=1, max_size=3).map(
        lambda positions: sum(1 << i for i in positions))
    return st.one_of(narrow, st.integers(1, (1 << universe) - 1))


@st.composite
def suffix_queries(draw):
    universe = draw(st.integers(1, 12))
    constraints = draw(st.lists(masks_over(universe), max_size=2 * universe))
    query = st.tuples(st.integers(0, universe), st.integers(0, universe + 1))
    return universe, constraints, draw(st.lists(query, min_size=1, max_size=12))


@pytest.mark.parametrize("cap", [_search.TABLE_CAP, 2])
@settings(max_examples=150, deadline=None)
@given(suffix_queries())
def test_shared_table_keeps_suffix_answers(cap, case):
    # suffix searches in any order on one system share its table; each
    # still returns the lex-least subset of its range, in no more nodes
    # than the search without a table
    universe, constraints, queries = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_search, "TABLE_CAP", cap)
        system = ConstraintSystem(universe, constraints)
        for start, k in queries:
            got = search_exact_size(universe, system, k, 10**6, start)
            inside = [c >> start for c in constraints if c >> start << start == c]
            found, mask, _, _ = reference_search(universe - start, inside, k, 10**6)
            assert got[:2] == (found, mask << start), (start, k)
            assert not got[3] and got[2] <= _search._search(system, k, 10**6, start)[2]


@st.composite
def keyed_systems(draw):
    universe = draw(st.integers(0, 16))
    if universe == 0:
        return 0, []
    return universe, draw(st.lists(masks_over(universe), max_size=2 * universe))


@pytest.mark.parametrize("limit", [_search.KEY_LIMIT, 3])
@settings(max_examples=200, deadline=None)
@given(keyed_systems())
def test_state_keys_match_reference(limit, system):
    # per position, the numbered constraints of a key are the ones the
    # definition gives: open there and containing no other constraint
    universe, constraints = system
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_search, "KEY_LIMIT", limit)
        keys = ConstraintSystem(universe, constraints).keys
    expect = reference_keys(universe, constraints, limit)
    if expect is None:
        assert keys is None
        return
    order = numbered(constraints)
    assert [key if key is None else frozenset(order[i] for i in bits(key))
            for key in keys] == expect


def test_each_suffix_numbers_its_constraints_first():
    # constraints are numbered by lowest bit, highest first, and by
    # ascending mask within one lowest bit: from every start, those inside
    # [start, universe) are the numbers below their count; those with
    # lowest bit p are the run from inside[p + 1] up to inside[p], and
    # tops[p] holds exactly the constraints whose top bit is p
    rng = random.Random(25)
    for _ in range(200):
        universe, constraints, _ = random_instance(rng, 20)
        system = ConstraintSystem(universe, constraints)
        # constraint i holds the positions whose hits hold i
        masks = [sum(1 << q for q in range(universe) if system.hits[q] >> i & 1)
                 for i in range(system.full.bit_length())]
        assert masks == numbered(constraints)
        for start in range(universe + 1):
            inside = sum(1 << i for i, c in enumerate(masks) if c >> start << start == c)
            assert inside == (1 << inside.bit_count()) - 1, start
            assert system.below(start) == system.full ^ inside, start
        for p in range(universe):
            low = (1 << system.inside[p]) - (1 << system.inside[p + 1])
            assert low == sum(1 << i for i, c in enumerate(masks) if c & -c == 1 << p)
            assert system.tops[p] == sum(1 << i for i, c in enumerate(masks)
                                         if c.bit_length() == p + 1), p


def test_build_takes_constraints_in_any_order():
    # sorted, unique constraints, as the solver hands them over, are used
    # as they come; shuffled ones and repeated ones build the same system,
    # and a zero or too wide constraint is refused wherever it stands
    rng = random.Random(16)
    for _ in range(60):
        universe = rng.randint(1, 20)
        constraints = sorted({rng.randint(1, (1 << universe) - 1)
                              for _ in range(rng.randint(1, 40))})
        want = ConstraintSystem(universe, constraints)
        shuffled = rng.sample(constraints, len(constraints))
        repeated = shuffled + rng.choices(constraints, k=3)
        for given in (shuffled, repeated, constraints[::-1], iter(constraints)):
            got = ConstraintSystem(universe, given)
            assert (got.full, got.hits, got.tops, got.inside, got.floor, got.keys) == (
                want.full, want.hits, want.tops, want.inside, want.floor, want.keys)
        for bad, message in ((0, "nonzero"), (1 << universe, "exceeds")):
            at = rng.randint(0, len(constraints))
            with pytest.raises(ValueError, match=message):
                ConstraintSystem(universe, constraints[:at] + [bad] + constraints[at:])


def test_build_matches_per_pair_reference(monkeypatch):
    # hits, tops, inside, floor and keys are the per-pair build's, whether
    # the transpose reads the system from binary strings (fill at least
    # 1/32) or one pair at a time, and whatever the block size
    def check(universe, constraints):
        system = ConstraintSystem(universe, constraints)
        got = (system.hits, system.tops, system.inside, system.floor, system.keys)
        assert got == reference_build(universe, constraints)
        masks = set(constraints)
        return 32 * sum(c.bit_count() for c in masks) >= len(masks) * universe

    rng = random.Random(15)
    sides = set()
    for _ in range(150):
        universe = rng.randint(1, 80)
        # constraints of 1 to `width` positions: fills from about 1/80 to 1
        width = rng.randint(1, max(1, universe // rng.choice((1, 4, 16, 64))))
        constraints = [sum(1 << q for q in rng.sample(range(universe),
                                                      rng.randint(1, width)))
                       for _ in range(rng.randint(1, 3 * universe))]
        sides.add(check(universe, constraints))
    assert sides == {False, True}
    # singletons fill 1/32 exactly at universe 32, the strings' side
    assert check(32, [1 << q for q in range(32)])
    assert not check(33, [1 << q for q in range(33)])
    # K_20: 18,145 constraints over 190 positions span four blocks, whose
    # columns are longer than the int/str digit limit, which base 2 is
    # exempt from
    g = standard_graph("complete", [20])
    constraints = _constraints_from_masks(g.all_edge_masks())
    assert len(constraints) * g.m > 3 * _search.BLOCK
    assert _search.BLOCK // g.m > 4300
    assert check(g.m, constraints)
    # no universe, no constraints, one full-width constraint, duplicates
    check(0, [])
    check(7, [])
    assert check(7, [0b1111111])
    assert check(6, [0b101, 0b110100, 0b101, 0b11, 0b110100])
    # 24 constraints over 10 positions, in blocks of 1 row, of 5 (the
    # lowest-numbered block is short), of 6 (every block is full), of 24
    # (one block ends exactly at the last constraint) and of 25 rows
    constraints = rng.sample(range(1, 1 << 10), 24)
    for rows in (1, 5, 6, 24, 25):
        monkeypatch.setattr(_search, "BLOCK", 10 * rows)
        assert check(10, constraints)
    monkeypatch.setattr(_search, "BLOCK", 9)
    assert check(10, constraints)


def test_table_holds_at_most_cap_entries(monkeypatch):
    # a 2-variable reduction instance that records over 50,000 refuted
    # states before it reaches the optimum; the table is cleared whenever
    # it is full, so it never holds more than TABLE_CAP of them
    formula = SatFormula(2, (((0, True), (1, False)), ((0, False), (1, True)),
                             ((1, True), (0, True))))
    g = build_reduction(formula).graph
    held = [0]
    most = [0]
    clears = [0]

    class Counted(dict):
        def __setitem__(self, key, value):
            held[0] += key not in self
            most[0] = max(most[0], held[0])
            super().__setitem__(key, value)

        def clear(self):
            held[0] -= len(self)
            clears[0] += 1
            super().clear()

    class Watched(ConstraintSystem):
        def __init__(self, universe, constraints):
            super().__init__(universe, constraints)
            self.tables = [t if t is None else Counted() for t in self.tables]

    monkeypatch.setattr(_search, "ConstraintSystem", Watched)
    for budget in (10**3, 10**4, 10**5, 10**6):
        held[0] = most[0] = clears[0] = 0
        res = min_edge_code(g, SolveOptions(budget=budget))
        assert most[0] <= _search.TABLE_CAP, budget
    assert res.status == "Optimal" and clears[0] > 0


def test_deep_universe_does_not_recurse():
    # every position is forced, so the search descends 1500 levels
    universe = 1500
    found, mask, nodes, exhausted = search_exact_size(
        universe, [1 << i for i in range(universe)], universe, 10**6
    )
    assert found and not exhausted
    assert mask == (1 << universe) - 1 and nodes == universe + 1
    # through the solver on a large instance: the suffix pass walks all
    # 1200 positions of C_1200, and the sweep proves the half-order bound
    g = standard_graph("cycle", 1200)
    res = min_edge_code(g, SolveOptions(budget=10**4))
    assert res.status == "Optimal" and res.size == 600
    assert verify_edge_code(g, res.code).is_code
    assert res.nodes_used <= 10**4


def test_budget_exhaustion_reported():
    universe = 12
    constraints = [1 << i for i in range(universe)]  # forces the full set
    # twelve disjoint singletons need twelve elements: refuted at the root
    assert search_exact_size(universe, constraints, 6, 5) == (False, 0, 1, False)
    # Q_4 has no code of size 7, and the refutation takes more than 5 nodes
    q4 = standard_graph("hypercube", 4)
    q4_constraints = _constraints_from_masks(q4.all_edge_masks())
    found, mask, nodes, exhausted = search_exact_size(q4.m, q4_constraints, 7, 5)
    assert not found and exhausted and mask == 0
    # the node that crossed the line is counted, so the total is budget + 1
    assert nodes == 6
    # with room to finish, the proof of absence is exact
    found, _, nodes, exhausted = search_exact_size(q4.m, q4_constraints, 7, 10**6)
    assert not found and not exhausted and nodes > 6


@pytest.mark.parametrize("kernel", ["plain", "table"])
def test_budget_boundary_is_exact(kernel):
    # a search that takes N nodes finishes at budget N and exhausts at
    # N - 1, reporting N nodes; each call gets a fresh system, so no
    # table carries over from one call to the next
    if kernel == "plain":
        g = standard_graph("complete", 8)  # no keyed position
        universe = g.m
        constraints = _constraints_from_masks(g.all_edge_masks())
        searches = ((6, 0), (7, 0))  # (k, start): refuted, then found
    else:
        g = build_reduction(SEED0_SAT2).graph  # residual k = 41
        _, constraints, positions = solver._strip_forced(
            g.m, _constraints_from_masks(g.all_edge_masks()))
        universe = len(positions)
        searches = ((16, 72), (17, 72))
    for k, start in searches:
        system = ConstraintSystem(universe, constraints)
        assert (system.keys is None) == (kernel == "plain")
        found, mask, nodes, exhausted = search_exact_size(
            universe, system, k, 10**7, start)
        assert not exhausted and nodes > 100 and found == ((k, start) == searches[1])
        assert search_exact_size(universe, ConstraintSystem(universe, constraints),
                                 k, nodes, start) == (found, mask, nodes, False)
        assert search_exact_size(universe, ConstraintSystem(universe, constraints),
                                 k, nodes - 1, start) == (False, 0, nodes, True)
        if kernel == "table":
            assert system.stored > 0
    if kernel == "table":
        # every budget of a refutation whose last node is an include's
        # child that fails the bound, which the table loop counts without
        # visiting it: node for node the recursive reference on the
        # constraints inside [start, universe)
        k, start = 12, 84
        inside = [c >> start for c in constraints if c >> start << start == c]
        nodes = reference_pruned_search(universe - start, inside, k, 10**7)[2]
        for budget in range(1, nodes + 1):
            found, mask, used, exhausted = reference_pruned_search(
                universe - start, inside, k, budget)
            assert search_exact_size(universe, ConstraintSystem(universe, constraints),
                                     k, budget, start) == (
                found, mask << start, used, exhausted), budget
    if kernel == "plain":
        # the same searches with the system's group set, so that orbit
        # bans are active up to the boundary and cut the node count
        group = edge_orbits(g, g.edges, range(universe))
        for k, start in searches:
            unbanned = search_exact_size(universe, ConstraintSystem(universe, constraints),
                                         k, 10**7, start)
            system = ConstraintSystem(universe, constraints)
            system.group = group
            found, mask, nodes, exhausted = search_exact_size(
                universe, system, k, 10**7, start)
            assert (found, mask, exhausted) == unbanned[:2] + (False,)
            assert 100 < nodes < unbanned[2]
            for budget, expect in ((nodes, (found, mask, nodes, False)),
                                   (nodes - 1, (False, 0, nodes, True))):
                system = ConstraintSystem(universe, constraints)
                system.group = group
                assert search_exact_size(universe, system, k, budget, start) == expect


def test_node_budget_monotone_python():
    # a larger budget never changes the answer, only whether it completes
    universe, constraints, k = 10, [0b1111100000, 0b0000011111, 0b1010101010], 3
    full = search_exact_size(universe, constraints, k, 10**7)
    assert not full[3]
    for budget in range(1, 40):
        partial = search_exact_size(universe, constraints, k, budget)
        if not partial[3]:
            assert partial == full
            break


def test_trivial_cases():
    # no constraints: the lex-least k-subset is the k lowest positions
    found, mask, _, _ = search_exact_size(5, [], 3, 100)
    assert found and mask == 0b00111
    found, mask, _, _ = search_exact_size(5, [], 0, 100)
    assert found and mask == 0
    # k = 0 with a constraint is impossible
    found, _, _, exhausted = search_exact_size(5, [0b1], 0, 100)
    assert not found and not exhausted
    # empty universe
    found, mask, _, _ = search_exact_size(0, [], 0, 100)
    assert found and mask == 0
    with pytest.raises(ValueError):
        search_exact_size(5, [], -1, 100)
    with pytest.raises(ValueError):
        search_exact_size(5, [], 1, 0)
    with pytest.raises(ValueError, match="outside the universe"):
        search_exact_size(5, [], 1, 100, 6)


@pytest.mark.parametrize("budget", [None, 0, -3, 1.5, True])
def test_kernel_rejects_a_budget_that_is_no_positive_int(budget):
    # the solvers' own check: an unchecked 1.5 counted 2.5 nodes, None
    # failed in the comparison, and True searched with a budget of 1
    with pytest.raises(ValueError, match="need a positive node budget"):
        search_exact_size(3, [1, 2, 4], 3, budget)


@pytest.mark.parametrize("k", [-1, 1.5, True])
def test_kernel_rejects_a_size_that_is_no_int_from_zero(k):
    # an unchecked 1.5 failed deep in the search, multiplying a list by
    # it, and True searched with k = 1
    with pytest.raises(ValueError, match="need k >= 0"):
        search_exact_size(3, [1, 2, 4], k, 100)


def test_python_kernel_handles_wide_universe():
    # wider than a machine word
    universe = 70
    constraints = [1 << 69, (1 << 70) - 1]
    found, mask, _, exhausted = search_exact_size(universe, constraints, 1, 10**5)
    assert found and mask == 1 << 69 and not exhausted

"""Search kernel: correctness, parity with the recursive references, budget
accounting, depth."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _group_by_top_bit, reference_pruned_search, reference_search
from edgeid._search import ConstraintSystem, search_exact_size
from edgeid.families import standard_graph
from edgeid.identify import verify_edge_code
from edgeid.solver import SolveOptions, _constraints_from_masks, min_edge_code


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
    # from start p, with the constraints whose lowest bit lies below p
    # pre-marked, the kernel finds the lex-least k-subset of [p, universe)
    # hitting the constraints inside that range
    rng = random.Random(11)
    for _ in range(300):
        universe, constraints, k = random_instance(rng)
        system = ConstraintSystem(universe, constraints)
        p = rng.randint(0, universe)
        marked = 0
        for q in range(p):
            marked |= system.lows[q]
        found, mask, _, exhausted = search_exact_size(
            universe, system, k, 10**7, p, marked
        )
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
    for k in range(universe + 2):
        for budget in BUDGETS:
            got = search_exact_size(universe, constraints, k, budget)
            # the recursive restatement of the pruned search, node for node
            assert got == reference_pruned_search(universe, constraints, k, budget), (
                k, budget)
            assert search_exact_size(universe, prepared, k, budget) == got
            # pruning keeps the answer of the unpruned search, in fewer nodes
            plain = reference_search(universe, constraints, k, budget)
            if not got[3] and not plain[3]:
                assert got[:2] == plain[:2] and got[2] <= plain[2], (k, budget)


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


def test_python_kernel_handles_wide_universe():
    # wider than a machine word
    universe = 70
    constraints = [1 << 69, (1 << 70) - 1]
    found, mask, _, exhausted = search_exact_size(universe, constraints, 1, 10**5)
    assert found and mask == 1 << 69 and not exhausted

"""Automorphism orbits along a base: checked generators, orbits against
brute force, and the solves that ban them."""

import itertools

import pytest

from conftest import naive_min_vertex_code
from edgeid import _search, solver, symmetry
from edgeid.families import standard_graph
from edgeid.graph_core import Graph, bits
from edgeid.identify import vertex_closed_masks
from edgeid.solver import min_vertex_code

# (kind, params) of edge-transitive families small enough to enumerate
# every vertex permutation; K_4 is left out, since its line graph has
# more automorphisms than K_4 itself
BRUTE = [("complete", 5), ("complete", 6), ("complete", 7),
         ("complete_bipartite", (3, 3)), ("complete_bipartite", (3, 4)),
         ("hypercube", 3)]


def brute_force_orbits(g):
    """``orbits[q]``: the edges ``r > q`` that a vertex permutation mapping
    edges to edges and fixing the edges below ``q`` maps edge ``q`` to."""
    index = {frozenset(e): i for i, e in enumerate(g.edges)}
    lifted = []
    for perm in itertools.permutations(range(g.n)):
        images = [index.get(frozenset((perm[u], perm[v]))) for u, v in g.edges]
        if None not in images:
            lifted.append(images)
    return [
        tuple(sorted({s[q] for s in lifted if s[:q] == list(range(q))} - {q}))
        for q in range(g.m)
    ]


def full_orbits(masks, base):
    """``(orbits, generators)`` with every level found."""
    group = symmetry.BaseOrbits(masks, base)
    return group.orbits, group.generators


def maps_masks(sigma, masks):
    for i, m in enumerate(masks):
        if masks[sigma[i]] != sum(1 << sigma[j] for j in bits(m)):
            return False
    return True


@pytest.mark.parametrize("kind, params", BRUTE + [("complete", 4), ("petersen", None),
                                                  ("hypercube", 4)])
def test_generators_are_automorphisms(kind, params):
    g = standard_graph(kind, params)
    masks = g.all_edge_masks()
    orbits, gens = full_orbits(masks, range(g.m))
    assert gens and orbits[0]
    for sigma in gens:
        assert sorted(sigma) == list(range(g.m)) and maps_masks(sigma, masks)


@pytest.mark.parametrize("kind, params", BRUTE)
def test_orbits_match_brute_force(kind, params):
    g = standard_graph(kind, params)
    orbits, _ = full_orbits(g.all_edge_masks(), range(g.m))
    assert orbits == brute_force_orbits(g)


def test_orbits_follow_the_base():
    # along a base that is not 0, 1, 2, ..., orbits hold base indices:
    # reversing the base of K_5's line graph mirrors its stabiliser chain;
    # so do the moves, each its generator in base indices with the
    # prefixes it maps onto themselves and the ones whose next index it
    # moves
    g = standard_graph("complete", 5)
    masks = g.all_edge_masks()
    flipped = [g.m - 1 - i for i in range(g.m)]
    group = symmetry.BaseOrbits(masks, flipped)
    orbits = group.orbits
    relabelled = [masks[i] for i in flipped]
    relabelled = [sum(1 << flipped[j] for j in bits(m)) for m in relabelled]
    assert orbits == full_orbits(relabelled, range(g.m))[0]
    assert [len(o) for o in orbits if o] == [9, 5, 1]
    assert len(group.moves) == len(group.generators)
    for (images, prefix, moved), sigma in zip(group.moves, group.generators):
        assert images == [flipped.index(sigma[v]) for v in flipped]
        for p in range(g.m + 1):
            onto = set(images[:p]) == set(range(p))
            assert prefix >> p & 1 == onto, p
            assert moved >> p & 1 == (onto and p < g.m and images[p] != p), p


def test_discrete_refinement_gives_trivial_orbits():
    # degrees alone tell every edge of this line graph apart
    g = Graph(6, [(0, 1), (0, 4), (1, 3), (1, 4), (2, 3), (3, 4), (4, 5)])
    masks = g.all_edge_masks()
    adj = [[u for u in bits(m) if u != v] for v, m in enumerate(masks)]
    order, cell, end = list(range(g.m)), [0] * g.m, [g.m] * g.m
    symmetry._refine(order, cell, end, [0], adj)
    assert len(set(cell)) == g.m
    assert full_orbits(masks, range(g.m)) == ([()] * g.m, [])


def test_leaf_check_rejects_what_refinement_cannot(monkeypatch):
    # the Frucht graph is cubic and has no automorphism but the identity,
    # yet refinement follows one other vertex exactly like vertex 0 down
    # to a discrete partition; only the check of the leaf's permutation
    # tells that it is no image of vertex 0
    edges = [(i, (i + 1) % 7) for i in range(7)] + [
        (0, 7), (1, 7), (2, 8), (3, 9), (4, 9), (5, 10), (6, 10), (7, 11),
        (8, 11), (8, 9), (10, 11)]
    masks = [1 << v for v in range(12)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    checked = []
    is_automorphism = symmetry._is_automorphism

    def spy(sigma, masks, closed):
        checked.append(is_automorphism(sigma, masks, closed))
        return checked[-1]

    monkeypatch.setattr(symmetry, "_is_automorphism", spy)
    assert full_orbits(masks, range(12)) == ([()] * 12, [])
    assert checked == [False]


def test_spent_budget_keeps_orbits_sound(monkeypatch):
    # with no refinement to spend, no generator is found and every orbit
    # is trivial, which bans nothing
    monkeypatch.setattr(symmetry, "REFINE_LIMIT", 0)
    g = standard_graph("complete", 6)
    assert full_orbits(g.all_edge_masks(), range(g.m)) == ([()] * g.m, [])


def test_min_vertex_code_with_orbits(monkeypatch):
    # with no keyed position allowed, every residual runs the plain loop
    # with its orbits; vertex-transitive graphs have large ones
    monkeypatch.setattr(_search, "KEY_LIMIT", -1)
    bases = []
    bans = _search.ConstraintSystem.bans

    def spy(system, start):
        out = bans(system, start)
        bases.append(out[2].bit_length())
        return out

    monkeypatch.setattr(_search.ConstraintSystem, "bans", spy)
    graphs = [Graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(6, 10)]
    graphs += [standard_graph("petersen"), standard_graph("hypercube", 3),
               standard_graph("hypercube", 4),
               Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                         (0, 3), (1, 4), (2, 5)])]
    for g in graphs:
        assert len(set(vertex_closed_masks(g))) == g.n
        bases.clear()
        res = min_vertex_code(g)
        assert res.status == "Optimal" and res.code == naive_min_vertex_code(g), g.edges
        assert max(bases) > 0, g.edges


def _circulant(n, steps):
    return Graph(n, sorted({tuple(sorted((i, (i + d) % n))) for i in range(n)
                            for d in steps}))


def test_min_vertex_code_maps_suffix_witnesses(monkeypatch):
    # residuals of these vertex-transitive graphs have no keyed position,
    # so they run the plain loop as they are; on the circulants a suffix
    # witness mapped by a generator settles a suffix optimum
    accepted = []
    mapped = _search.ConstraintSystem.mapped

    def spy(system, witnesses, start):
        out = mapped(system, witnesses, start)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(_search.ConstraintSystem, "mapped", spy)
    plain = []
    sweep = solver._sweep

    def spy_sweep(system, *args):
        plain.append(system.keys is None)
        return sweep(system, *args)

    monkeypatch.setattr(solver, "_sweep", spy_sweep)
    rook = Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                      if (u // 4 == v // 4) != (u % 4 == v % 4)])
    graphs = [rook, _circulant(17, (1, 2, 4, 8)), _circulant(19, (1, 5, 7)),
              _circulant(19, (5, 8, 9)), _circulant(20, (2, 4, 7))]
    for g in graphs:
        assert len(set(vertex_closed_masks(g))) == g.n
        res = min_vertex_code(g)
        assert res.status == "Optimal" and res.code == naive_min_vertex_code(g), g.edges
    assert plain == [True] * len(graphs)
    assert sum(accepted) >= 3


def test_orbit_build_is_skipped_by_the_table_loop(monkeypatch):
    # Petersen and cycles run the table loop, which bans nothing, so their
    # solves compute no group; K_7 runs the plain loop, whose searches
    # share the group built at the first of them
    built = []
    base_orbits = symmetry.BaseOrbits

    def spy(masks, base):
        built.append(len(masks))
        return base_orbits(masks, base)

    monkeypatch.setattr(symmetry, "BaseOrbits", spy)
    for g in (standard_graph("petersen"), standard_graph("cycle", 30)):
        assert solver.min_edge_code(g).status == "Optimal"
    assert built == []
    searches = []
    search = _search._search

    def count(system, k, budget, start):
        searches.append(start)
        return search(system, k, budget, start)

    monkeypatch.setattr(_search, "_search", count)
    res = solver.min_edge_code(standard_graph("complete", 7))
    assert res.status == "Optimal" and res.size == 6
    assert len(searches) > 1 and built == [21]

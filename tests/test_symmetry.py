"""Automorphism orbits along a base: checked generators, orbits against
brute force, and the solves that ban them."""

import hashlib
import itertools
import random

import pytest

from conftest import naive_min_vertex_code, random_connected_pendant_free, reference_refine
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


def brute_force_automorphisms(masks):
    """Every permutation of the positions that maps each closed
    neighbourhood in ``masks`` onto one, found by extending partial maps
    that keep adjacency between the positions mapped so far."""
    m = len(masks)
    out = []
    sigma = []

    def extend(v):
        if v == m:
            out.append(sigma[:])
            return
        for w in range(m):
            if w not in sigma and masks[w].bit_count() == masks[v].bit_count() and all(
                    masks[v] >> u & 1 == masks[w] >> sigma[u] & 1 for u in range(v)):
                sigma.append(w)
                extend(v + 1)
                sigma.pop()

    extend(0)
    return out


def residual_bases(graphs):
    """``(masks, positions)`` for each graph that has forced positions and
    a residual: the positions the solver's residual keeps, in order."""
    for g in graphs:
        masks = g.all_edge_masks()
        forced, rest, positions = solver._strip_forced(
            g.m, solver._constraints_from_masks(masks))
        if forced and rest:
            yield masks, positions


def test_orbits_along_a_partial_base_match_brute_force(pendant_free_all):
    # a base that leaves positions out, as the solver's residuals leave
    # out forced ones, ends the first path with steps past the base that
    # individualise positions outside it; the orbits along the base must
    # still be those of the automorphisms that fix its earlier positions
    cases = list(residual_bases(pendant_free_all))
    cube = list(standard_graph("hypercube", 3).edges)
    for g in [Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                        (0, 3), (1, 4), (2, 5)]),  # the prism
              Graph(6, [(i, (i + 1) % 5) for i in range(5)]
                    + [(i, 5) for i in range(5)]),  # the wheel W_5
              Graph(5, [e for e in itertools.combinations(range(5), 2)
                        if e != (0, 1)]),  # K_5 minus an edge
              Graph(6, [(u, v) for u in range(3) for v in range(3, 6)] + [(0, 1)]),
              Graph(8, cube + [(0, 7)])]:
        masks = g.all_edge_masks()
        # leave out one orbit of the whole group at a time
        auts = brute_force_automorphisms(masks)
        for v in range(g.m):
            orbit = {sigma[v] for sigma in auts}
            if min(orbit) == v:
                cases.append((masks, [u for u in range(g.m) if u not in orbit]))
    past = 0
    for masks, base in cases:
        group = symmetry.BaseOrbits(masks, base)
        past += any(q is None for q, *_ in group.path)
        auts = brute_force_automorphisms(masks)
        index = {v: i for i, v in enumerate(base)}
        want = [tuple(sorted({index[sigma[base[q]]] for sigma in auts
                              if all(sigma[b] == b for b in base[:q])} - {q}))
                for q in range(len(base))]
        assert group.orbits == want, (masks, base)
    assert past > 30


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
    nbr = [m & ~(1 << v) for v, m in enumerate(masks)]
    cells, live = [(1 << g.m) - 1] + [0] * (g.m - 1), [0]
    symmetry._refine(cells, live, [0], nbr)
    assert all(c and not c & (c - 1) for c in cells) and live == []
    assert full_orbits(masks, range(g.m)) == ([()] * g.m, [])


def as_lists(cells):
    """The partition ``cells`` as the reference's ``(order, cell, end)``,
    each cell's positions in ascending order."""
    order, cell, end = [], [0] * len(cells), [len(cells)] * len(cells)
    for s, c in enumerate(cells):
        if c:
            order += bits(c)
            for v in bits(c):
                cell[v] = s
            end[s] = s + c.bit_count()
    return order, cell, end


def as_masks(order, end):
    """The reference's partition as ``(cells, live)``."""
    cells = [0] * len(order)
    s = 0
    while s < len(order):
        cells[s] = sum(1 << v for v in order[s:end[s]])
        s = end[s]
    return cells, [s for s, c in enumerate(cells) if c & (c - 1)]


def test_refine_matches_the_reference(monkeypatch):
    # every refinement of these builds, run again by the reference that
    # counts neighbours for every splitter, leaves the same cell starts,
    # the same positions in each cell and the same queue, and returns the
    # same trace; individualising gives one-position splitters, the unit
    # partition's first refinement a splitter of every position
    refine = symmetry._refine
    calls = []

    def spy(cells, live, queue, nbr):
        before = cells[:], live[:], queue[:]
        trace = refine(cells, live, queue, nbr)
        calls.append((before, nbr, (cells[:], live[:], queue[:], trace)))
        return trace

    monkeypatch.setattr(symmetry, "_refine", spy)
    graphs = [standard_graph("complete", n) for n in range(4, 10)]
    graphs += [standard_graph("complete_bipartite", (a, b))
               for a in range(2, 6) for b in range(a, 6)]
    graphs += [standard_graph("hypercube", d) for d in range(2, 6)]
    graphs.append(standard_graph("petersen"))
    rng = random.Random(19)
    graphs += [random_connected_pendant_free(rng, 10) for _ in range(50)]
    for g in graphs:
        symmetry.BaseOrbits(g.all_edge_masks(), range(g.m))
    splits = {True: 0, False: 0}  # by whether the first splitter is one position
    for (cells, live, queue), nbr, want in calls:
        assert live == [s for s, c in enumerate(cells) if c & (c - 1)]
        single = not cells[queue[-1]] & (cells[queue[-1]] - 1)
        order, cell, end = as_lists(cells)
        adj = [bits(m) for m in nbr]
        trace = reference_refine(order, cell, end, queue, adj)
        assert (*as_masks(order, end), queue, trace) == want
        splits[single] += any(t < 0 for t in trace)
    assert splits[True] > 400 and splits[False] > 40


def _pinned_builds(pendant_free_all):
    """``(masks, base)`` of the builds whose generators are pinned: full
    bases of small families, Petersen and random graphs, and the residual
    positions that the solver's strip of forced positions leaves."""
    graphs = [standard_graph("complete", n) for n in range(4, 10)]
    graphs += [standard_graph("complete_bipartite", (a, b))
               for a in range(1, 6) for b in range(a, 6)]
    graphs += [standard_graph("hypercube", d) for d in range(2, 6)]
    graphs.append(standard_graph("petersen"))
    rng = random.Random(19)
    graphs += [random_connected_pendant_free(rng, 10) for _ in range(50)]
    for g in graphs:
        yield g.all_edge_masks(), range(g.m)
    yield from residual_bases(pendant_free_all)


# (builds, SHA-256 of their orbits, moves and spent budgets in turn)
PINNED = (273, "f4d9a8b5f189e3fec6615e7ddf79fc45f2c1174108b32d452ded42583864ad69")


def test_group_generators_are_pinned(pendant_free_all):
    # a change to how the group is built must find the same generators in
    # the same order, the same orbits and spend the same budget; the
    # residuals include every build of the corpus's small unions whose
    # path goes on past its base
    digest = hashlib.sha256()
    count = 0
    for masks, base in _pinned_builds(pendant_free_all):
        group = symmetry.BaseOrbits(masks, base)
        digest.update(repr((group.orbits, group.moves, group.budget)).encode())
        count += 1
    assert count == PINNED[0]
    assert digest.hexdigest() == PINNED[1]


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

    def spy(system, witness, start):
        out = mapped(system, witness, start)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(_search.ConstraintSystem, "mapped", spy)
    plain = []
    sweep = _search._sweep

    def spy_sweep(system, *args):
        plain.append(system.keys is None)
        return sweep(system, *args)

    monkeypatch.setattr(_search, "_sweep", spy_sweep)
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

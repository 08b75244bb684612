"""Automorphism orbits along a base: checked generators, orbits against
brute force, their lift from a graph's vertices to its edges, and the
solves that ban them."""

import hashlib
import itertools
import random

import pytest

from conftest import naive_min_vertex_code, random_connected_pendant_free, reference_refine
from corpus_nodes import corpus
from edgeid import _search, solver, symmetry
from edgeid.families import standard_graph
from edgeid.graph_core import Graph, bits, line_graph
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


def base_group(masks, base):
    """The ``Group`` along ``base`` of a ``BaseOrbits``' generators, laid
    out in base indices: ``orbits[q]`` holds the indices ``r > q`` whose
    ``base[r]`` some generated automorphism fixing ``base[:q]`` maps
    ``base[q]`` to."""
    index = {v: i for i, v in enumerate(base)}
    return symmetry._layout(len(base), [
        [index[sigma[v]] for v in base]
        for sigma in symmetry.BaseOrbits(masks, base).generators])


def full_orbits(masks, base):
    """``(orbits, generators)`` with every level found, the generators in
    base indices: the positions themselves along ``range(len(masks))``."""
    group = base_group(masks, base)
    return group.orbits, [images for images, _, _ in group.moves]


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


def pointwise_orbits(masks, base):
    """``orbits[q]``: the indices ``r > q`` of the positions of ``base`` to
    which an automorphism of the graph with closed neighbourhoods
    ``masks`` fixing ``base[:q]`` maps ``base[q]``, found by brute force."""
    auts = brute_force_automorphisms(masks)
    index = {v: i for i, v in enumerate(base)}
    return [tuple(sorted({index[sigma[base[q]]] for sigma in auts
                          if all(sigma[b] == b for b in base[:q])} - {q}))
            for q in range(len(base))]


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
        past += any(q is None for q, *_ in symmetry.BaseOrbits(masks, base).path)
        assert base_group(masks, base).orbits == pointwise_orbits(
            masks, base), (masks, base)
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
    group = base_group(masks, flipped)
    generators = symmetry.BaseOrbits(masks, flipped).generators
    orbits = group.orbits
    relabelled = [masks[i] for i in flipped]
    relabelled = [sum(1 << flipped[j] for j in bits(m)) for m in relabelled]
    assert orbits == full_orbits(relabelled, range(g.m))[0]
    assert [len(o) for o in orbits if o] == [9, 5, 1]
    assert len(group.moves) == len(generators)
    for (images, prefix, moved), sigma in zip(group.moves, generators):
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


def _planted_twins(rng, count):
    """Random graphs on 4 to 6 vertices, each with one or two vertices
    added as twins of random vertices: open ones, with the same
    neighbours, or closed ones, adjacent besides."""
    for _ in range(count):
        n = rng.randint(4, 6)
        edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5}
        for _ in range(rng.randint(1, 2)):
            v = rng.randrange(n)
            edges |= {(u + w - v, n) for u, w in edges if v in (u, w)}
            if rng.random() < 0.5:
                edges.add((v, n))
            n += 1
        yield Graph(n, sorted(edges))


def test_twin_swaps_match_brute_force():
    # a candidate with the base vertex's neighbours but for the two of
    # them is swapped with it, with no search: every generator must still
    # be an automorphism and the orbits those of brute force
    graphs = [standard_graph("complete", n) for n in range(3, 7)]
    graphs += [standard_graph("complete_bipartite", ab) for ab in ((2, 2), (2, 3), (3, 3), (2, 4))]
    graphs.append(standard_graph("cycle", 4))
    graphs += _planted_twins(random.Random(32), 40)
    swaps = 0
    for g in graphs:
        masks = vertex_closed_masks(g)
        orbits, generators = full_orbits(masks, range(g.n))
        for sigma in generators:
            assert sorted(sigma) == list(range(g.n)) and maps_masks(sigma, masks), g.edges
            swaps += sum(v != w for v, w in enumerate(sigma)) == 2
        assert orbits == pointwise_orbits(masks, range(g.n)), g.edges
    assert swaps > 60


def test_twins_spend_no_budget(monkeypatch):
    # every two vertices of K_8 are twins, so each level of its vertex
    # build swaps them and no automorphism search runs
    def find(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(symmetry.BaseOrbits, "_find", find)
    g = standard_graph("complete", 8)
    group = symmetry.BaseOrbits(vertex_closed_masks(g), range(g.n))
    assert len(group.generators) == 7 and group.budget == symmetry.REFINE_LIMIT * g.n
    assert symmetry.edge_orbits(g, g.edges, range(g.m)).orbits[0] == tuple(range(1, g.m))


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


# (builds, SHA-256 of their orbits and moves in turn)
PINNED = (273, "6b95eee645483abde2d46eda8a92bf3f8c0e8d683d2c5302356b2bc760e678d1")


def test_group_generators_are_pinned(pendant_free_all):
    # a change to how the group is built must find the same generators in
    # the same order and the same orbits; the residuals include every
    # build of the corpus's small unions whose path goes on past its base
    digest = hashlib.sha256()
    count = 0
    for masks, base in _pinned_builds(pendant_free_all):
        group = base_group(masks, base)
        digest.update(repr((group.orbits, group.moves)).encode())
        count += 1
    assert count == PINNED[0]
    assert digest.hexdigest() == PINNED[1]


# (refinements spent in all, SHA-256 of the budgets left in turn)
PINNED_BUDGETS = (637, "14c62332fc79347ac78c705e107a0b4eedcbed9e0665b1bfa087108e739e401f")


def test_group_budgets_are_pinned(pendant_free_all):
    # the same builds must spend the same refinements: a swap of twins
    # spends none, and a cheaper search may lower these
    digest = hashlib.sha256()
    spent = 0
    for masks, base in _pinned_builds(pendant_free_all):
        group = symmetry.BaseOrbits(masks, base)
        digest.update(repr(group.budget).encode())
        spent += symmetry.REFINE_LIMIT * len(masks) - group.budget
    assert (spent, digest.hexdigest()) == PINNED_BUDGETS


def _pinned_systems():
    """The graphs whose residual systems are pinned: the corpus of
    ``corpus_nodes.py``, then small families and Petersen."""
    for _, g in corpus():
        yield g
    yield from (standard_graph("complete", n) for n in range(4, 10))
    yield from (standard_graph("complete_bipartite", (a, b))
                for a in range(1, 6) for b in range(a, 6))
    yield from (standard_graph("hypercube", d) for d in range(2, 6))
    yield standard_graph("petersen")


# (systems, SHA-256 of their fields as built, before any search)
PINNED_SYSTEMS = (457, "c620c0c3f0fffdba58d6d30739b595bdb7712531d5ee10119f4bd3b17e7e66c0")


def test_constraint_systems_are_pinned(monkeypatch):
    # a change to how a residual's system is built must number the same
    # constraints and give the same floors, transpose and state keys; the
    # solve stops at the system, before its first search
    digest = hashlib.sha256()
    count = 0

    def stop(system, lower, cap, budget):
        nonlocal count
        digest.update(repr((system.universe, system.inside, system.floor,
                            system.hits, system.tops, system.keys)).encode())
        count += 1
        return None, 0, True

    monkeypatch.setattr(_search, "_sweep", stop)
    for g in _pinned_systems():
        solver.min_edge_code(g)
    assert (count, digest.hexdigest()) == PINNED_SYSTEMS


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


def _pinned_vertex_graphs():
    """The graphs whose vertex-code solves are pinned: K_5 to K_7, K_{3,4},
    Q_3, Petersen and C_9, their line graphs, and 40 seeded circulants."""
    graphs = [standard_graph("complete", n) for n in (5, 6, 7)]
    graphs += [standard_graph(kind, params) for kind, params in (
        ("complete_bipartite", (3, 4)), ("hypercube", 3), ("petersen", None),
        ("cycle", 9))]
    graphs += [line_graph(g)[0] for g in graphs]
    rng = random.Random(33)
    for _ in range(40):
        n = rng.randint(12, 24)
        graphs.append(_circulant(n, rng.sample(range(1, n // 2 + 1), rng.randint(2, 4))))
    return graphs


# (solves, nodes in all, SHA-256 of (status, code, nodes) of each in turn)
PINNED_VERTEX_SOLVES = (54, 342638,
                        "dea0c9c0040d1f01fea869db459d4b7a63d09c97c120543e1ec17fbc1de9540e")


def test_vertex_code_solves_are_pinned(monkeypatch):
    # a change to how a vertex-code solve builds or reads its group must
    # keep every status, code and node count; 19 of these solves reach
    # the plain loop and build a group (K_n has twins and is Infeasible)
    built = []
    base_orbits = symmetry.BaseOrbits

    def spy(masks, *args):
        built.append(len(masks))
        return base_orbits(masks, *args)

    monkeypatch.setattr(symmetry, "BaseOrbits", spy)
    digest = hashlib.sha256()
    count = nodes = 0
    for g in _pinned_vertex_graphs():
        res = min_vertex_code(g)
        digest.update(repr((res.status, res.code, res.nodes_used)).encode())
        count += 1
        nodes += res.nodes_used
    assert (count, nodes, digest.hexdigest()) == PINNED_VERTEX_SOLVES
    assert len(built) == 19


def test_plain_loop_reads_a_group_for_both_kinds(monkeypatch):
    # edge and vertex codes give the plain loop the same type: after the
    # solves of K_7's edge code and of a circulant's vertex code, each
    # system holds a symmetry.Group
    systems = []
    sweep = _search._sweep

    def spy(system, *args):
        systems.append(system)
        return sweep(system, *args)

    monkeypatch.setattr(_search, "_sweep", spy)
    assert solver.min_edge_code(standard_graph("complete", 7)).status == "Optimal"
    assert min_vertex_code(_circulant(17, (1, 2, 4, 8))).status == "Optimal"
    assert [type(system.group) for system in systems] == [symmetry.Group] * 2
    assert all(system.keys is None and system.group.moves for system in systems)


def test_orbit_build_is_skipped_by_the_table_loop(monkeypatch):
    # Petersen and cycles run the table loop, which bans nothing, so their
    # solves compute no group; K_7 runs the plain loop, whose searches
    # share the group built at the first of them on K_7's 7 vertices
    built = []
    base_orbits = symmetry.BaseOrbits

    def spy(masks, *args):
        built.append(len(masks))
        return base_orbits(masks, *args)

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
    assert len(searches) > 1 and built == [7]


def _with_isolated(g, before, after):
    """``g`` with isolated vertices, ``before`` of them numbered before its
    own and ``after`` after them."""
    return Graph(before + g.n + after, [(u + before, v + before) for u, v in g.edges])


# Whitney's exceptions, whose line graphs have automorphisms that no
# automorphism of the graph induces, alone and as components; a K_2
# component; and isolated vertices before, between and after the others
LIFTED = [
    standard_graph("complete", 4),
    Graph(4, [e for e in itertools.combinations(range(4), 2) if e != (2, 3)]),  # K_4 - e
    Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),  # K_{1,3} + e
    # K_{1,3} + e and K_3
    Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5), (4, 6), (5, 6)]),
    Graph(8, list(itertools.combinations(range(4), 2))
          + [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7)]),  # K_4 and K_4 - e
    Graph(6, [(0, 1), (2, 3), (2, 4), (3, 4)]),  # K_2, K_3 and a vertex
    _with_isolated(standard_graph("hypercube", 3), 3, 2),
    Graph(9, [(1, 3), (1, 5), (1, 7), (3, 5), (5, 7)]),  # K_4 - e, spread out
]


def plain_loop_residuals():
    """``(g, residual constraints, positions)`` of the corpus graphs whose
    residual runs the plain loop."""
    for _, g in corpus():
        _, rest, positions = solver._strip_forced(
            g.m, solver._constraints_from_masks(g.all_edge_masks()))
        if rest and _search.ConstraintSystem(len(positions), rest).keys is None:
            yield g, rest, positions


def vertex_residuals(graphs):
    """``(g, ends, residual constraints, positions)`` of the vertex-code
    residuals of ``graphs`` that have forced vertices, ``ends`` naming
    each vertex twice; graphs with twins have no code and are left
    out."""
    for g in graphs:
        masks = vertex_closed_masks(g)
        if len(set(masks)) == g.n:
            forced, rest, positions = solver._strip_forced(
                g.n, solver._constraints_from_masks(masks))
            if forced and rest:
                yield g, [(v, v) for v in range(g.n)], rest, positions


# two graphs whose vertex-code residuals run the table loop: lifted along
# all the vertices, the first's group misses a pointwise orbit along the
# residual's positions that brute force finds, and the second's
# generators come in another order than a build along those positions
# gives
VERTEX_RESIDUALS = [
    Graph(8, [(0, 2), (0, 7), (1, 3), (1, 5), (2, 6), (3, 4)]),
    Graph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3),
              (2, 4), (3, 5), (4, 5)]),
]


@pytest.mark.parametrize("g", LIFTED, ids=lambda g: str(g.edges))
def test_lifts_map_closed_edge_neighbourhoods(g):
    # every lift moves some edge and maps each closed edge neighbourhood
    # onto one, also where the line graph has more automorphisms than the
    # graph and where vertices have no edge
    group = symmetry.edge_orbits(g, g.edges, range(g.m))
    assert group.moves
    for images, _, _ in group.moves:
        assert images != list(range(g.m)) and maps_masks(images, g.all_edge_masks())


def checked_lifts(g, ends, rest, positions):
    """The number of lifts to ``positions``, once each is checked to
    permute them and to map the residual's constraints ``rest`` onto
    themselves."""
    moves = symmetry.edge_orbits(g, ends, positions).moves
    for images, _, _ in moves:
        assert sorted(images) == list(range(len(positions))), g.edges
        assert sorted(sum(1 << images[q] for q in bits(c)) for c in rest) == rest, g.edges
    return len(moves)


def test_lifts_map_each_residual_onto_itself(pendant_free_all):
    # on the corpus graphs that reach the plain loop, each lift of the
    # residual's positions permutes them, maps its constraints onto
    # themselves, and so is an automorphism of the system it bans in; so
    # is each lift to the positions of a vertex-code residual
    lifted = 0
    for g, rest, positions in plain_loop_residuals():
        assert all(maps_masks(images, g.all_edge_masks())
                   for images, _, _ in symmetry.edge_orbits(g, g.edges, range(g.m)).moves)
        lifted += checked_lifts(g, g.edges, rest, positions)
    assert lifted > 100
    assert sum(checked_lifts(*case) for case in
               vertex_residuals(pendant_free_all + VERTEX_RESIDUALS)) > 80


def test_lifted_orbits_lie_in_the_line_graphs_orbits(pendant_free_all):
    # along every base, a lifted orbit holds only positions that some
    # automorphism of the line graph fixing the lower ones maps q to; on
    # K_n, K_{a,b} and Q_n it holds all of them; along the positions of a
    # vertex-code residual, only vertices that some automorphism of the
    # graph fixing the lower ones maps q to
    for kind, params in BRUTE:
        g = standard_graph(kind, params)
        assert symmetry.edge_orbits(g, g.edges, range(g.m)).orbits == pointwise_orbits(
            g.all_edge_masks(), range(g.m)), (kind, params)
    cases = [(g, g.edges, g.all_edge_masks(), range(g.m)) for g in LIFTED]
    for g in pendant_free_all:
        forced, rest, positions = solver._strip_forced(
            g.m, solver._constraints_from_masks(g.all_edge_masks()))
        if forced and rest:
            cases.append((g, g.edges, g.all_edge_masks(), positions))
    cases += [(g, ends, vertex_closed_masks(g), positions) for g, ends, _, positions
              in vertex_residuals(pendant_free_all + VERTEX_RESIDUALS)]
    smaller = 0
    for g, ends, masks, positions in cases:
        orbits = symmetry.edge_orbits(g, ends, positions).orbits
        want = pointwise_orbits(masks, positions)
        assert all(set(got) <= set(full) for got, full in zip(orbits, want)), g.edges
        smaller += orbits != want
    assert smaller >= 3


def test_isolated_vertices_keep_the_bans():
    # the group is found on the vertices with an edge only: with the 20
    # isolated vertices after K_8's in its base, the searches for
    # automorphisms that permute them, which lift to the identity, spent
    # the build's budget before K_8's levels, and K_8 took 105,408 nodes
    k8 = standard_graph("complete", 8)
    want = solver.min_edge_code(k8).code.indices()
    for before, after in ((0, 20), (20, 0), (10, 10)):
        res = solver.min_edge_code(_with_isolated(k8, before, after))
        assert (res.status, res.size, res.nodes_used) == ("Optimal", 7, 1780)
        assert res.code.indices() == want


# (SHA-256 of the lifted orbits, moves and reach of the residual of each
# graph of the benchmark's solve_exact and solve_budget families in turn)
PINNED_LIFTS = "65c8d67ba0c2e4e20b6eb35251f1b6f72e026101738f1231a365afa3f78d47ac"


def test_lifted_groups_are_pinned():
    # a change to how the group is found or lifted must give the same
    # orbits and the same lifts in the same order, which the bans and the
    # mapped suffix witnesses read
    digest = hashlib.sha256()
    for kind, params in (("petersen", None), ("complete", 7), ("complete", 8),
                         ("complete_bipartite", (4, 5)), ("complete_bipartite", (5, 5)),
                         ("hypercube", 4), ("cycle", 30), ("cycle", 40), ("complete", 9),
                         ("hypercube", 5), ("cycle", 60), ("cycle", 100)):
        g = standard_graph(kind, params)
        _, _, positions = solver._strip_forced(
            g.m, solver._constraints_from_masks(g.all_edge_masks()))
        digest.update(repr(tuple(symmetry.edge_orbits(g, g.edges, positions))).encode())
    assert digest.hexdigest() == PINNED_LIFTS


def test_twin_swaps_keep_k_2_19_at_145_nodes():
    # every two vertices on one side of K_{2,19} are twins, so the vertex
    # build swaps them with no search and spends none of its budget; when
    # its searches found them instead, a budget of REFINE_LIMIT per vertex
    # ran out and K_{2,19} took 180 nodes
    res = solver.min_edge_code(standard_graph("complete_bipartite", (2, 19)))
    assert (res.status, res.size, res.nodes_used) == ("Optimal", 36, 145)


# a Latin square of order 7 whose graph has no automorphism but the
# identity, yet whose refinement is weak: every cell has 18 neighbours
RIGID_SQUARE = [[0, 4, 2, 3, 1, 5, 6], [5, 2, 4, 1, 0, 6, 3], [6, 1, 3, 0, 2, 4, 5],
                [1, 3, 5, 6, 4, 0, 2], [2, 6, 1, 4, 5, 3, 0], [4, 0, 6, 5, 3, 2, 1],
                [3, 5, 0, 2, 6, 1, 4]]


def test_lifted_build_spends_its_budget_per_vertex(monkeypatch):
    # the lifted build of the square's graph, 49 cells adjacent when they
    # share a row, a column or a symbol, spends at most REFINE_LIMIT
    # refinements per vertex and finds nothing; a budget of REFINE_LIMIT
    # per edge let it run 1,288 refinements for the same empty group
    n = len(RIGID_SQUARE)
    cells = [(r, c, RIGID_SQUARE[r][c]) for r in range(n) for c in range(n)]
    g = Graph(len(cells), [(i, j) for i, j in itertools.combinations(range(len(cells)), 2)
                           if any(a == b for a, b in zip(cells[i], cells[j]))])
    spent = []

    class Spy(symmetry.BaseOrbits):
        def __init__(self, masks, base, budget=None):
            super().__init__(masks, base, budget)
            given = symmetry.REFINE_LIMIT * len(masks) if budget is None else budget
            spent.append(given - self.budget)

    monkeypatch.setattr(symmetry, "BaseOrbits", Spy)
    assert symmetry.edge_orbits(g, g.edges, range(g.m)).moves == []
    assert len(spent) == 1 and spent[0] <= symmetry.REFINE_LIMIT * 49

"""Shared oracles, corpora, and generators for the test suite.

The naive_* helpers restate the definitions with plain set arithmetic
and no bitmask tricks, so the library is always measured against an
independent implementation.
"""

import itertools
from collections import Counter

import pytest

from edgeid._search import _state_keys
from edgeid.graph_core import Graph, GraphBuilder, bits, pendant_pairs
from edgeid.properties import isomorphic
from edgeid.reduction import SatFormula, attach_p_gadget


def naive_edge_neighborhoods(g):
    """Closed edge neighborhoods straight from the definition."""
    out = []
    for i, (u, v) in enumerate(g.edges):
        nb = {i}
        for j, (x, y) in enumerate(g.edges):
            if j != i and {u, v} & {x, y}:
                nb.add(j)
        out.append(nb)
    return out


def naive_is_code(g, chosen):
    chosen = set(chosen)
    traces = [frozenset(nb & chosen) for nb in naive_edge_neighborhoods(g)]
    if any(not t for t in traces):
        return False
    return len(set(traces)) == g.m


def naive_min_edge_code(g):
    """Lexicographically least minimum code by ascending enumeration."""
    for k in range(g.m + 1):
        for combo in itertools.combinations(range(g.m), k):
            if naive_is_code(g, combo):
                return combo
    return None


def naive_min_vertex_code(g):
    """Lex-least minimum identifying code on vertices, by enumeration."""
    closed = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            traces = [nb & set(combo) for nb in closed]
            if all(traces) and len(set(traces)) == g.n:
                return combo
    return None


def _group_by_top_bit(universe, constraints):
    groups = [[] for _ in range(universe)]
    for c in constraints:
        if c <= 0:
            raise ValueError("constraint masks must be nonzero")
        top = c.bit_length() - 1
        if top >= universe:
            raise ValueError("constraint mask exceeds the universe")
        groups[top].append(c)
    return groups


def reference_search(universe, constraints, k, budget):
    """The recursive search kernel, kept as the reference for the iterative
    one: same ``(found, mask, nodes, exhausted)`` for every input.  It
    recurses once per position, so keep universes small."""
    groups = _group_by_top_bit(universe, constraints)
    nodes = 0
    found_mask = 0

    class _Exhausted(Exception):
        pass

    def walk(pos, chosen, count):
        nonlocal nodes, found_mask
        nodes += 1
        if nodes > budget:
            raise _Exhausted
        if count == k:
            for p in range(pos, universe):
                for c in groups[p]:
                    if not c & chosen:
                        return False
            found_mask = chosen
            return True
        if count + (universe - pos) < k:
            return False
        if walk(pos + 1, chosen | (1 << pos), count + 1):
            return True
        for c in groups[pos]:
            if not c & chosen:
                return False
        return walk(pos + 1, chosen, count)

    try:
        ok = walk(0, 0, 0)
    except _Exhausted:
        return False, 0, nodes, True
    return ok, found_mask, nodes, False


def naive_sweep(universe, constraints, start=0):
    """``(size, mask)`` of the lex-least minimum hitting set: the first size
    from ``start`` up at which ``reference_search`` finds a subset."""
    for k in range(start, universe + 1):
        found, mask, _, _ = reference_search(universe, constraints, k, 10**9)
        if found:
            return k, mask
    return None


def brute_force_suffix_optimum(universe, constraints, p):
    """Fewest positions in ``[p, universe)`` hitting every constraint whose
    lowest bit is at least ``p``, by enumeration."""
    inside = [c for c in constraints if c >> p << p == c]
    for k in range(universe - p + 1):
        for combo in itertools.combinations(range(p, universe), k):
            mask = sum(1 << i for i in combo)
            if all(mask & c for c in inside):
                return k
    raise AssertionError("the whole suffix hits every constraint inside it")


def brute_force_pack(universe, constraints):
    """``pack[p]``: the most constraints inside ``[p, universe)`` whose
    [lowest bit, top bit] spans are pairwise disjoint, by enumerating every
    such family as a chain of spans in ascending order."""
    spans = sorted(
        {((c & -c).bit_length() - 1, c.bit_length() - 1) for c in constraints}
    )
    best = [0] * (universe + 1)  # largest family whose lowest bit is p

    def extend(first, last_top, size):
        best[first] = max(best[first], size)
        for lo, hi in spans:
            if lo > last_top:
                extend(first, hi, size + 1)

    for lo, hi in spans:
        extend(lo, hi, 1)
    return [max(best[p:]) for p in range(universe + 1)]


def numbered(constraints):
    """The constraints in the order ``ConstraintSystem`` numbers them: by
    lowest bit, highest first, and by ascending mask within one lowest
    bit, without repeats."""
    return sorted(set(constraints), key=lambda c: (-(c & -c).bit_length(), c))


def reference_build(universe, constraints):
    """``(hits, tops, inside, floor, keys)`` of ``ConstraintSystem``,
    built by OR-ing one bit per (constraint, position) pair, the build the
    string transpose replaced on dense systems.  ``inside[p]`` counts the
    constraints inside ``[p, universe)``, the floors are the packing seed,
    and ``keys`` is ``_state_keys`` of these arrays."""
    masks = numbered(constraints)
    hits = [0] * universe
    tops = [0] * universe
    inside = [0] * (universe + 1)
    shortest = [universe] * universe  # least top bit per lowest bit
    for i, c in enumerate(masks):
        bit = 1 << i
        top = c.bit_length() - 1
        tops[top] |= bit
        low = (c & -c).bit_length() - 1
        for p in range(low + 1):
            inside[p] += 1
        shortest[low] = min(shortest[low], top)
        for q in bits(c >> low):
            hits[low + q] |= bit
    floor = [0] * (universe + 1)
    for p in range(universe - 1, -1, -1):
        floor[p] = floor[p + 1]
        if shortest[p] < universe:
            floor[p] = max(floor[p], 1 + floor[shortest[p] + 1])
    return hits, tops, inside, floor, _state_keys(masks, hits, inside, tops)


def reference_keys(universe, constraints, limit=64):
    """Per position, the constraints whose hits key a search state there,
    from the definition: those open at ``p`` (lowest bit below ``p``, top
    bit at or above it) that contain no other constraint.  None at
    ``p = 0`` and where more than ``limit`` constraints are open; None
    overall when that holds at every position."""
    cons = set(constraints)
    inner = {c for c in cons if not any(d != c and d | c == c for d in cons)}
    keys = [None] * universe
    for p in range(1, universe):
        opened = [c for c in cons if (c & -c).bit_length() - 1 < p < c.bit_length()]
        if len(opened) <= limit:
            keys[p] = frozenset(c for c in opened if c in inner)
    return None if all(key is None for key in keys) else keys


class RefutedTable:
    """The reference's refuted-state table: ``states`` maps a keyed state
    to the largest need refuted there.  A new state arriving when it
    holds ``cap`` of them clears it first."""

    def __init__(self, cap=1 << 14):
        self.states = {}
        self.cap = cap

    def store(self, state, need):
        if state not in self.states and len(self.states) >= self.cap:
            self.states.clear()
        self.states[state] = need


def reference_pruned_search(universe, constraints, k, budget, table=None,
                            keyed=True, orbits=None, generators=None):
    """``reference_search`` with the kernel's suffix packing bound and
    refuted-state table, or its orbit bans.  Same ``(found, mask, nodes,
    exhausted)`` as the kernel for every input.

    A node with ``count + pack[pos] > k`` is a dead end.  Where
    ``reference_keys`` gives a key at ``pos``, a node is also a dead end
    when ``table``, a ``RefutedTable``, holds its state (``pos`` and the
    key constraints that the included positions hit) with a need of at
    least ``k - count``.  A node whose exclude branch is allowed is stored
    with that need once both branches are refuted.  Pass one ``table`` to
    several calls to mirror searches that share a ``ConstraintSystem``.
    With ``keyed`` false no position is keyed and the table is never
    used: that is the kernel's plain loop.

    ``orbits``, for the plain loop only, lists per position ``q`` the
    positions above ``q`` that the exclude branch of ``q`` bans: none of
    them is included anywhere in that branch.  A banned live node goes
    straight to its exclude branch, banning nothing more.  With
    ``generators``, permutations of ``range(universe)`` that map the
    constraints onto themselves, an exclude with fewer than ``k - 1``
    positions included bans instead the orbit of ``pos`` under those of
    them that map ``range(pos)`` and the included positions onto
    themselves; the last level still bans ``orbits[pos]``."""
    groups = _group_by_top_bit(universe, constraints)
    pack = brute_force_pack(universe, constraints)
    keys = reference_keys(universe, constraints) if keyed else None
    table = RefutedTable() if table is None else table
    orbits = [()] * universe if orbits is None else orbits
    nodes = 0
    found_mask = 0

    class _Exhausted(Exception):
        pass

    def walk(pos, chosen, count, banned):
        nonlocal nodes, found_mask
        nodes += 1
        if nodes > budget:
            raise _Exhausted
        if count == k:
            if any(not c & chosen for c in constraints):
                return False
            found_mask = chosen
            return True
        if count + (universe - pos) < k or count + pack[pos] > k:
            return False
        if pos in banned:
            if any(not c & chosen for c in groups[pos]):
                return False
            return walk(pos + 1, chosen, count, banned)
        need = k - count
        state = None
        if keys is not None and keys[pos] is not None:
            state = (pos, frozenset(c for c in keys[pos] if c & chosen))
            if table.states.get(state, -1) >= need:
                return False
        if walk(pos + 1, chosen | (1 << pos), count + 1, banned):
            return True
        if any(not c & chosen for c in groups[pos]):
            return False
        ban = orbits[pos]
        if generators is not None and count < k - 1:
            inside = {q for q in range(pos) if chosen >> q & 1}
            movers = [g for g in generators if set(g[:pos]) == set(range(pos))
                      and {g[q] for q in inside} == inside]
            ban = {pos}
            todo = [pos]
            while todo:
                v = todo.pop()
                for g in movers:
                    if g[v] not in ban:
                        ban.add(g[v])
                        todo.append(g[v])
        if walk(pos + 1, chosen, count, banned | frozenset(ban)):
            return True
        if state is not None:
            table.store(state, need)
        return False

    try:
        ok = walk(0, 0, 0, frozenset())
    except _Exhausted:
        return False, 0, nodes, True
    return ok, found_mask, nodes, False


def reference_perfect_matching(mg, left):
    """The recursive augmenting-path matching, kept as the reference for the
    iterative one: same result for every input it can finish.  It recurses
    once per augmenting-path step, so keep multigraphs small."""
    left = frozenset(left)
    for u, v in mg.edges:
        if (u in left) == (v in left):
            raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
    right = [v for v in range(mg.n) if v not in left]
    if len(left) != len(right):
        return None
    match_edge_of_right = {}
    matched_left = {}

    def augment(u, visited):
        for e in mg.incident_edges(u):
            a, b = mg.edges[e]
            w = b if a == u else a
            if w in visited:
                continue
            visited.add(w)
            if w not in match_edge_of_right:
                match_edge_of_right[w] = e
                matched_left[u] = e
                return True
            other_e = match_edge_of_right[w]
            oa, ob = mg.edges[other_e]
            other_u = oa if oa in left else ob
            if augment(other_u, visited):
                match_edge_of_right[w] = e
                matched_left[u] = e
                return True
        return False

    for u in sorted(left):
        if not augment(u, set()):
            return None
    return sorted(matched_left.values())


def reference_refine(order, cell, end, queue, adj):
    """``symmetry._refine`` as it was before its one-position splitter
    got a path of its own: every splitter counts neighbours in a
    ``Counter``, every touched cell groups its positions by count in a
    dict, and every fragment writes ``cell`` for its positions.  Same
    arguments, same result, same changes to ``order``, ``cell``, ``end``
    and ``queue``."""
    trace = []
    queued = set(queue)
    n = len(order)
    cells = len(set(cell))
    while queue and cells < n:
        s = queue.pop()
        queued.discard(s)
        e = end[s]
        if e - s == 1:
            counts = dict.fromkeys(adj[order[s]], 1)
        else:
            counts = Counter(itertools.chain.from_iterable([adj[v] for v in order[s:e]]))
        touched = {}
        for u in counts:
            c = cell[u]
            if c in touched:
                touched[c].append(u)
            elif end[c] - c > 1:
                touched[c] = [u]
        for c in sorted(touched):
            e = end[c]
            members = touched[c]
            groups = {}
            if len(members) < e - c:
                groups[0] = [u for u in order[c:e] if u not in counts]
            for u in members:
                k = counts[u]
                if k in groups:
                    groups[k].append(u)
                else:
                    groups[k] = [u]
            if len(groups) == 1:
                trace.append(c)
                trace.append(k)
                continue
            keys = sorted(groups)
            cells += len(keys) - 1
            trace.append(~c)
            fragments = []
            f = c
            for key in keys:
                group = groups[key]
                trace.append(key)
                trace.append(len(group))
                g = f + len(group)
                order[f:g] = group
                for u in group:
                    cell[u] = f
                end[f] = g
                fragments.append(f)
                f = g
            if c not in queued:
                fragments.remove(max(fragments, key=lambda f: end[f] - f))
            for f in fragments:
                if f not in queued:
                    queued.add(f)
                    queue.append(f)
    return trace


def naive_isomorphic(g1, g2):
    """Whether some vertex permutation maps the edges of g1 onto g2's."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    target = {frozenset(e) for e in g2.edges}
    return any(
        all(frozenset((p[u], p[v])) in target for u, v in g1.edges)
        for p in itertools.permutations(range(g1.n))
    )


def naive_constraints_from_masks(masks):
    """Every pair of intersecting masks gives its symmetric difference."""
    cons = set(masks)
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            mj = masks[j]
            if mi & mj:
                d = mi ^ mj
                if d == 0:
                    raise ValueError("universe contains twins")
                cons.add(d)
    return sorted(cons)


def naive_shrink(g, code):
    """Ascending pass that drops an edge whenever the rest is still a code."""
    chosen = sorted(code)
    for i in list(chosen):
        trial = [e for e in chosen if e != i]
        if naive_is_code(g, trial):
            chosen = trial
    return chosen


def _invariant_key(g):
    degs = tuple(sorted(g.degree(v) for v in range(g.n)))
    nbr = tuple(
        sorted(
            tuple(sorted(g.degree(u) for u in g.neighbors(v))) for v in range(g.n)
        )
    )
    return (g.n, g.m, degs, nbr)


def _grow(graphs):
    """Connected graphs with one more edge, deduped up to isomorphism."""
    buckets = {}
    out = []
    for g in graphs:
        present = set(g.edges)
        candidates = []
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (u, v) not in present:
                    candidates.append(Graph(g.n, g.edges + ((u, v),)))
            candidates.append(Graph(g.n + 1, g.edges + ((u, g.n),)))
        for h in candidates:
            bucket = buckets.setdefault(_invariant_key(h), [])
            if not any(isomorphic(h, x) for x in bucket):
                bucket.append(h)
                out.append(h)
    return out


_CONNECTED = {1: [Graph(2, [(0, 1)])]}


def connected_graphs(max_edges):
    """All connected graphs with 1..max_edges edges, up to isomorphism."""
    while max(_CONNECTED) < max_edges:
        top = max(_CONNECTED)
        _CONNECTED[top + 1] = _grow(_CONNECTED[top])
    return [g for m in range(1, max_edges + 1) for g in _CONNECTED[m]]


def disjoint_union(parts):
    shift = 0
    edges = []
    for p in parts:
        edges.extend((u + shift, v + shift) for u, v in p.edges)
        shift += p.n
    return Graph(shift, edges)


def pendant_free_unions(max_edges=8):
    """All pendant-free graphs with 1..max_edges edges and no isolated
    vertices, up to isomorphism, as multisets of connected components."""
    comps = [g for g in connected_graphs(max_edges) if not pendant_pairs(g)]
    out = []

    def rec(start, budget, parts):
        for i in range(start, len(comps)):
            g = comps[i]
            if g.m > budget:
                continue
            chosen = parts + [g]
            out.append(disjoint_union(chosen))
            rec(i, budget - g.m, chosen)

    rec(0, max_edges, [])
    return out


@pytest.fixture(scope="session")
def small_connected():
    return connected_graphs(8)


@pytest.fixture(scope="session")
def pendant_free_connected(small_connected):
    return [g for g in small_connected if not pendant_pairs(g)]


@pytest.fixture(scope="session")
def pendant_free_all():
    return pendant_free_unions(8)


def random_connected_pendant_free(rng, max_n=12):
    """Random connected graph with no pendant pair, at most max_n vertices."""
    while True:
        n = rng.randint(4, max_n)
        edges = set()
        for v in range(1, n):
            edges.add((rng.randrange(v), v))
        extra = rng.randint(n // 2, n)
        for _ in range(extra):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph(n, sorted(edges))
        # leaves breed pendant pairs; give every degree-1 vertex a second edge
        for v in range(n):
            if g.degree(v) == 1:
                choices = [u for u in range(n) if u != v and not g.has_edge(u, v)]
                if not choices:
                    break
                u = rng.choice(choices)
                edges.add((min(u, v), max(u, v)))
                g = Graph(n, sorted(edges))
        if not pendant_pairs(g):
            return g


# the seed-0 reduction instances of perfbench's solve_budget workload:
# planted_formula(random.Random("0/sat2"), 2, 0) and ("0/sat3", 3, 3)
SEED0_SAT2 = SatFormula(2, (((1, True), (0, True)), ((0, False), (1, True)),
                            ((0, True), (1, False))))
SEED0_SAT3 = SatFormula(3, (((2, True), (1, True), (0, True)),
                            ((2, False), (1, True), (0, False)),
                            ((1, False), (2, True), (0, True))))


def random_formula(rng, num_vars):
    """Random valid formula: clause sizes 2 or 3, no variable repeated in
    a clause, every variable twice positive and once negative."""
    lits = []
    for v in range(num_vars):
        lits.extend([(v, True), (v, True), (v, False)])
    total = len(lits)
    sizes_choices = [a for a in range(total // 3 + 1) if (total - 3 * a) % 2 == 0]
    while True:
        threes = rng.choice(sizes_choices)
        twos = (total - 3 * threes) // 2
        rng.shuffle(lits)
        clauses = []
        pos = 0
        ok = True
        for size in [3] * threes + [2] * twos:
            chunk = lits[pos : pos + size]
            pos += size
            if len({v for v, _ in chunk}) != size:
                ok = False
                break
            clauses.append(tuple(chunk))
        if ok and clauses:
            return SatFormula(num_vars, tuple(clauses))


def satisfying_assignment(f):
    """Brute-force satisfying assignment, or None."""
    for bits in range(1 << f.num_vars):
        asg = tuple(bool(bits >> v & 1) for v in range(f.num_vars))
        if all(any(asg[v] == s for v, s in clause) for clause in f.clauses):
            return asg
    return None


def build_forcing_tree_host():
    """A 4-cycle with the five-edge forcing tree hung off vertex 0."""
    b = GraphBuilder()
    b.add_vertices(4)
    for i in range(4):
        b.add_edge(i, (i + 1) % 4)
    named = attach_p_gadget(b, 0)
    return b.to_graph(), named


def build_variable_zone(mu):
    """Selection cycle of length 4*mu with platform and occurrence pendants.

    Platform edges hang at odd cycle vertices, one occurrence edge at
    each even vertex.  Returns the graph plus index groups.
    """
    b = GraphBuilder()
    size = 4 * mu
    cyc = b.add_vertices(size)
    cycle_edges = []
    for i in range(1, 2 * mu + 1):
        cycle_edges.append(b.add_edge(cyc[2 * i - 2], cyc[2 * i - 1]))  # d_i
        cycle_edges.append(b.add_edge(cyc[2 * i - 1], cyc[2 * i % size]))  # e_i
    platforms = [b.add_edge(cyc[2 * i + 1], b.add_vertex()) for i in range(2 * mu)]
    t_edges = [b.add_edge(cyc[2 * i], b.add_vertex()) for i in range(2 * mu)]
    return b.to_graph(), cycle_edges, platforms, t_edges


def zone_valid(g, cycle_edges, chosen_mask):
    """Domination and separation restricted to the cycle edges.

    The pendant edges are covered by their own gadgets in a full
    instance, so only the cycle edges must get nonempty distinct traces.
    """
    masks = g.all_edge_masks()
    traces = [masks[e] & chosen_mask for e in cycle_edges]
    return 0 not in traces and len(set(traces)) == len(traces)

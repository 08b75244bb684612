"""Orbits of a position graph's automorphisms along a base of positions.

The exact search may use the symmetries of its constraint system (see
``_search``).  It needs, for each position ``q`` of a base ``b_0, b_1,
...``, the orbit of ``b_q`` under the automorphisms that fix ``b_0, ...,
b_{q-1}``.  This module computes those orbits from the closed
neighbourhoods ``masks`` of the positions: for edge codes, the line
graph.  An automorphism of that graph maps closed neighbourhoods to
closed neighbourhoods, so it maps the domination and separation
constraints onto themselves, and with them the singleton constraints,
the positions they force and the positions left in the residual.

The method is individualisation-refinement, after McKay and Piperno,
"Practical graph isomorphism, II" (2014).  An ordered partition of the
positions is refined until it is equitable: every position of a cell has
as many neighbours in any given cell as every other.  The first path
individualises ``b_0, b_1, ...`` in turn, refining after each, and then
the first position of the first cell left with several, until every cell
is a singleton.  Refinement depends only on the partition and the graph,
so an automorphism that fixes ``b_0, ..., b_{q-1}`` and maps ``b_q`` to
``r`` maps the first path to a path that individualises ``r`` in place
of ``b_q``, along which every refinement splits the cells the same way.
The search for such an automorphism follows the first path's cells, one
candidate at a time, and prunes a branch as soon as its refinement
splits differently; at a discrete partition it reads the permutation off
the two orderings and keeps it only if it maps every closed neighbourhood
to a closed neighbourhood.

Levels are processed deepest first, so the generators found so far all
fix the positions below the current level.  A candidate already in the
orbit they generate needs no search, nor does one in the orbit of a
candidate refuted before.  A search that finds an automorphism for every
candidate not yet reached gives the exact orbit, since the generators of
deeper levels generate the stabiliser of ``b_q``.  The searches share a
budget of ``REFINE_LIMIT`` refinements per position; once it is spent,
the orbits stay what the generators found so far give.  That loses
speed, never correctness, since every generator is a checked
automorphism.  A new ``BaseOrbits`` finds every level, since the plain
loop of ``_search`` bans by the generators of all of them; each
generator is also kept as a permutation of base indices with two masks,
computed once when it is found, which the loop reads.

``isomorphic`` runs the same search between two graphs.  Their unit
partitions must refine with the same trace; then the search follows the
first graph's first path in the second graph from level 0, with no
budget, so a miss proves that the graphs differ.
"""

from collections import Counter
from itertools import chain

from .graph_core import bits

# Refinements per position that the automorphism searches of one build
# may run, so that a graph whose refinement is weak costs a bounded
# build; K_n, K_{a,b} and Q_n take under two.
REFINE_LIMIT = 8


def _refine(order, cell, end, queue, adj):
    """Split the cells of an ordered partition until it is equitable.

    ``order`` lists the positions; ``cell[v]`` is the index in ``order``
    where the cell of ``v`` starts and ``end[s]`` where the cell starting
    at ``s`` ends.  ``queue`` holds the starts of the cells to count
    neighbours in.  A cell whose positions count differently splits into
    fragments in ascending count, the first keeping its start, and all
    fragments but a largest join the queue unless the cell was queued
    already, in which case all do.  Every step depends on the starts and
    counts only, never on the labels, so the result is invariant under
    automorphisms.  Returns the trace, a list of ints: for every cell of
    several positions that a splitter touches, its start and its one
    count if it stays whole, else the start's complement and the count
    and size of each fragment.
    """
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
            counts = Counter(chain.from_iterable([adj[v] for v in order[s:e]]))
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


def _individualise(order, cell, end, v):
    """Make ``v`` a singleton cell at its cell's start; returns the start."""
    s = cell[v]
    i = order.index(v, s)
    order[i] = order[s]
    order[s] = v
    e = end[s]
    end[s] = s + 1
    end[s + 1] = e
    for u in order[s + 1:e]:
        cell[u] = s + 1
    return s


def _is_automorphism(sigma, masks, closed):
    """Whether ``sigma`` maps every closed neighbourhood onto one."""
    for v, near in enumerate(closed):
        image = 0
        for u in near:
            image |= 1 << sigma[u]
        if image != masks[sigma[v]]:
            return False
    return True


def _closure(points, gens):
    """The orbit of ``points`` under the group that ``gens`` generate."""
    seen = set(points)
    todo = list(seen)
    while todo:
        v = todo.pop()
        for g in gens:
            w = g[v]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def _on_base(sigma, base, index):
    """``sigma`` as a permutation of base indices: ``(images, prefix, moved)``.

    ``images[i]`` is the index of ``sigma(base[i])``.  Bit ``p`` of
    ``prefix`` is set iff ``sigma`` maps ``base[:p]`` onto itself, that is
    iff ``max(images[:p]) == p - 1``, and bit ``p`` of ``moved`` iff it is
    set in ``prefix`` and ``sigma`` moves ``p``.
    """
    images = [index[sigma[v]] for v in base]
    prefix = moved = 0
    top = -1
    for p, r in enumerate(images):
        if top == p - 1:
            prefix |= 1 << p
            if r != p:
                moved |= 1 << p
        if r > top:
            top = r
    return images, prefix | 1 << len(images), moved


class BaseOrbits:
    """Orbits of ``base[q]`` under the automorphisms fixing ``base[:q]``.

    ``masks[v]`` is the closed neighbourhood of position ``v`` as a
    bitmask, and every automorphism of the graph they describe must map
    the positions of ``base`` among themselves.  A new object runs the
    first path, then finds the orbits level by level, deepest first.
    ``orbits[q]`` is the sorted tuple of the indices ``r > q`` whose
    ``base[r]`` some automorphism fixing ``base[:q]`` maps ``base[q]``
    to; it may miss such an ``r`` only when the search budget ran out.
    ``generators`` lists the automorphisms found, each as the list of
    images of ``0, ..., len(masks) - 1``, and ``moves`` the same
    automorphisms as ``_on_base`` writes them, in base indices with their
    ``prefix`` and ``moved`` masks; the plain loop of ``_search`` reads
    ``orbits`` and ``moves`` from outside the class.
    """

    def __init__(self, masks, base):
        n = len(masks)
        self.closed = closed = [bits(m) for m in masks]
        self.adj = adj = [[u for u in near if u != v] for v, near in enumerate(closed)]
        order = list(range(n))
        cell = [0] * n
        end = [n] * n
        self.trace = _refine(order, cell, end, [0], adj)
        # the first path: (base index or None, partition before, start of
        # the individualised cell, trace of the refinement after)
        self.path = path = []

        def individualise(q, v):
            before = (order[:], cell[:], end[:])
            s = _individualise(order, cell, end, v)
            path.append((q, before, s, _refine(order, cell, end, [s], adj)))

        for q, v in enumerate(base):
            if end[cell[v]] - cell[v] > 1:
                individualise(q, v)
        # cells only ever split, so the singletons below s stay singletons
        s = 0
        while True:
            while s < n and end[s] - s == 1:
                s += 1
            if s == n:
                break
            individualise(None, order[s])
        self.leaf = order
        self.budget = REFINE_LIMIT * n
        self.generators = gens = []
        self.moves = []
        self.orbits = orbits = [()] * len(base)
        index = {v: i for i, v in enumerate(base)}
        for t in range(len(path) - 1, -1, -1):
            q, before, s, _ = path[t]
            if q is None:
                continue
            order, _, end = before
            orbit = _closure([base[q]], gens)
            refuted = set()
            for r in order[s:end[s]]:
                if r in orbit or r in refuted:
                    continue
                sigma = self._find(t, before, [r], adj, masks)
                if sigma is None:
                    refuted |= _closure([r], gens)
                else:
                    gens.append(sigma)
                    self.moves.append(_on_base(sigma, base, index))
                    orbit = _closure(orbit, gens)
            orbits[q] = tuple(sorted(index[v] for v in orbit if index[v] > q))

    def _find(self, t, partition, candidates, adj, masks):
        """A checked map onto the graph with neighbours ``adj`` and closed
        neighbourhoods ``masks``, found below ``partition`` (shaped as
        the first path's before ``path[t]``) by individualising one of
        ``candidates`` in place of ``path[t]``'s vertex."""
        path = self.path
        frames = [(t, partition, candidates)]
        while frames:
            j, (order, cell, end), candidates = frames[-1]
            if not candidates:
                frames.pop()
                continue
            if not self.budget:
                return None
            self.budget -= 1
            order, cell, end = order[:], cell[:], end[:]
            s = _individualise(order, cell, end, candidates.pop())
            if _refine(order, cell, end, [s], adj) != path[j][3]:
                continue
            if j + 1 < len(path):
                nxt = path[j + 1][2]
                frames.append((j + 1, (order, cell, end), order[nxt:end[nxt]]))
                continue
            sigma = [0] * len(order)
            for v, w in zip(self.leaf, order):
                sigma[v] = w
            if _is_automorphism(sigma, masks, self.closed):
                return sigma
        return None


def isomorphic(masks1, masks2):
    """Whether the graphs with closed neighbourhoods ``masks1`` and
    ``masks2`` are isomorphic."""
    if len(masks1) != len(masks2):
        return False
    first, second = BaseOrbits(masks1, ()), BaseOrbits(masks2, ())
    if first.trace != second.trace:
        return False
    if not first.path:
        return _is_automorphism(dict(zip(first.leaf, second.leaf)), masks2, first.closed)
    first.budget = float("inf")
    order, _, end = partition = second.path[0][1]
    s = first.path[0][2]
    return first._find(0, partition, order[s:end[s]], second.adj, masks2) is not None

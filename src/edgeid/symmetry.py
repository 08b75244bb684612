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
the lowest position of the first cell left with several, until every
cell is a singleton.  Refinement depends only on the partition and the
graph, so an automorphism that fixes ``b_0, ..., b_{q-1}`` and maps
``b_q`` to ``r`` maps the first path to a path that individualises ``r``
in place of ``b_q``, along which every refinement splits the cells the
same way.  The search for such an automorphism follows the first path's
cells, one candidate at a time, and prunes a branch as soon as its
refinement splits differently; at a discrete partition it reads the
permutation off the two orderings and keeps it only if it maps every
closed neighbourhood to a closed neighbourhood.

A partition is a list ``cells`` of bitmasks, one per index of the
order: ``cells[s]`` holds the positions of the cell that starts at
``s`` and is 0 where no cell starts, so a cell's size gives the next
start.  A list ``live`` keeps, ascending, the starts of the cells of
several positions, the only ones refinement can split.  A cell keeps no
order among its positions, so a copy for the search costs two flat
lists, a one-position splitter splits each cell with one AND, and a
larger one counts neighbours for all positions at once in bit planes.
Against lists of positions, cell starts and cell ends, with a
``Counter`` per larger splitter, this makes a build about a third
cheaper, and the generators of every build that the solves of the
485-graph corpus make are the same.

Below the individualised cell, the search tries the candidates of each
cell lowest position first, and each level tries its candidates in
ascending order.  Any automorphism of the level serves for its orbit,
but the plain loop bans only by generators that map the positions below
a start, below a position and on its stack onto themselves (see
``_search``).  The first leaf reached is then the one that keeps the
lowest positions in place longest, so its automorphism moves few low
positions and passes those tests more often: with the highest candidate
first, K_8 took 4,071 nodes instead of 1,780 and K_9 23,662 instead of
8,713, with the same codes.

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

from .graph_core import bits

# Refinements per position that the automorphism searches of one build
# may run, so that a graph whose refinement is weak costs a bounded
# build; K_n, K_{a,b} and Q_n take under two.
REFINE_LIMIT = 8


def _refine(cells, live, queue, nbr):
    """Split the cells of an ordered partition until it is equitable.

    ``cells[s]`` is the mask of the cell that starts at index ``s`` of the
    order, 0 where no cell starts, and ``live`` lists in ascending order
    the starts of the cells of several positions; ``nbr[v]`` is the mask
    of the neighbours of ``v``.  ``queue`` holds the starts of the cells
    to count neighbours in.  A cell whose positions count differently
    splits into fragments in ascending count, the first keeping its
    start, and all fragments but the first largest join the queue unless
    the cell was queued already, in which case all do.  Every step
    depends on the starts and counts only, never on the labels, so the
    result is invariant under automorphisms.  Returns the trace, a list
    of ints: for every cell of several positions that a splitter touches,
    its start and its one count if it stays whole, else the start's
    complement and the count and size of each fragment.

    A splitter of one position, as after every individualisation, counts
    1 for its neighbours and 0 for the rest, so a cell it touches stays
    whole or splits in two, its neighbours last.  A larger splitter adds
    the neighbour masks of its positions into bit planes, ``planes[i]``
    holding bit ``i`` of every position's count, and splits each cell by
    the planes, highest first, into its count groups.
    """
    trace = []
    queued = set(queue)
    while queue and live:
        s = queue.pop()
        queued.discard(s)
        splitter = cells[s]
        kept = []
        if not splitter & (splitter - 1):
            near = nbr[splitter.bit_length() - 1]
            for c in live:
                whole = cells[c]
                x = whole & near
                if not x:
                    kept.append(c)
                    continue
                if x == whole:
                    kept.append(c)
                    trace += (c, 1)
                    continue
                rest = whole ^ x
                f = c + rest.bit_count()
                e = f + x.bit_count()
                cells[c] = rest
                cells[f] = x
                if f - c > 1:
                    kept.append(c)
                if e - f > 1:
                    kept.append(f)
                trace += (~c, 0, f - c, 1, e - f)
                # queue the new fragment, or c instead if it is unqueued
                # and the smaller
                if c not in queued and f - c < e - f:
                    f = c
                queued.add(f)
                queue.append(f)
            live[:] = kept
            continue
        planes = []
        reach = 0
        for u in bits(splitter):
            carry = nbr[u]
            reach |= carry
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        planes.reverse()
        for c in live:
            whole = cells[c]
            if not whole & reach:
                kept.append(c)
                continue
            groups = [(0, whole)]
            for plane in planes:
                split = []
                for k, x in groups:
                    high = x & plane
                    if high != x:
                        split.append((2 * k, x ^ high))
                    if high:
                        split.append((2 * k + 1, high))
                groups = split
            if len(groups) == 1:
                kept.append(c)
                trace += (c, groups[0][0])
                continue
            trace.append(~c)
            fragments = []
            f = c
            for k, x in groups:
                size = x.bit_count()
                trace += (k, size)
                cells[f] = x
                if size > 1:
                    kept.append(f)
                fragments.append((f, size))
                f += size
            if c not in queued:
                fragments.remove(max(fragments, key=lambda fragment: fragment[1]))
            for f, _ in fragments:
                if f not in queued:
                    queued.add(f)
                    queue.append(f)
        live[:] = kept
    return trace


def _individualise(cells, live, v):
    """Make ``v`` a singleton cell at the start of its cell, which must
    be live; returns the start."""
    bit = 1 << v
    for i, s in enumerate(live):
        rest = cells[s]
        if rest & bit:
            break
    rest ^= bit
    cells[s] = bit
    cells[s + 1] = rest
    if rest & (rest - 1):
        live[i] = s + 1
    else:
        del live[i]
    return s


def _is_automorphism(sigma, masks, closed):
    """Whether the permutation ``sigma`` maps every closed neighbourhood
    onto one; the images of a neighbourhood are distinct, so their powers
    of two sum to its image's mask."""
    image = [1 << sigma[v] for v in range(len(closed))].__getitem__
    for v, near in enumerate(closed):
        if sum(map(image, near)) != masks[sigma[v]]:
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
        self.closed = [bits(m) for m in masks]
        self.nbr = nbr = [m & ~(1 << v) for v, m in enumerate(masks)]
        cells = [0] * n
        if n:
            cells[0] = (1 << n) - 1
        live = [0] if n > 1 else []
        self.trace = _refine(cells, live, [0], nbr)
        # the first path: (base index or None, partition before, start of
        # the individualised cell, trace of the refinement after)
        self.path = path = []

        def individualise(q, v):
            before = (cells[:], live[:])
            s = _individualise(cells, live, v)
            path.append((q, before, s, _refine(cells, live, [s], nbr)))

        for q, v in enumerate(base):
            if any(cells[c] >> v & 1 for c in live):
                individualise(q, v)
        while live:
            first = cells[live[0]]
            individualise(None, (first & -first).bit_length() - 1)
        self.leaf = [c.bit_length() - 1 for c in cells]
        self.budget = REFINE_LIMIT * n
        self.generators = gens = []
        self.moves = []
        self.orbits = orbits = [()] * len(base)
        index = {v: i for i, v in enumerate(base)}
        for t in range(len(path) - 1, -1, -1):
            q, before, s, _ = path[t]
            if q is None:
                continue
            orbit = _closure([base[q]], gens)
            refuted = set()
            for r in bits(before[0][s]):
                if r in orbit or r in refuted:
                    continue
                sigma = self._find(t, before, [r], nbr, masks)
                if sigma is None:
                    refuted |= _closure([r], gens)
                else:
                    gens.append(sigma)
                    self.moves.append(_on_base(sigma, base, index))
                    orbit = _closure(orbit, gens)
            orbits[q] = tuple(sorted(index[v] for v in orbit if index[v] > q))

    def _find(self, t, partition, candidates, nbr, masks):
        """A checked map onto the graph with neighbour masks ``nbr`` and
        closed neighbourhoods ``masks``, found below ``partition`` (shaped
        as the first path's before ``path[t]``) by individualising one of
        ``candidates``, the last first, in place of ``path[t]``'s vertex."""
        path = self.path
        frames = [(t, partition, candidates)]
        while frames:
            j, (cells, live), candidates = frames[-1]
            if not candidates:
                frames.pop()
                continue
            if not self.budget:
                return None
            self.budget -= 1
            cells, live = cells[:], live[:]
            s = _individualise(cells, live, candidates.pop())
            if _refine(cells, live, [s], nbr) != path[j][3]:
                continue
            if j + 1 < len(path):
                frames.append((j + 1, (cells, live), bits(cells[path[j + 1][2]])[::-1]))
                continue
            sigma = [0] * len(cells)
            for v, c in zip(self.leaf, cells):
                sigma[v] = c.bit_length() - 1
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
    partition = second.path[0][1]
    s = first.path[0][2]
    return first._find(0, partition, bits(partition[0][s])[::-1], second.nbr, masks2) is not None

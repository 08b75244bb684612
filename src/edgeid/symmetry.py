"""Orbits of a graph's automorphisms along the positions of a search.

The exact search may use the symmetries of its constraint system (see
``_search``).  It needs, for each position ``q``, the orbit of ``q``
under the automorphisms that fix the positions below it.  Each position
is a pair of vertices of a graph ``G``: an edge ``uv`` for edge codes,
a vertex ``v`` as ``vv`` for vertex codes.  ``edge_orbits`` finds the
group on G's vertices and lifts it: an automorphism ``sigma`` of G maps
each position ``uv`` to ``sigma(u)sigma(v)``.  It maps the closed
neighbourhoods of G's vertices onto themselves, and so those of its
edges, which are the closed neighbourhoods of its line graph L(G).  It
therefore maps the domination and separation constraints of either code
onto themselves, and with them the singleton constraints, the positions
they force and the positions left in the residual.

For vertex codes the lifts are G's automorphisms themselves.  For edge
codes the position graph is L(G), and by Whitney's theorem (Whitney,
"Congruent graphs and the connectivity of graphs", 1932) every
automorphism of the line graph of a connected graph on five or more
vertices is a lift.  Components K_4, K_4 - e and K_{1,3} + e have line
graphs with more automorphisms; there the lifted group is a subgroup of
L(G)'s, and bans by a subgroup are as sound as bans by the whole group.
G has fewer vertices than edges, often far fewer: K_8 has 8 against 28,
and the lifted build of K_8, K_9 and Q_5 takes under half the time of
the build on L(G) (see ``BENCH_lift.json``).  The benchmark's graphs get
the same orbits both ways, and the graphs of the 485-graph corpus and
of the benchmark the same solves node for node.  The vertex build runs
on all of G's vertices.  One with no edge is no residual position's
end: it is no edge's end, and as a position of a vertex code it is
alone in its closed neighbourhood, so forced.  Any two such vertices
are open twins, which the build swaps with no search (below), and the
swap lifts to the identity, which the layout drops.  When searches
found those automorphisms instead, with 20 such vertices after K_8's
they spent the build's budget before K_8's levels: K_8 then took
105,408 nodes instead of 1,780.  The budget is ``REFINE_LIMIT``
refinements per vertex, as in every build.
K_{a,b}, whose searches once ran it out, swaps twins (below) with no
search, and the corpus, K_n, Q_n, cycles and circulants spend under
half of it.  It binds on rigid graphs whose refinement is weak, where a
budget per edge ran longer searches that mostly found nothing: 1,288
refinements against 392 on the order-7 Latin-square graph of
``tests/test_symmetry.py``, for the same empty group.  On the K_n,
K_{a,b} and Q_n small enough to enumerate, the lifted orbits along the
edge positions are the orbits of L(G)'s pointwise stabilisers.

The method is individualisation-refinement, after McKay and Piperno,
"Practical graph isomorphism, II" (2014).  An ordered partition of the
positions is refined until it is equitable: every position of a cell has
as many neighbours in any given cell as every other.  The first path
individualises, in turn, the lowest position that lies in a cell of
several, refining after each, until every cell is a singleton; call
the positions it individualises ``b_0, b_1, ...``.  Refinement depends
only on the partition and the graph, so an automorphism that fixes
``b_0, ..., b_{q-1}`` and maps ``b_q`` to ``r`` maps the first path to a
path that individualises ``r`` in place of ``b_q``, along which every
refinement splits the cells the same way.  The search for such an automorphism follows the first path's
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
candidate refuted before.  Nor does a twin of ``b_q``: a candidate ``r``
with the neighbours of ``b_q`` but for the two of them, ``N(r) - {b_q} ==
N(b_q) - {r}``, whether the two are adjacent (closed twins) or not (open
ones).  Swapping them maps every closed neighbourhood onto one and fixes
every other position, ``b_0, ..., b_{q-1}`` among them, so the
transposition is an automorphism of the level, found with no search and
no budget spent.  Every two vertices of K_n are twins, and every two on
one side of K_{a,b}, so their vertex builds search at most for the swap
of the two sides: ``edge_orbits`` of K_8 takes about 0.11 ms instead of
0.20 (``BENCH_twins.json``).  The search, which tries candidates lowest
first, had found the same transpositions, so the solves of the 485-graph
corpus get the same lifts in the same order and the same node counts.
The orbits of the generators found so far are kept as lists, one shared
by all positions of an orbit, and a new generator merges the lists of
the positions it joins, so no level computes a closure.  A search that
finds an automorphism for every candidate not yet reached gives the
exact orbit, since the generators of deeper levels generate the
stabiliser of ``b_q``.  The searches share a budget of ``REFINE_LIMIT``
refinements per position; once it is spent, the orbits stay what the
generators found so far give.  That loses speed, never correctness,
since every generator is a checked automorphism.
``BaseOrbits.generators`` runs this search and finds every level, since
the plain loop of ``_search`` bans by the generators of all of them.

What the plain loop reads, a ``Group``, is laid out from the lifts,
permutations of the positions, by one helper, ``_layout``.  A lift
fixes every position below the first one it moves, its level, so the
orbit of ``q`` is built by merging the lifts of level ``q`` and above,
from the top level down.  Each lift is also written with two masks,
which the loop reads.  The lift reads only the vertex generators, so
it never pays for a layout along the vertices.

``isomorphic`` runs the same search between two graphs.  Their unit
partitions must refine with the same trace, which gives them the same
degrees and so as many edges, as the leaf check needs; then the search
follows the first graph's first path in the second graph from level 0,
with no budget, so a miss proves that the graphs differ.  It runs no
generator search.
"""

from collections import namedtuple

from .graph_core import vertex_closed_masks


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
    the planes, highest first, into its count groups.  A cell that every
    plane holds whole or misses has one count and stays whole, which one
    pass over the planes tells without building groups; in the builds of
    K_n, K_{a,b} and Q_n most cells a larger splitter touches are such.
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
        while splitter:
            low = splitter & -splitter
            splitter ^= low
            carry = nbr[low.bit_length() - 1]
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
            # a cell that every plane holds whole or misses counts uniformly
            k = 0
            for plane in planes:
                x = whole & plane
                if x == whole:
                    k += k + 1
                elif x:
                    break
                else:
                    k += k
            else:
                kept.append(c)
                trace += (c, k)
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


def _individualise(cells, live, bit):
    """Make the position of ``bit`` a singleton cell at the start of its
    cell, which must be live; returns the start."""
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


def _is_automorphism(cells, masks, later):
    """Whether the map that sends the first path's leaf onto the discrete
    partition ``cells`` maps every closed neighbourhood onto one.

    ``later[i]`` lists the indices ``j > i`` of the order whose leaf
    positions are adjacent to the one at index ``i``, and ``cells[i]`` is
    the bit of the image of the position at index ``i``.  A map that takes
    every edge to an edge is one-to-one on the edges, so between graphs
    with as many edges it maps every closed neighbourhood onto one; it is
    enough that the bits of the images of ``later[i]``, which are
    distinct, sum to a mask inside the closed neighbourhood of the image
    of index ``i``.
    """
    image = cells.__getitem__
    for near, c in zip(later, cells):
        mapped = sum(map(image, near))
        if mapped & masks[c.bit_length() - 1] != mapped:
            return False
    return True


def _on_base(images):
    """A permutation ``images`` of base indices as ``(images, prefix, moved)``.

    Bit ``p`` of ``prefix`` is set iff it maps ``[0, p)`` onto itself, that
    is iff ``max(images[:p]) == p - 1``, and bit ``p`` of ``moved`` iff it
    is set in ``prefix`` and the permutation moves ``p``.
    """
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


def _join(orbit, sigma):
    """Merge the orbits that the permutation ``sigma`` joins, where
    ``orbit[v]`` lists the orbit of ``v``, one list shared by all of its
    positions."""
    for v, w in enumerate(sigma):
        small, large = orbit[v], orbit[w]
        if small is not large:
            if len(small) > len(large):
                small, large = large, small
            large += small
            for u in small:
                orbit[u] = large


# the group along a base that the plain loop of ``_search`` bans by, as
# ``_layout`` lays it out
Group = namedtuple("Group", "orbits moves reach")


def _layout(n, perms):
    """The ``Group`` of the permutations ``perms`` of ``range(n)``.

    A permutation fixes every index below the first one it moves, its
    level, so the permutations that fix ``[0, q)`` pointwise are those of
    level ``q`` and above, and the orbit of ``q`` is trivial where none
    has level ``q``.  ``orbits[q]`` is the sorted tuple of the ``r > q``
    that the permutations of level ``q`` and above map ``q`` to, closed
    under them, ``moves`` the permutations that move an index as
    ``_on_base`` writes them, in the order given, and ``reach`` one past
    the last nonempty orbit, 0 if there is none.
    """
    moves = []
    levels = {}
    for images in perms:
        move = _on_base(images)
        moved = move[2]  # its lowest bit is the level
        if moved:
            moves.append(move)
            levels.setdefault((moved & -moved).bit_length() - 1, []).append(images)
    # merged from the top level down, orbit[i] lists the orbit of i under
    # the permutations merged so far, one list shared by all of its indices
    orbit = [[i] for i in range(n)]
    orbits = [()] * n
    for q in sorted(levels, reverse=True):
        for images in levels[q]:
            _join(orbit, images)
        orbits[q] = tuple(sorted(orbit[q])[1:])
    return Group(orbits, moves, max(levels, default=-1) + 1)


class BaseOrbits:
    """The first path of an automorphism search, and the search along it.

    ``masks[v]`` is the closed neighbourhood of position ``v`` as a
    bitmask.  A new object refines the unit partition and runs the first
    path: it individualises, in turn, the lowest position that lies in a
    cell of several, refining after each, until every cell is a
    singleton.  ``path`` lists its steps as ``(position, partition
    before, start of the individualised cell, trace of the refinement
    after)``, for ``_find`` and ``isomorphic``.  ``budget`` is the number
    of refinements the searches may run, ``REFINE_LIMIT`` per position
    unless given, less those they ran; only ``isomorphic`` gives one.
    """

    def __init__(self, masks, budget=None):
        n = len(masks)
        self.masks = masks
        self.nbr = nbr = [m & ~(1 << v) for v, m in enumerate(masks)]
        cells = [0] * n
        if n:
            cells[0] = (1 << n) - 1
        live = [0] if n > 1 else []
        self.trace = _refine(cells, live, [0], nbr)
        self.path = path = []
        while live:
            rest = sum(map(cells.__getitem__, live))
            bit = rest & -rest
            before = (cells[:], live[:])
            s = _individualise(cells, live, bit)
            path.append((bit.bit_length() - 1, before, s, _refine(cells, live, [s], nbr)))
        self.leaf = leaf = [c.bit_length() - 1 for c in cells]
        # later[i]: the indices j > i of the order whose leaf positions are
        # adjacent to leaf[i]
        where = [0] * n
        for i, v in enumerate(leaf):
            where[v] = i
        self.later = later = []
        after = (1 << n) - 1
        for v in leaf:
            after ^= 1 << v  # the positions of the leaf after v
            ahead = nbr[v] & after
            row = []
            while ahead:
                low = ahead & -ahead
                row.append(where[low.bit_length() - 1])
                ahead ^= low
            later.append(row)
        self.budget = REFINE_LIMIT * n if budget is None else budget

    def generators(self):
        """Generators of the automorphisms that fix the first path's
        positions below ``b``, for each step's position ``b``, found level
        by level, deepest first, with a twin of ``b`` swapped with no
        search (see the module docstring), each as the list of images of
        ``0, ..., len(masks) - 1``.  The orbits they generate miss some
        only when the budget ran out."""
        nbr = self.nbr
        n = len(nbr)
        gens = []
        # orbit[v] lists the orbit of v under the generators found so far,
        # one list shared by all of its positions
        orbit = [[v] for v in range(n)]
        for t in range(len(self.path) - 1, -1, -1):
            b, before, s, _ = self.path[t]
            near = nbr[b]
            refuted = set()
            rest = before[0][s]
            while rest:
                low = rest & -rest
                rest ^= low
                r = low.bit_length() - 1
                if orbit[r] is orbit[b] or r in refuted:
                    continue
                pair = 1 << b | low
                if nbr[r] | pair == near | pair:
                    # a twin of b: swapping the two is an automorphism
                    sigma = list(range(n))
                    sigma[b], sigma[r] = r, b
                else:
                    sigma = self._find(t, before, low, nbr, self.masks)
                    if sigma is None:
                        refuted.update(orbit[r])
                        continue
                gens.append(sigma)
                _join(orbit, sigma)
        return gens

    def _find(self, t, partition, candidates, nbr, masks):
        """A checked map onto the graph with neighbour masks ``nbr`` and
        closed neighbourhoods ``masks``, found below ``partition`` (shaped
        as the first path's before ``path[t]``) by individualising one of
        the positions of the mask ``candidates``, the lowest first, in
        place of ``path[t]``'s position."""
        path = self.path
        frames = [[t, partition, candidates]]
        while frames:
            frame = frames[-1]
            j, (cells, live), candidates = frame
            if not candidates:
                frames.pop()
                continue
            if not self.budget:
                return None
            self.budget -= 1
            low = candidates & -candidates
            frame[2] = candidates ^ low
            cells, live = cells[:], live[:]
            s = _individualise(cells, live, low)
            if _refine(cells, live, [s], nbr) != path[j][3]:
                continue
            if j + 1 < len(path):
                frames.append([j + 1, (cells, live), cells[path[j + 1][2]]])
                continue
            if _is_automorphism(cells, masks, self.later):
                sigma = [0] * len(cells)
                for v, c in zip(self.leaf, cells):
                    sigma[v] = c.bit_length() - 1
                return sigma
        return None


def isomorphic(masks1, masks2):
    """Whether the graphs with closed neighbourhoods ``masks1`` and
    ``masks2`` are isomorphic."""
    if len(masks1) != len(masks2):
        return False
    first, second = BaseOrbits(masks1, float("inf")), BaseOrbits(masks2)
    if first.trace != second.trace:
        return False
    if not first.path:
        return _is_automorphism([1 << v for v in second.leaf], masks2, first.later)
    partition = second.path[0][1]
    return first._find(0, partition, partition[0][first.path[0][2]], second.nbr,
                       masks2) is not None


def edge_orbits(g, ends, positions):
    """The ``Group`` along ``positions`` of the automorphisms of the graph
    ``g`` lifted to them (see the module docstring).

    ``ends[p]`` is the pair of vertices of ``g`` that position ``p``
    stands for: an edge ``(u, v)``, or ``(v, v)`` for the vertex ``v``;
    every automorphism of ``g`` maps the positions of ``positions`` among
    themselves.  The automorphisms are the generators of a ``BaseOrbits``
    on all of ``g``'s vertices, with the default budget.  Each generator
    ``sigma`` lifts to the permutation that maps index ``i``, the position
    with ends ``{a, b}``, to the index of the position with ends
    ``{sigma(a), sigma(b)}``.  ``_layout`` lays the lifts out:
    ``orbits[q]`` holds the ``r > q`` that the lifts fixing ``[0, q)``
    pointwise map ``q`` to, closed under them.
    """
    pairs = [ends[p] for p in positions]
    # the index of each position by the mask of its ends, one bit for a vertex
    index = {1 << a | 1 << b: i for i, (a, b) in enumerate(pairs)}
    images = [[index[1 << sigma[a] | 1 << sigma[b]] for a, b in pairs]
              for sigma in BaseOrbits(vertex_closed_masks(g)).generators()]
    return _layout(len(pairs), images)

"""Exact-size hitting-set search kernel.

The solver reduces code-finding to this question: among ``universe`` bit
positions, is there a k-subset whose bitmask intersects every constraint
mask?  The kernel answers it by depth-first search over positions in
ascending index order, trying "include" before "exclude", so the first
subset found is the lexicographically least one of size k.  A search may
also start at a position ``start``.  It then counts every constraint whose
lowest bit is below ``start`` as hit, and looks for a k-subset of
``[start, universe)`` that hits the constraints lying inside that range.
The Russian-doll search of ``least_optimum`` below is built on them.

The search is iterative and works on arbitrary-width integer masks, so
its depth is bounded by memory, not by the interpreter's recursion limit.
The exclude branch is the last thing a node tries, so it needs no frame
of its own: the only state to remember is which positions are included.
They sit in ascending order on a stack of positions, allocated once per
search and indexed by their number ``count``; backtracking decrements
``count``, reads the position on top and tries its exclude branch.  The
subset's mask is built from the stack only when a search finds one, so
no step of the search touches a mask as wide as the universe.

The search does not look at the constraint masks themselves.  A
``ConstraintSystem`` numbers the constraints once and stores their
transpose: for each position ``p``, ``hits[p]`` is the set of
constraints that contain ``p``, and ``tops[p]`` the set of constraints
whose top bit is ``p``, both as bitmasks over the constraint numbers.
The search keeps a stack ``hit`` in which ``hit[c]`` is the set of
constraints that count as hit from the start or that the lowest ``c``
included positions hit; the unhit constraints are the ones missing from
it.  Every check is then one or two integer operations:

- including ``pos`` pushes ``hit[count] | hits[pos]``;
- a full k-subset is a solution iff ``hit[k]`` holds every constraint;
- a constraint with top bit ``p`` can no longer be hit once the search
  moves past ``p``, so excluding ``p`` is allowed iff ``hit[count]``
  holds all of ``tops[p]``.

The constraints are numbered by lowest bit, highest first, and by
ascending mask within one lowest bit.  So for every ``start`` the
constraints inside ``[start, universe)`` are exactly the numbers below
their count ``inside[start]``, and the constraints whose lowest bit is
``p`` are the run of numbers from ``inside[p + 1]`` up to ``inside[p]``,
the mask ``(1 << inside[p]) - (1 << inside[p + 1])``.  A plain-loop
search from ``start`` ANDs ``full`` and the ``hits`` and ``tops`` of its
suffix once with that prefix of numbers, drops the constraints below
``start`` that way instead of counting them as hit, and begins with
nothing hit.  Every mask it then touches is no wider than its suffix's
constraints: on Q_5, whose system holds 1,520 constraints, the suffix
searches from starts 31 to 44 concern 4 to 76 of them, and the
refutation from 31 took about 11% less time on the narrow masks
(median of six interleaved in-process runs).

The transpose is read off binary strings where the system is dense.
Write a block of constraints as ``universe``-digit binary rows in
descending number order and join them: position ``q``'s column is then
every ``universe``-th character from ``universe - 1 - q``, and one
strided slice and ``int(column, 2)`` give the block's part of
``hits[q]``, below the part that the blocks of higher numbers gave.
Blocks of about ``BLOCK`` characters bound the memory of the strings.
The strings hold a character for every (constraint, position) pair,
held or not, so they pay only where at least 1/32 of the pairs are
held, as in the line graphs of complete graphs, complete bipartite
graphs and hypercubes; a sparser system, such as a long cycle or a
reduction instance, sets one bit per pair it holds instead.  A
constraint's top bit is the last position whose ``hits`` holds it, so
``tops`` follows from a running OR of ``hits`` from the right.

A bound then prunes subtrees that hold no solution.  ``floor[p]`` is a
lower bound on the number of positions in ``[p, universe)`` that hit
every constraint whose lowest bit is at least ``p``.  At a node with
``count`` positions included below ``pos``, those constraints are all
still unhit, so ``count + floor[pos] > k`` means no k-subset extends the
node.  Such a node is a dead end.  The pruned search visits the same
nodes as the unpruned one, in the same order, minus subtrees without a
solution; it therefore returns the same subset, the lexicographically
least one, in no more nodes.

A new system seeds ``floor[p]`` with a packing bound: the largest number
of constraints inside ``[p, universe)`` whose spans from lowest to top
bit are pairwise disjoint, since each of them needs an element of its
own.  One right-to-left scan over the positions computes it for every
``p``.

``least_optimum`` finds the lex-least minimum hitting set of a system by
Russian-doll search (Verfaillie, Lemaître and Schiex, AAAI 1996).  Its
suffix pass raises ``floor[p]``, from the right, to the exact suffix
optimum for every ``p >= 1``: the fewest positions in ``[p, universe)``
that hit every constraint lying inside that range, most of them settled
with no search (see ``_suffix_pass``).  The optimum of the whole system
is then ``floor[1]`` or one more, and the sweep searches at most these
two sizes from 0 (see ``_sweep``).  All these searches share the system,
with its refuted-state table or its group, and one node budget.

Searches on one system also share a table of refuted states.  At a node
at ``pos`` with ``count`` positions included, what is left to decide
depends only on ``pos``, on the size ``k - count`` still needed, and on
which *open* constraints (lowest bit below ``pos``, top bit at or above
it) are hit: every constraint that tops out below ``pos`` is hit, and no
constraint that starts at or after it is.  A constraint that contains
another is left out of this key, since the smaller one must be hit
anyway.  A node whose exclude branch is allowed is recorded once both of
its subtrees are refuted, as ``(pos, hit & key) -> k - count``; a later
node with the same key and a need no larger is a dead end, since a
solution with fewer positions could be padded to the recorded need.  Like
the bound, the table cuts only subtrees without a solution, so the
returned subset stays the lex-least one.  It is shared by every search
of a solve, at every size and start, which is sound because a suffix
search counts exactly the constraints below its start as hit.

Two limits keep the table cheap.  It is kept only at positions with at
most ``KEY_LIMIT`` open constraints.  Complete graphs, complete
bipartite graphs and hypercubes have hundreds at every position; there
wide keys rarely repeat, and the lookups made K_9 and Q_5 over twice as
slow.  A system with no position under the limit runs the plain loop,
so those graphs pay nothing.  And the table holds at most
``TABLE_CAP`` states and is cleared when full, which bounds its memory
whatever the node budget.

The plain loop prunes by symmetry instead.  ``least_optimum`` stores the
graph that the positions come from as the system's ``graph``, and the
first plain-loop search builds from it the system's ``symmetry.Group``
by ``symmetry.edge_orbits``: the root graph's automorphisms, found on
its vertices and lifted to the positions, each of which is a pair of
its vertices, an edge's two ends or a vertex twice.  A solve that runs
the table loop builds no group and loads no ``symmetry``.
The group's generators are automorphisms of the system, permutations of
the positions that map the constraints onto themselves.  Take a search
from ``start`` that takes the exclude branch of ``q`` once the include
branch is refuted, and let ``S`` be the positions included in ``[start,
q)``.  Let ``H`` be the group generated by the generators that map each
of ``[0, start)``, ``[0, q)`` and ``S`` onto itself.  Then no position of
the orbit of ``q`` under ``H`` may be included anywhere in that branch.
For suppose a solution ``T`` there contained ``r = g(q)`` with ``g`` in
``H``: ``g⁻¹(T)`` agrees with ``T`` on ``[start, q)``, since ``g`` maps
``S`` and the rest of ``[start, q)`` onto themselves; it contains ``q``;
and it solves the same suffix problem, since ``g`` maps ``[0, start)``
onto itself and with it the constraints lying inside ``[start,
universe)``.  So ``g⁻¹(T)`` would be a solution in the include branch
just refuted, or cut as holding none.  Bans, like the bound, cut only
subtrees without a solution, and the first subset found stays the
lex-least one.  This is orbital branching on the subproblem's symmetry
group (Ostrowski, Linderoth, Rossi and Smriglio, "Orbital branching",
2011), taken in the include-first order of the lex search.  A generator
that fixes every position below ``q`` passes all three tests, so ``H``
contains the pointwise stabiliser of ``[0, q)``, and its orbit, the
positions above ``q`` that ``orbits[q]`` lists, is banned too.

Each generator comes as its list of images and two masks: bit ``p`` of
``prefix`` is set when it maps ``[0, p)`` onto itself, so the first two
tests are bit tests, and ``moved`` marks the ``p`` where it does and
moves ``p``.  ``ConstraintSystem.bans`` keeps the generators that pass
the ``start`` test once per search; ``movable``, the union of their
``moved`` masks, holds every position whose orbit can be nontrivial, and
``base`` is one past the last of them.  The ``S`` test looks up the
images of the included positions.  It depends on the stack below the
unwound depth only, and the unwind asks it for one stack prefix many
times over, so ``kept[count]`` holds ``_movers``, the generators that
pass it, until that prefix changes.  A prefix changes only after the
unwind takes an exclude below it, which lifts the bans logged above, so
the search logs a bare marker with each ``kept`` entry and forgets the
entry when it lifts the marker; Q_5 computes 1,890 entries for 4,844
questions.  The generators are those of every level of the group, all
found when it is built: the ones of the levels below a start map the
positions below it onto themselves without fixing them, and they
matter: with only the levels at or above each start, K_7 to K_11 and
Q_4 took more nodes.

The suffix pass reads the group too, through ``ConstraintSystem.mapped``.
An automorphism that maps ``[0, start)`` onto itself maps a suffix
solution from ``start`` to another; the generators do not all do that,
so ``mapped`` tries the image of the one witness it is given under each
generator and keeps one only if it lies in ``[start, universe)`` and,
with the constraints below ``start``, hits every constraint.  On Q_4
six such images stand in for suffix searches: the solve takes 16,579
nodes with them and 68,286 without.  Images under the generators'
inverses, or of every witness the pass held at the same size, settled
no suffix optimum that these did not.

The loop keeps, for each position, the number of bans on it, folded
into the room left above it so that the include test catches them
unchanged, and a log of ``(count, banned positions)`` for each exclude
that banned, lifted when the search backtracks out of its branch.  Only
positions below ``base`` ban anything, so a system without symmetry
pays one comparison per exclude.  When the unwind takes the exclude of
a position ``p < base``, it lifts the bans made inside ``p``'s include
subtree, whether or not ``p`` bans itself: a ban that outlived its
branch would cut solutions.  A banned position goes straight to its
exclude and bans nothing; banning its orbit too cut no node on K_7 to
K_10 or the test corpus.

Most of the plain loop's nodes lie at the last level and the leaves
below it: 85-94% of them on K_8, Q_4, K_9 and Q_5, split about evenly.
The loop therefore scans the last level in one pass.  Once a node has
``count = k - 1`` and ``floor[pos] <= 1``, every position to its right
passes the bound too.  The floors fall as the position grows, except
that a suffix search from ``p`` may meet the packing seed at ``p`` below
the exact optimum at ``p + 1``.  So a search from ``p`` asks only ``k
>= floor[p + 1]``, as the suffix pass (at ``floor[p + 1]``) and the
sweep (from 0 at ``floor[1]`` or more) do, and a scan from ``p``
itself, where ``k = 1``, sees floors of at most 1 as well.  With ``h =
hit[k - 1]`` the scan walks ``q = pos, pos + 1, ...``: an unbanned
``q`` below the universe is included and is a solution iff ``h |
hits[q]`` holds every constraint; a failed include or a banned ``q``
moves on iff its exclude is allowed, the exclude of a failed include
banning ``orbits[q]`` if ``q`` lies below the last position with a
nonempty one; anything else is a dead end, from which the loop
unwinds.  A leaf bans nothing, so the scan has no bans to lift.  The
scan bans the pointwise orbit, read off a list, rather than the orbit
under ``H``: ``H`` there cut nodes on K_9 to K_11 but made them slower,
since a failed include at the last level costs less than the generator
tests.  The scan's bound is not ``base``: a pointwise orbit above ``q``
is nonempty only below the group's last moved base level, while a
generator that maps the positions below a start onto themselves may
move positions up to the end.  On Q_5 such generators put ``base`` near
the end of the universe from starts 31 to 44, and all 116,099 of the
scan's reads of ``orbits[q]`` there found it empty.  The scan
therefore walks the positions below its bound in a loop of its own,
which leaves the first position that would end the scan to a second
loop that reads no orbits; every Q_5 scan starts past the bound, and
dropping the test from its loop took about 3% off Q_5's time.

The scan counts the nodes that the loop would visit one at a time: two
per included position, the include and the leaf below it, and one per
other position it reaches, a banned one or the end of the universe.  It
checks the budget once, when it stops.  The table loop counts one node
it does not visit: an include's child that fails the bound, with
``floor[pos + 1] > k - count - 1``.  Such a child is a dead end that
records nothing; a leaf fails so too, since some constraint starts to
its right.  The loop counts the child's node and goes on at once with
the exclude branch of its parent, or unwinds from the parent when that
exclude is not allowed, as the child's own unwind would have done.  So
one search node is counted per visited DFS state, and the search stops
once the node budget is exceeded, reporting exhaustion with ``budget +
1`` nodes, even when the scan in which that happens reaches further.  A
run that returns not-found without exhaustion is a proof that no
k-subset hits every constraint.
"""

from .graph_core import bits

# The refuted-state table is kept at positions with at most this many
# open constraints; see the module docstring.
KEY_LIMIT = 64
# States the refuted-state table may hold; a new one then clears it.
TABLE_CAP = 1 << 14
# Characters of the binary strings that ``_transpose`` joins and slices at
# a time; it bounds the build's memory on wide dense systems.
BLOCK = 1 << 20


class ConstraintSystem:
    """Constraint masks over ``range(universe)`` in the form the kernel
    searches, built once and shared by searches at every size k and from
    every start.  ``inside[p]`` is the number of constraints inside ``[p,
    universe)``, which are numbered from 0 up (see the module docstring).
    ``keys`` is None when no position ``p >= 1`` has at most
    ``KEY_LIMIT`` open constraints; the kernel then keeps no table.
    ``graph`` is None or ``(g, ends, positions)``, a ``Graph`` ``g`` whose
    automorphisms map the constraints onto themselves and what each
    position stands for: position ``i`` is the pair of vertices
    ``ends[positions[i]]`` of ``g``, an edge's ends or a vertex twice.
    ``group`` is None or the ``symmetry.Group`` along the positions that
    ``bans`` builds from ``graph``, which it reads for the plain loop at
    each start, and whose generators ``mapped`` applies to one suffix
    witness at a time."""

    __slots__ = ("universe", "full", "hits", "tops", "inside", "floor", "keys",
                 "tables", "stored", "graph", "group")

    def __init__(self, universe, constraints):
        # equal constraints would each count as containing the other; the
        # solver's are sorted and unique already, so the pass that groups
        # them by lowest bit checks them too
        masks = list(constraints)
        runs = _runs(masks, universe)
        if runs is None:
            masks = sorted(set(masks))
            if masks and masks[0] <= 0:
                raise ValueError("constraint masks must be nonzero")
            runs = _runs(masks, universe)
        # number the constraints by lowest bit, highest first, and by
        # ascending mask within one lowest bit; inside[p] counts those with
        # lowest bit at least p, and the least mask of a run has its least
        # top bit
        masks = []
        inside = [0] * (universe + 1)
        floor = [0] * (universe + 1)
        for p in range(universe - 1, -1, -1):
            run = runs[p]
            floor[p] = floor[p + 1]
            if run:
                floor[p] = max(floor[p], 1 + floor[run[0].bit_length()])
                masks += run
            inside[p] = len(masks)
        hits = _transpose(masks, universe)
        # a constraint's top bit is the last position whose hits holds it
        tops = [0] * universe
        seen = 0
        for p in range(universe - 1, -1, -1):
            hit = hits[p]
            tops[p] = (hit | seen) ^ seen
            seen |= hit
        self.universe = universe
        self.full = (1 << len(masks)) - 1
        self.hits = hits
        self.tops = tops
        self.inside = inside
        self.floor = floor
        self.keys = keys = _state_keys(masks, hits, inside, tops)
        # the refuted-state table: one dict per keyed position, and the
        # number of states they hold together
        self.tables = None if keys is None else [
            key if key is None else {} for key in keys
        ]
        self.stored = 0
        self.graph = None
        self.group = None

    def bans(self, start):
        """What the plain loop bans with in a search from ``start``.

        Returns ``(orbits, gens, movable)``, all empty when the system has
        neither a ``group`` nor a ``graph`` to build one from.  The first
        call builds ``group`` from ``graph`` by ``symmetry.edge_orbits``,
        the lift of ``g``'s automorphisms to the positions.  ``orbits``
        are the group's orbits along the positions up to its ``reach``,
        the last nonempty one, so that their length bounds the positions
        that ban one, ``gens`` its generators that map ``[0, start)``
        onto itself, each as ``(images, prefix, moved)`` (see
        ``symmetry._on_base``), and ``movable`` the union of their
        ``moved`` masks: the positions whose ban a generator can make.
        """
        group = self.group
        if group is None:
            if self.graph is None:
                return (), (), 0
            from . import symmetry

            group = self.group = symmetry.edge_orbits(*self.graph)
        gens = [move for move in group.moves if move[1] >> start & 1]
        movable = 0
        for _, _, moved in gens:
            movable |= moved
        return group.orbits[:group.reach], gens, movable

    def mapped(self, witness, start):
        """An image of ``witness`` that solves the suffix problem from
        ``start``, or None.

        The images tried are those under each generator of ``group``.  The
        first that lies in ``[start, universe)`` and, with the constraints
        below ``start``, hits every constraint is returned.  Every image is
        checked in full, so it is a solution whatever the maps are.  There
        is nothing to map by before a plain-loop search has built the
        group, nor ever on a system that runs the table loop.
        """
        group = self.group
        if group is None:
            return None
        hits = self.hits
        full = self.full
        marked = self.below(start)
        chosen = bits(witness)
        for images, _, _ in group.moves:
            h = marked
            for p in chosen:
                q = images[p]
                if q < start:
                    break
                h |= hits[q]
            else:
                if h == full:
                    return sum(1 << images[p] for p in chosen)
        return None

    def below(self, start):
        """The constraints whose lowest bit is below ``start``, as a mask:
        every number from the count of those inside ``[start, universe)``
        up."""
        return self.full ^ ((1 << self.inside[start]) - 1)


def _runs(masks, universe):
    """``runs[p]``: the masks whose lowest bit is ``p``, in ascending order,
    or None when ``masks`` do not ascend strictly from above 0."""
    runs = [[] for _ in range(universe)]
    last = 0
    try:
        for c in masks:
            if c <= last:
                return None
            runs[(c & -c).bit_length() - 1].append(c)
            last = c
    except IndexError:  # the lowest bit of c lies past the universe
        last = c
    if last.bit_length() > universe:
        raise ValueError("constraint mask exceeds the universe")
    return runs


def _transpose(masks, universe):
    """``hits[q]``: the numbers of the constraints in ``masks`` containing q.

    A system holding at least 1/32 of its (constraint, position) pairs is
    read from binary strings, about ``BLOCK`` characters at a time, and a
    sparser one pair by pair; see the module docstring.
    """
    hits = [0] * universe
    pairs = sum(map(int.bit_count, masks))
    if not masks or 32 * pairs < len(masks) * universe:
        for i, c in enumerate(masks):
            bit = 1 << i
            while c:
                low = c & -c
                hits[low.bit_length() - 1] |= bit
                c ^= low
        return hits
    rows = max(1, BLOCK // universe)
    last = universe - 1
    end = len(masks)
    while end:
        start = max(0, end - rows)
        block = "".join([bin(c)[2:].zfill(universe)
                         for c in reversed(masks[start:end])])
        shift = end - start
        for q in range(universe):
            hits[q] = hits[q] << shift | int(block[last - q::universe], 2)
        end = start
    return hits


def _state_keys(masks, hits, inside, tops):
    """``keys[p]``, the constraints whose hits decide a search state at ``p``.

    They are the constraints open at ``p`` (lowest bit below ``p``, top
    bit at or above it) that contain no other constraint.  A constraint
    that contains another is hit whenever the smaller one is, and the
    smaller one must be hit too, so its own state decides nothing.
    ``keys[p]`` is None at ``p = 0`` and where more than ``KEY_LIMIT``
    constraints are open; the result is None when that holds everywhere.
    """
    keys = [None] * len(tops)
    opened = 0
    keyed = 0
    for p, top in enumerate(tops):
        if p and opened.bit_count() <= KEY_LIMIT:
            keys[p] = opened
            keyed |= opened
        # a constraint topping out at p was open at p or starts there
        opened = (opened | (1 << inside[p]) - (1 << inside[p + 1])) ^ top
    if all(key is None for key in keys):
        return None
    # a constraint inside a keyed one has its lowest bit in it
    near = 0
    for q, hit in enumerate(hits):
        if hit & keyed:
            near |= (1 << inside[q]) - (1 << inside[q + 1])
    # the keyed constraints containing constraint j are the ones that
    # every position of j hits, the top one first; the scan stops once
    # only j is left
    supersets = 0
    for j in bits(near):
        bit = 1 << j
        c = masks[j]
        containing = (keyed | bit) & hits[c.bit_length() - 1]
        while c and containing != bit:
            low = c & -c
            c ^= low
            containing &= hits[low.bit_length() - 1]
        supersets |= containing ^ bit
    return [key if key is None else key & ~supersets for key in keys]


def _movers(stack, count, gens):
    """``(movers, moving)``: the generators of ``gens`` that map the
    positions on ``stack[:count]`` onto themselves, each as ``(images,
    prefix)``, and the union of their ``moved`` masks."""
    chosen = stack[:count]  # a few positions, so a list tests as fast as a set
    movers = []
    moving = 0
    for images, prefix, moved in gens:
        for v in chosen:
            if images[v] not in chosen:
                break
        else:
            movers.append((images, prefix))
            moving |= moved
    return movers, moving


def _orbit(q, movers):
    """The positions other than ``q`` that ``q`` is mapped to by the
    generators of ``movers`` that map ``[0, q)`` onto themselves, closed
    under them."""
    movers = [images for images, prefix in movers if prefix >> q & 1]
    orbit = [q]
    seen = {q}
    for v in orbit:
        for images in movers:
            w = images[v]
            if w not in seen:
                seen.add(w)
                orbit.append(w)
    del orbit[0]
    return orbit


def _search(system, k, budget, start):
    universe = system.universe
    hits = system.hits
    tops = system.tops
    floor = system.floor
    # the constraints inside [start, universe) are the numbers below their
    # count, and the rest count as hit: drop them from every mask read
    full = (1 << system.inside[start]) - 1
    if full != system.full:
        hits = [0] * start + list(map(full.__and__, hits[start:]))
        tops = [0] * start + list(map(full.__and__, tops[start:]))
    orbits, gens, movable = system.bans(start)
    base = movable.bit_length()
    reach = len(orbits)
    depth = min(k, universe - start)
    hit = [0] * (depth + 1)
    if not k:
        # the root is the only node, and a leaf
        return hit[0] == full, 0, 1, False
    stack = [0] * depth
    # room[p] is universe - p, less `shift` per ban on p: the include
    # test fails at a banned position; log holds (count, positions) for
    # each exclude that banned positions
    room = list(range(universe, -1, -1))
    shift = universe + 1
    log = []
    logged = -1  # the count of log's last entry, -1 while it is empty
    # kept[c] is None or _movers of stack[:c], logged as (c, ()); an
    # exclude below c changes stack[:c] and lifts that entry, which
    # forgets it
    kept = [None] * depth
    last = k - 1
    count = 0
    pos = start
    nodes = 0  # counted by hand, as a scan visits many nodes at once
    while nodes < budget:
        nodes += 1
        if count == last and floor[pos] <= 1:
            # The last-level scan.  floor does not rise to the right of
            # pos (see the module docstring), so every q >= pos passes the
            # bound, and q can be included iff room[q] > 0.  room[universe]
            # is 0 and never banned, so the scan stops there at the latest.
            h = hit[count]
            q = pos
            skipped = 0  # banned positions and a dead end, one node each
            # Below reach, a failed include whose exclude is allowed bans
            # orbits[q]; a leaf bans nothing, so there is nothing to lift.
            # The first position that would end the scan is left to the
            # loop after, which reads no orbits.
            while q < reach:
                r = room[q]
                top = tops[q]
                if h & top != top or not r:
                    break
                if r > 0:
                    if h | hits[q] == full:
                        break
                    banned = orbits[q]
                    if banned:
                        for r in banned:
                            room[r] -= shift
                        log.append((count, banned))
                        logged = count
                else:
                    skipped += 1
                q += 1
            while True:
                r = room[q]
                if r > 0:
                    if h | hits[q] == full:
                        break
                    top = tops[q]
                    if h & top != top:
                        break
                elif r:
                    skipped += 1
                    top = tops[q]
                    if h & top != top:
                        break
                else:
                    skipped += 1
                    break
                q += 1
            # two nodes per position reached, one per skipped one, less
            # the node at pos counted above
            nodes += 2 * (q - pos) + 1 - skipped
            if nodes > budget:
                return False, 0, budget + 1, True
            if room[q] > 0 and h | hits[q] == full:
                # q < universe, and the k - 1 positions on the stack lie
                # in [start, q), so depth = k: stack[k - 1] is in range
                stack[count] = q
                return True, sum(1 << p for p in stack), nodes, False
        elif floor[pos] <= k - count <= room[pos]:
            hit[count + 1] = hit[count] | hits[pos]
            stack[count] = pos
            count += 1
            pos += 1
            continue
        elif room[pos] < 0 and floor[pos] <= k - count <= universe - pos:
            # A banned position goes straight to its exclude branch, which
            # bans nothing (see the module docstring).
            top = tops[pos]
            if hit[count] & top == top:
                pos += 1
                continue
        # Dead end: unwind to the highest included position whose exclude
        # branch leaves every constraint topping out there hit.  Below
        # base, the exclude also lifts and bans.
        while count:
            count -= 1
            p = stack[count]
            top = tops[p]
            if hit[count] & top == top:
                if p < base:
                    # lift the bans made inside p's include subtree, all
                    # by positions above p, then ban p's orbit under H
                    while logged > count:
                        c, banned = log.pop()
                        kept[c] = None
                        for r in banned:
                            room[r] += shift
                        logged = log[-1][0] if log else -1
                    if movable >> p & 1:
                        entry = kept[count]
                        if entry is None:
                            entry = kept[count] = _movers(stack, count, gens)
                            log.append((count, ()))
                            logged = count
                        movers, moving = entry
                        if moving >> p & 1:
                            banned = _orbit(p, movers)
                            for r in banned:
                                room[r] -= shift
                            log.append((count, banned))
                            logged = count
                break
        else:
            return False, 0, nodes, False
        pos = p + 1
    return False, 0, budget + 1, True


def _table_search(system, k, budget, start):
    """``_search`` with lookups in and records to ``system.tables``."""
    universe = system.universe
    full = system.full
    hits = system.hits
    tops = system.tops
    floor = system.floor
    keys = system.keys
    tables = system.tables
    stored = system.stored
    cap = TABLE_CAP
    depth = min(k, universe - start)
    hit = [0] * (depth + 1)
    hit[0] = system.below(start)
    stack = [0] * depth
    count = 0
    pos = start
    nodes = 0  # counted by hand, as a child failing the bound is not visited
    while nodes < budget:
        nodes += 1
        if count == k:
            if hit[k] == full:
                system.stored = stored
                return True, sum(1 << p for p in stack), nodes, False
        elif floor[pos] <= k - count <= universe - pos:
            key = keys[pos]
            if key is None or tables[pos].get(hit[count] & key, -1) < k - count:
                if floor[pos + 1] < k - count:
                    hit[count + 1] = hit[count] | hits[pos]
                    stack[count] = pos
                    count += 1
                    pos += 1
                    continue
                # The include's child fails the bound: a dead end that
                # records nothing, so count it and unwind it here, to this
                # node's exclude branch if allowed, else to this dead end.
                nodes += 1
                if nodes > budget:
                    break
                top = tops[pos]
                if hit[count] & top == top:
                    pos += 1
                    continue
        # Dead end at (pos, count).  Each state (q, count) that the search
        # left by its exclude branch since the last include now has both
        # subtrees refuted: record it, deepest first, then unwind.
        while True:
            p = stack[count - 1] if count else start - 1
            if pos - 1 > p:
                h = hit[count]
                need = k - count
                for q in range(pos - 1, p, -1):
                    key = keys[q]
                    if key is not None:
                        table = tables[q]
                        state = h & key
                        if state not in table:
                            if stored == cap:
                                for other in tables:
                                    if other:
                                        other.clear()
                                stored = 0
                            stored += 1
                        table[state] = need
            if not count:
                system.stored = stored
                return False, 0, nodes, False
            count -= 1
            top = tops[p]
            if hit[count] & top == top:
                pos = p + 1
                break
            pos = p
    system.stored = stored
    return False, 0, budget + 1, True


def search_exact_size(universe, constraints, k, budget, start=0):
    """Find the lex-least k-subset of ``range(universe)`` hitting every mask.

    ``constraints`` is a list of nonzero masks, or a ``ConstraintSystem``
    over the same universe, which lets searches at several sizes and
    starts share one preparation and one refuted-state table.  Returns
    ``(found, mask, nodes, exhausted)``.  ``mask`` is the subset as an
    int bitmask when found, else 0.  ``exhausted`` means the node budget
    ran out before the search space was covered; ``nodes`` is then
    ``budget + 1``, counting the node that crossed the line.

    A suffix search takes the subset from ``[start, universe)`` only and
    counts every constraint whose lowest bit is below ``start`` as hit
    already, so it looks for the lex-least k-subset of that range hitting
    the constraints that lie inside it.

    Once the suffix pass has raised a system's floors, a search from
    ``start < universe`` must ask ``k >= floor[start + 1]``, or the
    last-level scan counts nodes that the loop never visits (see the
    module docstring).  A new system's floors never rise to the right.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError("need k >= 0")
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValueError("need a positive node budget")
    if not 0 <= start <= universe:
        raise ValueError("start lies outside the universe")
    if not isinstance(constraints, ConstraintSystem):
        constraints = ConstraintSystem(universe, constraints)
    elif constraints.universe != universe:
        raise ValueError("constraint system is over another universe")
    if constraints.keys is not None:
        return _table_search(constraints, k, budget, start)
    return _search(constraints, k, budget, start)


def _suffix_pass(system, lower, cap, budget):
    """Raise ``system.floor[p]`` to the exact suffix optimum for ``p >= 1``.

    Write ``h[p]`` for the suffix optimum from ``p``.  Then ``h[p+1] <=
    h[p] <= h[p+1] + 1``, the packing seed is at most ``h[p]``, and
    ``h[p] >= lower - p`` since any suffix solution plus the positions
    below ``p`` is a code.  So ``h[p]`` is ``h[p+1] + 1`` when a seed
    says so, ``h[p+1]`` when the witness of ``h[p+1]`` hits the
    constraints with lowest bit ``p``, and otherwise the outcome of one
    suffix search at ``h[p+1]``.  Before that search the pass asks
    ``system.mapped`` for an image of the witness it holds for ``p + 1``
    that solves the suffix problem from ``p``; one settles ``h[p] =
    h[p+1]`` with no search.  For ``p >= 1`` the pass needs the value and
    *some* witness, so a mapped one is held for ``covered`` and the next
    mapping, but it is no lex-least subset and never enters
    ``witnesses``.  A raise implies a witness too: when ``h[p] = h[p+1] +
    1``, by a seed or after a refuted search, the witness ``W`` held for
    ``p + 1`` plus ``p`` itself solves the suffix problem from ``p`` at
    size ``h[p]``, and the pass holds it like a mapped one; on Q_4 the
    images of such witnesses took the solve from 34,057 to 16,579 nodes.
    So the held witness is always the latest one of its size: the one a
    raise implied, or the last that a search found or a map gave.  The
    pass stops early once a floor exceeds ``cap``, since every size up
    to ``cap`` is then refuted, and leaves that floor at ``floor[1]``.

    Returns ``(witnesses, nodes, exhausted)``.  ``witnesses`` maps each
    start ``p`` whose search found a subset to that subset, the
    lex-least of size ``h[p]`` in ``[p, universe)``.
    """
    floor = system.floor
    hits = system.hits
    inside = system.inside
    held = 0  # a witness of floor[p + 1]
    covered = 0  # the constraints that it hits
    witnesses = {}
    nodes = 0
    for p in range(system.universe - 1, 0, -1):
        k = floor[p + 1]
        low = (1 << inside[p]) - (1 << inside[p + 1])
        raised = max(floor[p], lower - p) > k
        if not raised and covered & low != low:
            mask = system.mapped(held, p)
            if mask is None:
                if nodes >= budget:
                    return witnesses, nodes, True
                found, mask, used, exhausted = search_exact_size(
                    system.universe, system, k, budget - nodes, p)
                nodes += used
                if exhausted:
                    return witnesses, nodes, True
                if found:
                    witnesses[p] = mask
                raised = not found
            if not raised:
                held = mask
                covered = 0
                for q in bits(mask):
                    covered |= hits[q]
        if raised:
            k += 1
            held |= 1 << p
            covered |= hits[p]
        floor[p] = k
        if k > cap:
            # h never shrinks leftwards, so this floor holds at 1 too
            floor[1] = max(floor[1], k)
            break
    return witnesses, nodes, False


def _sweep(system, lower, cap, budget):
    """``least_optimum`` on a built system, whose floors it raises.

    A size ``k`` with ``floor[j] = k - j`` for a start ``j >= 1`` whose
    search found the witness ``W`` needs no search: the search at ``k``
    includes ``0, ..., j - 1`` first, which the floors allow since they
    grow by at most one per position leftwards, and those positions hit
    every constraint whose lowest bit lies below ``j``.  Its first
    solution is then the lex-least one of the suffix problem from ``j``
    at size ``k - j``, which is ``W``.
    """
    witnesses, nodes, exhausted = _suffix_pass(system, lower, cap, budget)
    if exhausted:
        return None, nodes, True
    floor = system.floor
    least = max(lower, floor[0], floor[1])
    for k in (least, least + 1):
        if k > cap:
            break
        for j, mask in witnesses.items():
            if floor[j] == k - j:
                return (1 << j) - 1 | mask, nodes, False
        if nodes >= budget:
            return None, nodes, True
        found, mask, used, exhausted = search_exact_size(
            system.universe, system, k, budget - nodes)
        nodes += used
        if found or exhausted:
            return (mask if found else None), nodes, exhausted
    return None, nodes, False


def least_optimum(constraints, graph, lower, cap, budget):
    """Lex-least minimum hitting set of ``constraints`` of size at most
    ``cap``, by Russian-doll search (see the module docstring).

    ``graph`` is ``(g, ends, positions)``, the system's ``graph``: its
    universe is ``range(len(positions))``.  ``lower`` is a lower bound on
    the optimum, and ``budget`` caps the nodes of every search together.
    Returns ``(mask, nodes, exhausted)``; ``mask`` is None when every
    size up to ``cap`` was refuted or the budget ran out first.
    """
    system = ConstraintSystem(len(graph[2]), constraints)
    system.graph = graph
    return _sweep(system, lower, cap, budget)

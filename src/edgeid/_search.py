"""Exact-size hitting-set search kernel.

The solver reduces code-finding to this question: among ``universe`` bit
positions, is there a k-subset whose bitmask intersects every constraint
mask?  The kernel answers it by depth-first search over positions in
ascending index order, trying "include" before "exclude", so the first
subset found is the lexicographically least one of size k.  A search may
also start at a position ``start``.  It then counts every constraint whose
lowest bit is below ``start`` as hit, and looks for a k-subset of
``[start, universe)`` that hits the constraints lying inside that range.
The solver uses such suffix searches to raise the bound below.

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
``ConstraintSystem`` sorts and numbers the constraints once and stores
their transpose: for each position ``p``, ``hits[p]`` is the set of
constraints that contain ``p``, and ``tops[p]`` and ``lows[p]`` the sets
of constraints whose top and lowest bit is ``p``, all as bitmasks over
the constraint numbers.  The search keeps a stack ``hit`` in which
``hit[c]`` is the set of constraints that count as hit from the start
or that the lowest ``c`` included positions hit; the unhit constraints
are the ones missing from it.  Every check is then one or two integer operations:

- including ``pos`` pushes ``hit[count] | hits[pos]``;
- a full k-subset is a solution iff ``hit[k]`` holds every constraint;
- a constraint with top bit ``p`` can no longer be hit once the search
  moves past ``p``, so excluding ``p`` is allowed iff ``hit[count]``
  holds all of ``tops[p]``.

Numbered in ascending order of their masks, the constraints come in
ascending order of top bit, so ``tops[p]`` is one run of numbers, and
``hits[p]`` and the masks on the stack stay as narrow as the highest
constraint number reached so far.  The stack tracks hit rather than
unhit constraints for that reason: a set of unhit constraints is as wide
as the whole system from the start.

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
reduction instance, sets one bit per pair it holds instead.  Then a
constraint's lowest bit is the first position whose ``hits`` holds it,
so ``lows`` follows from a running OR of ``hits``, and ``tops[p]`` is
the run of numbers from the first mask of at least ``2^p`` to the
first of at least ``2^(p + 1)``.

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
``p``.  The solver then raises ``floor`` to the exact suffix optima, one
position at a time from the right, before it searches the whole
universe.

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

The plain loop prunes by symmetry instead.  The solver stores the
position graph as the system's ``graph``, and the first plain-loop
search builds from it a ``symmetry.BaseOrbits``, the system's ``group``.
Its generators are automorphisms of the system, permutations of the
positions that map the constraints onto themselves.  Take a search from
``start`` that takes the exclude branch of ``q`` once the include branch
is refuted, and let ``S`` be the positions included in ``[start, q)``.
Let ``H`` be the group generated by the generators that map each of
``[0, start)``, ``[0, q)`` and ``S`` onto itself.  Then no position of
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
images of the included positions; the unwind asks it for one stack
prefix many times over, so ``_orbit`` keeps the last answer per depth.
The generators are those of every level of the group, all found when
it is built: the ones of the levels below a start map the positions
below it onto themselves without fixing them, and they matter: with
only the levels at or above each start, K_9 takes 44,428 nodes instead
of 23,662.

The solver's suffix pass reads the group too, through
``ConstraintSystem.mapped``.  An automorphism that maps ``[0, start)``
onto itself maps a suffix solution from ``start`` to another; the
generators do not all do that, so ``mapped`` tries each image under a
generator or its inverse and keeps one only if it lies in ``[start,
universe)`` and, with the constraints below ``start``, hits every
constraint.  On Q_4 two such images stand in for the suffix searches of
about 30,000 nodes.

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
the exact optimum at ``p + 1``; but the solver searches from ``p`` only
at sizes ``k >= floor[p + 1]``, so a scan from ``p`` itself, where ``k =
1``, sees floors of at most 1 as well.  With ``h = hit[k - 1]`` the scan
walks ``q = pos, pos + 1, ...``: an unbanned ``q`` below the universe is
included and is a solution iff ``h | hits[q]`` holds every constraint; a
failed include or a banned ``q`` moves on iff its exclude is allowed,
the exclude of a failed include below ``base`` banning ``orbits[q]``;
anything else is a dead end, from which the loop unwinds.  A leaf bans
nothing, so the scan has no bans to lift.  The scan bans the pointwise
orbit, read off a list, rather than the orbit under ``H``: ``H`` there
cut K_9 to 19,928 nodes and K_11 from 2,060,916 to 1,687,646, but K_9
to K_11 took 1.2 to 3.4 times as long, since a failed include at the
last level costs less than the generator tests.

The scan counts the nodes that the loop would visit one at a time: two
per included position, the include and the leaf below it, and one per
other position it reaches, a banned one or the end of the universe.  It
checks the budget once, when it stops.  So one search node is counted
per visited DFS state, and the search stops once the node budget is
exceeded, reporting exhaustion with ``budget + 1`` nodes, even when the
scan in which that happens reaches further.  A run that returns
not-found without exhaustion is a proof that no k-subset hits every
constraint.
"""

from bisect import bisect_left

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
    every start.  ``keys`` is None when no position ``p >= 1`` has at most
    ``KEY_LIMIT`` open constraints; the kernel then keeps no table.
    ``graph`` is None or ``(masks, positions)``: closed neighbourhoods
    whose automorphisms map the constraints onto themselves, and the
    vertex each position stands for.  ``group`` is None or a
    ``symmetry.BaseOrbits`` along the positions, which ``bans`` builds
    from ``graph`` and reads for the plain loop at each start, and
    ``mapped`` reads for the suffix pass."""

    __slots__ = ("universe", "full", "hits", "tops", "lows", "floor", "keys",
                 "tables", "stored", "graph", "group", "_below", "_maps")

    def __init__(self, universe, constraints):
        # equal constraints would each count as containing the other; the
        # solver's are sorted and unique already, so one pass checks them
        masks = list(constraints)
        if any(a >= b for a, b in zip(masks, masks[1:])):
            masks = sorted(set(masks))
        if masks and masks[0] <= 0:
            raise ValueError("constraint masks must be nonzero")
        if masks and masks[-1].bit_length() > universe:
            raise ValueError("constraint mask exceeds the universe")
        hits = _transpose(masks, universe)
        # a constraint's lowest bit is the first position that hits it
        lows = []
        seen = 0
        for hit in hits:
            lows.append((hit | seen) ^ seen)
            seen |= hit
        # sorted masks have ascending top bits, so each tops[p] is one run,
        # ending before the first mask that is at least 2^(p + 1)
        tops = []
        first = 0
        for p in range(universe):
            last = bisect_left(masks, 2 << p, first)
            tops.append((1 << last) - (1 << first))
            first = last
        self.universe = universe
        self.full = (1 << len(masks)) - 1
        self.hits = hits
        self.tops = tops
        self.lows = lows
        # the constraint with lowest bit p and the least top bit is the
        # lowest-numbered one
        floor = [0] * (universe + 1)
        for p in range(universe - 1, -1, -1):
            floor[p] = floor[p + 1]
            low = lows[p]
            if low:
                top = masks[(low & -low).bit_length() - 1].bit_length() - 1
                floor[p] = max(floor[p], 1 + floor[top + 1])
        self.floor = floor
        self.keys = keys = _state_keys(masks, hits, lows, tops)
        # the refuted-state table: one dict per keyed position, and the
        # number of states they hold together
        self.tables = None if keys is None else [
            key if key is None else {} for key in keys
        ]
        self.stored = 0
        self.graph = None
        self.group = None
        self._below = (0, 0)
        self._maps = (None, ())

    def bans(self, start):
        """What the plain loop bans with in a search from ``start``.

        Returns ``(orbits, gens, movable)``, all empty when the system has
        neither a ``group`` nor a ``graph`` to build one from.  The first
        call builds ``group`` from ``graph``.  ``orbits`` are the group's
        orbits along the positions, ``gens`` its generators that map
        ``[0, start)`` onto itself, each as ``(images, prefix, moved)``
        (see ``symmetry.BaseOrbits``), and ``movable`` the union of their
        ``moved`` masks: the positions whose ban a generator can make.
        """
        group = self.group
        if group is None:
            if self.graph is None:
                return None, (), 0
            from .symmetry import BaseOrbits

            group = self.group = BaseOrbits(*self.graph)
        gens = [move for move in group.moves if move[1] >> start & 1]
        movable = 0
        for _, _, moved in gens:
            movable |= moved
        return group.orbits, gens, movable

    def mapped(self, witnesses, start):
        """An image of one of ``witnesses`` that solves the suffix problem
        from ``start``, or None.

        The images tried are those under each generator of ``group`` and
        under each generator's inverse, computed once per group.  The
        first that lies in ``[start, universe)`` and, with the constraints
        below ``start``, hits every constraint is returned.  Every image is
        checked in full, so it is a solution whatever the maps are.  There
        is nothing to map by before a plain-loop search has built the
        group, nor ever on a system that runs the table loop.
        """
        group = self.group
        if group is None or not witnesses:
            return None
        owner, maps = self._maps
        if owner is not group:
            maps = [images for images, _, _ in group.moves]
            for images in maps[:]:
                inverse = images[:]
                for p, r in enumerate(images):
                    inverse[r] = p
                if inverse != images:  # an involution is its own
                    maps.append(inverse)
            self._maps = group, maps
        hits = self.hits
        full = self.full
        marked = self.below(start)
        for witness in witnesses:
            chosen = bits(witness)
            for images in maps:
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
        """The constraints whose lowest bit is below ``start``, as a mask.

        The lowest bits partition the constraints, so the mask moves from
        one start to the next by one operation per position in between;
        the suffix pass asks for descending starts.
        """
        p, marked = self._below
        lows = self.lows
        while p < start:
            marked |= lows[p]
            p += 1
        while p > start:
            p -= 1
            marked ^= lows[p]
        self._below = (p, marked)
        return marked


def _transpose(masks, universe):
    """``hits[q]``: the numbers of the constraints in ``masks`` containing q.

    A system holding at least 1/32 of its (constraint, position) pairs is
    read from binary strings, about ``BLOCK`` characters at a time, and a
    sparser one pair by pair; see the module docstring.
    """
    hits = [0] * universe
    pairs = sum(c.bit_count() for c in masks)
    if not masks or 32 * pairs < len(masks) * universe:
        for i, c in enumerate(masks):
            bit = 1 << i
            low = (c & -c).bit_length() - 1
            for q in bits(c >> low):
                hits[low + q] |= bit
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


def _state_keys(masks, hits, lows, tops):
    """``keys[p]``, the constraints whose hits decide a search state at ``p``.

    They are the constraints open at ``p`` (lowest bit below ``p``, top
    bit at or above it) that contain no other constraint.  A constraint
    that contains another is hit whenever the smaller one is, and the
    smaller one must be hit too, so its own state decides nothing.
    ``keys[p]`` is None at ``p = 0`` and where more than ``KEY_LIMIT``
    constraints are open; the result is None when that holds everywhere.
    """
    keys = [None] * len(lows)
    opened = 0
    keyed = 0
    for p, (low, top) in enumerate(zip(lows, tops)):
        if p and opened.bit_count() <= KEY_LIMIT:
            keys[p] = opened
            keyed |= opened
        # a constraint topping out at p was open at p or starts there
        opened = (opened | low) ^ top
    if all(key is None for key in keys):
        return None
    # a constraint inside a keyed one has its lowest bit in it
    reach = 0
    for i in bits(keyed):
        reach |= masks[i]
    near = 0
    for q in bits(reach):
        near |= lows[q]
    # the keyed constraints containing constraint j are the ones that
    # every position of j hits
    supersets = 0
    for j in bits(near):
        containing = keyed
        for q in bits(masks[j]):
            containing &= hits[q]
        supersets |= containing & ~(1 << j)
    return [key if key is None else key & ~supersets for key in keys]


def _orbit(q, stack, count, gens, kept):
    """The positions other than ``q`` that ``q`` is mapped to by the
    generators of ``gens`` that map ``[0, q)`` and the positions on
    ``stack[:count]`` onto themselves, closed under them.

    ``kept[count]`` caches, for the last ``stack[:count]`` seen, the
    generators that map those positions onto themselves and the positions
    that they may move; the unwind asks for one prefix many times over.
    """
    chosen = stack[:count]
    entry = kept[count]
    if entry is None or entry[0] != chosen:
        inside = set(chosen)
        movers = [move for move in gens
                  if inside.issuperset(map(move[0].__getitem__, chosen))]
        moving = 0
        for _, _, moved in movers:
            moving |= moved
        entry = kept[count] = chosen, movers, moving
    if not entry[2] >> q & 1:
        return ()
    movers = [images for images, prefix, _ in entry[1] if prefix >> q & 1]
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
    full = system.full
    hits = system.hits
    tops = system.tops
    floor = system.floor
    orbits, gens, movable = system.bans(start)
    base = movable.bit_length()
    depth = min(k, universe - start)
    hit = [0] * (depth + 1)
    hit[0] = system.below(start)
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
            while True:
                r = room[q]
                if r > 0:
                    if h | hits[q] == full:
                        break
                    top = tops[q]
                    if h & top != top:
                        break
                    if q < base:
                        # a leaf bans nothing, so there is nothing to lift
                        banned = orbits[q]
                        if banned:
                            for r in banned:
                                room[r] -= shift
                            log.append((count, banned))
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
                    while log and log[-1][0] > count:
                        for r in log.pop()[1]:
                            room[r] += shift
                    banned = movable >> p & 1 and _orbit(p, stack, count, gens, kept)
                    if banned:
                        for r in banned:
                            room[r] -= shift
                        log.append((count, banned))
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
    for nodes in range(1, budget + 1):
        if count == k:
            if hit[k] == full:
                system.stored = stored
                return True, sum(1 << p for p in stack), nodes, False
        elif floor[pos] <= k - count <= universe - pos:
            key = keys[pos]
            if key is None or tables[pos].get(hit[count] & key, -1) < k - count:
                hit[count + 1] = hit[count] | hits[pos]
                stack[count] = pos
                count += 1
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
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if budget < 1:
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

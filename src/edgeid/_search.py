"""Exact-size hitting-set search kernel.

The solver reduces code-finding to this question: among ``universe`` bit
positions, is there a k-subset whose bitmask intersects every constraint
mask?  The kernel answers it by depth-first search over positions in
ascending index order, trying "include" before "exclude", so the first
subset found is the lexicographically least one of size k.  A search may
also start at a position ``start`` with some constraints already marked
hit: it then looks for a k-subset of ``[start, universe)`` that hits the
rest.  The solver uses such suffix searches to raise the bound below.

The search is iterative and works on arbitrary-width integer masks, so
its depth is bounded by memory, not by the interpreter's recursion limit.
The exclude branch is the last thing a node tries, so it needs no frame
of its own: the only state to remember is which positions are included,
and that is the chosen mask itself.  Backtracking drops the highest
included position and tries its exclude branch.

The search does not look at the constraint masks themselves.  A
``ConstraintSystem`` sorts and numbers the constraints once and stores
their transpose: for each position ``p``, ``hits[p]`` is the set of
constraints that contain ``p``, and ``tops[p]`` and ``lows[p]`` the sets
of constraints whose top and lowest bit is ``p``, all as bitmasks over
the constraint numbers.  The search keeps a stack ``hit`` in which
``hit[c]`` is the set of constraints that the pre-marked ones and the
lowest ``c`` included positions hit; the unhit constraints are the ones
missing from it.  Every check is then one or two integer operations:

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

One search node is counted per visited DFS state, and the search stops
once the node budget is exceeded, reporting exhaustion.  A run that
returns not-found without exhaustion is a proof that no k-subset hits
every constraint.
"""

from .graph_core import bits


class ConstraintSystem:
    """Constraint masks over ``range(universe)`` in the form the kernel
    searches, built once and shared by searches at every size k."""

    __slots__ = ("universe", "full", "hits", "tops", "lows", "floor")

    def __init__(self, universe, constraints):
        masks = sorted(constraints)
        if masks and masks[0] <= 0:
            raise ValueError("constraint masks must be nonzero")
        if masks and masks[-1].bit_length() > universe:
            raise ValueError("constraint mask exceeds the universe")
        hits = [0] * universe
        tops = [0] * universe
        lows = [0] * universe
        shortest = [universe] * universe  # least top bit per lowest bit
        for i, c in enumerate(masks):
            bit = 1 << i
            top = c.bit_length() - 1
            tops[top] |= bit
            low = (c & -c).bit_length() - 1
            lows[low] |= bit
            shortest[low] = min(shortest[low], top)
            for q in bits(c >> low):
                hits[low + q] |= bit
        self.universe = universe
        self.full = (1 << len(masks)) - 1
        self.hits = hits
        self.tops = tops
        self.lows = lows
        floor = [0] * (universe + 1)
        for p in range(universe - 1, -1, -1):
            floor[p] = floor[p + 1]
            if shortest[p] < universe:
                floor[p] = max(floor[p], 1 + floor[shortest[p] + 1])
        self.floor = floor


def _search(system, k, budget, start, marked):
    universe = system.universe
    full = system.full
    hits = system.hits
    tops = system.tops
    floor = system.floor
    hit = [0] * (min(k, universe - start) + 1)
    hit[0] = marked
    chosen = 0
    count = 0
    pos = start
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return False, 0, nodes, True
        if count == k:
            if hit[k] == full:
                return True, chosen, nodes, False
        elif count + universe - pos >= k and count + floor[pos] <= k:
            hit[count + 1] = hit[count] | hits[pos]
            chosen |= 1 << pos
            count += 1
            pos += 1
            continue
        # Dead end: unwind to the highest included position whose exclude
        # branch leaves every constraint topping out there hit.
        while chosen:
            p = chosen.bit_length() - 1
            chosen ^= 1 << p
            count -= 1
            top = tops[p]
            if hit[count] & top == top:
                pos = p + 1
                break
        else:
            return False, 0, nodes, False


def search_exact_size(universe, constraints, k, budget, start=0, marked=0):
    """Find the lex-least k-subset of ``range(universe)`` hitting every mask.

    ``constraints`` is a list of nonzero masks, or a ``ConstraintSystem``
    over the same universe, which lets searches at several sizes share
    one preparation.  Returns ``(found, mask, nodes, exhausted)``.
    ``mask`` is the subset as an int bitmask when found, else 0.
    ``exhausted`` means the node budget ran out before the search space
    was covered; ``nodes`` is then ``budget + 1``, counting the node that
    crossed the line.

    A suffix search takes the subset from ``[start, universe)`` only and
    counts the constraints in ``marked``, a mask over the system's
    constraint numbers, as hit already.
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
    return _search(constraints, k, budget, start, marked)

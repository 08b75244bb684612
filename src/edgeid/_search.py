"""Exact-size hitting-set search kernel.

The solver reduces code-finding to this question: among ``universe`` bit
positions, is there a k-subset whose bitmask intersects every constraint
mask?  The kernel answers it by depth-first search over positions in
ascending index order, trying "include" before "exclude", so the first
subset found is the lexicographically least one of size k.

The search is iterative and works on arbitrary-width integer masks, so
its depth is bounded by memory, not by the interpreter's recursion limit.
The exclude branch is the last thing a node tries, so it needs no frame
of its own: the only state to remember is which positions are included,
and that is the chosen mask itself.  Backtracking drops the highest
included position and tries its exclude branch.

One search node is counted per visited DFS state, and the search stops
once the node budget is exceeded, reporting exhaustion.  A run that
returns not-found without exhaustion is a proof that no k-subset hits
every constraint.
"""

# Positions past the top bit of a constraint can never hit it, so once the
# search advances beyond that bit the constraint must already be satisfied.
# Grouping constraints by top bit makes that check O(group) per step.


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


def _search(universe, groups, k, budget):
    chosen = 0
    count = 0
    pos = 0
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return False, 0, nodes, True
        if count == k:
            for p in range(pos, universe):
                for c in groups[p]:
                    if not c & chosen:
                        break
                else:
                    continue
                break
            else:
                return True, chosen, nodes, False
        elif count + universe - pos >= k:
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
            for c in groups[p]:
                if not c & chosen:
                    break
            else:
                pos = p + 1
                break
        else:
            return False, 0, nodes, False


def search_exact_size(universe, constraints, k, budget):
    """Find the lex-least k-subset of ``range(universe)`` hitting every mask.

    Returns ``(found, mask, nodes, exhausted)``.  ``mask`` is the subset as
    an int bitmask when found, else 0.  ``exhausted`` means the node budget
    ran out before the search space was covered; ``nodes`` is then
    ``budget + 1``, counting the node that crossed the line.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if budget < 1:
        raise ValueError("need a positive node budget")
    groups = _group_by_top_bit(universe, constraints)
    return _search(universe, groups, k, budget)

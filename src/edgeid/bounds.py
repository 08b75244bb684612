"""Closed-form lower and upper bounds on identifying-code sizes.

Each bound is exposed individually, and ``bounds_report`` assembles
every applicable bound for a graph's edge-identifying code number.  The
exact edge solve starts from the report's best lower entry
(``solver_lower_bound``); upper bounds certify approximation output.
"""

import math
from collections import namedtuple

from .graph_core import connected_components, pendant_pairs


class BoundEntry(namedtuple("BoundEntry", "name value direction applicable reason",
                             defaults=("",))):
    """One bound with a stable key, its value and its applicability.

    ``direction`` is "lower" or "upper".
    """

    __slots__ = ()


class BoundsReport(namedtuple("BoundsReport", "entries")):
    __slots__ = ()

    def applicable(self, direction):
        return [e for e in self.entries
                if e.applicable and e.direction == direction]

    def best_lower(self):
        vals = [e.value for e in self.applicable("lower")]
        return max(vals) if vals else None

    def best_upper(self):
        vals = [e.value for e in self.applicable("upper")]
        return min(vals) if vals else None

    def to_text(self):
        width = max(len(e.name) for e in self.entries)
        lines = []
        for e in self.entries:
            if e.applicable:
                tail = str(e.value)
            else:
                tail = f"n/a ({e.reason})"
            lines.append(f"{e.name:<{width}}  {e.direction:<5}  {tail}")
        return "\n".join(lines) + "\n"

    def to_key_values(self):
        lines = []
        for e in self.entries:
            if e.applicable:
                lines.append(f"{e.direction} {e.name} {e.value}")
        lo, hi = self.best_lower(), self.best_upper()
        if lo is not None:
            lines.append(f"best_lower {lo}")
        if hi is not None:
            lines.append(f"best_upper {hi}")
        return "\n".join(lines) + "\n"


def log_lower(n):
    """Every identifying code of an n-element universe has size >= ceil(log2(n+1)).

    For n >= 1 that ceiling equals the bit length of n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return n.bit_length()


def half_order_lower(g):
    """Sum of ceil(|V_i|/2) over components with an edge.

    A code restricted to a component identifies that component (nonempty
    traces in distinct components can never collide), so the per-component
    bound adds up.  Isolated vertices carry no edges and are skipped.
    """
    if pendant_pairs(g):
        raise ValueError("graph has a pendant pair")
    return _component_halves(g)


def _component_halves(g):
    return sum((len(c) + 1) // 2 for c in connected_components(g) if len(c) >= 2)


def connected_code_max_edges(c):
    """Edge capacity of a graph identified by a connected code of c edges."""
    if c < 2:
        raise ValueError("need c >= 2")
    return math.comb(c + 2, 2) - 4


def max_edges_for_code_size(k):
    """Largest edge count of any graph admitting an edge code of size k."""
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1:
        return 1
    if k == 2:
        return 3
    if k == 3:
        return 6
    r = k % 3
    if r == 0:
        return math.comb(4 * k // 3, 2)
    if r == 1:
        return math.comb(4 * (k - 1) // 3 + 1, 2) + 1
    return math.comb(4 * (k - 2) // 3 + 2, 2) + 2


def min_code_for_edges(m):
    """Smallest k whose edge capacity reaches m (exact integer inverse)."""
    if m < 1:
        raise ValueError("need m >= 1")
    # max_edges_for_code_size grows quadratically, so k = O(sqrt(m)).
    k = 1
    while max_edges_for_code_size(k) < m:
        k += 1
    return k


def sqrt_lower_ceiling(m):
    """ceil(3*sqrt(2)/4 * sqrt(m)) in exact integer arithmetic.

    This is the smoothed form of ``min_code_for_edges``: for every m >= 2
    it is at most the exact inverse, so it is a valid lower bound on the
    edge-identifying code number of a graph with m edges.  It is not one
    at m = 1, where it overshoots: the value is 2, while the one-edge
    graph's optimum is 1.

    j >= 3*sqrt(2m)/4  iff  16 j^2 >= 18 m, for j >= 0.
    """
    j = math.isqrt(18 * m // 16)
    while 16 * j * j < 18 * m:
        j += 1
    return j


# Line-graph degree sequences of the six identified graphs that escape the
# order-minus-2 bound: P_3, P_4, C_4, P_4 and C_4 each joined to an apex,
# and L(K_4).  Each is the only graph of its order with its sequence.
_EXCEPTION_DEGREES = frozenset([
    (1, 1, 2), (1, 1, 2, 2), (2, 2, 2, 2), (2, 2, 3, 3, 4), (3, 3, 3, 3, 4),
    (4, 4, 4, 4, 4, 4),
])


def _is_k4(g):
    return g.n == 4 and g.m == 6


def _is_k4_minus_edge(g):
    # On 4 vertices every 5-edge simple graph is K_4 minus an edge.
    return g.n == 4 and g.m == 5


def bounds_report(g):
    """All lower and upper bounds on the edge-identifying code number of g."""
    entries = []
    pf = not pendant_pairs(g)
    m = g.m

    if m == 0:
        return BoundsReport([BoundEntry("edge-bounds", 0, "lower", False,
                                        "graph has no edges")])

    entries.append(BoundEntry("log-universe", log_lower(m), "lower", True))
    if pf:
        entries.append(BoundEntry("half-order", _component_halves(g),
                                  "lower", True))
    else:
        entries.append(BoundEntry("half-order", 0, "lower", False,
                                  "pendant pair present"))
    entries.append(BoundEntry("edge-count-inverse", min_code_for_edges(m),
                              "lower", True))

    n = g.n
    if pf:
        entries.append(BoundEntry("minimal-code-degeneracy", 2 * n - 3,
                                  "upper", True))
        if n >= 3 and not _is_k4(g):
            entries.append(BoundEntry("order-doubled-minus-4", 2 * n - 4,
                                      "upper", True))
        else:
            entries.append(BoundEntry("order-doubled-minus-4", 2 * n - 4,
                                      "upper", False,
                                      "needs n >= 3 and g not complete on 4"))
        if n >= 3 and not _is_k4(g) and not _is_k4_minus_edge(g):
            entries.append(BoundEntry("order-doubled-minus-5", 2 * n - 5,
                                      "upper", True))
        else:
            entries.append(BoundEntry(
                "order-doubled-minus-5", 2 * n - 5, "upper", False,
                "needs n >= 3 and g neither complete on 4 nor that minus an edge"))

        # The line graph has a vertex per edge and an edge per pair of
        # edges at a vertex; vertex uv of it has degree deg u + deg v - 2.
        # An isolated edge is an isolated vertex of it, which every code
        # holds, so the exceptions are looked up on the other vertices.
        line_degrees = [g.degree(u) + g.degree(v) - 2 for u, v in g.edges]
        if sum(line_degrees) >= 4:  # twice the line graph's edge count
            entries.append(BoundEntry("identified-universe-minus-1", m - 1,
                                      "upper", True))
            linked = tuple(sorted(d for d in line_degrees if d))
            exceptional = linked in _EXCEPTION_DEGREES
            if not exceptional:
                entries.append(BoundEntry("identified-universe-minus-2",
                                          m - 2, "upper", True))
            else:
                entries.append(BoundEntry(
                    "identified-universe-minus-2", m - 2, "upper", False,
                    "line graph is one of the six extremal exceptions"))
        else:
            entries.append(BoundEntry(
                "identified-universe-minus-1", m - 1, "upper", False,
                "line graph has fewer than two edges"))
            entries.append(BoundEntry(
                "identified-universe-minus-2", m - 2, "upper", False,
                "line graph has fewer than two edges"))

        if 2 * m >= 5 * n:  # average degree at least 5
            delta_l = max(line_degrees)
            value = m * (delta_l - 1) // delta_l  # floor(m - m / delta_l)
            entries.append(BoundEntry("dense-average-degree", value,
                                      "upper", True))
        else:
            entries.append(BoundEntry("dense-average-degree", 0, "upper",
                                      False, "average degree below 5"))
    else:
        entries.append(BoundEntry("upper-bounds", 0, "upper", False,
                                  "pendant pair present"))
    return BoundsReport(entries)


def upper_bounds(g):
    """Upper-bound entries of the full report."""
    return [e for e in bounds_report(g).entries if e.direction == "upper"]


def conjecture_check(g, gamma, c):
    """Whether gamma <= n - n/Delta + c holds for g (vertex-code sense)."""
    delta = max((g.degree(v) for v in range(g.n)), default=0)
    if delta < 1:
        raise ValueError("conjecture needs a graph with an edge")
    # gamma <= n - n/delta + c, multiplied through by delta > 0
    return delta * (gamma - c) <= g.n * (delta - 1)


def solver_lower_bound(g):
    """Where the exact edge solve starts: the best lower entry of the report.

    Returns the largest ``(value, name)`` over the applicable lower
    entries of ``bounds_report(g)``, so equal values go to the later
    name.  Returns None when the half-order entry is missing or does not
    apply: g has no edge, or it has a pendant pair and so no code.
    """
    report = bounds_report(g)
    if not any(e.name == "half-order" and e.applicable for e in report.entries):
        return None
    return max((e.value, e.name) for e in report.applicable("lower"))

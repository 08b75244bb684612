"""Release gate: ten numbered checks, one pass/fail line each.

Each test prints ``criterion N: PASS`` or ``criterion N: FAIL`` and then
asserts, so a plain run shows the scoreboard.  The checks restate the
package's headline guarantees: exact optima on the catalogued graphs,
certification without search where a bound is tight, oracle agreement on
an exhaustive small-graph corpus, approximation and degeneracy
guarantees, and the full audit of the SAT reduction.
"""

import itertools
import math
import random
import time

from edgeid.bounds import (
    bounds_report,
    half_order_lower,
    min_code_for_edges,
    sqrt_lower_ceiling,
)
from edgeid.families import (
    extremal_low1,
    hypercube_matching,
    jk_graph,
    standard_graph,
)
from edgeid.graph_core import (
    EdgeSet,
    girth,
    induced_by_edges,
    is_bipartite,
    is_k_degenerate,
    line_graph,
)
from edgeid.identify import verify_edge_code
from edgeid.reduction import (
    assignment_to_code,
    build_reduction,
    build_reduction_girth,
    code_to_assignment,
    validate_formula,
)
from edgeid.solver import (
    approx_edge_code,
    min_edge_code,
    min_vertex_code,
    shrink_to_minimal,
)

from conftest import (
    build_forcing_tree_host,
    build_variable_zone,
    naive_min_edge_code,
    random_connected_pendant_free,
    random_formula,
    satisfying_assignment,
    zone_valid,
)


def conclude(num, failures):
    print(f"criterion {num}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"criterion {num}: " + "; ".join(str(f) for f in failures[:5])


EXACT_TABLE = [
    ("complete", 4, 5),
    ("complete", 5, 5),
    ("complete", 6, 5),
    ("complete", 7, 6),
    ("complete", 8, 7),
    ("complete", 9, 8),
    ("complete", 10, 9),
    ("complete", 11, 10),
    ("complete_bipartite", (3, 3), 4),
    ("complete_bipartite", (4, 4), 6),
    ("complete_bipartite", (5, 5), 7),
    ("complete_bipartite", (6, 6), 9),
    ("complete_bipartite", (7, 7), 10),
    ("complete_bipartite", (2, 3), 4),
    ("complete_bipartite", (2, 4), 6),
    ("complete_bipartite", (2, 5), 8),
    ("complete_bipartite", (2, 6), 10),
    ("complete_bipartite", (2, 7), 12),
    ("complete_bipartite", (2, 8), 14),
    ("complete_bipartite", (2, 9), 16),
    ("hypercube", 2, 3),
    ("hypercube", 3, 5),
    ("hypercube", 4, 8),
    ("petersen", None, 5),
]


def test_criterion_01_exact_values():
    failures = []
    start = time.monotonic()
    for kind, params, want in EXACT_TABLE:
        g = standard_graph(kind, params)
        res = min_edge_code(g)
        if res.status != "Optimal" or res.size != want:
            failures.append(f"{kind}{params}: got {res.status} {res.size}, want {want}")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"took {elapsed:.1f} s, limit 60")
    conclude(1, failures)


def test_criterion_02_hypercube_certification():
    failures = []
    start = time.monotonic()
    for d in (4, 5, 6):
        g = standard_graph("hypercube", d)
        matching = hypercube_matching(d)
        if not verify_edge_code(g, matching).is_code:
            failures.append(f"d={d}: matching is not a code")
        if not len(matching) == 1 << (d - 1) == half_order_lower(g):
            failures.append(f"d={d}: size vs bound mismatch")
    elapsed = time.monotonic() - start
    if elapsed >= 5:
        failures.append(f"took {elapsed:.1f} s, limit 5")
    conclude(2, failures)


def test_criterion_03_extremal_tightness():
    failures = []
    for k, want_m in ((4, 11), (5, 17), (6, 28)):
        inst = extremal_low1(k)
        if inst.graph.m != want_m:
            failures.append(f"k={k}: {inst.graph.m} edges, want {want_m}")
        if not verify_edge_code(inst.graph, inst.claimed_code).is_code:
            failures.append(f"k={k}: claimed code fails")
        if min_code_for_edges(inst.graph.m) != k:
            failures.append(f"k={k}: inverse bound disagrees")
    for k in (4, 5):
        res = min_edge_code(extremal_low1(k).graph)
        if res.status != "Optimal" or res.size != k:
            failures.append(f"k={k}: solver got {res.status} {res.size}")
    conclude(3, failures)


def test_criterion_04_jk_tightness():
    failures = []
    for k in range(3, 9):
        inst = jk_graph(k)
        if inst.graph.m != math.comb(k + 2, 2) - 4:
            failures.append(f"k={k}: wrong edge count {inst.graph.m}")
        if len(inst.claimed_code) != k:
            failures.append(f"k={k}: path code has {len(inst.claimed_code)} edges")
        if not verify_edge_code(inst.graph, inst.claimed_code).is_code:
            failures.append(f"k={k}: path code fails")
    conclude(4, failures)


def test_criterion_05_oracle_equivalence(pendant_free_connected):
    failures = []
    start = time.monotonic()
    for g in pendant_free_connected:
        naive = naive_min_edge_code(g)
        res = min_edge_code(g)
        if res.status != "Optimal" or res.size != len(naive):
            failures.append(f"{g.edges}: solver {res.size} vs naive {len(naive)}")
            continue
        report = bounds_report(g)
        for e in report.applicable("lower"):
            if e.value > res.size:
                failures.append(f"{g.edges}: lower bound {e.name} overshoots")
        for e in report.applicable("upper"):
            if e.value < res.size:
                failures.append(f"{g.edges}: upper bound {e.name} undershoots")
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        failures.append(f"took {elapsed:.1f} s, limit 600")
    conclude(5, failures)


def test_criterion_06_minimal_codes_2_degenerate():
    failures = []
    rng = random.Random(20260823)
    for trial in range(200):
        g = random_connected_pendant_free(rng, max_n=12)
        mini = shrink_to_minimal(g, EdgeSet.full(g))
        sub, _ = induced_by_edges(g, mini)
        if not is_k_degenerate(sub, 2)[0]:
            failures.append(f"trial {trial}: induced subgraph not 2-degenerate")
        if len(mini) > 2 * g.n - 3:
            failures.append(f"trial {trial}: {len(mini)} > 2n-3 = {2 * g.n - 3}")
    conclude(6, failures)


def test_criterion_07_four_approximation(pendant_free_connected):
    failures = []
    for g in pendant_free_connected:
        optimum = min_edge_code(g).size
        approx = approx_edge_code(g)
        if len(approx) > 4 * optimum:
            failures.append(f"{g.edges}: {len(approx)} > 4*{optimum}")
    conclude(7, failures)


_AUDIT_FORMULAS = None


def audit_formulas():
    global _AUDIT_FORMULAS
    if _AUDIT_FORMULAS is None:
        rng = random.Random(88)
        _AUDIT_FORMULAS = [random_formula(rng, rng.randint(2, 6)) for _ in range(20)]
    return _AUDIT_FORMULAS


def test_criterion_08_reduction_audit():
    failures = []
    for idx, f in enumerate(audit_formulas()):
        m, n = len(f.clauses), f.num_vars
        if validate_formula(f) or n > 6 or m > 9:
            failures.append(f"formula {idx}: outside the sampled class")
            continue
        base = build_reduction(f)
        g = base.graph
        checks = [
            g.n == 45 * m + 42 * n,
            base.k == 25 * m + 22 * n,
            is_bipartite(g)[0],
            max(g.degree(v) for v in range(g.n)) <= 3,
        ]
        base_girth = girth(g)
        checks.append(base_girth == 8)
        if not all(checks):
            failures.append(f"formula {idx}: base instance check {checks}")
        for lam, mu in ((1, 2), (2, 2), (1, 3)):
            inst = build_reduction_girth(f, lam, mu)
            h = inst.graph
            if h.n != (36 * lam + 9) * m + (30 * mu - 18) * n:
                failures.append(f"formula {idx} ({lam},{mu}): vertex count")
            if inst.k != (21 * lam + 4) * m + (17 * mu - 12) * n:
                failures.append(f"formula {idx} ({lam},{mu}): target size")
            if (lam, mu) == (1, 2):
                # same construction as the base build, girth already known
                got = base_girth if h.edges == g.edges else girth(h)
            else:
                got = girth(h)
            if got < min(4 * mu, 8 * (lam + 1)):
                failures.append(f"formula {idx} ({lam},{mu}): girth {got}")
    conclude(8, failures)


def check_forcing_tree_claims():
    g, named = build_forcing_tree_host()
    tree = set(named.values())
    least_share = g.m
    acd_seen = False
    for bits in range(1 << g.m):
        c = EdgeSet.from_indices(g, [i for i in range(g.m) if bits >> i & 1])
        if not verify_edge_code(g, c).is_code:
            continue
        inside = {i for i in c if i in tree}
        if len(inside) < 3 or not ({0, 3} & set(c)):
            return ["a code escapes the forcing tree"]
        least_share = min(least_share, len(inside))
        if inside == {named["a"], named["c"], named["d"]}:
            acd_seen = True
    if least_share != 3 or not acd_seen:
        return ["forced selection not as expected"]
    return []


def check_zone_claim(mu):
    g, cycle_edges, platforms, t_edges = build_variable_zone(mu)
    base = 0
    for e in platforms:
        base |= 1 << e
    survivors = set()
    for r in range(mu + 1):
        for combo in itertools.combinations(cycle_edges + t_edges, r):
            chosen = base
            for e in combo:
                chosen |= 1 << e
            if zone_valid(g, cycle_edges, chosen):
                survivors.add(frozenset(combo))
    expected = {frozenset(t_edges[0::2]), frozenset(t_edges[1::2])}
    if survivors != expected:
        return [f"mu={mu}: zone survivors {len(survivors)}, want the 2 patterns"]
    return []


def check_clause_center_claim(f):
    inst = build_reduction(f)
    masks = inst.graph.all_edge_masks()
    for i in range(len(f.clauses)):
        anchors = 0
        for t in (1, 2, 3):
            anchors |= 1 << inst.labels[f"Q{i}.a{t}"]
        if masks[inst.labels[f"Q{i}.c1"]] ^ masks[inst.labels[f"Q{i}.c2"]] != anchors:
            return [f"clause {i}: center difference is not the anchor set"]
    return []


def test_criterion_09_reduction_round_trip():
    failures = []
    for idx, f in enumerate(audit_formulas()):
        asg = satisfying_assignment(f)
        if asg is None:
            continue
        inst = build_reduction(f)
        code = assignment_to_code(inst, asg)
        if len(code) != inst.k:
            failures.append(f"formula {idx}: code size {len(code)} != {inst.k}")
        if not verify_edge_code(inst.graph, code).is_code:
            failures.append(f"formula {idx}: mapped code fails verification")
        if code_to_assignment(inst, code) != asg:
            failures.append(f"formula {idx}: assignment not recovered")
    # necessity is checked locally: each forced sub-structure is small
    # enough to sweep in full
    local_checks = [
        check_forcing_tree_claims,
        lambda: check_zone_claim(2),
        lambda: check_zone_claim(3),
        lambda: check_clause_center_claim(audit_formulas()[0]),
    ]
    for check in local_checks:
        start = time.monotonic()
        failures.extend(check())
        elapsed = time.monotonic() - start
        if elapsed >= 30:
            failures.append(f"local check took {elapsed:.1f} s, limit 30")
    conclude(9, failures)


def test_criterion_10_line_graph_bridge(pendant_free_all):
    failures = []
    for g in pendant_free_all:
        res_e = min_edge_code(g)
        lg, _ = line_graph(g)
        res_v = min_vertex_code(lg)
        if res_e.status != "Optimal" or res_v.status != "Optimal":
            failures.append(f"{g.edges}: solver fell over")
            continue
        if res_e.size != res_v.size:
            failures.append(f"{g.edges}: edge {res_e.size} vs vertex {res_v.size}")
        if res_v.size < min_code_for_edges(g.m):
            failures.append(
                f"{g.edges}: optimum {res_v.size} below the edge-count "
                f"inverse {min_code_for_edges(g.m)}"
            )
        # the smoothed sqrt form is a lower bound only for m >= 2; at m = 1
        # it evaluates to 2 while the optimum is 1
        if g.m >= 2 and res_v.size < sqrt_lower_ceiling(g.m):
            failures.append(
                f"{g.edges}: optimum {res_v.size} below the square-root "
                f"floor {sqrt_lower_ceiling(g.m)}"
            )
    conclude(10, failures)

"""Seeded input generation for the benchmark.

Everything here is a pure function of its ``random.Random`` argument, so
one seed always gives the same inputs.  Formulas are (<=3,3)-CNF with a
planted satisfying assignment; graphs travel as edge-list text, the
format the ``edgeid`` command line reads.
"""

from edgeid.families import standard_graph
from edgeid.graph_core import write_edge_list
from edgeid.reduction import SatFormula, validate_formula

# Swap steps allowed per clause before the literals are dealt afresh.
_STEPS_PER_CLAUSE = 50


def _deal(rng, lits, sizes):
    rng.shuffle(lits)
    clauses = []
    pos = 0
    for size in sizes:
        clauses.append(lits[pos : pos + size])
        pos += size
    return clauses


def planted_formula(rng, num_vars, threes):
    """(<=3,3)-CNF over ``num_vars`` variables with ``threes`` 3-literal clauses.

    The other clauses have two literals.  Fixing the clause profile fixes
    the size of the reduction graph, so seeds vary only the wiring.
    Returns ``(formula, assignment)`` where the assignment satisfies the
    formula.  Literals are dealt at random, then repaired by swaps that
    never add a bad clause (one repeating a variable or with no literal
    true under the assignment); a stalled repair deals again.
    """
    total = 3 * num_vars
    if not 0 <= 3 * threes <= total or (total - 3 * threes) % 2:
        raise ValueError(f"no clause profile with {threes} 3-literal clauses")
    sizes = [3] * threes + [2] * ((total - 3 * threes) // 2)
    while True:
        asg = [rng.random() < 0.5 for _ in range(num_vars)]
        # A true variable makes two literals true, a false one makes one.
        if sum(2 if a else 1 for a in asg) >= len(sizes):
            break
    lits = [(v, s) for v in range(num_vars) for s in (True, True, False)]

    def bad(clause):
        return len({v for v, _ in clause}) != len(clause) or not any(
            asg[v] == s for v, s in clause
        )

    clauses = _deal(rng, lits, sizes)
    steps = 0
    while True:
        bads = [i for i, c in enumerate(clauses) if bad(c)]
        if not bads:
            break
        steps += 1
        if steps % (_STEPS_PER_CLAUSE * len(sizes)) == 0:
            clauses = _deal(rng, lits, sizes)
            continue
        i = rng.choice(bads)
        j = rng.randrange(len(clauses))
        if i == j:
            continue
        a = rng.randrange(len(clauses[i]))
        b = rng.randrange(len(clauses[j]))
        before = bad(clauses[i]) + bad(clauses[j])
        clauses[i][a], clauses[j][b] = clauses[j][b], clauses[i][a]
        if bad(clauses[i]) + bad(clauses[j]) > before:
            clauses[i][a], clauses[j][b] = clauses[j][b], clauses[i][a]
    formula = SatFormula(num_vars, tuple(tuple(c) for c in clauses))
    problems = validate_formula(formula)
    if problems:
        raise RuntimeError("generated formula is invalid: " + "; ".join(problems))
    return formula, tuple(asg)


def satisfies(formula, asg):
    return all(any(asg[v] == s for v, s in clause) for clause in formula.clauses)


def dimacs_text(formula):
    """DIMACS CNF rendering, variables numbered from 1."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lits = [str(v + 1) if s else str(-(v + 1)) for v, s in clause]
        lines.append(" ".join(lits) + " 0")
    return "\n".join(lines) + "\n"


def assignment_text(asg):
    return " ".join("1" if a else "0" for a in asg) + "\n"


def family_text(kind, params=None):
    """Edge-list text of a named graph under its canonical labeling."""
    return write_edge_list(standard_graph(kind, params))


def code_text(indices):
    """Code file text: one ``c <edge index>`` line per edge."""
    return "".join(f"c {i}\n" for i in sorted(indices))


def alternating_cycle_code(n):
    """Every other edge of C_n (n even): size n/2, optimal by half-order."""
    if n % 2:
        raise ValueError("need an even cycle")
    return list(range(0, n, 2))

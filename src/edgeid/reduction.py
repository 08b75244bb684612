"""Formula-to-graph reduction: edge codes of the built graph encode SAT.

Input formulas are (<=3,3)-CNF: every clause has 2 or 3 distinct
literals and every variable occurs exactly twice positive and once
negative.  The builder emits one gadget per clause and one per variable,
wired through shared literal vertices, plus a target size k.  A
satisfying assignment maps to an edge-identifying code of size exactly
k, and any code of size at most k projects back to an assignment.

Shapes (lambda >= 1 stretches clauses, mu >= 2 inflates variables):

* P-gadget: a five-edge forcing tree hung off a host vertex.  Any code
  needs three of its edges plus a host edge at the attachment point.
* Clause gadget: three arms of 2*lambda vertices (the first vertex of
  each arm is a literal vertex), arm 1 anchored at one end of a central
  3-vertex path, arms 2 and 3 at the other end, and a spur off the
  middle center.  Every arm vertex and the spur host a P-gadget.  The
  two center edges are separated only by an arm-end edge, which a code
  affords exactly when some literal of the clause is true.
* Variable gadget: a cycle of length 4*mu.  Odd cycle vertices carry
  platform edges (always in the code); even vertices alternate between
  the two selection patterns, TRUE and FALSE, so that consecutive cycle
  edges are told apart by exactly one of them.  Three of the even
  vertices send occurrence edges to the literal vertices where the
  variable appears.

The vertex totals count one marker vertex per variable occurrence.
Rather than fusing that marker with the clause's literal vertex, the
builder routes the occurrence edge straight to the literal vertex and
keeps the marker as an isolated vertex.  Edge neighborhoods, and hence
codes, are unaffected, while the totals and labels stay exact:
|V| = (36*lambda+9)*m + (30*mu-18)*n and k = (21*lambda+4)*m +
(17*mu-12)*n over m clauses and n variables.
"""

from collections import namedtuple

from .graph_core import EdgeSet, FormatError, GraphBuilder, RejectedInput


class SatFormula(namedtuple("SatFormula", "num_vars clauses")):
    """CNF with clauses as tuples of (variable, is_positive) literals."""

    __slots__ = ()

    def __new__(cls, num_vars, clauses):
        norm = tuple(tuple((int(v), bool(s)) for v, s in clause) for clause in clauses)
        return super().__new__(cls, num_vars, norm)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, skip __new__
        return cls(*iterable)


class ReductionInstance(namedtuple(
        "ReductionInstance", "graph k labels params formula slot_literals")):
    """Built graph with target size, named edges, and source metadata.

    ``labels`` maps gadget edge names to edge indices.  Clause i uses
    Q{i}.c0/c1/c2, Q{i}.arm{t}.{s} (aliases Q{i}.b{t} for arm edge 1 and
    Q{i}.a{t} for the anchor edge), and Q{i}.P{p}.{a..e}.  Variable j
    uses x{j}.d{i}/e{i} (cycle), x{j}.f{i} (platforms), x{j}.t1/t2/tbar1
    and x{j}.u{r} (alias x{j}.tbar2 = x{j}.u1), and x{j}.P{p}.{a..e}.
    ``params`` is "base" or the (lambda, mu) pair; ``slot_literals``
    records per clause which literal fills each of the three arm slots
    (None for the unused slot of a two-literal clause).
    """

    __slots__ = ()


def validate_formula(f):
    """List of constraint violations, empty when the formula qualifies.

    Variables that never occur share one line, so the list stays short
    whatever variable count the formula declares.
    """
    problems = []
    if f.num_vars < 0:
        problems.append(f"negative variable count {f.num_vars}")
    counts = {}  # variable -> [positive, negative] occurrences
    for i, clause in enumerate(f.clauses):
        if not 2 <= len(clause) <= 3:
            problems.append(f"clause {i} has {len(clause)} literals, want 2 or 3")
        if len(set(clause)) != len(clause):
            problems.append(f"clause {i} repeats a literal")
        for v, s in clause:
            if not 0 <= v < f.num_vars:
                problems.append(f"clause {i} references unknown variable {v}")
            else:
                counts.setdefault(v, [0, 0])[0 if s else 1] += 1
    for v in sorted(counts):
        pos, neg = counts[v]
        if pos != 2 or neg != 1:
            problems.append(
                f"variable {v} occurs {pos} times positive and {neg} "
                "negative, want 2 and 1"
            )
    absent = f.num_vars - len(counts)
    if absent > 0:
        first = next(v for v in range(f.num_vars) if v not in counts)
        last = next(v for v in range(f.num_vars - 1, -1, -1) if v not in counts)
        problems.append(
            f"{absent} of {f.num_vars} variables never occur (lowest {first}, highest {last}), "
            "want each 2 times positive and 1 negative"
        )
    return problems


def attach_p_gadget(builder, x):
    """Hang the five-edge forcing tree off vertex x.

    Returns the named edge indices: a = host edge, b = the pendant at
    its far vertex, c,d,e = the three-edge tail.
    """
    p, q, r0, r1, r2 = builder.add_vertices(5)
    return {
        "a": builder.add_edge(x, p),
        "b": builder.add_edge(p, q),
        "c": builder.add_edge(p, r0),
        "d": builder.add_edge(r0, r1),
        "e": builder.add_edge(r1, r2),
    }


def _build(f, lam, mu, params):
    problems = validate_formula(f)
    if problems:
        raise ValueError("invalid formula: " + "; ".join(problems))
    builder = GraphBuilder()
    labels = {}

    def p_at(x, name):
        for letter, e in attach_p_gadget(builder, x).items():
            labels[f"{name}.{letter}"] = e

    m = len(f.clauses)
    literal_vertex = {}
    slot_literals = []
    for i, clause in enumerate(f.clauses):
        u_a = builder.add_vertex()
        u_b = builder.add_vertex()
        u_c = builder.add_vertex()
        labels[f"Q{i}.c1"] = builder.add_edge(u_a, u_b)
        labels[f"Q{i}.c2"] = builder.add_edge(u_b, u_c)
        spur = builder.add_vertex()
        labels[f"Q{i}.c0"] = builder.add_edge(u_b, spur)
        p_at(spur, f"Q{i}.P0")
        p_count = 1
        for t in (1, 2, 3):
            anchor = u_a if t == 1 else u_c
            arm = builder.add_vertices(2 * lam)
            literal_vertex[(i, t)] = arm[0]
            for s in range(1, 2 * lam):
                labels[f"Q{i}.arm{t}.{s}"] = builder.add_edge(arm[s - 1], arm[s])
            labels[f"Q{i}.arm{t}.{2 * lam}"] = builder.add_edge(arm[-1], anchor)
            labels[f"Q{i}.b{t}"] = labels[f"Q{i}.arm{t}.1"]
            labels[f"Q{i}.a{t}"] = labels[f"Q{i}.arm{t}.{2 * lam}"]
            for v in arm:
                p_at(v, f"Q{i}.P{p_count}")
                p_count += 1
        slot_literals.append(tuple(clause) + (None,) * (3 - len(clause)))

    occurrences = [{"pos": [], "neg": []} for _ in range(f.num_vars)]
    for i, clause in enumerate(f.clauses):
        for t, (v, s) in enumerate(clause, 1):
            occurrences[v]["pos" if s else "neg"].append((i, t))

    size = 4 * mu
    for j in range(f.num_vars):
        cyc = builder.add_vertices(size)
        for i in range(1, 2 * mu + 1):
            labels[f"x{j}.d{i}"] = builder.add_edge(cyc[2 * i - 2], cyc[2 * i - 1])
            labels[f"x{j}.e{i}"] = builder.add_edge(cyc[2 * i - 1], cyc[2 * i % size])
        builder.add_vertices(3)  # occurrence markers, kept isolated
        pos1, pos2 = occurrences[j]["pos"]
        (neg,) = occurrences[j]["neg"]
        labels[f"x{j}.t1"] = builder.add_edge(cyc[0], literal_vertex[pos1])
        labels[f"x{j}.tbar1"] = builder.add_edge(cyc[2], literal_vertex[neg])
        labels[f"x{j}.t2"] = builder.add_edge(cyc[4], literal_vertex[pos2])
        for i in range(1, 2 * mu + 1):
            plat = builder.add_vertex()
            labels[f"x{j}.f{i}"] = builder.add_edge(cyc[2 * i - 1], plat)
            p_at(plat, f"x{j}.P{i}")
        for r in range(1, 2 * mu - 2):
            z = builder.add_vertex()
            labels[f"x{j}.u{r}"] = builder.add_edge(cyc[2 * (r + 2)], z)
            plat = builder.add_vertex()
            labels[f"x{j}.f{2 * mu + r}"] = builder.add_edge(z, plat)
            p_at(plat, f"x{j}.P{2 * mu + r}")
        labels[f"x{j}.tbar2"] = labels[f"x{j}.u1"]

    g = builder.to_graph()
    n = f.num_vars
    assert g.n == (36 * lam + 9) * m + (30 * mu - 18) * n
    k = (21 * lam + 4) * m + (17 * mu - 12) * n
    return ReductionInstance(g, k, labels, params, f, tuple(slot_literals))


def build_reduction(f):
    """Base instance: girth 8, |V| = 45m + 42n, k = 25m + 22n."""
    return _build(f, 1, 2, "base")


def check_girth_params(lam, mu):
    """Raise ValueError unless ``(lam, mu)`` is a valid stretch."""
    if lam < 1 or mu < 2:
        raise ValueError("need lambda >= 1 and mu >= 2")


def build_reduction_girth(f, lam, mu):
    """Stretched instance with girth at least min(4*mu, 8*(lambda+1))."""
    check_girth_params(lam, mu)
    return _build(f, lam, mu, (lam, mu))


def _shape(inst):
    return (1, 2) if inst.params == "base" else inst.params


def assignment_to_code(inst, asg):
    """Code of size exactly k encoding a satisfying assignment.

    Every P-gadget contributes a, c, d.  Each clause adds its spur edge
    and, per arm, the even arm positions when the slot's literal is true
    and the odd positions otherwise (unused slots count as false).  Each
    variable adds all platform edges plus its TRUE or FALSE selection
    pattern.  Raises if the assignment does not satisfy the formula.
    """
    f = inst.formula
    asg = tuple(bool(b) for b in asg)
    if len(asg) != f.num_vars:
        raise RejectedInput(f"assignment length {len(asg)}, want {f.num_vars}")
    for i, clause in enumerate(f.clauses):
        if not any(asg[v] == s for v, s in clause):
            raise RejectedInput(f"assignment does not satisfy clause {i}")
    lam, mu = _shape(inst)
    labels = inst.labels
    chosen = set()
    for name, e in labels.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[1][0] == "P" and parts[2] in ("a", "c", "d"):
            chosen.add(e)
    for i, slots in enumerate(inst.slot_literals):
        chosen.add(labels[f"Q{i}.c0"])
        for t in (1, 2, 3):
            lit = slots[t - 1]
            sat = lit is not None and asg[lit[0]] == lit[1]
            for s in range(2 if sat else 1, 2 * lam + 1, 2):
                chosen.add(labels[f"Q{i}.arm{t}.{s}"])
    for j in range(f.num_vars):
        for i in range(1, 4 * mu - 2):
            chosen.add(labels[f"x{j}.f{i}"])
        if asg[j]:
            chosen.add(labels[f"x{j}.t1"])
            chosen.add(labels[f"x{j}.t2"])
            first_unit = 2
        else:
            chosen.add(labels[f"x{j}.tbar1"])
            first_unit = 1
        for r in range(first_unit, 2 * mu - 2, 2):
            chosen.add(labels[f"x{j}.u{r}"])
    code = EdgeSet.from_indices(inst.graph, chosen)
    assert len(code) == inst.k
    return code


def code_to_assignment(inst, c):
    """Assignment read off a verified code of size at most k.

    A variable reads TRUE when both its t1 and t2 edges are in the code,
    FALSE when tbar1 and tbar2 both are.  Returns None when some
    variable matches neither pattern, which a size-k code never does.
    """
    from .identify import verify_edge_code

    c.check_owner(inst.graph)
    if len(c) > inst.k:
        raise ValueError(f"code has {len(c)} edges, target is {inst.k}")
    if not verify_edge_code(inst.graph, c).is_code:
        raise ValueError("not an edge-identifying code")
    labels = inst.labels
    out = []
    for j in range(inst.formula.num_vars):
        if labels[f"x{j}.t1"] in c and labels[f"x{j}.t2"] in c:
            out.append(True)
        elif labels[f"x{j}.tbar1"] in c and labels[f"x{j}.tbar2"] in c:
            out.append(False)
        else:
            return None
    return tuple(out)


def read_dimacs(text):
    """Parse DIMACS CNF into a SatFormula.

    Accepts ``c`` comment lines, one ``p cnf <vars> <clauses>`` header,
    and zero-terminated clauses possibly spanning lines.
    """
    num_vars = None
    declared = None
    clauses = []
    lits = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if num_vars is not None or len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise FormatError(f"line {lineno}: bad DIMACS header")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: bad DIMACS header") from None
            if num_vars < 0:
                raise FormatError(f"line {lineno}: bad DIMACS header")
            continue
        if num_vars is None:
            raise FormatError(f"line {lineno}: clause before the header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise FormatError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(lits))
                lits = []
            else:
                var = abs(lit) - 1
                if var >= num_vars:
                    raise FormatError(f"line {lineno}: variable {abs(lit)} out of range")
                lits.append((var, lit > 0))
    if num_vars is None:
        raise FormatError("missing DIMACS header")
    if lits:
        raise FormatError("unterminated clause at end of input")
    if declared != len(clauses):
        raise FormatError(f"header declares {declared} clauses, found {len(clauses)}")
    return SatFormula(num_vars, tuple(clauses))


def labels_to_text(labels):
    """Sidecar rendering: one ``<edge index> <name>`` line, sorted."""
    lines = [f"{e} {name}" for e, name in sorted((e, n) for n, e in labels.items())]
    return "\n".join(lines) + "\n"

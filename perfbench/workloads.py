"""The benchmark's workloads: inputs, operations and output checks.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one has returned.  ``setup(seed, workdir)`` makes
the inputs and returns the operations of one pass; each ``Op`` has a
``run`` that the benchmark times and a ``check`` that it does not.

Library functions are looked up on their modules at call time
(``solver.min_edge_code``, not a name bound at import), so the wrappers
that ``spans.Tracer`` installs see every call.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

from edgeid import families, graph_core, identify, reduction, solver

import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD = HERE / "cli_child.py"
GOLDENS = HERE / "goldens.json"

# Node budget of every solve in solve_budget.
BUDGET = 300_000
# Node budget of the solve --hint calls on reduction instances in cli_certify.
CLI_SOLVE_BUDGET = 100_000
# cli_certify draws its formulas from this many seeded variants, so that
# every seed has byte-exact goldens.
CLI_VARIANTS = 8

# (label, family kind, params)
EXACT = (
    ("Petersen", "petersen", None),
    ("K_7", "complete", 7),
    ("K_8", "complete", 8),
    ("K_4,5", "complete_bipartite", (4, 5)),
    ("K_5,5", "complete_bipartite", (5, 5)),
    ("Q_4", "hypercube", 4),
    ("C_30", "cycle", 30),
    ("C_40", "cycle", 40),
)
# (label, family kind, params, known optimum)
BUDGET_FAMILIES = (
    ("K_9", "complete", 9, 8),
    ("Q_5", "hypercube", 5, 16),
    ("C_60", "cycle", 60, 30),
    ("C_100", "cycle", 100, 50),
)
# (label, variables, 3-literal clauses): m = 216 and 258 edges.
BUDGET_FORMULAS = (("sat2", 2, 0), ("sat3", 3, 3))
# cli_certify formulas: m = 1032 and 3792 edges.
CLI_FORMULAS = (("sat12", 12, 12), ("sat40", 40, 24))


def child_env():
    """Environment for every child: the checkout's sources, no edgeid knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EDGEID_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


class Op:
    """One operation: ``run(tracer)`` is timed, ``check(output)`` is not.

    ``check`` returns None when the output is right, else a reason.
    ``then(output)`` hands the output on to later operations of the pass.
    """

    __slots__ = ("label", "run", "check", "then")

    def __init__(self, label, run, check, then=None):
        self.label = label
        self.run = run
        self.check = check
        self.then = then


# ---------------------------------------------------------------- solves


def _solve_text(text, options, tracer):
    g, _, _ = graph_core.read_edge_list(text)
    return g, solver.min_edge_code(g, options)


def _known_gamma(kind, params):
    try:
        return families.known_code(kind, params).claimed_gamma
    except ValueError:
        return None


def check_exact(expected, gamma, out):
    g, res = out
    if res.status != solver.STATUS_OPTIMAL:
        return f"status {res.status}, want {solver.STATUS_OPTIMAL}"
    code = sorted(res.code.indices())
    if res.size != expected["size"] or code != expected["code"]:
        return f"size {res.size} code {code} differs from the golden"
    if not identify.verify_edge_code(g, res.code).is_code:
        return "returned edges are not a code"
    if gamma is not None and res.size != gamma:
        return f"size {res.size} differs from the known optimum {gamma}"
    return None


def setup_solve_exact(seed, workdir):
    golden = load_goldens()["solve_exact"]
    ops = []
    for label, kind, params in EXACT:
        text = inputs.family_text(kind, params)
        ops.append(
            Op(
                label,
                partial(_solve_text, text, None),
                partial(check_exact, golden[label], _known_gamma(kind, params)),
            )
        )
    random.Random(seed).shuffle(ops)
    return ops


def check_budget(optimum, inst, out):
    """Check a budgeted solve: a family against its optimum, else a reduction."""
    g, res = out
    if res.status == solver.STATUS_BUDGET:
        if res.code is not None or res.nodes_used > BUDGET + 1:
            return f"exhausted with code {res.code} after {res.nodes_used} nodes"
        return None
    if res.status != solver.STATUS_OPTIMAL:
        return f"status {res.status}"
    if not identify.verify_edge_code(g, res.code).is_code:
        return "returned edges are not a code"
    if optimum is not None:
        return None if res.size == optimum else f"size {res.size}, optimum {optimum}"
    if res.size > inst.k:
        return f"size {res.size} above target {inst.k}"
    asg = reduction.code_to_assignment(inst, res.code)
    if asg is None or not inputs.satisfies(inst.formula, asg):
        return "the code does not decode to a satisfying assignment"
    return None


def setup_solve_budget(seed, workdir):
    options = solver.SolveOptions(budget=BUDGET)
    ops = []
    for label, kind, params, optimum in BUDGET_FAMILIES:
        text = inputs.family_text(kind, params)
        ops.append(
            Op(label, partial(_solve_text, text, options), partial(check_budget, optimum, None))
        )
    for label, num_vars, threes in BUDGET_FORMULAS:
        formula, _ = inputs.planted_formula(random.Random(f"{seed}/{label}"), num_vars, threes)
        inst = reduction.build_reduction(formula)
        text = graph_core.write_edge_list(inst.graph, k=inst.k)
        ops.append(
            Op(label, partial(_solve_text, text, options), partial(check_budget, None, inst))
        )
    random.Random(seed).shuffle(ops)
    return ops


def solve_counts(outputs):
    """Optimal results and search nodes over one pass of solve outputs."""
    done = [out[1] for out in outputs if out is not None]
    return {
        "solved": sum(res.status == solver.STATUS_OPTIMAL for res in done),
        "search_nodes": sum(res.nodes_used for res in done),
    }


# ---------------------------------------------------------------- command line


class Call:
    """Outcome of one child process."""

    __slots__ = ("exit", "stdout", "stderr", "maxrss_kb")

    def __init__(self, exit_code, stdout, stderr, maxrss_kb):
        self.exit = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb


def spawn(argv, workdir, env):
    """Run ``argv`` to completion in ``workdir`` and return a Call.

    The child is reaped with ``os.wait4`` so that its own peak memory is
    known.  If waiting is interrupted, the child is killed and reaped.
    """
    out_path = os.path.join(workdir, ".stdout")
    err_path = os.path.join(workdir, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Call(proc.returncode, stdout, stderr, usage.ru_maxrss)


def cli_call(workdir, env, args, tracer):
    """``python -m edgeid.cli ARGS``; traced, cli_child.py records spans."""
    if tracer is None:
        return spawn([sys.executable, "-m", "edgeid.cli", *args], workdir, env)
    spans_path = os.path.join(workdir, ".spans.json")
    start = time.perf_counter()
    call = spawn([sys.executable, str(CHILD), spans_path, *args], workdir, env)
    end = time.perf_counter()
    with open(spans_path, encoding="utf-8") as fh:
        child_spans = json.load(fh)
    os.remove(spans_path)
    tracer.adopt(child_spans, "cli.call", start, end)
    return call


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check_golden(expected, call):
    if call.exit != expected["exit"]:
        tail = call.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit {call.exit}, want {expected['exit']} {tail}"
    if digest(call.stdout) != expected["sha256"]:
        return f"stdout ({len(call.stdout)} bytes) differs from the golden"
    return None


def check_solve_rule(graph_path, hint_size, call):
    """A solve --hint passes when it returns a verified code no larger than the hint.

    Used where the exact output is not pinned: status Feasible or
    Optimal, size at most the hint, and the listed edges form a code.
    """
    lines = call.stdout.decode("utf-8", "replace").splitlines()
    if call.exit not in (0, 1) or not lines:
        tail = call.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return f"exit {call.exit} with no result {tail}"
    head = lines[0].split()
    if len(head) != 4 or head[2] != "status" or head[3] not in (
        solver.STATUS_FEASIBLE,
        solver.STATUS_OPTIMAL,
    ):
        return f"unexpected result line {lines[0]!r}"
    with open(graph_path, encoding="utf-8") as fh:
        g, _, _ = graph_core.read_edge_list(fh.read())
    code = [int(line.split()[1]) for line in lines if line.startswith("c ")]
    if int(head[1]) != len(code) or len(code) > hint_size:
        return f"size {head[1]} with {len(code)} edges, hint {hint_size}"
    if not identify.verify_edge_code(g, graph_core.EdgeSet.from_indices(g, code)).is_code:
        return "returned edges are not a code"
    return None


def keep_coded(workdir, stem, call):
    """Keep an emitted graph as STEM.el and its embedded code as STEM.code."""
    text = call.stdout.decode("utf-8", "replace")
    with open(os.path.join(workdir, stem + ".el"), "w", encoding="utf-8") as fh:
        fh.write(text)
    code = [line for line in text.splitlines() if line.startswith("c ")]
    with open(os.path.join(workdir, stem + ".code"), "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in code))


def _write(workdir, name, text):
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def cli_plan(variant):
    """(golden key, argv, STEM to keep the output under or None) per call."""
    plan = [
        ("Q_8 family", ["family", "hypercube", "8", "--with-code"], "q8"),
        ("Q_8 verify", ["verify", "q8.el"], None),
        ("Q_8 bounds", ["bounds", "q8.el"], None),
        ("Q_8 solve", ["solve", "q8.el", "--hint", "q8.code"], None),
        ("Q_8 approx", ["approx", "q8.el"], None),
        ("C_1200 solve", ["solve", "c1200.el", "--hint", "c1200.code"], None),
    ]
    for label, _, _ in CLI_FORMULAS:
        key = f"{label}/v{variant}"
        plan += [
            (f"{key} reduce", ["reduce", f"{label}.cnf", "--assignment", f"{label}.asg"], label),
            (f"{key} verify", ["verify", f"{label}.el"], None),
            (f"{key} bounds", ["bounds", f"{label}.el"], None),
        ]
    # approx is quadratic in m: at m = 3792 it alone took 70% of a pass
    # and its speed drifts unlike the calibration loop's, so it runs on
    # the 12-variable instance only.  The 40-variable solve --hint is
    # left out: it raises RecursionError at the commit that added this
    # benchmark, and a workload must not contain an operation that
    # fails.  ``run.py --self-check`` runs it under check_solve_rule.
    plan.append((f"sat12/v{variant} approx", ["approx", "sat12.el"], None))
    plan.append(
        (
            f"sat12/v{variant} solve",
            ["solve", "sat12.el", "--hint", "sat12.code", "--budget", str(CLI_SOLVE_BUDGET)],
            None,
        )
    )
    return plan


def write_cli_inputs(workdir, variant):
    n = 1200
    _write(workdir, "c1200.el", inputs.family_text("cycle", n))
    _write(workdir, "c1200.code", inputs.code_text(inputs.alternating_cycle_code(n)))
    for label, num_vars, threes in CLI_FORMULAS:
        rng = random.Random(f"cli/{label}/{variant}")
        formula, asg = inputs.planted_formula(rng, num_vars, threes)
        _write(workdir, f"{label}.cnf", inputs.dimacs_text(formula))
        _write(workdir, f"{label}.asg", inputs.assignment_text(asg))


def setup_cli_certify(seed, workdir):
    variant = seed % CLI_VARIANTS
    golden = load_goldens()["cli"]
    write_cli_inputs(workdir, variant)
    env = child_env()
    ops = []
    for key, args, keep in cli_plan(variant):
        ops.append(
            Op(
                key,
                partial(cli_call, workdir, env, args),
                partial(check_golden, golden[key]),
                partial(keep_coded, workdir, keep) if keep else None,
            )
        )
    return ops


def cli_counts(outputs):
    rss = [call.maxrss_kb for call in outputs if call is not None]
    return {"peak_rss_kb": max(rss) if rss else 0}


class Workload:
    def __init__(self, name, setup, counts, in_process):
        self.name = name
        self.setup = setup
        self.counts = counts
        self.in_process = in_process


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve_exact", setup_solve_exact, solve_counts, True),
        Workload("solve_budget", setup_solve_budget, solve_counts, True),
        Workload("cli_certify", setup_cli_certify, cli_counts, False),
    )
}

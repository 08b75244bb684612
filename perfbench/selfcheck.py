"""Self-check of the benchmark.

    python3 perfbench/run.py --self-check

Confirms that every run prints each metric of BENCHMARK.json with its
unit, that a corrupted output is counted as failed (one code index
flipped, one stdout byte flipped, a wrong exit code, a raising
operation), and reports the 40-variable ``solve --hint`` that the
cli_certify workload leaves out, judged by its rule.  Exits 0 when every
check holds.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile

from edgeid import families, graph_core, reduction, solver

import inputs
import run
import speed
import workloads

_problems = []


def _expect(ok, what):
    print(("ok      " if ok else "FAILED  ") + what)
    if not ok:
        _problems.append(what)


def check_metric_lines():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    for trace, key, ours in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
        want = {m["name"]: m["unit"] for m in spec[key]}
        _expect(want == ours, f"BENCHMARK.json {key} matches run.py")
        for name in workloads.WORKLOADS:
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=run.WATCHDOG_S + 10)
            what = f"{name} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                _expect(False, f"{what}: no result line (exit {proc.returncode})")
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            numeric = all(isinstance(v.get("value"), (int, float)) for v in result["metrics"].values())
            _expect(proc.returncode == 0 and got == want and numeric,
                    f"{what}: every metric printed with its unit")
            _expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{what}: {result['failed']} of {result['attempted']} operations failed")


def _flip_one(g, indices):
    """The code with its first index swapped for the least index outside it."""
    out = sorted(indices)
    out[0] = min(set(range(g.m)) - set(out))
    return graph_core.EdgeSet.from_indices(g, out)


def check_corruption():
    golden = workloads.load_goldens()

    g = families.standard_graph("petersen")
    want = golden["solve_exact"]["Petersen"]
    code = graph_core.EdgeSet.from_indices(g, want["code"])
    good = solver.SolveResult(solver.STATUS_OPTIMAL, code, len(code))
    bad = solver.SolveResult(solver.STATUS_OPTIMAL, _flip_one(g, want["code"]), len(code))
    _expect(workloads.check_exact(want, 5, (g, good)) is None, "solve_exact: golden code passes")
    _expect(workloads.check_exact(want, 5, (g, bad)) is not None,
            "solve_exact: one code index flipped is counted as failed")

    formula, asg = inputs.planted_formula(random.Random("self-check"), 2, 0)
    inst = reduction.build_reduction(formula)
    code = reduction.assignment_to_code(inst, asg)
    good = solver.SolveResult(solver.STATUS_OPTIMAL, code, len(code))
    bad = solver.SolveResult(solver.STATUS_OPTIMAL, _flip_one(inst.graph, code.indices()), len(code))
    _expect(workloads.check_budget(None, inst, (inst.graph, good)) is None,
            "solve_budget: planted reduction code passes")
    _expect(workloads.check_budget(None, inst, (inst.graph, bad)) is not None,
            "solve_budget: one code index flipped is counted as failed")

    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="self-check-", dir=run.WORK)
    try:
        env = workloads.child_env()
        workloads.write_cli_inputs(workdir, 0)
        key = "C_1200 solve"
        args = dict((k, a) for k, a, _ in workloads.cli_plan(0))[key]
        call = workloads.cli_call(workdir, env, args, None)
        expected = golden["cli"][key]
        _expect(workloads.check_golden(expected, call) is None, "cli_certify: golden stdout passes")
        flipped = bytearray(call.stdout)
        flipped[-2] ^= 1
        corrupt = workloads.Call(call.exit, bytes(flipped), call.stderr, call.maxrss_kb)
        _expect(workloads.check_golden(expected, corrupt) is not None,
                "cli_certify: one stdout byte flipped is counted as failed")
        wrong_exit = workloads.Call(3, call.stdout, call.stderr, call.maxrss_kb)
        _expect(workloads.check_golden(expected, wrong_exit) is not None,
                "cli_certify: an unexpected exit code is counted as failed")
        check_known_defect(workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [
        workloads.Op("raises", lambda tracer: 1 // 0, lambda out: None),
        workloads.Op("returns", lambda tracer: 1, lambda out: None if out == 1 else "wrong"),
    ]
    tally = run.Tally()
    run.run_pass(ops, None, tally, speed.Speedometer(speed.ALU))
    _expect((tally.attempted, tally.failed) == (2, 1) and "raises" in tally.reasons,
            "a raising operation is counted as failed and the pass goes on")


def check_known_defect(workdir, env):
    """Judge solve --hint on both reduction instances by check_solve_rule."""
    for label, _, _ in workloads.CLI_FORMULAS:
        plan = dict((k, a) for k, a, _ in workloads.cli_plan(0))
        reduced = workloads.cli_call(workdir, env, plan[f"{label}/v0 reduce"], None)
        workloads.keep_coded(workdir, label, reduced)
        hint = sum(1 for line in reduced.stdout.decode().splitlines() if line.startswith("c "))
        args = ["solve", f"{label}.el", "--hint", f"{label}.code",
                "--budget", str(workloads.CLI_SOLVE_BUDGET)]
        reason = workloads.check_solve_rule(f"{workdir}/{label}.el", hint,
                                            workloads.cli_call(workdir, env, args, None))
        if label == "sat12":
            _expect(reason is None, f"{label} solve --hint passes its rule")
        else:
            # Known defect at the time the benchmark was written: the
            # recursive search kernel raises RecursionError here.
            verdict = "passes" if reason is None else f"counted as failed: {reason}"
            print(f"note    {label} solve --hint (left out of cli_certify) {verdict}")


def main():
    check_corruption()
    check_metric_lines()
    print(f"{len(_problems)} problem(s)")
    return 1 if _problems else 0

"""Command line front end.

Every capability is a subcommand with line-oriented, deterministic
output so pipelines and golden files stay stable.  Graph arguments are
edge-list files; ``-`` (or omitting the argument where noted) reads
standard input.  Exit codes: 0 success (for ``verify``, a valid code;
for ``solve``, status Optimal), 1 failed verification / Infeasible /
unreachable target, 2 usage error, 3 malformed input file, 4 internal
error (a fault in edgeid itself, reported on stderr), 141 standard output
closed early by its reader (as in ``| head``), left without a message.
"""

import argparse
import os
import sys

from .graph_core import (
    EdgeSet,
    FormatError,
    RejectedInput,
    line_graph,
    read_code_file,
    read_edge_list,
    read_multigraph,
    write_edge_list,
)

# Each subcommand imports the modules it calls inside its cmd_* function,
# so a call loads only what it runs.  For the same reason the parser's
# family kinds are restated here rather than read from families:
# families.STANDARD_KINDS plus the kinds _family_instance builds itself.
FAMILY_KINDS = (
    "clawfree", "complete", "complete_bipartite", "cycle", "extremal1",
    "hypercube", "jk", "matching", "path", "petersen", "subdivided",
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_INTERNAL = 4
# 128 + SIGPIPE, what a shell reports for a program that a closed pipe ends
EXIT_PIPE = 141


class _UsageError(Exception):
    pass


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from None


def cmd_verify(args):
    from .identify import verify_edge_code

    g, embedded, _ = read_edge_list(_read_text(args.graph))
    if args.code is not None:
        listed = read_code_file(_read_text(args.code), g.m)
    elif embedded is not None:
        listed = embedded
    else:
        raise _UsageError("no code to verify: pass a code file or embed c lines")
    code = EdgeSet.from_indices(g, listed)
    report = verify_edge_code(g, code)
    sys.stdout.write(report.to_text())
    print(f"size {len(code)}")
    return EXIT_OK if report.is_code else EXIT_FAIL


def cmd_solve(args):
    from .solver import STATUS_OPTIMAL, SolveOptions, min_edge_code

    g, _, _ = read_edge_list(_read_text(args.graph))
    hint = None
    if args.hint is not None:
        hint = read_code_file(_read_text(args.hint), g.m)
    options = SolveOptions(upper_hint=hint)
    if args.budget is not None:
        if args.budget < 1:
            raise _UsageError("budget must be positive")
        options = options._replace(budget=args.budget)
    result = min_edge_code(g, options)
    size = result.size if result.size is not None else "-"
    print(f"size {size} status {result.status}")
    if result.lower_bound_used is not None:
        name, value = result.lower_bound_used
        print(f"lower-bound {name} {value}")
    if result.code is not None:
        for i in result.code.indices():
            print(f"c {i}")
    return EXIT_OK if result.status == STATUS_OPTIMAL else EXIT_FAIL


def cmd_approx(args):
    from .solver import approx_edge_code

    g, _, _ = read_edge_list(_read_text(args.graph))
    code = approx_edge_code(g)
    print(f"size {len(code)}")
    for i in code.indices():
        print(f"c {i}")
    return EXIT_OK


def cmd_bounds(args):
    from .bounds import bounds_report

    g, _, _ = read_edge_list(_read_text(args.graph))
    report = bounds_report(g)
    sys.stdout.write(report.to_text())
    sys.stdout.write(report.to_key_values())
    return EXIT_OK


def _family_instance(args):
    from . import families

    kind = args.kind
    params = args.params
    if kind in families.STANDARD_KINDS:
        if args.with_code:
            return families.known_code(kind, params)
        return families.FamilyInstance(graph=families.standard_graph(kind, params))
    if kind == "matching":
        if len(params) != 1:
            raise _UsageError("matching takes one parameter d")
        matching = families.hypercube_matching(params[0])
        return families.FamilyInstance(
            graph=families.standard_graph("hypercube", params[0]),
            claimed_code=matching,
            claimed_gamma=len(matching),
        )
    if kind == "jk":
        if len(params) != 1:
            raise _UsageError("jk takes one parameter k")
        return families.jk_graph(params[0])
    if kind == "extremal1":
        if len(params) != 1:
            raise _UsageError("extremal1 takes one parameter k")
        return families.extremal_low1(params[0])
    if kind == "clawfree":
        if len(params) != 1:
            raise _UsageError("clawfree takes one parameter k")
        return families.claw_free_example(params[0])
    if kind == "subdivided":
        if len(params) != 1 or args.multigraph is None:
            raise _UsageError("subdivided takes one parameter k and --multigraph FILE")
        mg = read_multigraph(_read_text(args.multigraph))
        return families.subdivided_regular_code(mg, params[0])
    raise _UsageError(f"unknown family kind {kind!r}")


def cmd_family(args):
    try:
        inst = _family_instance(args)
    except FormatError:
        raise
    except ValueError as exc:
        # the family constructors reject bad parameters with ValueError
        raise _UsageError(str(exc)) from None
    code = None
    comments = []
    if args.with_code:
        if inst.code_kind == "vertex":
            listed = " ".join(str(v) for v in inst.claimed_code)
            comments.append(f"vertex-code {listed}")
        else:
            code = sorted(inst.claimed_code.indices())
    sys.stdout.write(write_edge_list(inst.graph, code=code, comments=comments))
    return EXIT_OK


def cmd_linegraph(args):
    g, _, _ = read_edge_list(_read_text(args.graph))
    lg, mapping = line_graph(g)
    comments = [
        f"vertex {mapping[i]} = edge {u} {v}" for i, (u, v) in enumerate(g.edges)
    ]
    sys.stdout.write(write_edge_list(lg, comments=comments))
    return EXIT_OK


def cmd_reduce(args):
    from . import reduction

    formula = reduction.read_dimacs(_read_text(args.cnf))
    problems = reduction.validate_formula(formula)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_FORMAT
    if args.girth is not None:
        lam, mu = args.girth
        try:
            reduction.check_girth_params(lam, mu)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        inst = reduction.build_reduction_girth(formula, lam, mu)
    else:
        inst = reduction.build_reduction(formula)
    code = None
    if args.assignment is not None:
        tokens = _read_text(args.assignment).split()
        if any(t not in ("0", "1") for t in tokens):
            raise FormatError(f"{args.assignment}: assignment entries must be 0 or 1")
        asg = [t == "1" for t in tokens]
        code = sorted(reduction.assignment_to_code(inst, asg).indices())
    if args.labels is not None:
        try:
            with open(args.labels, "w", encoding="utf-8") as fh:
                fh.write(reduction.labels_to_text(inst.labels))
        except OSError as exc:
            raise _UsageError(f"{args.labels}: {exc.strerror or exc}") from None
    sys.stdout.write(write_edge_list(inst.graph, code=code, k=inst.k))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edgeid",
        description="Compute, verify, and bound edge-identifying codes.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True

    p = sub.add_parser("verify", help="check an edge set against a graph")
    p.add_argument("graph", nargs="?", default="-", help="edge-list file, - for stdin")
    p.add_argument("code", nargs="?", help="code file; defaults to embedded c lines")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="exact minimum edge-identifying code")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--budget", type=int, help="search node budget")
    p.add_argument("--hint", help="file with a known code, used as upper bound")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("approx", help="inclusionwise minimal code (4-approximation)")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("bounds", help="lower and upper bounds report")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("family", help="emit a named graph family member")
    p.add_argument("kind", choices=FAMILY_KINDS)
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--with-code", action="store_true", help="embed the known code")
    p.add_argument("--multigraph", help="input multigraph for kind 'subdivided'")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("linegraph", help="emit the line graph with its index map")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=cmd_linegraph)

    p = sub.add_parser("reduce", help="build a SAT reduction instance")
    p.add_argument("cnf", nargs="?", default="-", help="DIMACS CNF file")
    p.add_argument(
        "--girth",
        nargs=2,
        type=int,
        metavar=("LAMBDA", "MU"),
        help="stretch parameters, default 1 2",
    )
    p.add_argument("--assignment", help="0/1 assignment file, emits the mapped code")
    p.add_argument("--labels", help="write the edge-label sidecar to this path")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # a reader that went away shows here, not at the interpreter's exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # nobody reads the rest: point stdout at devnull, so that the final
        # flush of what is still buffered stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except RejectedInput as exc:
        # a failed verification, not a usage slip
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault in edgeid, not in the input: keep the traceback for a report
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

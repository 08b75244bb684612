"""Command line front end.

Every capability is a subcommand with line-oriented, deterministic
output so pipelines and golden files stay stable.  Graph arguments are
edge-list files; ``-`` (or omitting the argument where noted) reads
standard input.  Exit codes: 0 success (for ``verify``, a valid code;
for ``solve``, status Optimal), 1 failed verification / Infeasible /
unreachable target, 2 usage error, 3 malformed input file, 4 internal
error (a fault in edgeid itself, reported on stderr), 141 standard output
closed early by its reader (as in ``| head``) or before the start (``>&-``),
left without a message.  Two input arguments may not both read standard
input.
"""

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

# types.SimpleNamespace (types.py defines it so), without importing types
_Namespace = type(sys.implementation)

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
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from None


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
    if args.multigraph is not None and kind != "subdivided":
        raise _UsageError(f"{kind} takes no --multigraph")
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
        _report("\n".join(problems))
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
        if len(tokens) != formula.num_vars:
            raise FormatError(f"{args.assignment}: {len(tokens)} assignment entries,"
                              f" want {formula.num_vars}")
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


# The interface, stated once: per subcommand its help, the function that
# runs it and the add_argument calls of its positionals, then its options.
# build_parser() builds argparse from this table; _read_plain reads the
# command lines of the plain shape off it without loading argparse.
SUBCOMMANDS = {
    "verify": ("check an edge set against a graph", cmd_verify, (
        ("graph", {"nargs": "?", "default": "-", "help": "edge-list file, - for stdin"}),
        ("code", {"nargs": "?", "help": "code file; defaults to embedded c lines"}),
    )),
    "solve": ("exact minimum edge-identifying code", cmd_solve, (
        ("graph", {"nargs": "?", "default": "-"}),
        ("--budget", {"type": int, "help": "search node budget"}),
        ("--hint", {"help": "file with a known code, used as upper bound"}),
    )),
    "approx": ("inclusionwise minimal code (4-approximation)", cmd_approx, (
        ("graph", {"nargs": "?", "default": "-"}),
    )),
    "bounds": ("lower and upper bounds report", cmd_bounds, (
        ("graph", {"nargs": "?", "default": "-"}),
    )),
    "family": ("emit a named graph family member", cmd_family, (
        ("kind", {"choices": FAMILY_KINDS}),
        ("params", {"nargs": "*", "type": int}),
        ("--with-code", {"action": "store_true", "help": "embed the known code"}),
        ("--multigraph", {"help": "input multigraph for kind 'subdivided'"}),
    )),
    "linegraph": ("emit the line graph with its index map", cmd_linegraph, (
        ("graph", {"nargs": "?", "default": "-"}),
    )),
    "reduce": ("build a SAT reduction instance", cmd_reduce, (
        ("cnf", {"nargs": "?", "default": "-", "help": "DIMACS CNF file"}),
        ("--girth", {"nargs": 2, "type": int, "metavar": ("LAMBDA", "MU"),
                     "help": "stretch parameters, default 1 2"}),
        ("--assignment", {"help": "0/1 assignment file, emits the mapped code"}),
        ("--labels", {"help": "write the edge-label sidecar to this path"}),
    )),
}


# The arguments that name an input file, where ``-`` reads standard input.
INPUTS = ("graph", "code", "hint", "cnf", "assignment", "multigraph")


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="edgeid",
        description="Compute, verify, and bound edge-identifying codes.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True
    for name, (help_text, func, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _is_value(word):
    return word == "-" or not word.startswith("-")


def _value(kwargs, word):
    """``word`` converted and checked as argparse does for the argument
    that ``kwargs`` states; ValueError where argparse reports an error."""
    value = kwargs.get("type", str)(word)
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(word)
    return value


def _read_plain(argv):
    """The namespace that ``build_parser().parse_args(argv)`` returns, for
    an argv of the plain shape: a subcommand, its positionals, then options
    spelt in full, each at most once, every value ``-`` or not starting
    with ``-``.  None for any other argv (help, abbreviations,
    ``--opt=value``, negative numbers, ``--``, a positional after an
    option, an error), which argparse then reads.  Of the table this reads
    ``nargs`` (``?``, ``*`` or a count), ``type``, ``choices``, the
    positionals' ``default`` and ``action="store_true"``: all it uses."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, func, arguments = SUBCOMMANDS[argv[0]]
    words = argv[1:]
    # the positionals end where the first option starts
    end = next((i for i, w in enumerate(words) if not _is_value(w)), len(words))
    values = {"subcommand": argv[0]}
    options = {}
    at = 0
    try:
        for flag, kwargs in arguments:
            nargs = kwargs.get("nargs")
            if flag.startswith("-"):
                dest = flag[2:].replace("-", "_")
                options[flag] = dest, kwargs
                values[dest] = False if kwargs.get("action") == "store_true" else None
            elif nargs == "*":
                values[flag] = [_value(kwargs, w) for w in words[at:end]]
                at = end
            elif at < end:
                values[flag] = _value(kwargs, words[at])
                at += 1
            elif nargs == "?":
                values[flag] = kwargs.get("default")
            else:
                return None
        while at < len(words):
            # a stray word, or an unknown, abbreviated or repeated option
            if words[at] not in options:
                return None
            dest, kwargs = options.pop(words[at])
            if kwargs.get("action") == "store_true":
                values[dest] = True
                at += 1
                continue
            count = kwargs.get("nargs", 1)
            got = words[at + 1:at + 1 + count]
            if len(got) < count or not all(map(_is_value, got)):
                return None
            got = [_value(kwargs, w) for w in got]
            values[dest] = got if "nargs" in kwargs else got[0]
            at += 1 + count
    except ValueError:
        return None
    values["func"] = func
    return _Namespace(**values)


def _report(text):
    """Write ``text`` and a newline to standard error.  With stderr closed
    (``2>&-``) the text is lost, and the exit status alone tells what
    happened."""
    if sys.stderr is not None:
        try:
            print(text, file=sys.stderr)
        except OSError:
            pass


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        stdin = [name for name in INPUTS if getattr(args, name, None) == "-"]
        if len(stdin) > 1:
            # the first read would leave the second an empty input
            raise _UsageError(f"{' and '.join(stdin)} both read standard input")
        if sys.stdout is None:
            # started with standard output closed (`>&-`): no reader at all
            return EXIT_PIPE
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
        _report(f"error: {exc}")
        return EXIT_FORMAT
    except RejectedInput as exc:
        # a failed verification, not a usage slip
        _report(str(exc))
        return EXIT_FAIL
    except _UsageError as exc:
        _report(f"usage error: {exc}")
        return EXIT_USAGE
    except Exception as exc:
        # a fault in edgeid, not in the input: keep the traceback for a report
        import traceback

        _report(f"{traceback.format_exc()}internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def run():
    """The process entry of ``edgeid`` and ``python -m edgeid.cli``: main(),
    then both standard streams flushed, then the process ends at once with
    main()'s status.  Interpreter finalization (the last garbage collection
    and the teardown of every loaded module) writes nothing: edgeid
    registers no atexit handler, opens every file in a ``with`` block and
    starts no thread.  A flush that fails because the reader has gone keeps
    main()'s status.  argparse's exits (help and its usage errors) raise
    SystemExit and end the normal way."""
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(status)


if __name__ == "__main__":
    run()

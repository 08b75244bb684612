"""The command-line reader.  ``cli._read_plain`` must return exactly what
argparse returns for every argv it accepts, and the parser that
``cli.build_parser`` builds from the table must behave byte for byte as
the argparse calls it replaced, kept here as the reference so that each
Python version checks against its own argparse."""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeid.cli import (
    FAMILY_KINDS,
    SUBCOMMANDS,
    _read_plain,
    build_parser,
    cmd_approx,
    cmd_bounds,
    cmd_family,
    cmd_linegraph,
    cmd_reduce,
    cmd_solve,
    cmd_verify,
    main,
)


def reference_build_parser():
    """``cli.build_parser`` as it was written out before the table, verbatim."""
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


def outcome(call):
    """(what ``call`` returned or exited with, its stdout, its stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = call()
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def parsed(parser, argv):
    """``parser.parse_args(argv)`` as its namespace's ``vars()`` or exit
    status, with its stdout and stderr."""
    return outcome(lambda: vars(parser.parse_args(argv)))


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_help_is_the_reference_help():
    new, old = build_parser(), reference_build_parser()
    assert new.format_help() == old.format_help()
    assert list(subparsers(new)) == list(subparsers(old)) == list(SUBCOMMANDS)
    for name, sub in subparsers(new).items():
        assert sub.format_help() == subparsers(old)[name].format_help(), name


# the 14 calls of perfbench's cli_certify workload, and README's examples
PLAIN = [
    ["family", "hypercube", "8", "--with-code"],
    ["verify", "q8.el"],
    ["bounds", "q8.el"],
    ["solve", "q8.el", "--hint", "q8.code"],
    ["approx", "q8.el"],
    ["solve", "c1200.el", "--hint", "c1200.code"],
    ["reduce", "sat12.cnf", "--assignment", "sat12.asg"],
    ["verify", "sat12.el"],
    ["bounds", "sat12.el"],
    ["reduce", "sat40.cnf", "--assignment", "sat40.asg"],
    ["verify", "sat40.el"],
    ["bounds", "sat40.el"],
    ["approx", "sat12.el"],
    ["solve", "sat12.el", "--hint", "sat12.code", "--budget", "2000000"],
    ["family", "petersen", "--with-code"],
    ["verify", "p.el"],
    ["family", "complete", "6"],
    ["solve"],
    ["bounds", "p.el"],
    ["approx", "p.el"],
    ["linegraph", "p.el"],
    ["reduce", "f.cnf", "--labels", "names.txt"],
    ["reduce", "f.cnf", "--assignment", "a.txt"],
    ["reduce", "f.cnf", "--girth", "2", "3"],
]


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_documented_calls_take_the_plain_reader(argv):
    fast = _read_plain(argv)
    assert fast is not None
    assert parsed(build_parser(), argv) == (vars(fast), "", "")
    assert parsed(reference_build_parser(), argv) == (vars(fast), "", "")


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["--help"], ["solve", "--help"], ["-h", "verify"],
    ["solve", "--budget", "x"], ["family", "cycle", "x"], ["reduce", "--girth", "2", "y"],
    ["solve", "--nope"], ["solve", "--bud", "x"], ["solve", "--budget"],
    ["reduce", "--girth", "2"], ["verify", "a", "b", "c"],
    ["family", "cycle", "--with-code", "5"], ["family", "moebius", "3"],
], ids=lambda argv: " ".join(argv) or "no-subcommand")
def test_off_shape_calls_match_the_reference(argv):
    def reference_main():
        args = reference_build_parser().parse_args(argv)
        return args.func(args)

    assert _read_plain(argv) is None
    assert outcome(lambda: main(argv)) == outcome(reference_main)


FLAGS = sorted({flag for _, _, arguments in SUBCOMMANDS.values()
                for flag, _ in arguments if flag.startswith("-")})
VALUES = st.one_of(
    st.sampled_from(["-", "g.el", "x", "", "3", "5", "+4", " 7", "1_0", "1e3",
                     *FAMILY_KINDS]),
    st.sampled_from(["-", "-a", "-1x", "-5", "--", "-h", "--hint"]),
    st.integers(-12, 12).map(str),
    st.text(alphabet="ab-=0 ", max_size=4),
)
TOKENS = st.one_of(
    VALUES,
    st.sampled_from([*SUBCOMMANDS, *FLAGS, "-h", "--help", "--", "-x", "--nope"]),
    # abbreviations and --flag=value
    st.sampled_from(FLAGS).flatmap(lambda f: st.integers(2, len(f) - 1).map(lambda k: f[:k])),
    st.tuples(st.sampled_from(FLAGS), VALUES).map("=".join),
)


@st.composite
def near_plain_argvs(draw):
    """A subcommand, then words, then some of its options, each followed
    by a few words: mostly plain, sometimes with a count or value wrong or
    an option repeated."""
    name = draw(st.sampled_from(list(SUBCOMMANDS)))
    argv = [name, *draw(st.lists(VALUES, max_size=3))]
    flags = [flag for flag, _ in SUBCOMMANDS[name][2] if flag.startswith("-")]
    if flags:
        for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
            argv += [flag, *draw(st.lists(VALUES, max_size=2))]
    return argv


@settings(max_examples=600, deadline=None)
@given(st.one_of(
    near_plain_argvs(),
    st.lists(TOKENS, max_size=6),
    st.tuples(st.sampled_from(list(SUBCOMMANDS)), st.lists(TOKENS, max_size=6))
      .map(lambda t: [t[0], *t[1]]),
))
def test_plain_reader_agrees_with_argparse(argv):
    expected = parsed(reference_build_parser(), argv)
    assert parsed(build_parser(), argv) == expected
    fast = _read_plain(argv)
    if fast is not None:
        assert expected == (vars(fast), "", "")

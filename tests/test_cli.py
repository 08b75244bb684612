"""End-to-end CLI behavior: pipelines, exit codes, determinism."""

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import edgeid
from edgeid.cli import EXIT_INTERNAL, EXIT_PIPE, FAMILY_KINDS, main
from edgeid.families import STANDARD_KINDS, known_code, standard_graph
from edgeid.graph_core import EdgeSet, read_edge_list, write_edge_list
from edgeid.identify import verify_edge_code

CNF = "p cnf 2 3\n1 2 0\n1 -2 0\n-1 2 0\n"


@pytest.fixture
def run_cli(capsys, monkeypatch):
    def run(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        status = main(argv)
        out, err = capsys.readouterr()
        return status, out, err

    return run


def graph_file(tmp_path, g, name="g.el", code=None):
    path = tmp_path / name
    path.write_text(write_edge_list(g, code=code))
    return str(path)


class TestVerify:
    def test_valid_code_from_file(self, run_cli, tmp_path):
        status, out, _ = run_cli(["family", "petersen", "--with-code"])
        gpath = tmp_path / "petersen.el"
        gpath.write_text(out)
        status, out, _ = run_cli(["verify", str(gpath)])
        assert status == 0
        assert "DOMINATING yes" in out and "SEPARATING yes" in out
        assert "size 5" in out.splitlines()

    def test_separate_code_file(self, run_cli, tmp_path):
        g = standard_graph("cycle", 4)
        gpath = graph_file(tmp_path, g)
        cpath = tmp_path / "code.txt"
        cpath.write_text("c 0\nc 1\nc 2\n")
        status, out, _ = run_cli(["verify", gpath, str(cpath)])
        assert status == 0

    def test_invalid_code_fails(self, run_cli, tmp_path):
        g = standard_graph("cycle", 3)
        gpath = graph_file(tmp_path, g, code=[0])
        status, out, _ = run_cli(["verify", gpath])
        assert status == 1
        assert "SEPARATING no" in out

    def test_no_code_anywhere_is_usage_error(self, run_cli, tmp_path):
        gpath = graph_file(tmp_path, standard_graph("cycle", 4))
        status, _, err = run_cli(["verify", gpath])
        assert status == 2
        assert "no code" in err

    def test_stdin(self, run_cli):
        text = write_edge_list(standard_graph("cycle", 4), code=[0, 1, 2])
        status, out, _ = run_cli(["verify"], stdin=text)
        assert status == 0
        status2, out2, _ = run_cli(["verify", "-"], stdin=text)
        assert status2 == 0 and out2 == out

    def test_malformed_graph(self, run_cli, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("not a graph\n")
        status, _, err = run_cli(["verify", str(path)])
        assert status == 3
        assert "error:" in err

    def test_missing_file(self, run_cli):
        status, _, err = run_cli(["verify", "/nonexistent/g.el"])
        assert status == 3


class TestSolve:
    def test_complete_six_pipeline(self, run_cli):
        _, gtext, _ = run_cli(["family", "complete", "6"])
        status, out, _ = run_cli(["solve"], stdin=gtext)
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "size 5 status Optimal"
        code = [int(l.split()[1]) for l in lines if l.startswith("c ")]
        assert len(code) == 5
        g = standard_graph("complete", 6)
        assert verify_edge_code(g, EdgeSet.from_indices(g, code)).is_code

    def test_negative_header_count(self, run_cli, tmp_path):
        # rejected at the header, not at the first edge past the count
        path = tmp_path / "g.el"
        for text, line in (("3 -1\n0 1\n", 1), ("# n m\n-1 0\n", 2)):
            path.write_text(text)
            status, out, err = run_cli(["solve", str(path)])
            assert (status, out) == (3, "")
            assert f"line {line}: negative count in 'n m' header" in err

    def test_infeasible_exit(self, run_cli, tmp_path):
        gpath = graph_file(tmp_path, standard_graph("path", 3))
        status, out, _ = run_cli(["solve", gpath])
        assert status == 1
        assert "status Infeasible" in out

    def test_budget_exhaustion_and_override(self, run_cli, tmp_path, monkeypatch):
        gpath = graph_file(tmp_path, standard_graph("complete", 4))
        status, out, _ = run_cli(["solve", gpath, "--budget", "3"])
        assert status == 1
        assert "size - status BudgetExhausted" in out
        status, out, _ = run_cli(["solve", gpath, "--budget", "100000"])
        assert status == 0
        assert "size 5 status Optimal" in out
        # the budget comes from --budget or SolveOptions' default, never
        # from the environment
        monkeypatch.setenv("EDGEID_BUDGET", "3")
        assert run_cli(["solve", gpath]) == run_cli(["solve", gpath, "--budget", "100000"])
        status, out, err = run_cli(["solve", gpath, "--budget", "0"])
        assert status == 2 and out == ""
        assert "budget must be positive" in err

    def test_hint_confirmed_without_search(self, run_cli, tmp_path):
        inst = known_code("complete", 6)
        gpath = graph_file(tmp_path, inst.graph)
        hpath = tmp_path / "hint.txt"
        hpath.write_text("".join(f"c {i}\n" for i in sorted(inst.claimed_code)))
        status, out, _ = run_cli(["solve", gpath, "--hint", str(hpath)])
        assert status == 0
        assert "size 5 status Optimal" in out

    def test_bad_hint_fails_verification(self, run_cli, tmp_path):
        gpath = graph_file(tmp_path, standard_graph("complete", 4))
        hpath = tmp_path / "hint.txt"
        hpath.write_text("c 0\n")
        status, _, err = run_cli(["solve", gpath, "--hint", str(hpath)])
        assert status == 1
        assert "upper_hint" in err

    def test_internal_error_has_its_own_exit(self, run_cli, tmp_path, monkeypatch):
        def broken(g, opts):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr("edgeid.solver.min_edge_code", broken)
        gpath = graph_file(tmp_path, standard_graph("petersen"))
        status, out, err = run_cli(["solve", gpath])
        assert status == EXIT_INTERNAL == 4
        assert out == ""
        assert err.splitlines()[-1] == "internal error: RuntimeError: kernel fault"

    def test_closed_stderr_keeps_each_status(self, tmp_path, monkeypatch, capsys):
        # with standard error closed every handler still returns its status,
        # and its message is lost; the reduce problems and the internal
        # fault go to stderr on paths of their own
        class Closed(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

        def broken(g, opts):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr("edgeid.solver.min_edge_code", broken)
        (tmp_path / "bad.cnf").write_text("p cnf 1 1\n1 0\n")
        gpath = graph_file(tmp_path, standard_graph("petersen"))
        monkeypatch.setattr(sys, "stderr", Closed())
        for argv, status in ((["verify", str(tmp_path / "missing.el")], 3),
                             (["reduce", str(tmp_path / "bad.cnf")], 3),
                             (["solve", gpath, "--budget", "0"], 2),
                             (["solve", gpath], EXIT_INTERNAL)):
            assert main(argv) == status, argv
        assert capsys.readouterr().out == ""

    def test_closed_stdout_is_no_fault(self, tmp_path, monkeypatch, capsys):
        # `edgeid solve g.el | head -1` with unbuffered output: the reader
        # is gone, which is neither an internal error nor worth a traceback
        sink = open(tmp_path / "sink", "w", encoding="utf-8")

        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", Closed())
        try:
            status = main(["family", "petersen"])
        finally:
            sink.close()
        assert status == EXIT_PIPE and status not in range(5)
        assert capsys.readouterr().err == ""
        assert (tmp_path / "sink").read_text() == ""

    @pytest.mark.parametrize("command, target", [
        ("solve", "edgeid.solver._constraints_from_masks"),
        ("approx", "edgeid.solver.shrink_to_minimal"),
    ])
    def test_internal_value_error_is_internal(self, run_cli, tmp_path, monkeypatch,
                                              command, target):
        # a ValueError raised inside edgeid is a fault, not a rejected input
        def broken(*args):
            raise ValueError("kernel fault")

        monkeypatch.setattr(target, broken)
        gpath = graph_file(tmp_path, standard_graph("cycle", 5))
        status, out, err = run_cli([command, gpath])
        assert status == EXIT_INTERNAL
        assert out == ""
        assert err.splitlines()[-1] == "internal error: ValueError: kernel fault"


class TestApprox:
    def test_petersen(self, run_cli, tmp_path):
        g = standard_graph("petersen")
        gpath = graph_file(tmp_path, g)
        status, out, _ = run_cli(["approx", gpath])
        assert status == 0
        lines = out.splitlines()
        size = int(lines[0].split()[1])
        code = [int(l.split()[1]) for l in lines[1:]]
        assert size == len(code) <= 20  # within 4x of the optimum 5
        assert verify_edge_code(g, EdgeSet.from_indices(g, code)).is_code

    def test_no_code_possible(self, run_cli, tmp_path):
        gpath = graph_file(tmp_path, standard_graph("path", 3))
        status, _, err = run_cli(["approx", gpath])
        assert status == 1 and err


class TestBounds:
    def test_k4_report(self, run_cli, tmp_path):
        gpath = graph_file(tmp_path, standard_graph("complete", 4))
        status, out, _ = run_cli(["bounds", gpath])
        assert status == 0
        assert "best_lower 3" in out
        assert "best_upper 5" in out
        assert any(l.startswith("lower ") for l in out.splitlines())

    def test_pendant_pair_report(self, run_cli, tmp_path):
        # P_3's two edges form a pendant pair, so no upper bound applies
        gpath = tmp_path / "p3.el"
        gpath.write_text("3 2\n0 1\n1 2\n")
        status, out, _ = run_cli(["bounds", str(gpath)])
        assert status == 0
        assert out.splitlines() == [
            "log-universe        lower  2",
            "half-order          lower  n/a (pendant pair present)",
            "edge-count-inverse  lower  2",
            "upper-bounds        upper  n/a (pendant pair present)",
            "lower log-universe 2",
            "lower edge-count-inverse 2",
            "best_lower 2",
        ]


class TestFamily:
    def test_standard_emission_rereads(self, run_cli):
        status, out, _ = run_cli(["family", "hypercube", "3"])
        assert status == 0
        g, code, _ = read_edge_list(out)
        assert g.n == 8 and g.m == 12 and code is None

    def test_with_code_rereads(self, run_cli):
        status, out, _ = run_cli(["family", "matching", "4", "--with-code"])
        assert status == 0
        g, code, _ = read_edge_list(out)
        assert g.n == 16 and len(code) == 8
        assert verify_edge_code(g, EdgeSet.from_indices(g, code)).is_code

    def test_jk_and_extremal_params(self, run_cli):
        _, out, _ = run_cli(["family", "jk", "5"])
        g, _, _ = read_edge_list(out)
        assert g.n == 7 and g.m == 17
        _, out, _ = run_cli(["family", "extremal1", "4", "--with-code"])
        g, code, _ = read_edge_list(out)
        assert g.m == 11 and len(code) == 4

    def test_clawfree_vertex_code_comment(self, run_cli):
        status, out, _ = run_cli(["family", "clawfree", "3", "--with-code"])
        assert status == 0
        marker = [l for l in out.splitlines() if l.startswith("# vertex-code ")]
        assert len(marker) == 1
        vertices = [int(t) for t in marker[0].split()[2:]]
        assert len(vertices) == 6
        g, code, _ = read_edge_list(out)
        assert code is None  # vertex codes stay out of the c lines

    def test_subdivided_from_multigraph_file(self, run_cli, tmp_path):
        mpath = tmp_path / "theta.mg"
        mpath.write_text("2 3\n0 1\n0 1\n0 1\n")
        status, out, _ = run_cli(
            ["family", "subdivided", "3", "--multigraph", str(mpath), "--with-code"]
        )
        assert status == 0
        g, code, _ = read_edge_list(out)
        assert g.n == 5 and g.m == 6
        assert verify_edge_code(g, EdgeSet.from_indices(g, code)).is_code

    def test_subdivided_long_augmenting_paths(self, run_cli, tmp_path):
        # a random 3-regular multigraph on 2000 vertices (configuration
        # model, loops rejected): its matching search walks augmenting
        # paths far longer than the interpreter's recursion limit
        rng = random.Random(0)
        stubs = [v for v in range(2000) for _ in range(3)]
        while True:
            rng.shuffle(stubs)
            edges = list(zip(stubs[::2], stubs[1::2]))
            if all(u != v for u, v in edges):
                break
        mpath = tmp_path / "cubic.mg"
        mpath.write_text(f"2000 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        status, out, err = run_cli(
            ["family", "subdivided", "3", "--multigraph", str(mpath), "--with-code"]
        )
        assert status == 0, err
        g, code, _ = read_edge_list(out)
        assert g.n == 5000 and g.m == 6000
        assert len(code) == 2 * 2000
        assert verify_edge_code(g, EdgeSet.from_indices(g, code)).is_code

    def test_subdivided_requires_multigraph(self, run_cli):
        status, _, err = run_cli(["family", "subdivided", "3"])
        assert status == 2

    def test_malformed_multigraph(self, run_cli, tmp_path):
        mpath = tmp_path / "bad.mg"
        mpath.write_text("2\n0 1\n")
        status, _, _ = run_cli(
            ["family", "subdivided", "3", "--multigraph", str(mpath)]
        )
        assert status == 3

    def test_no_code_for_kind(self, run_cli):
        status, _, err = run_cli(["family", "path", "5", "--with-code"])
        assert status == 2

    def test_bad_family_parameter_is_usage_error(self, run_cli, tmp_path):
        # every message names the kind as the command line spells it
        status, out, err = run_cli(["family", "cycle", "2"])
        assert status == 2 and out == ""
        assert err == "usage error: cycle needs n >= 3\n"
        mpath = tmp_path / "theta.mg"
        mpath.write_text("2 3\n0 1\n0 1\n0 1\n")
        for params, message in ((["path", "0"], "path needs n >= 1"),
                                (["complete", "0"], "complete needs n >= 1"),
                                (["complete_bipartite", "0", "3"],
                                 "complete_bipartite needs both sides nonempty"),
                                (["jk", "2"], "jk needs k >= 3"),
                                (["extremal1", "2"], "extremal1 needs k >= 3"),
                                (["subdivided", "2", "--multigraph", str(mpath)],
                                 "subdivided needs k >= 3"),
                                (["matching", "3"], "matching needs d >= 4"),
                                (["clawfree", "13"], "clawfree needs 2 <= k <= 12")):
            status, out, err = run_cli(["family", *params])
            assert (status, out, err) == (2, "", f"usage error: {message}\n")

    def test_multigraph_for_another_kind_is_usage_error(self, run_cli):
        status, out, err = run_cli(["family", "cycle", "5", "--multigraph", "nothere"])
        assert (status, out, err) == (2, "", "usage error: cycle takes no --multigraph\n")

    def test_missing_params(self, run_cli):
        status, _, _ = run_cli(["family", "matching"])
        assert status == 2

    def test_unknown_kind_rejected_by_parser(self, run_cli):
        with pytest.raises(SystemExit) as exc:
            main(["family", "moebius", "3"])
        assert exc.value.code == 2

    def test_parser_kinds_are_the_kinds_built(self, run_cli):
        # the parser restates the kinds so that it need not import families
        assert list(FAMILY_KINDS) == sorted(FAMILY_KINDS)
        assert set(STANDARD_KINDS) <= set(FAMILY_KINDS)
        for kind in FAMILY_KINDS:
            status, _, err = run_cli(["family", kind])
            assert "unknown family kind" not in err
            assert status in (0, 2)


class TestLinegraph:
    def test_petersen(self, run_cli, tmp_path):
        gpath = graph_file(tmp_path, standard_graph("petersen"))
        status, out, _ = run_cli(["linegraph", gpath])
        assert status == 0
        lg, _, _ = read_edge_list(out)
        assert lg.n == 15 and lg.m == 30
        maps = [l for l in out.splitlines() if l.startswith("# vertex ")]
        assert len(maps) == 15


class TestReduce:
    def test_base_instance_trailer(self, run_cli):
        status, out, _ = run_cli(["reduce"], stdin=CNF)
        assert status == 0
        assert out.splitlines()[-1] == "k 119"
        g, code, k = read_edge_list(out)
        assert g.n == 45 * 3 + 42 * 2 and code is None and k == 119

    def test_negative_variable_count_is_bad_header(self, run_cli):
        status, out, err = run_cli(["reduce"], stdin="p cnf -1 0\n")
        assert status == 3 and out == ""
        assert "bad DIMACS header" in err

    def test_girth_variant(self, run_cli):
        status, out, _ = run_cli(["reduce", "--girth", "1", "3"], stdin=CNF)
        assert status == 0
        g, _, k = read_edge_list(out)
        assert g.n == 45 * 3 + 72 * 2
        assert k == 25 * 3 + 39 * 2

    def test_bad_girth_params(self, run_cli):
        status, _, _ = run_cli(["reduce", "--girth", "0", "2"], stdin=CNF)
        assert status == 2

    def test_internal_value_error_in_girth_build_is_internal(self, run_cli,
                                                             monkeypatch):
        # only the lambda/mu check is a usage error
        def broken(*args):
            raise ValueError("gadget fault")

        monkeypatch.setattr("edgeid.reduction.attach_p_gadget", broken)
        status, out, err = run_cli(["reduce", "--girth", "1", "2"], stdin=CNF)
        assert status == EXIT_INTERNAL
        assert out == ""
        assert err.splitlines()[-1] == "internal error: ValueError: gadget fault"

    def test_labels_sidecar(self, run_cli, tmp_path):
        side = tmp_path / "labels.txt"
        status, _, _ = run_cli(["reduce", "--labels", str(side)], stdin=CNF)
        assert status == 0
        lines = side.read_text().splitlines()
        indices = [int(l.split()[0]) for l in lines]
        assert indices == sorted(indices)
        assert any(l.endswith("Q0.c1") for l in lines)
        assert any(l.endswith("x1.tbar2") for l in lines)

    def test_unwritable_labels_path_is_usage_error(self, run_cli, tmp_path):
        side = tmp_path / "no" / "such" / "labels.txt"
        status, out, err = run_cli(["reduce", "--labels", str(side)], stdin=CNF)
        assert status == 2 and out == ""
        assert err.strip() == f"usage error: {side}: No such file or directory"

    def test_assignment_embeds_code(self, run_cli, tmp_path):
        apath = tmp_path / "asg.txt"
        apath.write_text("1 1\n")
        status, out, _ = run_cli(["reduce", "--assignment", str(apath)], stdin=CNF)
        assert status == 0
        g, code, k = read_edge_list(out)
        assert len(code) == k == 119
        assert verify_edge_code(g, EdgeSet.from_indices(g, code)).is_code

    def test_unsatisfying_assignment(self, run_cli, tmp_path):
        apath = tmp_path / "asg.txt"
        apath.write_text("1 0\n")
        status, _, err = run_cli(["reduce", "--assignment", str(apath)], stdin=CNF)
        assert status == 1
        assert "does not satisfy" in err

    def test_non_binary_assignment(self, run_cli, tmp_path):
        apath = tmp_path / "asg.txt"
        # an integer other than 0 or 1 is no truth value either
        for text in ("yes no\n", "2 1\n", "-1 1\n"):
            apath.write_text(text)
            status, out, err = run_cli(["reduce", "--assignment", str(apath)], stdin=CNF)
            assert (status, out) == (3, "")
            assert "assignment entries must be 0 or 1" in err

    def test_assignment_of_wrong_length(self, run_cli, tmp_path):
        # a malformed input file, not an assignment that fails the formula
        apath = tmp_path / "asg.txt"
        apath.write_text("1 0 1\n")
        status, out, err = run_cli(["reduce", "--assignment", str(apath)], stdin=CNF)
        assert (status, out) == (3, "")
        assert err.strip() == f"error: {apath}: 3 assignment entries, want 2"

    def test_invalid_formula(self, run_cli):
        status, _, err = run_cli(["reduce"], stdin="p cnf 1 1\n1 0\n")
        assert status == 3
        assert "occurs" in err

    def test_huge_declared_variable_count(self, run_cli):
        # no list as long as the declared count: 10^11 variables would not fit
        status, out, err = run_cli(["reduce"], stdin="p cnf 99999999999 1\n1 0\n")
        assert (status, out) == (3, "")
        assert err.splitlines() == [
            "clause 0 has 1 literals, want 2 or 3",
            "variable 0 occurs 1 times positive and 0 negative, want 2 and 1",
            "99999999998 of 99999999999 variables never occur (lowest 1, highest"
            " 99999999998), want each 2 times positive and 1 negative",
        ]

    def test_absent_variables_share_one_line(self, run_cli):
        status, out, err = run_cli(["reduce"], stdin="p cnf 200000 1\n1 2 0\n")
        assert (status, out) == (3, "")
        assert err.splitlines() == [
            "variable 0 occurs 1 times positive and 0 negative, want 2 and 1",
            "variable 1 occurs 1 times positive and 0 negative, want 2 and 1",
            "199998 of 200000 variables never occur (lowest 2, highest 199999),"
            " want each 2 times positive and 1 negative",
        ]

    def test_malformed_cnf(self, run_cli):
        status, _, _ = run_cli(["reduce"], stdin="p cnf 2 1\n1 2\n")
        assert status == 3


# each file argument that a subcommand reads, with BAD for the one that
# is not UTF-8 and well-formed g.el and f.cnf beside it
UNDECODABLE = [
    ["bounds", "BAD"],
    ["verify", "g.el", "BAD"],
    ["solve", "g.el", "--hint", "BAD"],
    ["reduce", "BAD"],
    ["reduce", "f.cnf", "--assignment", "BAD"],
    ["family", "subdivided", "3", "--multigraph", "BAD"],
]


class TestUndecodableInput:
    @pytest.mark.parametrize("argv", UNDECODABLE, ids="-".join)
    def test_file_is_malformed_input(self, run_cli, tmp_path, argv):
        (tmp_path / "BAD").write_bytes(b"\xff\xfe 1\n0 1\n")
        (tmp_path / "g.el").write_text(write_edge_list(standard_graph("cycle", 4)))
        (tmp_path / "f.cnf").write_text(CNF)
        files = ("BAD", "g.el", "f.cnf")
        status, _, err = run_cli([str(tmp_path / a) if a in files else a for a in argv])
        assert status == 3
        assert err.startswith("error: ") and "not UTF-8" in err
        assert "Traceback" not in err

    def test_strict_stdin_is_malformed_input(self, run_cli, monkeypatch):
        # under a UTF-8 locale stdin decodes strictly
        raw = io.BytesIO(b"\xff\xfe 1\n0 1\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        status, _, err = run_cli(["bounds"])
        assert status == 3
        assert err == "error: -: not UTF-8 text\n"


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, run_cli):
        _, a, _ = run_cli(["reduce"], stdin=CNF)
        _, b, _ = run_cli(["reduce"], stdin=CNF)
        assert a == b
        _, a, _ = run_cli(["family", "extremal1", "7", "--with-code"])
        _, b, _ = run_cli(["family", "extremal1", "7", "--with-code"])
        assert a == b

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestStdinNamedTwice:
    # the second read of standard input would see an empty input
    @pytest.mark.parametrize("argv, names", [
        (["verify", "-", "-"], "graph and code"),
        (["solve", "-", "--hint", "-"], "graph and hint"),
        (["solve", "--hint", "-"], "graph and hint"),
        (["reduce", "-", "--assignment", "-"], "cnf and assignment"),
        (["reduce", "--assignment", "-"], "cnf and assignment"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_is_usage_error_before_any_read(self, run_cli, argv, names):
        text = CNF if argv[0] == "reduce" else write_edge_list(
            standard_graph("cycle", 4), code=[0, 1, 2])
        status, out, err = run_cli(argv, stdin=text)
        assert (status, out) == (2, "")
        assert err == f"usage error: {names} both read standard input\n"
        assert sys.stdin.read() == text


SRC = str(Path(edgeid.__file__).resolve().parents[1])


def process(argv, cwd, stdin=None, stdout=subprocess.PIPE, redirect=None):
    """(exit status, stdout, stderr) of ``python -m edgeid.cli ARGV`` in a
    fresh interpreter, started by ``sh`` with ``redirect`` where one is
    given."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    command = [sys.executable, "-m", "edgeid.cli", *argv]
    if redirect is not None:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    proc = subprocess.run(command, cwd=cwd, env=env, input=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


# (argv, standard input, exit status): the paths by which an edgeid process
# ends, each through cli.run() or argparse's own exit
PROCESS_PATHS = [
    (["family", "petersen", "--with-code"], None, 0),
    (["verify", "p.el"], None, 0),
    (["verify", "c3.el"], None, 1),
    (["solve"], "k4", 0),
    (["solve", "p3.el"], None, 1),
    (["verify", "k4"], None, 2),
    (["bogus"], None, 2),
    (["family", "cycle", "--with-code", "5"], None, 2),
    (["bounds", "bad.el"], None, 3),
    (["verify", "missing.el"], None, 3),
    (["--help"], None, 0),
    (["solve", "--help"], None, 0),
    (["verify", "-", "-"], "p.el", 2),
    (["solve", "--hint", "-"], "k4", 2),
    (["reduce", "--assignment", "-"], "f.cnf", 2),
]


class TestProcess:
    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        petersen = known_code("petersen", [])
        graph_file(tmp_path, petersen.graph, "p.el",
                   code=sorted(petersen.claimed_code.indices()))
        graph_file(tmp_path, standard_graph("cycle", 3), "c3.el", code=[0])
        graph_file(tmp_path, standard_graph("path", 3), "p3.el")
        graph_file(tmp_path, standard_graph("complete", 4), "k4")
        (tmp_path / "bad.el").write_text("not a graph\n")
        (tmp_path / "f.cnf").write_text(CNF)
        return tmp_path

    @pytest.mark.parametrize("argv, stdin, status", PROCESS_PATHS,
                             ids=[" ".join(argv) for argv, _, _ in PROCESS_PATHS])
    def test_matches_main_in_process(self, run_cli, capsys, files, argv, stdin, status):
        text = None if stdin is None else (files / stdin).read_text()
        try:
            expected = run_cli(argv, stdin=text)
        except SystemExit as exc:
            expected = (exc.code, *capsys.readouterr())
        assert expected[0] == status
        got = process(argv, files, None if text is None else text.encode())
        assert got == (status, expected[1].encode(), expected[2].encode())

    def test_run_flushes_then_skips_finalization(self, files):
        # output written by print and by sys.stdout.write is all there, and
        # an atexit handler never runs
        body = ("import atexit, sys\n"
                "atexit.register(print, 'finalized')\n"
                "sys.argv[1:] = ['family', 'cycle', '3']\n"
                "from edgeid.cli import run\n"
                "run()")
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", body], cwd=files, env=env,
                              capture_output=True, timeout=60)
        expected = write_edge_list(standard_graph("cycle", 3)).encode()
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")

    def test_pipe_closed_before_the_start(self, files):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            got = process(["family", "hypercube", "8"], files, stdout=write_end)
        finally:
            os.close(write_end)
        assert got == (EXIT_PIPE, None, b"")

    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])
    @pytest.mark.parametrize("argv, status", [
        (["verify", "/nonexistent"], 3), (["bounds", "bad.el"], 3),
        (["solve", "k4", "--budget", "0"], 2), (["solve", "k4", "--hint", "hint"], 1),
    ], ids=lambda case: " ".join(case) if isinstance(case, list) else str(case))
    def test_stderr_closed_by_the_shell(self, files, argv, status, redirect):
        # with stderr closed (Python sets sys.stderr to None) or open for
        # reading only (each write fails), each message is lost and never
        # lands on stdout, and each status stays what it means
        (files / "hint").write_text("c 0\n")  # no code of K_4
        assert process(argv, files, redirect=redirect) == (status, b"", b"")

    @pytest.mark.parametrize("argv", [
        ["verify", "p.el"], ["family", "petersen"], ["solve", "k4"],
    ], ids=" ".join)
    def test_stdout_closed_by_the_shell(self, files, argv):
        # `>&-` rather than a preexec_fn: a fork from the threaded test
        # process can warn, which filterwarnings turns into an error
        got = process(argv, files, redirect=">&-")
        assert got == (EXIT_PIPE, b"", b"")

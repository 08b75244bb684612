"""Import footprint of the package and the command line, and the lazy
``edgeid`` namespace that keeps it small."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgeid
from edgeid.families import hypercube_matching, standard_graph
from edgeid.graph_core import write_edge_list

SRC = str(Path(edgeid.__file__).resolve().parents[1])

# Every public name of the package and the submodule that defines it.
PUBLIC = {
    "bounds": (
        "BoundEntry", "BoundsReport", "bounds_report", "connected_code_max_edges",
        "half_order_lower", "log_lower", "max_edges_for_code_size",
        "min_code_for_edges", "sqrt_lower_ceiling", "upper_bounds",
    ),
    "families": (
        "FamilyInstance", "claw_free_example", "extremal_low1", "hypercube_matching",
        "jk_graph", "known_code", "standard_graph", "subdivide_once",
        "subdivided_regular_code",
    ),
    "graph_core": (
        "EdgeSet", "FormatError", "Graph", "GraphBuilder", "Multigraph",
        "RejectedInput", "connected_components", "line_graph", "pendant_pairs",
        "read_code_file", "read_edge_list", "read_multigraph", "write_edge_list",
    ),
    "identify": ("VerifyReport", "verify_edge_code", "verify_vertex_code"),
    "properties": (
        "closed_edge_neighborhood", "girth", "induced_by_edges", "is_bipartite",
        "is_k_degenerate", "twin_pairs",
    ),
    "reduction": (
        "ReductionInstance", "SatFormula", "assignment_to_code", "attach_p_gadget",
        "build_reduction", "build_reduction_girth", "code_to_assignment",
        "read_dimacs", "validate_formula",
    ),
    "solver": (
        "SolveOptions", "SolveResult", "approx_edge_code", "min_edge_code",
        "min_vertex_code", "shrink_to_minimal",
    ),
}

# The last line a probe prints: the modules of interest it has loaded.
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0]
                        in ("edgeid", "dataclasses", "inspect", "argparse"))))
"""


def loaded_by(body, cwd):
    """The edgeid, dataclasses, inspect and argparse modules loaded after
    ``body`` runs in a fresh interpreter.  ``-S`` keeps the host's site
    hooks from importing modules of their own."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(body=body)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_import_loads_no_submodule(tmp_path):
    assert loaded_by("import edgeid", tmp_path) == {"edgeid"}


def test_cli_import_loads_only_graph_core(tmp_path):
    assert loaded_by("import edgeid.cli", tmp_path) == {
        "edgeid", "edgeid.cli", "edgeid.graph_core"
    }


@pytest.fixture
def inputs(tmp_path):
    g = standard_graph("petersen")
    (tmp_path / "g.el").write_text(write_edge_list(g, code=[0, 1, 2, 3, 4, 5, 6, 7]))
    (tmp_path / "hint").write_text("".join(f"c {i}\n" for i in range(g.m)))
    (tmp_path / "f.cnf").write_text("p cnf 2 3\n1 2 0\n1 -2 0\n-1 2 0\n")
    # the half-order bound certifies Q_4's perfect matching as optimal
    q4 = standard_graph("hypercube", 4)
    (tmp_path / "q4.el").write_text(write_edge_list(q4))
    (tmp_path / "q4.code").write_text(
        "".join(f"c {i}\n" for i in hypercube_matching(4).indices()))
    return tmp_path


SOLVER = {"edgeid.solver", "edgeid.identify"}


# (argv, modules beyond edgeid, edgeid.cli and edgeid.graph_core)
SUBCOMMANDS = [
    (["verify", "g.el"], {"edgeid.identify"}),
    (["bounds", "g.el"], {"edgeid.bounds"}),
    (["solve", "g.el", "--hint", "hint"], SOLVER | {"edgeid._search", "edgeid.bounds"}),
    (["solve", "q4.el", "--hint", "q4.code"], SOLVER | {"edgeid.bounds"}),
    (["approx", "g.el"], SOLVER),
    (["reduce", "f.cnf"], {"edgeid.reduction"}),
    (["family", "cycle", "5"], {"edgeid.families"}),
    (["linegraph", "g.el"], set()),
]
SUBCOMMAND_IDS = ["verify", "bounds", "solve", "certified-solve", "approx", "reduce",
                  "family", "linegraph"]


@pytest.mark.parametrize("argv, modules", SUBCOMMANDS, ids=SUBCOMMAND_IDS)
def test_each_subcommand_loads_only_its_modules(inputs, argv, modules):
    body = f"from edgeid.cli import main\nassert main({argv!r}) in (0, 1)"
    loaded = loaded_by(body, inputs)
    assert loaded == {"edgeid", "edgeid.cli", "edgeid.graph_core"} | modules
    # the property checks serve the library and the tests only
    assert "edgeid.properties" not in loaded


# argparse reads only what the plain reader leaves: help and command lines
# off the plain shape, here a positional after an option
@pytest.mark.parametrize("argv", [
    ["--help"], ["solve", "--help"], ["family", "cycle", "--with-code", "5"],
], ids=["help", "solve-help", "positional-after-option"])
def test_help_and_off_shape_calls_load_argparse(tmp_path, argv):
    body = ("from edgeid.cli import main\n"
            "try:\n"
            f"    main({argv!r})\n"
            "except SystemExit:\n"
            "    pass")
    assert "argparse" in loaded_by(body, tmp_path)


def test_solver_import_loads_neither_kernel_nor_bounds(tmp_path):
    assert loaded_by("import edgeid.solver", tmp_path) == {
        "edgeid", "edgeid.solver", "edgeid.graph_core", "edgeid.identify"
    }


def test_cli_module_is_compiled_once(inputs):
    """``python -m edgeid.cli`` runs cli.py as ``__main__``; nothing may
    import it a second time as ``edgeid.cli``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "edgeid.cli", "verify", "q4.el",
         "q4.code"],
        cwd=inputs, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert {"edgeid", "edgeid.graph_core", "edgeid.identify"} <= imported
    assert "edgeid.cli" not in imported


@pytest.mark.parametrize("body, loads", [
    ("import edgeid", False),
    # the half-order bound certifies the hint: no constraint is built
    ("from edgeid.families import hypercube_matching, standard_graph\n"
     "from edgeid.solver import SolveOptions, min_edge_code\n"
     "g = standard_graph('hypercube', 4)\n"
     "res = min_edge_code(g, SolveOptions(upper_hint=hypercube_matching(4)))\n"
     "assert (res.status, res.nodes_used) == ('Optimal', 0)", False),
    # K_7 runs the plain loop, which bans by K_7's automorphisms lifted to
    # its edges
    ("from edgeid.families import standard_graph\n"
     "from edgeid.solver import min_edge_code\n"
     "assert min_edge_code(standard_graph('complete', 7)).size == 6", True),
    # Petersen runs the table loop, which bans nothing
    ("from edgeid.families import standard_graph\n"
     "from edgeid.solver import min_edge_code\n"
     "assert min_edge_code(standard_graph('petersen')).nodes_used > 0", False),
], ids=["import", "certified-hint", "plain-loop-search", "table-loop-search"])
def test_symmetry_loads_only_for_a_plain_loop_search(tmp_path, body, loads):
    assert ("edgeid.symmetry" in loaded_by(body, tmp_path)) == loads


def test_properties_load_symmetry_only_to_test_isomorphism(tmp_path):
    assert loaded_by("import edgeid.graph_core", tmp_path) == {"edgeid", "edgeid.graph_core"}
    assert loaded_by("import edgeid.properties", tmp_path) == {
        "edgeid", "edgeid.graph_core", "edgeid.properties"
    }
    body = ("from edgeid.graph_core import Graph\n"
            "from edgeid.properties import isomorphic\n"
            "assert isomorphic(Graph(3, [(0, 1)]), Graph(3, [(1, 2)]))")
    assert loaded_by(body, tmp_path) == {
        "edgeid", "edgeid.graph_core", "edgeid.properties", "edgeid.symmetry"
    }


def test_lazy_names_are_the_submodule_objects():
    every = [name for names in PUBLIC.values() for name in names]
    assert len(every) == len(set(every)) == 56
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"edgeid.{module}")
        for name in names:
            assert getattr(edgeid, name) is getattr(defining, name), name
    assert sorted(edgeid.__all__) == sorted(every)
    assert set(every) <= set(dir(edgeid))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        edgeid.nope  # noqa: B018
    assert not hasattr(edgeid, "nope")


def test_submodule_and_star_imports():
    from edgeid import solver

    assert solver is sys.modules["edgeid.solver"]
    namespace = {}
    exec("from edgeid import *", namespace)
    for module, names in PUBLIC.items():
        for name in names:
            assert namespace[name] is getattr(sys.modules[f"edgeid.{module}"], name)

"""Solve a fixed corpus of graphs and print what each solve did.

    PYTHONPATH=src python tests/corpus_nodes.py > nodes.jsonl
    PYTHONPATH=src python tests/corpus_nodes.py --compare before.jsonl after.jsonl

The first form solves each graph of the corpus with ``min_edge_code`` at
the default budget and prints one JSON object per line: ``name``,
``status``, ``size``, ``code`` (edge indices) and ``nodes``.  The corpus
holds 485 graphs: every graph of ``pendant_free_unions(8)``, 150 graphs
of ``random_connected_pendant_free`` drawn from ``random.Random(2024)``,
K_4 to K_10, K_{a,b} for 2 <= a <= b <= 7 with ab <= 42, Q_2 to Q_4,
Petersen and C_5 to C_20.  Run it against two checkouts (``PYTHONPATH``
picks the package) to see what a pruning change did to node counts.
``corpus_nodes.jsonl`` beside this file is its output for the current
code, which ``test_solver`` holds every later solve to.

The second form reads two such outputs and prints one JSON object: how
many graphs kept their status, size and code, the graphs whose node
count rose or fell, and the node totals.  A pruning rule may only cut
subtrees without a solution, so every status, size and code must match;
the exit status is 1 when one differs or a node count rose.

Not a test module: tier-1 collects ``test_*.py`` only.
"""

import json
import random
import sys

from conftest import pendant_free_unions, random_connected_pendant_free
from edgeid.families import standard_graph
from edgeid.solver import min_edge_code


def corpus():
    """``(name, graph)`` for every graph of the corpus, in a fixed order."""
    for i, g in enumerate(pendant_free_unions(8)):
        yield f"pendant_free_unions(8)[{i}]", g
    rng = random.Random(2024)
    for i in range(150):
        yield f"random(2024)[{i}]", random_connected_pendant_free(rng)
    for n in range(4, 11):
        yield f"K_{n}", standard_graph("complete", n)
    for a in range(2, 8):
        for b in range(a, 8):
            if a * b <= 42:
                yield f"K_{{{a},{b}}}", standard_graph("complete_bipartite", (a, b))
    for d in range(2, 5):
        yield f"Q_{d}", standard_graph("hypercube", d)
    yield "Petersen", standard_graph("petersen")
    for n in range(5, 21):
        yield f"C_{n}", standard_graph("cycle", n)


def solve_all():
    """One record per graph of the corpus, as the first form prints them."""
    for name, g in corpus():
        res = min_edge_code(g)
        code = None if res.code is None else list(res.code.indices())
        yield {"name": name, "status": res.status, "size": res.size,
               "code": code, "nodes": res.nodes_used}


def read(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(before, after):
    """What changed from the records ``before`` to the records ``after``."""
    if [r["name"] for r in before] != [r["name"] for r in after]:
        raise SystemExit("the two outputs list different graphs")
    same = sum((b["status"], b["size"], b["code"]) == (a["status"], a["size"], a["code"])
               for b, a in zip(before, after))
    moved = [(b["name"], b["nodes"], a["nodes"]) for b, a in zip(before, after)
             if b["nodes"] != a["nodes"]]
    return {
        "graphs": len(before),
        "same_status_size_code": same,
        "nodes_fell": {name: [old, new] for name, old, new in moved if new < old},
        "nodes_rose": {name: [old, new] for name, old, new in moved if new > old},
        "total_nodes": [sum(b["nodes"] for b in before), sum(a["nodes"] for a in after)],
    }


def worse(report):
    """Whether a ``compare`` report shows a changed result or a rise in nodes."""
    return report["same_status_size_code"] < report["graphs"] or bool(report["nodes_rose"])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        report = compare(read(sys.argv[2]), read(sys.argv[3]))
        print(json.dumps(report, indent=1))
        sys.exit(1 if worse(report) else 0)
    for record in solve_all():
        print(json.dumps(record))

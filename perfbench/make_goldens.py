"""Write goldens.json: the outputs the benchmark's checks pin.

    python3 perfbench/make_goldens.py

Run from the root of a checkout.  It records, from the sources there,
the size and lexicographically least code of every solve_exact instance
and the exit code and stdout digest of every cli_certify call, for each
of the CLI_VARIANTS formula variants.  Regenerate only for a change that
means to alter those outputs, and say so with the change.
"""

import json
import shutil
import sys
import tempfile

import run


def main():
    run._prepare()
    import workloads
    from edgeid import families, solver

    exact = {}
    for label, kind, params in workloads.EXACT:
        res = solver.min_edge_code(families.standard_graph(kind, params))
        exact[label] = {"size": res.size, "code": sorted(res.code.indices())}

    cli = {}
    env = workloads.child_env()
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="goldens-", dir=run.WORK)
    try:
        for variant in range(workloads.CLI_VARIANTS):
            workloads.write_cli_inputs(workdir, variant)
            for key, args, keep in workloads.cli_plan(variant):
                if key in cli:
                    continue  # shared by every variant
                call = workloads.cli_call(workdir, env, args, None)
                if keep:
                    workloads.keep_coded(workdir, keep, call)
                cli[key] = {"exit": call.exit, "sha256": workloads.digest(call.stdout)}
                print(key, call.exit, len(call.stdout), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"solve_exact": exact, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Child program for one traced ``edgeid`` command-line call.

Usage: python cli_child.py SPANS_JSON ARG...

Times ``import edgeid.cli``, installs the span wrappers, runs
``edgeid.cli.main(ARGS)`` and writes the spans to SPANS_JSON on exit.
Stdout and the exit code are those of ``python -m edgeid.cli ARG...``.
"""

import json
import sys
import time


def main():
    start = time.perf_counter()
    import edgeid.cli

    imported = time.perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.spans.append(("cli.import", start, imported, None, None, None))
    tracer.install()
    try:
        return tracer.wrap("cli.main", edgeid.cli.main)(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark of edgeid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout: the package is imported from ``src/``.
A run sets up the workload's inputs from the seed, then repeats passes
over its operations until ``--seconds`` have gone by.  Every output is
checked.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
give the environment, the counts behind each ratio and every failure.
See README.md next to this file.
"""

import argparse
import importlib.util
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5
# Reference bursts before and after each setup probe.
SETUP_BURSTS = 5
# A run must end well inside the 180 s a caller allows it.
WATCHDOG_S = 170

# Name -> unit of the metrics in the final line; BENCHMARK.json lists the same.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "search.nodes": "count",
    "search.busy_s": "s",
    "search.ns_per_node": "ns",
    "search.calls": "count",
    "search.refuted": "count",
    "search.found": "count",
    "search.exhausted": "count",
    "search.useful_node_ratio": "ratio",
    "solver.sizes_tried": "count",
    "solver.self_s": "s",
    "bounds.start_gap": "count",
    "bounds.solver_lower_bound_s": "s",
    "graph_core.read_edge_list_s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout(f"run exceeded {WATCHDOG_S} s")


def _prepare():
    """Pin the environment and make the checkout's package importable."""
    if not (SRC / "edgeid" / "__init__.py").is_file():
        print(f"error: no edgeid sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for key in [k for k in os.environ if k.startswith("EDGEID_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))


def environment(seed, workload, seconds, trace):
    return {
        "python": sys.version.split()[0],
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
    }


class Tally:
    """Attempted and failed operations, with the first reason per label."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def add(self, label, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            first, count = self.reasons.get(label, (reason, 0))
            self.reasons[label] = (first, count + 1)


def run_pass(ops, tracer, tally, speedometer, spans_by_op=None):
    """One pass over ``ops``; returns the seconds of each run call and the outputs.

    A raising operation counts as failed and the pass goes on.  After
    each operation, untimed, the speedometer runs its reference bursts.
    Checks run after the pass, with any tracer removed, so they are
    neither timed nor traced.
    """
    outputs = []
    errors = []
    times = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            first_span = len(tracer.spans) if tracer is not None else 0
            if tracer is not None:
                tracer.op = op.label
            error = None
            start = time.perf_counter()
            try:
                out = op.run(tracer)
            except Exception as exc:
                out = None
                error = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            speedometer.sample(times[-1])
            if spans_by_op is not None:
                spans_by_op.append((op.label, first_span, len(tracer.spans)))
            if out is not None and op.then is not None:
                op.then(out)
            outputs.append(out)
            errors.append(error)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, out, error in zip(ops, outputs, errors):
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        tally.add(op.label, error)
    return times, outputs


def setup_probe(workload, seed, workdir):
    """Time import plus input generation in this fresh interpreter.

    Reference bursts just before and after give the calibration factor.
    """
    import speed

    reference = speed.PAGES  # set-up is mostly imports
    reference.burst()  # warm-up, not counted
    bursts = [reference.burst() for _ in range(SETUP_BURSTS)]
    start = time.perf_counter()
    import edgeid.cli  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload].setup(seed, workdir)
    done = time.perf_counter()
    bursts += [reference.burst() for _ in range(SETUP_BURSTS)]
    factor = reference.factor(bursts)
    print(json.dumps({"setup_s": (done - start) * factor, "setup_clock_s": done - start,
                      "import_s": imported - start}))


def run_setup_probes(workload, seed, workdir, env):
    import workloads

    samples = []
    for _ in range(SETUP_PROBES):
        probe_dir = tempfile.mkdtemp(prefix="probe", dir=workdir)
        try:
            argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed), "--workdir", probe_dir]
            call = workloads.spawn(argv, probe_dir, env)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        if call.exit != 0:
            raise RuntimeError("setup probe failed: " + call.stderr.decode("utf-8", "replace"))
        samples.append(json.loads(call.stdout.decode("utf-8").splitlines()[-1]))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def percentile_line(name, values, unit):
    """The median, and the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    line = f"{name} median {statistics.median(xs):.6f} {unit} over {n} passes"
    rank = n - 10  # 1-based rank of the value with ten samples above it
    if rank >= (n + 1) / 2:
        line += f"; p{100 * rank // n} {xs[rank - 1]:.6f} {unit} (10 samples above)"
    else:
        line += "; no percentile above the median has ten samples beyond it"
    return line


def measure(workload_name, seed, seconds, trace):
    import spans
    import speed
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    # Bursts, operations and children share one core, so the bursts
    # measure the speed the operations get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK)
    try:
        env = workloads.child_env()
        setup = run_setup_probes(workload_name, seed, workdir, env)
        ops = workload.setup(seed, workdir)
        tally = Tally()
        plain, traced, clock, traced_clock, layers, counts, per_op = [], [], [], [], [], [], []
        span_log = []
        op_times = {op.label: [] for op in ops}
        # In-process work is the search's; a call is mostly process start-up.
        speedometer = speed.Speedometer(speed.ALU if workload.in_process else speed.PAGES)
        deadline = time.perf_counter() + seconds
        while True:
            use_tracer = bool(trace) and len(plain) > len(traced)
            tracer = spans.Tracer() if use_tracer else None
            ranges = [] if use_tracer and not workload.in_process else None
            times, outputs = run_pass(ops, tracer, tally, speedometer, ranges)
            factor = speedometer.factor()
            counts.append(workload.counts(outputs))
            if use_tracer:
                traced.append(sum(times) * factor)
                traced_clock.append(sum(times))
                layers.append(spans.layer_metrics(tracer.spans))
                span_log.append({"pass": len(plain) + len(traced) - 1, "spans": tracer.spans})
                if ranges is not None:
                    per_op.append(
                        {label: spans.layer_metrics(spans.rebase(tracer.spans[a:b], a))
                         for label, a, b in ranges}
                    )
            else:
                plain.append(sum(times) * factor)
                clock.append(sum(times))
                for op, t in zip(ops, times):
                    op_times[op.label].append(t)
            if time.perf_counter() >= deadline and (not trace or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = []
    if trace:
        span_path = WORK / f"spans-{workload_name}-{seed}.json"
        with open(span_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload_name, "seed": seed, "passes": span_log}, fh)
        lines.append(f"spans of the traced passes written to {span_path.relative_to(ROOT)}")
    else:
        try:
            WORK.rmdir()
        except OSError:
            pass  # not empty: it holds span files or another run's work
    if workload.in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        last = counts[-1]
        lines.append(f"solved {last['solved']} count per pass")
        lines.append(f"search_nodes {last['search_nodes']} count per pass")
    else:
        rss_mb = max(c["peak_rss_kb"] for c in counts) / 1024
    rate = tally.failed / tally.attempted
    lines.append(f"error_rate {rate:.6f} ratio ({tally.failed} failed of {tally.attempted} attempted)")
    lines.append(f"setup_s {setup['setup_s']:.6f} s (median of {SETUP_PROBES} fresh interpreters; "
                 f"uncalibrated {setup['setup_clock_s']:.6f} s)")
    lines.append("wall_s and setup_s are calibrated by the reference bursts of speed.py; "
                 "wall_clock_s is not")
    lines.append(f"peak_rss_mb {rss_mb:.3f} MB")
    lines.append(percentile_line("wall_s", plain, "s"))
    lines.append(percentile_line("wall_clock_s", clock, "s"))
    for label, ts in op_times.items():
        lines.append(f"op {label}: median {statistics.median(ts):.6f} s over {len(ts)} passes")
    for label, (reason, count) in sorted(tally.reasons.items()):
        lines.append(f"FAILED {label} x{count}: {reason}")

    if not trace:
        metrics = {"wall_s": statistics.median(plain), "setup_s": setup["setup_s"],
                   "peak_rss_mb": rss_mb}
        units = END_TO_END
    else:
        layer = spans.median_metrics(layers)
        if workload.in_process:
            layer["cli.import_s"] = setup["import_s"]
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        lines.append(percentile_line("traced wall_s", traced, "s"))
        lines.append(f"trace.overhead_s {layer['trace.overhead_s']:.6f} s per pass")
        share = layer["search.busy_s"] / statistics.median(traced_clock)
        lines.append(f"search.busy_share {share:.6f} ratio of traced wall_clock_s")
        for name in sorted(layer):
            if name not in PER_LAYER:
                lines.append(f"{name} {layer[name]:.6g}")
        if not workload.in_process:
            for label in per_op[0]:
                row = spans.median_metrics([p[label] for p in per_op])
                lines.append(
                    f"call {label}: cli.import_s {row['cli.import_s']:.6f} "
                    f"cli.main_s {row['cli.main_s']:.6f} "
                    f"cli.process_overhead_s {row['cli.process_overhead_s']:.6f} "
                    f"solver.self_s {row['solver.self_s']:.6f}"
                )
        metrics = {name: layer[name] for name in PER_LAYER}
        units = PER_LAYER
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return lines, result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true", help="check the benchmark itself")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    _prepare()
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.workdir)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    finally:
        signal.alarm(0)
    print("# env " + json.dumps(environment(args.seed, args.workload, args.seconds, args.trace)))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing around edgeid's public functions, and the layer metrics.

``Tracer.install`` replaces each traced function at every edgeid module
attribute that refers to it, so a caller that looks the name up at call
time (``edgeid.solver.search_exact_size``, ``edgeid.cli.min_edge_code``)
goes through the wrapper.  Nothing inside ``src/`` changes.  Spans are
kept in memory as ``(name, start, end, parent, op, info)`` tuples, where
``parent`` indexes the enclosing span (or is None) and ``op`` is the
operation id the benchmark set before the call.
"""

import importlib
import statistics
import sys
import time

# (defining module, function, span name)
TARGETS = (
    ("edgeid._search", "search_exact_size", "_search.search_exact_size"),
    ("edgeid.solver", "min_edge_code", "solver.min_edge_code"),
    ("edgeid.solver", "approx_edge_code", "solver.approx_edge_code"),
    ("edgeid.bounds", "solver_lower_bound", "bounds.solver_lower_bound"),
    ("edgeid.bounds", "bounds_report", "bounds.bounds_report"),
    ("edgeid.graph_core", "read_edge_list", "graph_core.read_edge_list"),
    ("edgeid.graph_core", "write_edge_list", "graph_core.write_edge_list"),
    ("edgeid.identify", "verify_edge_code", "identify.verify_edge_code"),
    ("edgeid.families", "standard_graph", "families.standard_graph"),
    ("edgeid.families", "known_code", "families.known_code"),
    ("edgeid.families", "hypercube_matching", "families.hypercube_matching"),
    ("edgeid.reduction", "build_reduction", "reduction.build_reduction"),
    ("edgeid.reduction", "assignment_to_code", "reduction.assignment_to_code"),
    ("edgeid.reduction", "code_to_assignment", "reduction.code_to_assignment"),
)


def _search_info(result):
    found, _, nodes, exhausted = result
    return {"found": bool(found), "nodes": int(nodes), "exhausted": bool(exhausted)}


def _solve_info(result):
    bound = result.lower_bound_used[1] if result.lower_bound_used else None
    return {"status": result.status, "size": result.size, "bound": bound}


_INFO = {
    "_search.search_exact_size": _search_info,
    "solver.min_edge_code": _solve_info,
}


class Tracer:
    """Records one span per call into a traced function while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def install(self):
        for module_name, attr, span_name in TARGETS:
            fn = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(span_name, fn)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "edgeid" and getattr(module, attr, None) is fn:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def adopt(self, spans, name, start, end):
        """Record a span timed by the caller around ``spans`` from a child process.

        The child's spans become descendants of the new span.
        """
        root = len(self.spans)
        self.spans.append((name, start, end, None, self.op, None))
        for child, c_start, c_end, parent, _, info in spans:
            parent = root if parent is None else root + 1 + parent
            self.spans.append((child, c_start, c_end, parent, self.op, info))

    def wrap(self, name, fn):
        """``fn`` with one span recorded per call."""
        summarize = _INFO.get(name)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            stack.pop()
            info = summarize(result) if summarize is not None else None
            spans[index] = (name, start, end, parent, self.op, info)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def rebase(spans, offset):
    """Spans sliced from ``offset`` of a longer list, with local parent indexes."""
    return [
        (name, start, end, None if parent is None else parent - offset, op, info)
        for name, start, end, parent, op, info in spans
    ]


def layer_metrics(spans):
    """Per-layer totals over a list of spans (one pass of a workload)."""
    selfs = self_times(spans)
    m = {
        "search.nodes": 0,
        "search.busy_s": 0.0,
        "search.calls": 0,
        "search.refuted": 0,
        "search.found": 0,
        "search.exhausted": 0,
        "useful_nodes": 0,
        "solver.sizes_tried": 0,
        "bounds.start_gap": 0,
        "bounds.solver_lower_bound_s": 0.0,
        "bounds.report_s": 0.0,
        "solver.self_s": 0.0,
        "solver.approx_s": 0.0,
        "graph_core.read_edge_list_s": 0.0,
        "graph_core.write_edge_list_s": 0.0,
        "identify.verify_s": 0.0,
        "identify.verify_calls": 0,
        "families.build_s": 0.0,
        "reduction.build_s": 0.0,
        "reduction.assignment_to_code_s": 0.0,
        "reduction.code_to_assignment_s": 0.0,
        "cli.main_s": 0.0,
        "cli.process_overhead_s": 0.0,
    }
    imports = []
    timed = {
        "bounds.solver_lower_bound": "bounds.solver_lower_bound_s",
        "bounds.bounds_report": "bounds.report_s",
        "solver.approx_edge_code": "solver.approx_s",
        "graph_core.read_edge_list": "graph_core.read_edge_list_s",
        "graph_core.write_edge_list": "graph_core.write_edge_list_s",
        "identify.verify_edge_code": "identify.verify_s",
        "reduction.build_reduction": "reduction.build_s",
        "reduction.assignment_to_code": "reduction.assignment_to_code_s",
        "reduction.code_to_assignment": "reduction.code_to_assignment_s",
        "cli.main": "cli.main_s",
    }
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        dur = end - start
        if name in timed:
            m[timed[name]] += dur
        if name == "identify.verify_edge_code":
            m["identify.verify_calls"] += 1
        elif name == "_search.search_exact_size":
            m["search.calls"] += 1
            m["search.busy_s"] += dur
            if parent is not None and spans[parent][0] == "solver.min_edge_code":
                m["solver.sizes_tried"] += 1
            if info is None or "nodes" not in info:
                continue
            m["search.nodes"] += info["nodes"]
            if info["found"]:
                m["search.found"] += 1
                m["useful_nodes"] += info["nodes"]
            elif info["exhausted"]:
                m["search.exhausted"] += 1
            else:
                m["search.refuted"] += 1
                m["useful_nodes"] += info["nodes"]
        elif name == "solver.min_edge_code":
            m["solver.self_s"] += selfs[i]
            if info and info.get("size") is not None and info.get("bound") is not None:
                m["bounds.start_gap"] += info["size"] - info["bound"]
        elif name.startswith("families.") and (
            parent is None or not spans[parent][0].startswith("families.")
        ):
            m["families.build_s"] += dur
        elif name == "cli.import":
            imports.append(dur)
        elif name == "cli.call":
            # the call's children are the child's import and main spans
            m["cli.process_overhead_s"] += selfs[i]
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    nodes = m["search.nodes"]
    busy = m["search.busy_s"]
    m["search.ns_per_node"] = busy / nodes * 1e9 if nodes else 0.0
    m["search.useful_node_ratio"] = m.pop("useful_nodes") / nodes if nodes else 0.0
    return m


def median_metrics(per_pass):
    """Median of each metric over a list of per-pass metric dicts."""
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}

"""In-memory span tracer for the plgee layers, and the per-layer metrics
computed from its spans.

The tracer wraps every public function of the six layer modules (plus the
few private ones a per-layer metric needs) from outside the package: each
wrapper is patched into every loaded `plgee` module that holds the
function, so calls through `from .x import f` bindings are traced too.
Spans stay in memory until `write` is called at the end of the run.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import namedtuple

LAYERS = ("cli", "model", "matkernel", "estimator", "diagnostics", "simulator")

# Private functions traced as well, because a per-layer metric needs their
# boundary: the JSON writer and one Monte Carlo replicate.
PRIVATE_TRACED = {"cli": ("_write_json",), "simulator": ("_run_replicate",)}

# Per-function tag, taken from (args, result): the work one call did.
TAGS = {
    "cli.parse_dataset_csv": lambda args, res: res.n * res.m,
    "estimator.gee_independence_fit": lambda args, res: res.iterations,
    "estimator.pseudo_likelihood_fit": lambda args, res: res.iterations,
    "diagnostics.design_diagnostics": lambda args, res: res.n_used,
    "simulator._run_replicate": lambda args, res: [args[1], bool(res["ok"])],
}

Span = namedtuple("Span", "name start end parent tag")


class Tracer:
    """Records (name, start, end, parent, tag) for each traced call."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index, tag]
        self._stack = []
        self._patched = []       # (module, attribute, original function)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag_of = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and spans[parent][0] == name:
                return fn(*args, **kwargs)   # recursion: one span per outer call
            span = [name, clock(), None, parent, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag_of is not None:
                span[4] = tag_of(args, result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"plgee.{layer}")
            extra = PRIVATE_TRACED.get(layer, ())
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "plgee" and not mod_name.startswith("plgee."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return [Span(r["name"], r["start"], r["end"], r["parent"], r["tag"]) for r in rows]


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def _has_ancestor(spans, i, names):
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans):
    """Per-layer metrics of one traced `cli.main` call, by metric name."""
    self_t = self_times(spans)
    idx = {}
    for i, s in enumerate(spans):
        idx.setdefault(s.name, []).append(i)

    def ids(name):
        return idx.get(name, [])

    def total(name):
        return sum(spans[i].end - spans[i].start for i in ids(name))

    def calls(name):
        return len(ids(name))

    def tag_sum(name):
        return sum(spans[i].tag for i in ids(name))

    def calls_under(name, ancestors):
        return sum(_has_ancestor(spans, i, ancestors) for i in ids(name))

    def layer_self(layer):
        return sum(t for s, t in zip(spans, self_t) if s.name.split(".")[0] == layer)

    fits = ("estimator.gee_independence_fit", "estimator.pseudo_likelihood_fit")
    fit_iterations = sum(tag_sum(f) for f in fits)
    subjects = tag_sum("diagnostics.design_diagnostics")
    replicates = [spans[i].tag for i in ids("simulator._run_replicate")]
    distinct = {r for r, _ in replicates}
    failed = {r for r, ok in replicates if not ok}
    per_rep = max(len(distinct), 1)
    rep_durations = [spans[i].end - spans[i].start for i in ids("simulator._run_replicate")]
    commands = [n for n in idx if n.startswith("cli.cmd_")]

    return {
        "cli.parse_csv_s": total("cli.parse_dataset_csv"),
        "cli.rows_parsed": tag_sum("cli.parse_dataset_csv"),
        # JSON text plus the command bodies' own time, which on simulate
        # is the replicates-CSV writer
        "cli.write_out_s": total("cli._write_json")
        + sum(self_t[i] for n in commands for i in ids(n)),
        "cli.self_s": layer_self("cli"),
        "model.eval_model_calls": calls("model.eval_model"),
        "model.eval_model_s": total("model.eval_model"),
        "model.gauss_quantile_s": total("model.gauss_quantile_array"),
        "model.self_s": layer_self("model"),
        "matkernel.sym_eigen_calls": calls("matkernel.sym_eigen"),
        "matkernel.sym_eigen_s": total("matkernel.sym_eigen"),
        "matkernel.solve_spd_calls": calls("matkernel.solve_spd"),
        "matkernel.spd_inverse_calls": calls("matkernel.spd_inverse"),
        "matkernel.self_s": layer_self("matkernel"),
        "estimator.indep_fit_s": total("estimator.gee_independence_fit"),
        "estimator.correlation_s": total("estimator.estimate_correlation"),
        "estimator.pl_fit_s": total("estimator.pseudo_likelihood_fit"),
        "estimator.pl_fit_self_s": sum(self_t[i] for i in ids("estimator.pseudo_likelihood_fit")),
        "estimator.sandwich_s": total("estimator.sandwich_covariance"),
        "estimator.indep_iterations": tag_sum("estimator.gee_independence_fit"),
        "estimator.pl_iterations": tag_sum("estimator.pseudo_likelihood_fit"),
        "estimator.model_evals_per_iteration":
            calls_under("model.eval_model", fits) / max(fit_iterations, 1),
        "estimator.self_s": layer_self("estimator"),
        "diagnostics.design_diagnostics_calls": calls("diagnostics.design_diagnostics"),
        "diagnostics.self_s": layer_self("diagnostics"),
        "diagnostics.trend_report_s": total("diagnostics.condition_trend_report"),
        "diagnostics.eig_calls_per_subject":
            calls_under("matkernel.sym_eigen", ("diagnostics.design_diagnostics",))
            / max(subjects, 1),
        "simulator.generate_s": total("simulator.generate_dataset"),
        "simulator.replicate_s_median": statistics.median(rep_durations) if rep_durations else 0.0,
        "simulator.indep_fits_per_replicate":
            calls_under("estimator.gee_independence_fit", ("simulator._run_replicate",)) / per_rep,
        "simulator.runs_per_replicate": len(replicates) / per_rep,
        "simulator.failed_replicates": len(failed),
        "simulator.self_s": layer_self("simulator"),
        "trace.spans": len(spans),
    }

"""Layered benchmark of `plgee fit`, `plgee diagnose` and `plgee simulate`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client in one process, closed loop: each sample is a fresh interpreter
(`child.py`) that imports `plgee.cli` and calls `plgee.cli.main(argv)` once,
with `--workers 1` and at most two BLAS threads.  Samples are taken until
`--seconds` of sample time is spent, and never fewer than MIN_SAMPLES.
Every sample's output bytes must hash the same (the CLI's byte-identical
rerun guarantee), and the first payload of each hash is checked by the
numpy oracles in `oracles.py`.

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
and traced samples and prints the per-layer metrics from the traced ones.
The bounded times are in units of the fixed work in `reference.py`, timed
in the same process, because the host's own speed drifts; `setup_s` is
rescaled to a host where that work takes `reference.NOMINAL_S`.  The raw
seconds are printed beside them and kept in the record.
The last stdout line is the JSON result; the lines before it are the run
record (host, settings, samples) and a table of the metrics with units.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import inputs
import oracles
import spans
from reference import NOMINAL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"

MIN_SAMPLES = 3          # timed CLI calls per run, at least
TRACE_MIN_SAMPLES = 4    # with --trace 1: alternately untraced and traced
SETUP_SAMPLES = 7        # import timings per run, at least
RUN_DEADLINE_S = 160.0   # a run stops starting samples after this long
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_ref": "ref", "throughput_ref": "items/ref",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name):
    if name.endswith("_s") or name.endswith("_s_median"):
        return "s"
    if "_per_" in name:
        return "ratio"
    return "count"


class Prepared(NamedTuple):
    argv: list               # plgee CLI arguments of one call
    items: int               # rows (fit, diagnose) or replicates (simulate) per call
    outputs: list            # files the call writes; their bytes are the payload
    check: Callable          # () -> oracle problems, read from `outputs`
    input_sha256: str


def prepare_fit_large(seed, work):
    shape = inputs.FIT_LARGE
    path, X, y, digest = inputs.dataset_csv("fit_large", shape, seed)
    out = work / "fit.json"
    return Prepared(
        ["fit", "--data", str(path), "--link", shape.family, "--out", str(out)],
        shape.n * shape.m, [out],
        lambda: oracles.check_fit(X, y, shape.family, shape.beta0,
                                  json.loads(out.read_text(encoding="utf-8"))),
        digest)


def prepare_diagnose_trend(seed, work):
    shape, grid = inputs.DIAGNOSE_TREND, inputs.DIAGNOSE_GRID
    path, X, y, digest = inputs.dataset_csv("diagnose_trend", shape, seed)
    out = work / "diagnose.json"
    return Prepared(
        ["diagnose", "--data", str(path), "--link", shape.family,
         "--grid", ",".join(str(n) for n in grid), "--out", str(out)],
        shape.n * shape.m, [out],
        lambda: oracles.check_diagnose(X, y, shape.family, grid,
                                       json.loads(out.read_text(encoding="utf-8"))),
        digest)


def prepare_mc_small(seed, work):
    path, config = inputs.simulate_config(seed)
    out, reps = work / "simulate.json", work / "replicates.csv"
    return Prepared(
        ["simulate", "--config", str(path), "--workers", "1",
         "--replicates-csv", str(reps), "--out", str(out)],
        config["replications"], [out, reps],
        lambda: oracles.check_simulate(config,
                                       json.loads(out.read_text(encoding="utf-8")),
                                       reps.read_text(encoding="utf-8")),
        hashlib.sha256(path.read_bytes()).hexdigest())


WORKLOADS = {
    "fit_large": prepare_fit_large,
    "diagnose_trend": prepare_diagnose_trend,
    "mc_small": prepare_mc_small,
}


def child_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    # the warm-up import writes plgee's .pyc files, as an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, spans_path, run_id, deadline):
    """One fresh interpreter; returns its JSON line plus `elapsed_s`, or an
    `error` entry."""
    cmd = [sys.executable, str(CHILD), str(SRC), run_id, spans_path or "-", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "child timed out", "elapsed_s": time.perf_counter() - start}
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"child exited {proc.returncode}: {tail[0]}", "elapsed_s": elapsed}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def payload_sha256(files):
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.read_bytes())
    return digest.hexdigest()


class Run:
    """Samples of one workload at one seed, with their verdicts."""

    def __init__(self, name, prep, work, seed):
        self.name, self.prep, self.work, self.seed = name, prep, work, seed
        self.samples = []
        self.setup_times = []        # (import seconds, reference seconds)
        self.layer_samples = []
        self._reference = None
        self._verdicts = {}          # payload sha256 -> oracle problems

    def _oracle(self, digest):
        if digest not in self._verdicts:
            try:
                self._verdicts[digest] = self.prep.check()
            except Exception:
                self._verdicts[digest] = ["oracle raised: "
                                          + traceback.format_exc().strip().splitlines()[-1]]
        return self._verdicts[digest]

    def sample(self, traced, deadline):
        for f in self.prep.outputs:
            f.unlink(missing_ok=True)
        index = len(self.samples)
        spans_path = self.work / "spans.jsonl" if traced else None
        res = run_child(self.prep.argv, spans_path and str(spans_path),
                        f"{self.name}-seed{self.seed}-{index}", deadline)
        res.update(traced=traced, problems=[])
        if "error" in res:
            res["problems"].append(res.pop("error"))
        else:
            self.setup_times.append((res["setup_s"], res["ref_s"]))
            if res["exit"] != 0:
                res["problems"].append(f"plgee exited {res['exit']}")
            elif not all(f.exists() for f in self.prep.outputs):
                res["problems"].append("plgee wrote no output")
            else:
                res["sha256"] = payload_sha256(self.prep.outputs)
                if self._reference is None:
                    self._reference = res["sha256"]
                elif res["sha256"] != self._reference:
                    res["problems"].append("payload differs from the run's first sample")
                res["problems"] += self._oracle(res["sha256"])
            if traced and not res["problems"]:
                self.layer_samples.append(spans.layer_metrics(spans.read_spans(spans_path)))
        self.samples.append(res)
        return res

    def measure(self, seconds, trace, deadline):
        spent = 0.0
        while time.monotonic() < deadline:
            last = self.samples[-1]["elapsed_s"] if self.samples else 0.0
            minimum = TRACE_MIN_SAMPLES if trace else MIN_SAMPLES
            if len(self.samples) >= minimum and spent + last > seconds:
                break
            res = self.sample(trace and len(self.samples) % 2 == 1, deadline)
            spent += res["elapsed_s"]
            if "setup_s" not in res:
                break                # the child itself failed; later ones would too
        while len(self.setup_times) < SETUP_SAMPLES and time.monotonic() < deadline:
            res = run_child([], None, f"{self.name}-import", deadline)
            if "setup_s" not in res:
                break
            self.setup_times.append((res["setup_s"], res["ref_s"]))

    @property
    def failed(self):
        return sum(bool(s["problems"]) for s in self.samples)

    def timed_samples(self):
        return [s for s in self.samples if not s["traced"] and "wall_s" in s]

    def end_to_end(self):
        timed = self.timed_samples()
        if not timed or not self.setup_times:
            return {}
        items = self.prep.items
        return {
            "wall_ref": statistics.median(s["wall_s"] / s["ref_s"] for s in timed),
            "throughput_ref": statistics.median(items * s["ref_s"] / s["wall_s"] for s in timed),
            "peak_rss_mb": statistics.median(s["maxrss_kb"] for s in timed) / 1024.0,
            "setup_s": NOMINAL_S * statistics.median(t / ref for t, ref in self.setup_times),
        }

    def raw_times(self):
        """Unnormalised medians, printed for people; not bounded."""
        timed = self.timed_samples()
        if not timed or not self.setup_times:
            return {}
        return {
            "wall_s": statistics.median(s["wall_s"] for s in timed),
            "throughput": statistics.median(self.prep.items / s["wall_s"] for s in timed),
            "ref_s": statistics.median(s["ref_s"] for s in timed),
            "import_s": statistics.median(t for t, _ in self.setup_times),
        }

    def per_layer(self):
        if not self.layer_samples:
            return {}
        out = {k: statistics.median(m[k] for m in self.layer_samples)
               for k in self.layer_samples[0]}
        plain = [s["wall_s"] for s in self.timed_samples()]
        traced = [s["wall_s"] for s in self.samples if s["traced"] and "wall_s" in s]
        out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return out


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def host_record(seed):
    import numpy
    import scipy
    digest = hashlib.sha256()
    for f in sorted((SRC / "plgee").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace):
    """Prepare inputs (untimed), measure, print record and table; return the
    result object."""
    started = time.monotonic()
    work = inputs.cache_dir() / f"work-{name}"
    work.mkdir(exist_ok=True)
    prep = WORKLOADS[name](seed, work)
    run = Run(name, prep, work, seed)
    deadline = started + RUN_DEADLINE_S
    warm = run_child([], None, f"{name}-warmup", deadline)   # writes .pyc files
    if "error" in warm:
        run.samples.append({"problems": [warm["error"]], "traced": False, "elapsed_s": 0.0})
    else:
        run.measure(seconds, trace, deadline)

    metrics = run.per_layer() if trace else run.end_to_end()
    units = {k: layer_unit(k) for k in metrics} if trace else END_TO_END_UNITS
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host_record(seed), "input_sha256": prep.input_sha256,
              "argv": prep.argv, "items_per_call": prep.items,
              "setup_times": run.setup_times, "samples": run.samples}
    print("record " + json.dumps(record, sort_keys=True))
    attempted = max(len(run.samples), 1)
    for s in run.samples:
        for problem in s["problems"]:
            print(f"{name}: FAILED sample: {problem}")
    counted = len(run.layer_samples) if trace else len(run.timed_samples())
    for key, value in metrics.items():
        print(f"{name:15s} {key:40s} {value:14.6g} {units[key]:9s} "
              f"(median of {counted} {'traced' if trace else 'timed'} samples)")
    if not trace:
        raw_units = {"wall_s": "s", "throughput": "items/s", "ref_s": "s", "import_s": "s"}
        for key, value in run.raw_times().items():
            print(f"{name:15s} {key:40s} {value:14.6g} {raw_units[key]:9s} "
                  f"(median of {counted} timed samples; raw, not bounded)")
    print(f"{name:15s} {'failed_frac':40s} {run.failed / attempted:14.6g} "
          f"{'ratio':9s} ({run.failed} of {attempted} samples)")
    return {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plgee" / "cli.py").is_file():
        sys.stderr.write(f"plgee sources not found under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

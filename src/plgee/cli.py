"""Command-line front end: CSV ingestion, fitting, diagnostics, simulation.

All outputs are JSON with sorted keys and floats printed to 17 significant
digits, so byte-identical reruns are the norm and round-tripping is exact.
Exit codes: 0 success, 1 error, 2 completed-with-warnings (non-convergence
or too many failed replicates).
"""

import argparse
import array
import csv
import itertools
import json
import operator
import sys

import numpy as np

from .diagnostics import (
    condition_trend_report,
    example1_closed_form,
    trend_flags,
)
from .errors import ConfigError, PlgeeError, SchemaError, ShapeError
from .estimator import (
    METHOD_INDEPENDENCE,
    gee_independence_fit,
    two_step_fit,
    wald_intervals,
)
from .model import LINK_KINDS, LinkFamily, LongitudinalDataset
from .simulator import (
    SimConfig,
    mix_seed,
    replicate_rows,
    run_replicates,
    summarize_replicates,
)

MAX_FAILURE_FRACTION = 0.02


# ---------------------------------------------------------------------------
# stable JSON
# ---------------------------------------------------------------------------

def _format_float(x):
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def dumps_stable(obj):
    """JSON text with sorted keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps_stable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_stable(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + dumps_stable(v)
                              for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_json(payload, out_path):
    text = dumps_stable(payload) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_error(exc):
    kind = getattr(exc, "kind", "error")
    sys.stderr.write(dumps_stable({"error": kind, "detail": str(exc)}) + "\n")


# ---------------------------------------------------------------------------
# CSV dataset interface
# ---------------------------------------------------------------------------

# Records read and converted per block.  One block of cell strings (about
# 0.8 kB a record at p=8) is alive at a time; larger blocks parse no faster.
CSV_BLOCK_RECORDS = 512

_TIME_CELL = operator.itemgetter(1)
_NUMBER_CELLS = operator.itemgetter(slice(2, None))   # y, x1..xp


def _to_array(convert, cells, dtype):
    """np.fromiter(map(convert, cells)), None.  When `convert` or the dtype's
    range rejects a cell, returns the converted cells before the first such
    cell and (its index, the error)."""
    try:
        return np.fromiter(map(convert, cells), dtype, len(cells)), None
    except (ValueError, OverflowError):
        for k, cell in enumerate(cells):
            try:
                np.fromiter((convert(cell),), dtype, 1)
            except (ValueError, OverflowError) as exc:
                return np.fromiter(map(convert, cells[:k]), dtype, k), (k, exc)
        raise


def _convert_records(rows, numbers, width):
    """Field-count and numeric checks of non-blank records, in file order.

    Returns (k, times, values, error): the first k records passed and are
    converted (times (k,), values (k * (width - 2),) row-major); error is
    the message for record k, or None when every record passed.
    """
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    wrong = np.flatnonzero(lens != width)
    k = int(wrong[0]) if wrong.size else len(rows)
    failures = []                       # (record index, rank in record, message)
    if wrong.size:
        failures.append((k, 0, f"row {numbers[k]} has {lens[k]} fields, expected {width}"))
    times, bad_time = _to_array(int, list(map(_TIME_CELL, rows[:k])), np.int64)
    values, bad_value = _to_array(
        float, list(itertools.chain.from_iterable(map(_NUMBER_CELLS, rows[:k]))), float)
    for rank, bad, per_record in ((1, bad_time, 1), (2, bad_value, width - 2)):
        if bad is not None:
            r = bad[0] // per_record
            failures.append((r, rank, f"non-numeric cell at row {numbers[r]}: {bad[1]}"))
    if not failures:
        return k, times, values, None
    k, _, error = min(failures)
    return k, times[:k], values[:k * (width - 2)], error


def _first_duplicate(subject, time):
    """Position of the first record whose (subject, time) occurred before, or None."""
    order = np.lexsort((time, subject))     # stable: equal keys stay in file order
    s, t = subject[order], time[order]
    repeats = order[1:][(s[1:] == s[:-1]) & (t[1:] == t[:-1])]
    return int(repeats.min()) if repeats.size else None


def parse_dataset_csv(path):
    """Long-format CSV `subject,time,y,x1,...,xp` -> LongitudinalDataset.

    Subjects are ordered by first appearance (the filtration order); every
    subject must contribute exactly the same set of time indices 1..m.

    Cell grammar: the `csv` module splits records, so quoted cells and
    CRLF endings parse, and a blank line is a record with no data.  Subject
    ids are stripped of surrounding whitespace.  `time` is read by Python's
    `int`, `y` and x1..xp by Python's `float`; a time outside the signed
    64-bit range is reported as a non-numeric cell.

    Error order: the first offending record wins, and its message names its
    record number (the header is record 1).  Within a record the checks run
    in this order: field count, then numeric (time, y, x1..xp), then
    duplicate (subject, time).  The subject-level checks run last, in
    first-appearance order: each subject needs as many rows as the first
    subject, m, and then time values 1..m.

    The file is read in blocks of CSV_BLOCK_RECORDS records, each converted
    to numpy at once; one scatter places the rows into C-contiguous X and y.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty CSV file") from None
        header = [h.strip() for h in header]
        if header[:3] != ["subject", "time", "y"]:
            raise SchemaError(
                f"header must start with subject,time,y got {header[:3]}"
            )
        xcols = header[3:]
        expected = [f"x{k + 1}" for k in range(len(xcols))]
        if not xcols or xcols != expected:
            raise SchemaError(f"covariate columns must be x1..xp, got {xcols}")
        p = len(xcols)

        index = {}                 # subject -> first-appearance index
        # accepted records in file order; an array.array grows in place, so
        # no concatenation of per-block parts doubles the memory at the end
        subject, time, values = array.array("q"), array.array("q"), array.array("d")
        first, error = 2, None     # record number of the block's first record
        while error is None:
            block = list(itertools.islice(reader, CSV_BLOCK_RECORDS))
            if not block:
                break
            numbers = range(first, first + len(block))
            first += len(block)
            if not all(block):
                numbers = [n for n, row in zip(numbers, block) if row]
                block = [row for row in block if row]
            k, t, v, error = _convert_records(block, numbers, 3 + p)
            subject.extend(index.setdefault(row[0].strip(), len(index))
                           for row in block[:k])
            time.frombytes(t.tobytes())
            values.frombytes(v.tobytes())

    subject, time = np.frombuffer(subject, np.int64), np.frombuffer(time, np.int64)
    names = list(index)
    dup = _first_duplicate(subject, time)
    if dup is not None:
        raise SchemaError(f"duplicate (subject,time) = ({names[subject[dup]]},{time[dup]})")
    if error is not None:
        raise SchemaError(error)
    if not names:
        raise SchemaError("CSV contains no data rows")
    n = len(names)
    counts = np.bincount(subject, minlength=n)
    m = int(counts[0])
    off_grid = (time < 1) | (time > m)
    bad = (counts != m) | (np.bincount(subject[off_grid], minlength=n) > 0)
    if bad.any():
        s = int(np.argmax(bad))
        if counts[s] != m:
            raise SchemaError(f"subject {names[s]} has {counts[s]} rows, expected {m}")
        raise SchemaError(f"subject {names[s]} must have time values 1..{m}, "
                          f"got {sorted(time[subject == s].tolist())}")
    cells = subject * m + (time - 1)
    values = np.frombuffer(values, float).reshape(-1, 1 + p)
    X = np.empty((n * m, p))
    y = np.empty(n * m)
    X[cells] = values[:, 1:]
    y[cells] = values[:, 0]
    return LongitudinalDataset(X.reshape(n, m, p), y.reshape(n, m))


def write_dataset_csv(data, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "time", "y"] + [f"x{k + 1}" for k in range(data.p)])
        for i in range(data.n):
            for j in range(data.m):
                writer.writerow(
                    [str(i + 1), str(j + 1), _format_float(float(data.y[i, j]))]
                    + [_format_float(float(v)) for v in data.X[i, j]]
                )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_dataset(args):
    data = parse_dataset_csv(args.data)
    if getattr(args, "shuffle_subjects", None) is not None:
        rng = np.random.Generator(np.random.PCG64(mix_seed(args.shuffle_subjects, 0)))
        data = data.permuted(rng.permutation(data.n))
    return data


def cmd_fit(args):
    data = _load_dataset(args)
    family = LinkFamily(args.link)
    if args.method == "two-step":
        fit = two_step_fit(data, family)
        R_tilde = (fit.correlation_used.R_tilde.a.tolist()
                   if fit.correlation_used is not None else None)
    else:
        fit = gee_independence_fit(data, family)
        R_tilde = None
    stderr = np.sqrt(np.maximum(np.diag(fit.cov_beta.a), 0.0))
    payload = {
        "beta_hat": fit.beta_hat.tolist(),
        "cov_beta": fit.cov_beta.a.tolist(),
        "stderr": stderr.tolist(),
        "wald_ci": [list(ci) for ci in wald_intervals(fit, level=args.ci_level)],
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "final_gnorm": float(fit.final_gnorm),
        "method": fit.method,
        "R_tilde": R_tilde,
        "fallback_flag": bool(fit.fallback_to_independence),
    }
    _write_json(payload, args.out)
    return 0 if fit.converged else 2


def _parse_list(text, convert, flag):
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError as exc:
        raise SchemaError(f"{flag} must be comma-separated numbers: {exc}") from exc


def cmd_diagnose(args):
    data = _load_dataset(args)
    family = LinkFamily(args.link)
    if args.beta is not None:
        beta = np.asarray(_parse_list(args.beta, float, "--beta"), dtype=float)
        if beta.shape != (data.p,):
            raise SchemaError(f"--beta must have {data.p} comma-separated values")
    else:
        beta = gee_independence_fit(data, family).beta_hat
    grid = _parse_list(args.grid, int, "--grid") if args.grid else [data.n]
    # the full-n report is the trend's last row, computed once
    full_grid = grid if grid[-1] == data.n else grid + [data.n]
    reports = condition_trend_report(data, family, beta, R=None, n_grid=full_grid)
    report, trend = reports[-1], reports[:len(grid)]
    payload = {"report": report.to_json(), "beta": beta.tolist()}
    try:
        payload["example1"] = example1_closed_form(data, family, beta)
    except ShapeError:
        payload["example1"] = None
    payload["trend"] = [r.to_json() for r in trend]
    payload["trend_flags"] = trend_flags(trend, det_floor=args.det_floor)
    _write_json(payload, args.out)
    return 0


def cmd_simulate(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    config = SimConfig.from_json(doc)
    results = run_replicates(config, workers=args.workers)
    report = summarize_replicates(config, results)
    _write_json(report.to_json(), args.out)
    if args.replicates_csv:
        rows = replicate_rows(results)
        with open(args.replicates_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            cols = (["rep", "converged"]
                    + [f"beta{k + 1}" for k in range(config.p)]
                    + [f"z{k + 1}" for k in range(config.p)]
                    + [f"covered{k + 1}" for k in range(config.p)])
            writer.writerow(cols)
            for row in rows:
                if row["converged"]:
                    writer.writerow([row["rep"], 1]
                                    + [_format_float(v) for v in row["beta_hat"]]
                                    + [_format_float(v) for v in row["z"]]
                                    + [int(c) for c in row["covered"]])
                else:
                    writer.writerow([row["rep"], 0] + [""] * (3 * config.p))
    frac_failed = report.n_failures / report.replications
    return 0 if frac_failed <= MAX_FAILURE_FRACTION else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plgee",
        description="Two-step pseudo-likelihood GEE fitting, diagnostics, "
                    "and Monte Carlo simulation for longitudinal data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fit = sub.add_parser("fit", help="fit a marginal model from a long-format CSV")
    fit.add_argument("--data", required=True, help="input CSV path")
    fit.add_argument("--link", required=True, choices=LINK_KINDS)
    fit.add_argument("--method", default="two-step",
                     choices=[METHOD_INDEPENDENCE, "two-step"])
    fit.add_argument("--ci-level", type=float, default=0.95, dest="ci_level")
    fit.add_argument("--out", default="-", help="output JSON path (default stdout)")
    fit.add_argument("--shuffle-subjects", type=int, default=None,
                     dest="shuffle_subjects",
                     help="permute subject order with this seed (sensitivity check)")
    fit.set_defaults(func=cmd_fit)

    diag = sub.add_parser("diagnose", help="regularity diagnostics at a beta")
    diag.add_argument("--data", required=True)
    diag.add_argument("--link", required=True, choices=LINK_KINDS)
    diag.add_argument("--beta", default=None,
                      help="comma-separated beta; omitted -> preliminary "
                           "independence fit")
    diag.add_argument("--grid", default=None,
                      help="comma-separated subject-prefix sizes for the trend table")
    diag.add_argument("--det-floor", type=float, default=1e-6, dest="det_floor")
    diag.add_argument("--out", default="-")
    diag.add_argument("--shuffle-subjects", type=int, default=None,
                      dest="shuffle_subjects")
    diag.set_defaults(func=cmd_diagnose)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo run from a JSON config")
    sim.add_argument("--config", required=True, help="SimConfig JSON path")
    sim.add_argument("--out", default="-")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--replicates-csv", default=None, dest="replicates_csv",
                     help="optional per-replicate CSV dump")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlgeeError as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:
        sys.stderr.write(dumps_stable({"error": "io", "detail": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

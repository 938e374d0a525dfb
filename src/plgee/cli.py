"""Command-line front end: CSV ingestion, fitting, diagnostics, simulation.

All outputs are strict JSON with sorted keys and 17-significant-digit floats
(null for NaN or infinity), so reruns are byte-identical and round-trip exactly.
Exit codes: 0 success, 1 error, 2 completed-with-warnings.  The warnings are
the causes the results carry (FitResult.causes, SimConfig.causes and
MCReport.causes, or a preliminary fit of `diagnose` that did not converge),
each written as one JSON warning line on stderr.
"""

import argparse
import array
import csv
import io
import json
import locale  # noqa: F401  (argparse loads it through gettext when build_parser runs)
import math
import sys
import warnings

import numpy as np

from .diagnostics import (
    DEFAULT_DET_FLOOR,
    _check_grid,
    condition_trend_report,
    example1_closed_form,
    trend_flags,
)
from .errors import ConfigError, PlgeeError, SchemaError
from .estimator import (
    METHOD_INDEPENDENCE,
    gee_independence_fit,
    two_step_fit,
    wald_intervals,
)
from .model import LINK_KINDS, LinkFamily, LongitudinalDataset
from .simulator import (
    SimConfig,
    _rng,
    mix_seed,
    run_replicates,
    summarize_replicates,
)


# ---------------------------------------------------------------------------
# stable JSON
# ---------------------------------------------------------------------------

def dumps_stable(obj):
    """Strict JSON: sorted keys, 17-significant-digit floats, null for NaN and infinities."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return dumps_stable(float(obj))
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


def _write_notice(level, kind, detail):
    """One JSON line on stderr: {"error"|"warning": kind, "detail": detail}."""
    sys.stderr.write(dumps_stable({level: kind, "detail": detail}) + "\n")


def _warn(causes):
    """One warning line per (kind, detail) cause; the exit code, 2 if any."""
    for kind, detail in causes:
        _write_notice("warning", kind, detail)
    return 2 if causes else 0


# ---------------------------------------------------------------------------
# CSV dataset interface
# ---------------------------------------------------------------------------

# Bytes read per chunk by the fast pass, each chunk completed to a whole
# line.  Larger chunks parse no faster and leave a larger heap behind: with
# 256 kB chunks the peak RSS of `plgee fit` on 200k rows was 2 MB higher.
CSV_CHUNK_BYTES = 1 << 15

# Printable ASCII except the quote, and "\n", as which "\r\n" is read.  csv.reader,
# str.splitlines and loadtxt split text of these bytes alike, at each "\n" and ",".
_PLAIN = bytes(b for b in range(0x20, 0x7f) if b != ord('"')) + b"\n"


def _first_duplicate(subject, time):
    """Position of the first record whose (subject, time) occurred before, or None."""
    order = np.lexsort((time, subject))     # stable: equal keys stay in file order
    s, t = subject[order], time[order]
    repeats = order[1:][(s[1:] == s[:-1]) & (t[1:] == t[:-1])]
    return int(repeats.min()) if repeats.size else None


def _covariate_count(header):
    """p of a header `subject,time,y,x1,...,xp` (cells stripped), else SchemaError."""
    header = [h.strip() for h in header]
    if header[:3] != ["subject", "time", "y"]:
        raise SchemaError(f"header must start with subject,time,y got {header[:3]}")
    xcols = header[3:]
    if not xcols or xcols != [f"x{k + 1}" for k in range(len(xcols))]:
        raise SchemaError(f"covariate columns must be x1..xp, got {xcols}")
    return len(xcols)


class _Records:
    """Accepted records in file order, and the checks and scatter that turn
    them into a dataset.  Both parsers fill it; an array.array grows in
    place, so no concatenation of per-chunk parts doubles the memory."""

    def __init__(self, p):
        self.p = p
        self.index = {}            # stripped subject id -> first-appearance index
        self.subject, self.time = array.array("q"), array.array("q")
        self.y, self.x = array.array("d"), array.array("d")     # y; x1..xp per record

    def extend(self, ids, times, values):
        """Append records: a nonempty object array of raw subject ids, an
        int64 array of times and a float array of rows y, x1..xp.

        A subject's records usually come together, so ids are indexed once
        per run of equal raw ids: only a run's first id is stripped and
        looked up, in file order, which gives the indices of a per-record
        lookup, and its index is repeated over the run."""
        first = np.empty(len(ids), bool)       # does a run start at this record?
        first[0] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts, index = np.flatnonzero(first), self.index
        runs = np.array([index.setdefault(s.strip(), len(index)) for s in ids[starts]], np.int64)
        # repeated by run lengths: a gather through np.cumsum(first) is as fast,
        # but pages in 128 kB of numpy code that no other step of a run uses
        self.subject.frombytes(runs.repeat(np.diff(starts, append=len(ids))).tobytes())
        self.time.frombytes(times.tobytes())
        self.y.frombytes(values[:, 0].tobytes())
        self.x.frombytes(values[:, 1:].tobytes())

    def append(self, subject, time, values):
        """Append one record: subject id, time (an int64-range int), y, x1..xp."""
        self.subject.append(self.index.setdefault(subject.strip(), len(self.index)))
        self.time.append(time)
        self.y.append(values[0])
        self.x.extend(values[1:])

    def dataset(self, error):
        """The dataset, after the checks that follow the record loop: a
        duplicate (subject, time) among the accepted records, then `error`
        (the message for the first rejected record, or None), then the
        subject-level checks.  Records in cell order (strictly increasing in
        subject index and time, so once the checks pass, record k is cell k)
        make X and y views of the buffers; any other order takes one gather
        into C-contiguous X and y."""
        subject, time = np.frombuffer(self.subject, np.int64), np.frombuffer(self.time, np.int64)
        names = list(self.index)
        s0, s1, t0, t1 = subject[:-1], subject[1:], time[:-1], time[1:]     # views
        ordered = bool(np.all((s1 > s0) | ((s1 == s0) & (t1 > t0))))      # so no repeats
        dup = None if ordered else _first_duplicate(subject, time)
        if dup is not None:
            raise SchemaError(f"duplicate (subject,time) = ({names[subject[dup]]},{time[dup]})")
        if error is not None:
            raise SchemaError(error)
        if not names:
            raise SchemaError("CSV contains no data rows")
        n, p = len(names), self.p
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
        X, y = np.frombuffer(self.x, float).reshape(-1, p), np.frombuffer(self.y, float)
        if not ordered:     # gather the records in cell order
            order = np.empty_like(subject)
            order[subject * m + (time - 1)] = np.arange(len(order))
            X, y = X[order], y[order]
        return LongitudinalDataset(X.reshape(n, m, p), y.reshape(n, m))


def _not_utf8(cells, row):
    """The error for record `row` if a cell holds a byte that is not UTF-8, else
    None (surrogateescape decodes such a byte b to U+DC00+b, which won't encode)."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"row {row} is not valid UTF-8: byte 0x{ord(exc.object[exc.start]) - 0xdc00:02x}"
    return None


def _parse_exact(fh):
    """(records, error) of a text stream, one csv.reader record at a time: it
    defines the cell grammar and the error for the first rejected record."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty CSV file") from None
    except csv.Error as exc:
        raise SchemaError(f"row 1 is not valid CSV: {exc}") from None
    if error := _not_utf8(header, 1):
        raise SchemaError(error)
    records = _Records(_covariate_count(header))
    width, row = 3 + records.p, 1
    try:
        for row, cells in enumerate(reader, 2):
            if not cells:
                continue
            if error := _not_utf8(cells, row):
                return records, error
            if len(cells) != width:
                return records, f"row {row} has {len(cells)} fields, expected {width}"
            try:
                time = int(cells[1])
                if time.bit_length() > 63:      # outside int64, or exactly -2**63
                    np.int64(time)              # raises the pinned OverflowError
                records.append(cells[0], time, list(map(float, cells[2:])))
            except (ValueError, OverflowError) as exc:
                return records, f"non-numeric cell at row {row}: {exc}"
    except csv.Error as exc:        # in the record after the last one read
        return records, f"row {row + 1} is not valid CSV: {exc}"
    return records, None


def _parse_fast(fh):
    """Records of a plain binary stream, tokenized and converted by
    np.loadtxt one chunk at a time; None when the exact parser must read it.

    It reads "\\r\\n" as "\\n" and declines a file with another byte outside
    _PLAIN, a blank header line, a line longer than csv's field limit, or a
    chunk loadtxt rejects or warns about.  numpy's int64 and float parsing
    accepts a subset of Python's int/float grammar and gives the same
    values on it, so an accepted file gives the exact parser's records.
    Two per-chunk steps run only where they can change the outcome: the
    "\\r\\n" replace in a chunk that holds a "\\r", and the line-length scan
    in a chunk longer than the field limit.
    """
    limit = csv.field_size_limit()
    line = fh.readline().replace(b"\r\n", b"\n")
    if line.translate(None, _PLAIN) or not line.rstrip(b"\n") or len(line) > limit:
        return None
    records = _Records(_covariate_count(line.decode("ascii").rstrip("\n").split(",")))
    dtype = [("s", object), ("t", np.int64), ("v", float, (1 + records.p,))]
    with warnings.catch_warnings():
        # a warning declines the file: loadtxt's "input contained no data"
        # for a chunk of blank lines, or numpy 1.23 reading an int via float
        warnings.simplefilter("error")
        while chunk := fh.read(CSV_CHUNK_BYTES):
            chunk += fh.readline()      # which also rejoins a split "\r\n"
            if b"\r" in chunk:
                chunk = chunk.replace(b"\r\n", b"\n")
            if chunk.translate(None, _PLAIN):
                return None
            lines = chunk.decode("ascii").split("\n")     # its only line break; loadtxt skips ""
            if len(chunk) > limit and max(map(len, lines)) > limit:
                return None
            try:
                rows = np.loadtxt(lines, delimiter=",", quotechar=None, comments=None,
                                  ndmin=1, dtype=dtype)
            except (ValueError, Warning):
                return None
            records.extend(rows["s"], rows["t"], rows["v"])
    return records


def parse_dataset_csv(path):
    """Long-format CSV `subject,time,y,x1,...,xp` -> LongitudinalDataset.

    Subjects are ordered by first appearance (the filtration order); every
    subject must contribute exactly the same set of time indices 1..m.

    Cell grammar: the file is UTF-8 (a leading byte-order mark is skipped;
    one anywhere else is part of its cell), and the `csv` module splits
    records, so quoted cells and CRLF endings parse, and a blank line is a
    record with no data.  Subject ids are stripped of surrounding whitespace.  `time` is
    read by Python's `int`, `y` and x1..xp by Python's `float`; a time
    outside the signed 64-bit range is reported as a non-numeric cell, and a
    record the `csv` module rejects (a field longer than
    `csv.field_size_limit()`) as not valid CSV.

    Error order: the first offending record wins, and its message names its
    record number (the header is record 1).  Within a record the checks run
    in this order: valid UTF-8, then field count, then numeric (time, y,
    x1..xp), then duplicate (subject, time).  The subject-level checks run
    last, in first-appearance order: each subject needs as many rows as the
    first subject, m, and then time values 1..m.

    Plain files take a fast pass: when every line ends with `\\n` or
    `\\r\\n` and every other byte is printable ASCII other than `"`, numpy's
    C tokenizer (`np.loadtxt`) splits and converts the records, chunk by
    chunk.  It indexes subject ids once per run of equal raw ids, so a file
    that lists each subject's records together strips and looks up one id
    per subject (and chunk); it skips the CRLF replace in a chunk without a
    `\\r`, and the line-length scan in a chunk shorter than the field limit.
    When it rejects or warns about a chunk, or the file is not plain, the
    exact parser (the `csv` module and Python's `int`/`float`, one record
    at a time) reads the file from the top.  The grammar and the messages
    above are the exact parser's; a file the fast pass accepts gives the
    same arrays and errors.
    """
    with open(path, "rb") as fh:
        records, error = _parse_fast(fh), None
        if records is None:
            fh.seek(0)
            with io.TextIOWrapper(fh, "utf-8-sig", "surrogateescape", newline="") as text:
                records, error = _parse_exact(text)
    return records.dataset(error)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load_dataset(args):
    data = parse_dataset_csv(args.data)
    if args.shuffle_subjects is not None:
        data = data.permuted(_rng(mix_seed(args.shuffle_subjects, 0)).permutation(data.n))
    return data


def cmd_fit(args):
    data = _load_dataset(args)
    fit = (two_step_fit if args.method == "two-step" else gee_independence_fit)(
        data, LinkFamily(args.link))
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
        "R_tilde": (fit.correlation_used.R_tilde.a.tolist()
                    if fit.correlation_used is not None else None),
        "fallback_flag": bool(fit.fallback_to_independence),
    }
    _write_json(payload, args.out)
    return _warn(fit.causes)


def _parse_list(text, convert, flag):
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError as exc:
        raise SchemaError(f"{flag} must be comma-separated numbers: {exc}") from exc


def cmd_diagnose(args):
    data = _load_dataset(args)
    family = LinkFamily(args.link)
    prelim = beta = None
    if args.beta is not None:
        beta = np.asarray(_parse_list(args.beta, float, "--beta"), dtype=float)
        if beta.shape != (data.p,):
            raise SchemaError(f"--beta must have {data.p} comma-separated values")
    grid = _parse_list(args.grid, int, "--grid") if args.grid else [data.n]
    # the full-n report is the trend's last row, computed once; the grid's
    # shape errors come before any fit
    full_grid = _check_grid(data, grid if grid[-1] == data.n else grid + [data.n])
    if beta is None:
        prelim = gee_independence_fit(data, family)
        beta = prelim.beta_hat
    reports = condition_trend_report(data, family, beta, n_grid=full_grid)
    report, trend = reports[-1], reports[:len(grid)]
    payload = {
        "report": report.to_json(),
        "beta": beta.tolist(),
        "example1": example1_closed_form(data, family, beta) if data.p == 2 else None,
        "trend": [r.to_json() for r in trend],
        "trend_flags": trend_flags(trend, det_floor=args.det_floor),
    }
    _write_json(payload, args.out)
    causes = ()
    if prelim is not None and not prelim.converged:
        causes = (("preliminary-not-converged",
                   f"the preliminary independence fit did not converge (iterations="
                   f"{prelim.iterations}, gnorm={prelim.final_gnorm:.6g}); beta is its "
                   "last iterate"),)
    return _warn(causes)


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
        with open(args.replicates_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            cols = (["rep", "converged"]
                    + [f"beta{k + 1}" for k in range(config.p)]
                    + [f"z{k + 1}" for k in range(config.p)]
                    + [f"covered{k + 1}" for k in range(config.p)])
            writer.writerow(cols)
            for d in results:
                if d["ok"]:
                    writer.writerow([d["rep"], 1]
                                    + [format(v, ".17g") for v in d["beta_two"] + d["z"]]
                                    + [int(c) for c in d["covered"]])
                else:
                    writer.writerow([d["rep"], 0] + [""] * (3 * config.p))
    return _warn(config.causes + report.causes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plgee",
        description="Two-step pseudo-likelihood GEE fitting, diagnostics, "
                    "and Monte Carlo simulation for longitudinal data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # options shared by subcommands, each declared once
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default="-", help="output JSON path (default stdout)")
    dataset = argparse.ArgumentParser(add_help=False, parents=[output])
    dataset.add_argument("--data", required=True, help="input CSV path")
    dataset.add_argument("--link", required=True, choices=LINK_KINDS)
    dataset.add_argument("--shuffle-subjects", type=int, default=None,
                         help="permute subject order with this seed (sensitivity check)")

    fit = sub.add_parser("fit", parents=[dataset],
                         help="fit a marginal model from a long-format CSV")
    fit.add_argument("--method", default="two-step",
                     choices=[METHOD_INDEPENDENCE, "two-step"])
    fit.add_argument("--ci-level", type=float, default=0.95)
    fit.set_defaults(func=cmd_fit)

    diag = sub.add_parser("diagnose", parents=[dataset],
                          help="regularity diagnostics at a beta")
    diag.add_argument("--beta", default=None,
                      help="comma-separated beta; omitted -> preliminary "
                           "independence fit")
    diag.add_argument("--grid", default=None,
                      help="comma-separated subject-prefix sizes for the trend table")
    diag.add_argument("--det-floor", type=float, default=DEFAULT_DET_FLOOR)
    diag.set_defaults(func=cmd_diagnose)

    sim = sub.add_parser("simulate", parents=[output],
                         help="seeded Monte Carlo run from a JSON config")
    sim.add_argument("--config", required=True, help="SimConfig JSON path")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--replicates-csv", default=None,
                     help="optional per-replicate CSV dump")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PlgeeError, OSError) as exc:
        _write_notice("error", getattr(exc, "kind", "io"), str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())

import codecs
import csv
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import plgee.cli as cli
from plgee import estimator
from plgee.cli import (
    dumps_stable,
    main,
    parse_dataset_csv,
)
from plgee.errors import InvalidInputError, PlgeeError, SchemaError
from plgee.estimator import two_step_fit
from plgee.model import IDENTITY, LongitudinalDataset
from plgee.simulator import SimConfig, exchangeable_matrix, gen_gaussian, mix_seed


def write_dataset_csv(data, path):
    """Write `data` in the layout parse_dataset_csv reads: subjects 1..n,
    CRLF line ends, floats to 17 significant digits."""
    n, m, p = data.X.shape
    cells = np.empty((n * m, 3 + p))
    cells[:, 0] = np.repeat(np.arange(1, n + 1), m)
    cells[:, 1] = np.tile(np.arange(1, m + 1), n)
    cells[:, 2] = data.y.ravel()
    cells[:, 3:] = data.X.reshape(n * m, p)
    header = ",".join(["subject", "time", "y"] + [f"x{k + 1}" for k in range(p)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, cells, fmt=["%d", "%d"] + ["%.17g"] * (1 + p), delimiter=",",
                   newline="\r\n", header=header, comments="")


def sample_dataset(n=60, m=3, p=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m, p))
    return gen_gaussian(X, np.array([1.0, -0.5]), exchangeable_matrix(m, 0.4),
                        seed=seed)


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset_csv(sample_dataset(), path)
    return str(path)


@pytest.fixture
def counts_csv(tmp_path):
    """Poisson counts whose fits need several Fisher-scoring iterations."""
    rng = np.random.default_rng(47)
    X = rng.uniform(-1, 1, size=(80, 3, 2))
    path = tmp_path / "counts.csv"
    write_dataset_csv(LongitudinalDataset(
        X, rng.poisson(np.exp(X @ [1.5, -1.0])).astype(float)), path)
    return str(path)


class TestStableJson:
    def test_sorted_keys_and_float_format(self):
        text = dumps_stable({"b": 1.5, "a": [True, None, float("nan")]})
        assert text == '{"a":[true,null,null],"b":1.5}'

    def test_non_finite_floats_are_null(self):
        values = [float("nan"), float("inf"), -float("inf"), np.float32("nan"), np.float64("-inf")]
        assert dumps_stable(values) == "[null,null,null,null,null]"

    def test_round_trip_precision(self):
        x = 0.1 + 0.2
        assert float(dumps_stable(x)) == x

    def test_numpy_values(self):
        assert dumps_stable(np.float64(2.0)) == "2"
        assert dumps_stable(np.array([1, 2])) == "[1,2]"


class TestCsv:
    def test_round_trip_identity(self, tmp_path):
        d = sample_dataset()
        path = tmp_path / "rt.csv"
        write_dataset_csv(d, path)
        back = parse_dataset_csv(path)
        assert np.array_equal(back.X, d.X)
        assert np.array_equal(back.y, d.y)

    def test_subjects_ordered_by_first_appearance(self, tmp_path):
        path = tmp_path / "o.csv"
        path.write_text(
            "subject,time,y,x1\n"
            "zeta,1,1.0,0.1\nzeta,2,2.0,0.2\n"
            "alpha,1,3.0,0.3\nalpha,2,4.0,0.4\n"
        )
        d = parse_dataset_csv(path)
        assert d.y[0, 0] == 1.0 and d.y[1, 0] == 3.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("id,time,y,x1\n1,1,0.0,0.0\n")
        with pytest.raises(SchemaError, match="subject,time,y"):
            parse_dataset_csv(path)

    def test_bad_covariate_names(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("subject,time,y,age\n1,1,0.0,0.0\n")
        with pytest.raises(SchemaError, match="x1..xp"):
            parse_dataset_csv(path)

    def test_ragged_subject(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text(
            "subject,time,y,x1\n1,1,0.0,0.0\n1,2,0.0,0.0\n2,1,0.0,0.0\n"
        )
        with pytest.raises(SchemaError, match="subject 2"):
            parse_dataset_csv(path)

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("subject,time,y,x1\n1,1,0.0,0.0\n1,1,0.5,0.0\n")
        with pytest.raises(SchemaError, match="duplicate"):
            parse_dataset_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("subject,time,y,x1\n1,1,oops,0.0\n")
        with pytest.raises(SchemaError, match="row 2"):
            parse_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            parse_dataset_csv(path)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 2, 1), (1, 4, 3), (40, 5, 4)])
    def test_writer_bytes_equal_per_cell_writer(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e17, 3.0,
                   -1.7976931348623157e308, 0.1, 123456789.0]
        size = int(np.prod(shape)) + shape[0] * shape[1]
        cells = rng.normal(size=size) * 10.0 ** rng.integers(-320, 300, size=size)
        pick = rng.random(size) < 0.3
        cells[pick] = rng.choice(special, size=int(pick.sum()))
        X = cells[:int(np.prod(shape))].reshape(shape)
        y = cells[int(np.prod(shape)):].reshape(shape[:2])
        data = LongitudinalDataset(X, y)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_dataset_csv(data, new)
        _write_dataset_csv_per_cell(data, old)
        assert new.read_bytes() == old.read_bytes()
        back = parse_dataset_csv(new)
        assert back.X.tobytes() == X.tobytes() and back.y.tobytes() == y.tobytes()


def _write_dataset_csv_per_cell(data, path):
    """The per-cell csv.writer loop write_dataset_csv replaced: its reference."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "time", "y"] + [f"x{k + 1}" for k in range(data.p)])
        for i in range(data.n):
            for j in range(data.m):
                writer.writerow([str(i + 1), str(j + 1), format(float(data.y[i, j]), ".17g")]
                                + [format(float(v), ".17g") for v in data.X[i, j]])


def _schema_message(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(SchemaError) as info:
        parse_dataset_csv(path)
    return str(info.value)


def _records(n_subjects, m, start=0):
    return "".join(f"{i},{j},0.5,{0.25 * j}\n"
                   for i in range(start, start + n_subjects) for j in range(1, m + 1))


HEAD = "subject,time,y,x1\n"


MESSAGE_CASES = pytest.mark.parametrize("text, message", [
    (HEAD + "1,1,0.0,0.0\n1,2,0.0\n", "row 3 has 3 fields, expected 4"),
    (HEAD + "1,1,0.0,0.0,9\n", "row 2 has 5 fields, expected 4"),
    (HEAD + "1,1.0,0.0,0.0\n",
     "non-numeric cell at row 2: invalid literal for int() with base 10: '1.0'"),
    (HEAD + "1,1,oops,0.0\n",
     "non-numeric cell at row 2: could not convert string to float: 'oops'"),
    ("subject,time,y,x1,x2\n1,1,0.5,0.0,1e\n",
     "non-numeric cell at row 2: could not convert string to float: '1e'"),
    (HEAD + "1,x,y,0.0\n",
     "non-numeric cell at row 2: invalid literal for int() with base 10: 'x'"),
    (HEAD + "1,x,y\n", "row 2 has 3 fields, expected 4"),
    (HEAD + " 7 ,1,0.0,0.0\n7,1,0.5,0.0\n", "duplicate (subject,time) = (7,1)"),
    (HEAD + "1,1,0.0,0.0\n1,1,bad,0.0\n",
     "non-numeric cell at row 3: could not convert string to float: 'bad'"),
    (HEAD + "1,1,0.0,0.0\n1,2,0.0,0.0\n2,1,0.0,0.0\n",
     "subject 2 has 1 rows, expected 2"),
    (HEAD + "1,1,0.0,0.0\n1,2,0.0,0.0\n2,3,0.0,0.0\n2,1,0.0,0.0\n",
     "subject 2 must have time values 1..2, got [1, 3]"),
    (HEAD + "1,1,0.0,0.0\n1,0,0.0,0.0\n",
     "subject 1 must have time values 1..2, got [0, 1]"),
    (HEAD + "a,1,0,0\na,3,0,0\nb,1,0,0\n",
     "subject a must have time values 1..2, got [1, 3]"),
    (HEAD, "CSV contains no data rows"),
    (HEAD + "\n\n", "CSV contains no data rows"),
    (HEAD + "1,1,0.0,0.0\n\n1,2,zz,0.0\n",
     "non-numeric cell at row 4: could not convert string to float: 'zz'"),
    ((HEAD + "1,1,0.0,0.0\n\n1,2,zz,0.0\n").replace("\n", "\r"),
     "non-numeric cell at row 4: could not convert string to float: 'zz'"),
    (HEAD + "1,99999999999999999999,oops,0.0\n",
     "non-numeric cell at row 2: Python int too large to convert to C long"),
], ids=["short-record", "long-record", "time", "y", "x", "time-before-y",
        "fields-before-numeric", "duplicate", "numeric-before-duplicate",
        "ragged", "time-set", "time-zero", "first-subject-first",
        "header-only", "blank-only", "blank-line-shifts-rows", "lone-cr",
        "time-outside-int64"])

NOT_UTF8_CASES = pytest.mark.parametrize("data, message", [
    (b"subject,time,y,x\xff1\n1,1,0,0\n", "row 1 is not valid UTF-8: byte 0xff"),
    (HEAD.encode() + b"\xff1,1,0,0\n", "row 2 is not valid UTF-8: byte 0xff"),
    (HEAD.encode() + "\u00e9,1,0,0\n".encode() + b"1,1,\xc3,0\n",
     "row 3 is not valid UTF-8: byte 0xc3"),
    (HEAD.encode() + b"1,1,nope,0\n\xff1,2,0,0\n",
     "non-numeric cell at row 2: could not convert string to float: 'nope'"),
], ids=["header", "record-2", "after-valid-non-ascii", "earlier-bad-cell-first"])


class TestCsvErrorMessages:
    """Exact SchemaError texts: the first offending record wins; within a
    record, valid UTF-8, then field count, then numeric cells (time, y, x),
    then duplicate; subject-level checks run last, in first-appearance order."""

    @MESSAGE_CASES
    def test_message(self, tmp_path, text, message):
        assert _schema_message(tmp_path, text) == message

    @MESSAGE_CASES
    def test_message_after_byte_order_mark(self, tmp_path, text, message):
        assert _schema_message(tmp_path, "\ufeff" + text) == message

    def test_early_duplicate_beats_later_bad_cell(self, tmp_path):
        text = (HEAD + "1,1,0.0,0.0\n1,1,0.0,0.0\n" + _records(1500, 4, start=2)
                + "9999,1,nope,0.0\n")
        assert _schema_message(tmp_path, text) == "duplicate (subject,time) = (1,1)"

    def test_early_bad_cell_beats_later_duplicate(self, tmp_path):
        text = (HEAD + "1,1,nope,0.0\n" + _records(1500, 4, start=2)
                + "2,1,0.0,0.0\n")
        assert _schema_message(tmp_path, text) == (
            "non-numeric cell at row 2: could not convert string to float: 'nope'")

    def test_late_duplicate_and_late_bad_cell(self, tmp_path):
        records = _records(2000, 4, start=1)
        text = HEAD + records + "5,2,0.0,0.0\n" + "6,1,0.0,x\n"
        assert _schema_message(tmp_path, text) == "duplicate (subject,time) = (5,2)"
        text = HEAD + records + "6,1,0.0,x\n" + "5,2,0.0,0.0\n"
        assert _schema_message(tmp_path, text) == (
            f"non-numeric cell at row {2 + 8000}: could not convert string to float: 'x'")

    def test_ragged_subject_after_many_records(self, tmp_path):
        text = HEAD + _records(3000, 3) + "3000,1,0,0\n"
        assert _schema_message(tmp_path, text) == "subject 3000 has 1 rows, expected 3"

    @pytest.mark.parametrize("text, message", [
        (HEAD + "1,1,0,0\n" + "a" * 200_000 + ",2,0,0\n", "row 3 is not valid CSV: {}"),
        ('subject,time,y,x1\r\n"' + "a" * 200_000 + '",1,0,0\r\n',
         "row 2 is not valid CSV: {}"),
        ("subject,time,y,x1" + " " * 200_000 + "\n1,1,0,0\n", "row 1 is not valid CSV: {}"),
        (HEAD + "1,1,nope,0\n" + "a" * 200_000 + ",2,0,0\n",
         "non-numeric cell at row 2: could not convert string to float: 'nope'"),
        (HEAD + _records(175, 4) + "9,1,0," + "5" * 200_000 + "\n",
         "row 702 is not valid CSV: {}"),
    ], ids=["plain", "quoted-crlf", "header", "earlier-record-first", "after-a-block"])
    def test_field_over_csv_limit(self, tmp_path, text, message):
        reason = f"field larger than field limit ({csv.field_size_limit()})"
        assert _schema_message(tmp_path, text) == message.format(reason)

    @NOT_UTF8_CASES
    def test_not_utf8_is_a_json_error(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code, out, err = run_cli(["fit", "--data", str(path), "--link", "identity"], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "schema", "detail": message}

    @NOT_UTF8_CASES
    def test_not_utf8_after_byte_order_mark(self, tmp_path, data, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(codecs.BOM_UTF8 + data)
        with pytest.raises(SchemaError) as info:
            parse_dataset_csv(path)
        assert str(info.value) == message

    def test_field_over_csv_limit_is_a_json_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text(HEAD + "a" * 200_000 + ",1,0.0,0.0\n")
        code, out, err = run_cli(["fit", "--data", str(path), "--link", "identity"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": "schema",
            "detail": f"row 2 is not valid CSV: field larger than field limit "
                      f"({csv.field_size_limit()})"}


class TestCsvCellGrammar:
    def test_quoted_cells_crlf_and_padded_ids(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_bytes(b'subject,time,y,x1\r\n'
                         b'" a ","1","2.5"," 0.5 "\r\n'
                         b'a,2,1e-3,-0\r\n'
                         b'b ,2,+4,1_000.5\r\n'
                         b' b,1, 3 ,inf\r\n')
        with pytest.raises(InvalidInputError, match="non-finite"):
            parse_dataset_csv(path)
        path.write_bytes(path.read_bytes().replace(b"inf", b"7"))
        d = parse_dataset_csv(path)
        assert d.y.tolist() == [[2.5, 0.001], [3.0, 4.0]]
        assert d.X[:, :, 0].tolist() == [[0.5, -0.0], [7.0, 1000.5]]

    def test_leading_byte_order_mark_is_skipped(self, tmp_path, data_csv):
        path = tmp_path / "bom.csv"
        with open(data_csv, "rb") as fh:
            path.write_bytes(codecs.BOM_UTF8 + fh.read())
        got, want = parse_dataset_csv(path), parse_dataset_csv(data_csv)
        assert np.array_equal(got.X, want.X) and np.array_equal(got.y, want.y)

    def test_byte_order_mark_elsewhere_is_part_of_its_cell(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + HEAD + "\ufeffa,1,0,0\na,1,0,0\n", encoding="utf-8")
        assert parse_dataset_csv(path).n == 2     # "\ufeffa" and "a" are two subjects
        path.write_text("\ufeff\ufeff" + HEAD + "a,1,0,0\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            parse_dataset_csv(path)
        assert str(info.value) == (
            "header must start with subject,time,y got ['\\ufeffsubject', 'time', 'y']")

    def test_arrays_are_c_contiguous(self, data_csv):
        d = parse_dataset_csv(data_csv)
        assert d.X.flags.c_contiguous and d.y.flags.c_contiguous

    def test_shuffled_records_across_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        n, m = 1500, 5
        X = rng.normal(size=(n, m, 2))
        y = rng.normal(size=(n, m))
        cells = [(i, j) for i in range(n) for j in range(m)]
        order = rng.permutation(len(cells))
        lines = ["subject,time,y,x1,x2"]
        for k in order:
            i, j = cells[k]
            lines.append(",".join([f"s{i}", str(j + 1)]
                                  + [repr(float(v)) for v in (y[i, j], *X[i, j])]))
        path = tmp_path / "shuffled.csv"
        path.write_text("\n".join(lines) + "\n")
        d = parse_dataset_csv(path)
        first_seen = list(dict.fromkeys(cells[k][0] for k in order))
        assert np.array_equal(d.X, X[first_seen])
        assert np.array_equal(d.y, y[first_seen])


def _in_order_and_shuffled(tmp_path, records, seed):
    """Paths of two files holding `records` ((subject, time, y, x1) tuples):
    shuffled, and sorted by (first appearance in the shuffled file, time)."""
    rng = np.random.default_rng(seed)
    shuffled = [records[k] for k in rng.permutation(len(records))]
    first = {s: k for k, (s, *_) in reversed(list(enumerate(shuffled)))}
    paths = []
    for name, rows in (("in_order", sorted(shuffled, key=lambda r: (first[r[0]], r[1]))),
                       ("shuffled", shuffled)):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(HEAD + "".join(f"{s},{t},{y!r},{x!r}\n" for s, t, y, x in rows))
    return paths


class TestCsvRecordOrder:
    """Records in cell order become the arrays without a copy; any other
    order is gathered.  Both give the same arrays and the same errors."""

    @staticmethod
    def records(edit):
        rng = np.random.default_rng(11)
        records = [(f"s{i}", j, float(rng.normal()), float(rng.normal()))
                   for i in range(30) for j in range(1, 5)]
        return edit(records)

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r, None),
        (lambda r: r + [("s5", 2, 0.5, 0.5)], "duplicate (subject,time) = (s5,2)"),
        (lambda r: [c for c in r if c[:2] != ("s7", 3)], "subject s7 has 3 rows, expected 4"),
        (lambda r: [(s, 6 if (s, t) == ("s9", 4) else t, y, x) for s, t, y, x in r],
         "subject s9 must have time values 1..4, got [1, 2, 3, 6]"),
    ], ids=["valid", "duplicate", "ragged", "time-off-grid"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_in_order_and_shuffled_agree(self, tmp_path, edit, message, seed):
        in_order, shuffled = _in_order_and_shuffled(tmp_path, self.records(edit), seed)
        got = _outcome(in_order)
        assert got == _outcome(shuffled)
        if message is None:
            assert got[0] == (30, 4, 1)
        else:
            assert got == ("SchemaError", message)

    def test_duplicate_in_sorted_file_is_its_first_repeated_record(self, tmp_path):
        rows = _records(4, 3, start=1).splitlines(keepends=True)
        # in (subject, time) order, with (2,1) and later (3,1) written twice
        text = HEAD + "".join(rows[:4] + rows[3:7] + rows[6:])
        assert _schema_message(tmp_path, text) == "duplicate (subject,time) = (2,1)"

    def test_in_order_parse_peak_memory(self, tmp_path):
        # the in-order arrays are views of the record buffers, so the parse
        # holds no second copy of the design (a gather peaks at 2.7x X + y)
        rng = np.random.default_rng(8)
        data = LongitudinalDataset(rng.normal(size=(2000, 10, 8)), rng.normal(size=(2000, 10)))
        path = tmp_path / "in_order.csv"
        write_dataset_csv(data, path)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            d = parse_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert np.array_equal(d.X, data.X) and np.array_equal(d.y, data.y)
        assert peak < 1.8 * (d.X.nbytes + d.y.nbytes)


# Mutations of a valid file for the differential fuzz, each editing the list
# of lines in place: the byte classes and cell forms on which the fast pass
# must decline, or convert exactly as the exact parser does.
_CONTROL = ["\r", "\x00", "\x0b", "\x0c", "\x1c", "\x1e", "\x7f", "\x85", "\u2028"]


def _cell_edit(edit):
    def mutate(lines, rng):
        i = int(rng.integers(len(lines)))
        cells = lines[i].split(",")
        c = int(rng.integers(len(cells)))
        cells[c] = edit(cells[c], rng)
        lines[i] = ",".join(cells)
    return mutate


def _line_edit(edit):
    def mutate(lines, rng):
        edit(lines, int(rng.integers(len(lines) + 1)), rng)
    return mutate


_MUTATIONS = [
    _cell_edit(lambda cell, rng: f'"{cell}"'),
    _cell_edit(lambda cell, rng: cell + '"'),
    _cell_edit(lambda cell, rng: "\t" + cell),
    _cell_edit(lambda cell, rng: f" {cell} "),
    _cell_edit(lambda cell, rng: ""),
    _cell_edit(lambda cell, rng: cell + ","),
    _cell_edit(lambda cell, rng: "#" + cell),
    _cell_edit(lambda cell, rng: cell[:1] + "_" + cell[1:]),
    _cell_edit(lambda cell, rng: cell + ".0"),
    _cell_edit(lambda cell, rng: "9" * 19 + cell),
    _cell_edit(lambda cell, rng: str(rng.choice(["nan", "-inf", "Infinity", "NaN", "1e999"]))),
    _cell_edit(lambda cell, rng: str(rng.choice(["\u00e9", "\u0661"])) + cell),
    _cell_edit(lambda cell, rng: cell + str(rng.choice(_CONTROL))),
    _cell_edit(lambda cell, rng: str(rng.choice(["0", "-1", "+2", "01", " 3", "1e0", "-0"]))),
    _cell_edit(lambda cell, rng: "7" * (csv.field_size_limit() + int(rng.integers(-2, 2)))),
    _line_edit(lambda lines, i, rng: lines.insert(i, str(rng.choice(["", " ", "  ,", "#"])))),
    _line_edit(lambda lines, i, rng: lines.insert(i, lines[i - 1])),
    _line_edit(lambda lines, i, rng: lines.pop(i - 1)),
]


def _fuzz_lines(rng):
    """A valid file's lines, cells written in random valid forms."""
    n, m, p = (int(v) for v in rng.integers(1, 4, size=3))
    ids = [f"s{i}" if rng.random() < 0.5 else str(i) for i in range(n)]
    numbers = ["0", "-0", "3", "+4", "2.5", ".5", "5.", "1e-3", "-7.25E+2"]
    records = [[ids[i], str(j + 1)] + [
        str(rng.choice(numbers)) if rng.random() < 0.5 else repr(float(rng.normal()))
        for _ in range(1 + p)] for i in range(n) for j in range(m)]
    if rng.random() < 0.5:
        records = [records[k] for k in rng.permutation(len(records))]
    header = ["subject", "time", "y"] + [f"x{k + 1}" for k in range(p)]
    return [",".join(header)] + [",".join(r) for r in records]


def _padded_id_lines(rng):
    """_fuzz_lines with subject ids padded by spaces, one padding kept over a
    run of records or drawn anew, and slices of records moved, so that a
    subject's records come back after another subject's."""
    header, *records = _fuzz_lines(rng)
    records = [r.split(",", 1) for r in records]
    left = right = ""
    for r in records:
        if rng.random() < 0.3:
            left, right = (str(rng.choice(["", " ", "  "])) for _ in range(2))
        r[0] = left + r[0] + right
    for _ in range(int(rng.integers(0, 3))):
        i, j = sorted(int(k) for k in rng.integers(0, len(records) + 1, size=2))
        moved, records[i:j] = records[i:j], []
        k = int(rng.integers(len(records) + 1))
        records[k:k] = moved
    return [header] + [",".join(r) for r in records]


def _outcome(path):
    try:
        d = parse_dataset_csv(path)
    except PlgeeError as exc:
        return type(exc).__name__, str(exc)
    return d.X.shape, d.X.tobytes(), d.y.tobytes()


def _fast_and_exact(path):
    """(whether the fast pass accepted the file, the outcome with it, the
    outcome with the exact parser alone)."""
    fast, took = cli._parse_fast, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse_fast", lambda fh: took.append(fast(fh)) or took[-1])
        got = _outcome(path)
        patch.setattr(cli, "_parse_fast", lambda fh: None)
        want = _outcome(path)
    return bool(took) and took[0] is not None, got, want


def differential_fuzz(tmp_path, monkeypatch, n_files, seed, fuzz_lines=_fuzz_lines):
    """Parse n_files mutated files, each drawn by fuzz_lines, with the fast
    pass on and off, at random chunk sizes; returns the outcomes the fast
    pass produced."""
    rng = np.random.default_rng(seed)
    accepted = []
    path = tmp_path / "fuzz.csv"
    for _ in range(n_files):
        lines = fuzz_lines(rng)
        for _ in range(int(rng.integers(0, 3))):
            _MUTATIONS[int(rng.integers(len(_MUTATIONS)))](lines, rng)
        newline = str(rng.choice(["\n"] * 6 + ["\r\n", "\r"]))
        text = newline.join(lines) + (newline if rng.random() < 0.9 else "")
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(cli, "CSV_CHUNK_BYTES", int(rng.choice([1, 9, 64, 1 << 18])))
        took, got, want = _fast_and_exact(path)
        assert got == want, text[:500]
        if took:
            accepted.append(got)
    return accepted


class TestCsvFastPass:
    def test_differential_fuzz_against_exact_parser(self, tmp_path, monkeypatch):
        accepted = differential_fuzz(tmp_path, monkeypatch, n_files=2000, seed=2024)
        # the fast pass took a fair share, both parsed and rejected files
        assert len(accepted) > 500
        assert sum(isinstance(o[0], str) for o in accepted) > 50
        assert sum(isinstance(o[0], tuple) for o in accepted) > 300

    def test_differential_fuzz_with_padded_and_returning_ids(self, tmp_path, monkeypatch):
        accepted = differential_fuzz(tmp_path, monkeypatch, n_files=2000, seed=2031,
                                     fuzz_lines=_padded_id_lines)
        assert len(accepted) > 500
        assert sum(isinstance(o[0], str) for o in accepted) > 50
        assert sum(isinstance(o[0], tuple) for o in accepted) > 300

    def test_plain_file_never_reaches_exact_parser(self, tmp_path, monkeypatch):
        calls = []
        exact = cli._parse_exact
        monkeypatch.setattr(cli, "_parse_exact", lambda fh: calls.append(1) or exact(fh))
        path = tmp_path / "plain.csv"
        text = HEAD + _records(700, 3)
        path.write_text(text)
        plain = parse_dataset_csv(path)
        assert calls == []
        for variant, reaches_exact in ((text.replace("\n", "\r\n"), False),
                                       (text.replace("0.5,", '"0.5",', 1), True),
                                       (text.replace("\n", "\r"), True)):
            calls.clear()
            path.write_bytes(variant.encode())
            d = parse_dataset_csv(path)
            assert d.X.tobytes() == plain.X.tobytes() and d.y.tobytes() == plain.y.tobytes()
            assert calls == [1] * reaches_exact
        calls.clear()
        write_dataset_csv(sample_dataset(n=700), path)
        assert b"\r\n" in path.read_bytes()
        parse_dataset_csv(path)
        assert calls == []

    def test_blank_body_emits_no_warning(self, tmp_path, recwarn):
        assert _schema_message(tmp_path, HEAD + "\n\n") == "CSV contains no data rows"
        assert len(recwarn) == 0


class TestCsvSubjectRuns:
    """The fast pass indexes subject ids once per run of equal raw ids: runs
    that strip to one id, an id that comes back, and runs cut by chunk
    boundaries give the exact parser's arrays and errors."""

    @pytest.mark.parametrize("chunk", [1, 9, 64, 1 << 15])
    @pytest.mark.parametrize("text, message", [
        (HEAD + " 7,1,0,1\n 7,2,0,2\n7,3,0,3\n8,1,0,4\n8,2,0,5\n8,3,0,6\n", None),
        (HEAD + "7,1,0,1\n 7,1,0,2\n", "duplicate (subject,time) = (7,1)"),
        (HEAD + "a,1,0,1\na,2,0,2\nb,1,0,3\nb,2,0,4\na,3,0,5\nb,3,0,6\n", None),
        (HEAD + "a,1,0,1\nb,1,0,2\nb,2,0,3\na,2,0,4\nb,3,0,5\n",
         "subject b has 3 rows, expected 2"),
        (HEAD + "a,1,0,1\nb,1,0,2\na,1,0,3\n", "duplicate (subject,time) = (a,1)"),
        (HEAD + _records(5, 7, start=1), None),
    ], ids=["padded-runs", "padded-duplicate", "id-returns", "id-returns-ragged",
            "id-returns-duplicate", "runs-across-chunks"])
    def test_runs_match_exact_parser(self, tmp_path, monkeypatch, chunk, text, message):
        path = tmp_path / "runs.csv"
        path.write_text(text)
        monkeypatch.setattr(cli, "CSV_CHUNK_BYTES", chunk)
        took, got, want = _fast_and_exact(path)
        assert took and got == want
        if message is not None:
            assert got == ("SchemaError", message)

    def test_padded_runs_and_returning_id_are_one_subject(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(HEAD + " 7,1,0,1\n 7,2,0,2\nb,1,0,3\nb,2,0,4\n7 ,3,0,5\nb,3,0,6\n")
        d = parse_dataset_csv(path)
        assert d.X[:, :, 0].tolist() == [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]]

    @pytest.mark.parametrize("cut", [5, 2, 1], ids=["mid-line", "before-cr", "cr-lf"])
    def test_only_crlf_in_a_chunk_tail(self, tmp_path, monkeypatch, cut):
        # one CRLF line, which the chunk's read() ends inside, `cut` bytes
        # before its end: readline() brings the "\r" (or the "\n" after it)
        lines = _records(4, 3, start=1).splitlines(keepends=True)
        lines[4] = lines[4].replace("\n", "\r\n")
        path = tmp_path / "crlf.csv"
        path.write_text(HEAD + "".join(lines), newline="")
        monkeypatch.setattr(cli, "CSV_CHUNK_BYTES", len("".join(lines[:5])) - cut)
        took, got, want = _fast_and_exact(path)
        assert took and got == want
        lf = tmp_path / "lf.csv"
        lf.write_text(HEAD + _records(4, 3, start=1))
        assert got == _outcome(lf)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(script, *args):
    """JSON printed by `script` run in a new interpreter with this sys.path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


class TestFit:
    def test_two_step_payload(self, data_csv, capsys):
        code, out, _ = run_cli(
            ["fit", "--data", data_csv, "--link", "identity"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["method"] == "pseudo_likelihood"
        assert doc["fallback_flag"] is False
        assert len(doc["beta_hat"]) == 2
        assert np.allclose(doc["beta_hat"], [1.0, -0.5], atol=0.2)
        assert len(doc["R_tilde"]) == 3
        for b, (lo, hi), se in zip(doc["beta_hat"], doc["wald_ci"], doc["stderr"]):
            assert lo < b < hi
            assert hi - lo == pytest.approx(2 * 1.959964 * se, rel=1e-6)

    def test_independence_method(self, data_csv, capsys):
        code, out, _ = run_cli(
            ["fit", "--data", data_csv, "--link", "identity",
             "--method", "independence"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "independence"
        assert doc["R_tilde"] is None
        assert len(doc["cov_beta"]) == 2

    def test_two_step_tightens_or_matches_independence(self, data_csv, capsys):
        _, out_two, _ = run_cli(
            ["fit", "--data", data_csv, "--link", "identity"], capsys)
        _, out_ind, _ = run_cli(
            ["fit", "--data", data_csv, "--link", "identity",
             "--method", "independence"], capsys)
        two, ind = json.loads(out_two), json.loads(out_ind)
        assert two["beta_hat"] != ind["beta_hat"]
        # both target the same coefficients
        assert np.allclose(two["beta_hat"], ind["beta_hat"], atol=0.1)

    def test_output_file_and_rerun_byte_identical(self, data_csv, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["fit", "--data", data_csv, "--link", "identity",
                     "--out", str(out1)]) == 0
        assert main(["fit", "--data", data_csv, "--link", "identity",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_rank_deficient_design_is_error(self, tmp_path, capsys):
        rows = ["subject,time,y,x1,x2"]
        rng = np.random.default_rng(5)
        for i in range(10):
            for j in range(2):
                x = rng.normal()
                rows.append(f"{i},{j + 1},{rng.normal()},{x},{2 * x}")
        path = tmp_path / "collinear.csv"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            ["fit", "--data", str(path), "--link", "identity"], capsys)
        assert code == 1
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "singular-design"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            ["fit", "--data", "/nonexistent.csv", "--link", "identity"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "io"

    def test_unconverged_preliminary_fit_exits_2(self, counts_csv, capsys, monkeypatch):
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        code, out, err = run_cli(["fit", "--data", counts_csv, "--link", "log"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["converged"] is False
        assert doc["fallback_flag"] is True
        assert doc["R_tilde"] is None
        assert doc["method"] == "independence"
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "warning": "not-converged",
            "detail": f"the independence fit did not converge (iterations=1, "
                      f"gnorm={doc['final_gnorm']:.6g}); beta_hat is its last iterate"}

    @pytest.mark.parametrize("n, want", [(1, 2), (2, 0), (3, 0)])
    def test_fewer_subjects_than_covariates_exits_2(self, tmp_path, capsys, n, want):
        # with n < p the sandwich M_hat has rank <= n < p: zero-width intervals
        data = sample_dataset(n=n, m=3, p=2, seed=3)
        path = tmp_path / "few.csv"
        write_dataset_csv(data, path)
        code, out, err = run_cli(["fit", "--data", str(path), "--link", "identity"], capsys)
        assert code == want
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["beta_hat"] == two_step_fit(data, IDENTITY).beta_hat.tolist()
        if want:
            assert json.loads(err) == {
                "warning": "fewer-subjects-than-covariates",
                "detail": "n=1 subjects < p=2 covariates: the sandwich covariance "
                          "is singular, so stderr and wald_ci are not valid"}
            assert max(hi - lo for lo, hi in doc["wald_ci"]) < 1e-12
        else:
            assert err == ""

    def test_both_causes_are_two_warning_lines_in_order(self, tmp_path, capsys, monkeypatch):
        # one subject and an iterate cut off before the root: the lines are
        # the fit's causes, the singular sandwich first
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        monkeypatch.setattr(estimator, "_GRAD_TOL", 1e-300)
        data = sample_dataset(n=1, m=3, p=2, seed=3)
        path = tmp_path / "one.csv"
        write_dataset_csv(data, path)
        code, out, err = run_cli(["fit", "--data", str(path), "--link", "identity"], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["converged"] is False
        lines = [json.loads(line) for line in err.splitlines()]
        assert [line["warning"] for line in lines] == ["fewer-subjects-than-covariates",
                                                      "not-converged"]
        assert lines == [{"warning": kind, "detail": detail}
                         for kind, detail in two_step_fit(data, IDENTITY).causes]
        assert lines[1]["detail"] == (
            f"the independence fit did not converge (iterations=1, "
            f"gnorm={doc['final_gnorm']:.6g}); beta_hat is its last iterate")

    def test_shuffle_subjects_keeps_estimate(self, data_csv, capsys):
        _, out0, _ = run_cli(
            ["fit", "--data", data_csv, "--link", "identity"], capsys)
        _, out1, _ = run_cli(
            ["fit", "--data", data_csv, "--link", "identity",
             "--shuffle-subjects", "3"], capsys)
        b0 = json.loads(out0)["beta_hat"]
        b1 = json.loads(out1)["beta_hat"]
        assert np.allclose(b0, b1, atol=1e-8)


class TestShuffleSubjects:
    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_shuffle_is_the_seeded_permutation(self, tmp_path, capsys, command):
        """--shuffle-subjects 3 writes the bytes of the same command run on a
        CSV whose subjects are stored in the order of the seed-3 stream."""
        data = sample_dataset()
        order = np.random.Generator(np.random.PCG64(mix_seed(3, 0))).permutation(data.n)
        plain, permuted = tmp_path / "plain.csv", tmp_path / "permuted.csv"
        write_dataset_csv(data, plain)
        write_dataset_csv(data.permuted(order), permuted)
        argv = [command, "--link", "identity", "--data"]
        want = run_cli(argv + [str(permuted)], capsys)
        assert want[0] == 0
        assert run_cli(argv + [str(plain), "--shuffle-subjects", "3"], capsys) == want
        assert run_cli(argv + [str(plain)], capsys)[1] != want[1]


class TestDiagnose:
    def test_payload_structure(self, data_csv, capsys):
        code, out, _ = run_cli(
            ["diagnose", "--data", data_csv, "--link", "identity",
             "--beta", "1.0,-0.5", "--grid", "20,40,60"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["beta"] == [1.0, -0.5]
        assert doc["report"]["n_used"] == 60
        assert doc["report"]["pi_n"] >= 1.0
        assert len(doc["trend"]) == 3
        assert [t["n_used"] for t in doc["trend"]] == [20, 40, 60]
        assert set(doc["trend_flags"]) == {
            "lambda_min_H_over_tau_increasing",
            "lambda_min_H_indep_increasing",
            "pi2_gamma_tilde_decreasing",
            "sqrt_n_pi_gamma_tilde_decreasing",
            "sqrt_n_gamma0_indep_decreasing",
            "det_R_floor_ok",
        }

    def test_example1_cross_checks_report(self, data_csv, capsys):
        _, out, _ = run_cli(
            ["diagnose", "--data", data_csv, "--link", "identity",
             "--beta", "1.0,-0.5"], capsys)
        doc = json.loads(out)
        ex1 = doc["example1"]
        assert ex1 is not None
        lam_min = ex1["lambda_min"]
        assert doc["report"]["lambda_min_H_indep"] == pytest.approx(lam_min, rel=1e-10)

    def test_example1_null_when_p_not_2(self, tmp_path, capsys):
        path = tmp_path / "p3.csv"
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(40, 3, 3))
        d = gen_gaussian(X, np.array([1.0, -0.5, 0.2]),
                         exchangeable_matrix(3, 0.3), seed=9)
        write_dataset_csv(d, path)
        _, out, _ = run_cli(
            ["diagnose", "--data", str(path), "--link", "identity"], capsys)
        assert json.loads(out)["example1"] is None

    def test_defaults_to_preliminary_fit(self, data_csv, capsys):
        code, out, _ = run_cli(
            ["diagnose", "--data", data_csv, "--link", "identity"], capsys)
        assert code == 0
        assert np.allclose(json.loads(out)["beta"], [1.0, -0.5], atol=0.2)

    def test_unconverged_preliminary_fit_exits_2(self, counts_csv, capsys, monkeypatch):
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        code, out, err = run_cli(["diagnose", "--data", counts_csv, "--link", "log"], capsys)
        assert code == 2
        assert err.count("\n") == 1
        warning = json.loads(err)
        assert warning["warning"] == "preliminary-not-converged"
        assert "iterations=1," in warning["detail"]
        assert "gnorm=" in warning["detail"]
        # the payload is the one for that beta given explicitly
        beta = ",".join(format(b, ".17g") for b in json.loads(out)["beta"])
        assert run_cli(["diagnose", "--data", counts_csv, "--link", "log",
                        "--beta", beta], capsys) == (0, out, "")

    def test_bad_beta_length(self, data_csv, capsys):
        code, _, err = run_cli(
            ["diagnose", "--data", data_csv, "--link", "identity",
             "--beta", "1.0"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "schema"

    @pytest.mark.parametrize("flag, value", [("--beta", "1,x"), ("--grid", "10,abc")])
    def test_non_numeric_list_is_schema_error(self, data_csv, capsys, flag, value):
        code, out, err = run_cli(
            ["diagnose", "--data", data_csv, "--link", "identity", flag, value], capsys)
        assert code == 1
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "schema"
        assert flag in doc["detail"]

    def test_c_n_null_only_on_a_prefix_with_fewer_subjects_than_covariates(
            self, tmp_path, capsys):
        # 3 subjects of m=2 give an SPD R-tilde and H, but a sandwich meat of
        # rank 3 < p=4: that row's c_n is null, and the run still succeeds
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 1, size=(40, 2, 4))
        path = tmp_path / "wide.csv"
        write_dataset_csv(gen_gaussian(X, np.array([1.0, -0.5, 0.3, 0.2]),
                                       exchangeable_matrix(2, 0.3), seed=23), path)
        code, out, err = run_cli(
            ["diagnose", "--data", str(path), "--link", "identity", "--grid", "3,40"], capsys)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [row["c_n"] is None for row in doc["trend"]] == [True, False]
        assert doc["report"]["c_n"] == doc["trend"][1]["c_n"] > 0
        assert "tau_oracle" not in doc["report"]

    @pytest.mark.parametrize("grid, code", [("5,400", 1), ("10,400", 0)])
    def test_grid_below_m_is_rejected_up_front(self, tmp_path, capsys, grid, code):
        # R-tilde of fewer subjects than its m=10 times is singular: such a
        # grid is a shape error before any row is computed
        rng = np.random.default_rng(31)
        path = tmp_path / "m10.csv"
        write_dataset_csv(gen_gaussian(rng.uniform(-1, 1, size=(400, 10, 3)),
                                       np.array([1.0, -0.5, 0.3]),
                                       exchangeable_matrix(10, 0.5), seed=31), path)
        got, out, err = run_cli(
            ["diagnose", "--data", str(path), "--link", "identity", "--grid", grid], capsys)
        assert got == code
        if code:
            assert out == ""
            assert json.loads(err) == {
                "error": "shape",
                "detail": "grid values must lie in [m, n] = [10, 400], got n_head=5"}
        else:
            assert err == ""
            assert [row["n_used"] for row in json.loads(out)["trend"]] == [10, 400]

    @pytest.mark.parametrize("grid", [[], ["--grid", "5"], ["--grid", "10"]],
                             ids=["no-grid", "grid-5", "grid-10"])
    def test_fewer_subjects_than_times_is_rejected(self, tmp_path, capsys, monkeypatch, grid):
        # n=5 < m=10: no prefix has a nonsingular R-tilde, whatever the grid;
        # that depends on n, m and the grid alone, so no preliminary fit runs
        rng = np.random.default_rng(37)
        path = tmp_path / "short.csv"
        write_dataset_csv(gen_gaussian(rng.uniform(-1, 1, size=(5, 10, 3)),
                                       np.array([1.0, -0.5, 0.3]),
                                       exchangeable_matrix(10, 0.5), seed=37), path)
        fits, real = [], cli.gee_independence_fit
        monkeypatch.setattr(cli, "gee_independence_fit",
                            lambda *args: fits.append(1) or real(*args))
        code, out, err = run_cli(
            ["diagnose", "--data", str(path), "--link", "identity"] + grid, capsys)
        assert (code, out, len(fits)) == (1, "", 0)
        assert json.loads(err) == {
            "error": "shape",
            "detail": "n=5 subjects < m=10 times: R-tilde is singular, "
                      "so no prefix can be diagnosed"}

    @pytest.mark.parametrize("grid, trend_n", [("20,40,60", [20, 40, 60]),
                                               ("20,40", [20, 40])])
    def test_full_n_report_computed_once(self, data_csv, capsys, monkeypatch,
                                         grid, trend_n):
        import plgee.diagnostics as diagnostics
        calls = []
        real = diagnostics.design_diagnostics

        def counted(data, *args, **kwargs):
            calls.append(data.n)
            return real(data, *args, **kwargs)

        monkeypatch.setattr(diagnostics, "design_diagnostics", counted)
        code, out, _ = run_cli(
            ["diagnose", "--data", data_csv, "--link", "identity",
             "--beta", "1.0,-0.5", "--grid", grid], capsys)
        assert code == 0
        assert calls == trend_n + [60] * (trend_n[-1] != 60)
        doc = json.loads(out)
        assert [t["n_used"] for t in doc["trend"]] == trend_n
        # the report is the full-n diagnostics
        data, beta = parse_dataset_csv(data_csv), np.array([1.0, -0.5])
        want = real(data, IDENTITY, beta).to_json()
        assert dumps_stable(doc["report"]) == dumps_stable(want)


class TestSimulate:
    @pytest.fixture
    def config_json(self, tmp_path):
        doc = {
            "n": 60, "m": 3, "p": 2, "family": "identity",
            "beta0": [1.0, -0.5],
            "design": {"kind": "iid_uniform"},
            "correlation": {"kind": "exchangeable", "rho": 0.3},
            "replications": 6, "base_seed": 21,
        }
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_deterministic_output(self, config_json, capsys):
        code1, out1, _ = run_cli(["simulate", "--config", config_json], capsys)
        code2, out2, _ = run_cli(["simulate", "--config", config_json], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_workers_do_not_change_bytes(self, config_json, capsys):
        _, out1, _ = run_cli(["simulate", "--config", config_json], capsys)
        _, out4, _ = run_cli(
            ["simulate", "--config", config_json, "--workers", "4"], capsys)
        assert out1 == out4

    def test_replicates_csv(self, config_json, tmp_path, capsys):
        reps = tmp_path / "reps.csv"
        code, out, _ = run_cli(
            ["simulate", "--config", config_json, "--replicates-csv", str(reps)],
            capsys)
        assert code == 0
        lines = reps.read_text().strip().splitlines()
        assert lines[0] == "rep,converged,beta1,beta2,z1,z2,covered1,covered2"
        assert len(lines) == 1 + 6

    def test_replicates_csv_runs_each_replicate_once(self, config_json, tmp_path,
                                                     capsys, monkeypatch):
        import plgee.simulator as simulator
        calls = []
        run_one = simulator._run_replicate

        def counted(config, r):
            calls.append(r)
            return run_one(config, r)

        monkeypatch.setattr(simulator, "_run_replicate", counted)
        code, _, _ = run_cli(["simulate", "--config", config_json,
                              "--replicates-csv", str(tmp_path / "reps.csv")], capsys)
        assert code == 0
        assert calls == list(range(6))

    def test_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 5}))
        code, _, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "config"

    def test_replicates_csv_rows_are_the_replicates(self, tmp_path, capsys):
        # logit at n=6 leaves some replicates unconverged: their rows are blank
        from plgee.simulator import run_replicates
        doc = {"n": 6, "m": 2, "p": 2, "family": "logit", "beta0": [2.5, -2.0],
               "design": {"kind": "iid_uniform"},
               "correlation": {"kind": "exchangeable", "rho": 0.5},
               "replications": 12, "base_seed": 3}
        path, reps = tmp_path / "sim.json", tmp_path / "reps.csv"
        path.write_text(json.dumps(doc))
        run_cli(["simulate", "--config", str(path), "--replicates-csv", str(reps)], capsys)
        with open(reps, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        results = run_replicates(SimConfig.from_json(doc))
        assert {d["ok"] for d in results} == {True, False}
        for row, d in zip(rows, results, strict=True):
            if d["ok"]:
                assert row == ([str(d["rep"]), "1"]
                               + [format(v, ".17g") for v in d["beta_two"] + d["z"]]
                               + [str(int(c)) for c in d["covered"]])
            else:
                assert row == [str(d["rep"]), "0"] + [""] * 6

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_is_error(self, config_json, capsys, workers):
        code, out, err = run_cli(["simulate", "--config", config_json,
                                  "--workers", workers], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "invalid-input",
                                   "detail": f"workers must be at least 1, got {workers}"}

    def test_too_many_failed_replicates_exits_2_with_warning(self, config_json, tmp_path,
                                                             capsys, monkeypatch):
        import plgee.simulator as simulator
        run_one = simulator._run_replicate
        monkeypatch.setattr(simulator, "_run_replicate", lambda config, r: (
            {"rep": r, "ok": False} if r == 2 else run_one(config, r)))
        reps = tmp_path / "reps.csv"
        code, out, err = run_cli(["simulate", "--config", config_json,
                                  "--replicates-csv", str(reps)], capsys)
        assert code == 2
        with open(config_json) as fh:
            config = SimConfig.from_json(json.load(fh))
        results = simulator.run_replicates(config)
        assert out == dumps_stable(simulator.summarize_replicates(config, results).to_json()) + "\n"
        assert reps.read_text().splitlines()[3] == "2,0,,,,,,"
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "warning": "replicates-failed",
            "detail": "1 of 6 replicates failed, more than the 0.02 fraction allowed"}

    def test_every_replicate_falling_back_is_an_empty_report(self, tmp_path, capsys):
        # n=4 < m=6: every R-tilde is singular, so every fit falls back to
        # independence, and no replicate has a two-step estimate
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({
            "n": 4, "m": 6, "p": 2, "family": "identity", "beta0": [1.0, 0.5],
            "design": {"kind": "iid_uniform"},
            "correlation": {"kind": "exchangeable", "rho": 0.3},
            "replications": 20, "base_seed": 1}))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "empty-report",
                                   "detail": "no replicate gave a two-step estimate; nothing to aggregate"}

    def test_misspelled_config_key_is_config_error(self, config_json, capsys):
        with open(config_json) as fh:
            doc = json.load(fh)
        doc["replicatons"] = doc.pop("replications")
        with open(config_json, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run_cli(["simulate", "--config", config_json], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "config",
                                   "detail": "unknown key(s) in config: replicatons"}

    HIGH_RHO = {"n": 60, "m": 3, "p": 2, "family": "logit", "beta0": [0.2, -0.3],
                "design": {"kind": "iid_uniform"},
                "correlation": {"kind": "exchangeable", "rho": 0.97},
                "replications": 3, "base_seed": 4}
    FRECHET = {"warning": "latent-correlation-above-frechet-bound",
               "detail": "latent rho > 0.95 with binary marginals: attainable response "
                         "correlation is Frechet-bounded well below the latent value"}

    def test_latent_rho_past_frechet_bound_is_a_json_warning(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(self.HIGH_RHO))
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["replications"] == 3
        assert err.count("\n") == 1
        assert json.loads(err) == self.FRECHET

    def test_latent_rho_warning_under_warnings_as_errors(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(self.HIGH_RHO))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys, plgee.cli; sys.exit(plgee.cli.main(sys.argv[1:]))",
             "simulate", "--config", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert json.loads(proc.stdout)["replications"] == 3
        assert json.loads(proc.stderr) == self.FRECHET

    def test_config_not_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 5,')
        code, out, err = run_cli(["simulate", "--config", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "config"

    def test_log_link_workers_do_not_change_json_or_csv_bytes(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({
            "n": 60, "m": 3, "p": 2, "family": "log", "beta0": [0.5, -0.3],
            "design": {"kind": "iid_uniform"},
            "correlation": {"kind": "exchangeable", "rho": 0.3},
            "replications": 4, "base_seed": 8}))
        outputs = []
        for workers in ("1", "2"):
            out, reps = tmp_path / f"out{workers}.json", tmp_path / f"reps{workers}.csv"
            code, _, _ = run_cli(["simulate", "--config", str(path), "--workers", workers,
                                  "--out", str(out), "--replicates-csv", str(reps)], capsys)
            assert code == 0
            outputs.append((out.read_bytes(), reps.read_bytes()))
        assert outputs[0] == outputs[1]

    POOL_PARENT = """
import json, sys
import plgee.cli
code = plgee.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, "numpy.random" in sys.modules]))
"""

    def test_pool_children_import_the_generator_themselves(self, tmp_path, capsys):
        """A parent that never imported numpy.random starts the pool: each
        child imports it on its first draw, and the bytes do not change."""
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({
            "n": 60, "m": 3, "p": 2, "family": "log", "beta0": [0.5, -0.3],
            "design": {"kind": "categorical"},
            "correlation": {"kind": "exchangeable", "rho": 0.3},
            "replications": 4, "base_seed": 8}))

        def argv(workers):
            return ["simulate", "--config", str(path), "--workers", workers,
                    "--out", str(tmp_path / f"out{workers}.json"),
                    "--replicates-csv", str(tmp_path / f"reps{workers}.csv")]

        assert run_cli(argv("1"), capsys)[0] == 0
        # exit code 0, and the parent ends without numpy.random: only its children drew
        assert fresh_python(self.POOL_PARENT, json.dumps(argv("2"))) == [0, False]
        for name in ("out{}.json", "reps{}.csv"):
            one, two = (tmp_path / name.format(w) for w in (1, 2))
            assert one.read_bytes() == two.read_bytes()

    def test_one_replicate_report_is_strict_json(self, config_json, capsys):
        # one replicate's variances are 0, so its efficiency ratios are NaN
        with open(config_json) as fh:
            doc = json.load(fh)
        doc["replications"] = 1
        with open(config_json, "w") as fh:
            json.dump(doc, fh)
        code, out, _ = run_cli(["simulate", "--config", config_json], capsys)
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        assert json.loads(out, parse_constant=reject)["efficiency_ratio"] == [None, None]

    def test_report_matches_library_call(self, config_json, capsys):
        from plgee.simulator import monte_carlo_run
        _, out, _ = run_cli(["simulate", "--config", config_json], capsys)
        doc = json.loads(out)
        with open(config_json) as fh:
            config = SimConfig.from_json(json.load(fh))
        rep = monte_carlo_run(config)
        assert doc["bias"] == pytest.approx(rep.bias, rel=1e-12)
        assert doc["coverage"] == rep.coverage


class TestExitCodes:
    def test_codes_are_limited_to_known_set(self, data_csv, capsys):
        codes = set()
        codes.add(main(["fit", "--data", data_csv, "--link", "identity"]))
        codes.add(main(["fit", "--data", "/nope.csv", "--link", "identity"]))
        capsys.readouterr()
        assert codes <= {0, 1, 2}


class TestImports:
    """`import plgee.cli` loads everything fit and diagnose use, and neither
    scipy, nor the process pool, which only a run with --workers > 1 starts,
    nor numpy.random (with the OpenSSL it loads), which only a run that
    draws imports.  numpy 2 imports numpy.random lazily, on first use."""

    SCRIPT = """
import json, sys
import plgee.cli
loaded = set(sys.modules)
added = {}
for argv in json.loads(sys.argv[1]):
    plgee.cli.main(argv)
    added[argv[0]] = sorted(set(sys.modules) - loaded)
scipy = sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))
pool = sorted(m for m in loaded
              if m.partition(".")[0] == "multiprocessing" or m.startswith("concurrent.futures"))
rng = sorted(m for m in loaded if m.startswith("numpy.random") or m == "_hashlib")
print(json.dumps({"scipy": scipy, "pool": pool, "rng": rng, "added": added}))
"""

    RANDOM = """
import json, sys
import plgee.cli
loaded = set(sys.modules)
import numpy.random
print(json.dumps(sorted(set(sys.modules) - loaded)))
"""

    def test_commands_import_nothing_and_no_scipy(self, data_csv, counts_csv, tmp_path):
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "n": 40, "m": 3, "p": 2, "family": "log", "beta0": [0.5, -0.3],
            "design": {"kind": "iid_uniform"},
            "correlation": {"kind": "exchangeable", "rho": 0.3},
            "replications": 3, "base_seed": 5}))
        out = str(tmp_path / "out.json")
        fit = ["fit", "--data", counts_csv, "--link", "log", "--out", out]
        argvs = [fit,
                 ["diagnose", "--data", data_csv, "--link", "identity", "--out", out],
                 ["simulate", "--config", str(config), "--out", out,
                  "--replicates-csv", str(tmp_path / "reps.csv")]]
        doc = fresh_python(self.SCRIPT, json.dumps(argvs))
        shuffled = fresh_python(self.SCRIPT, json.dumps([fit + ["--shuffle-subjects", "3"]]))
        random = fresh_python(self.RANDOM)
        assert "numpy.random" in random
        assert doc == {"scipy": [], "pool": [], "rng": [],
                       "added": {"fit": [], "diagnose": [], "simulate": random}}
        assert shuffled["added"] == {"fit": random}


def test_cli_checks_script_passes():
    # the end-to-end checks CI runs against the installed console script,
    # here through this interpreter's `-m plgee.cli`
    script = os.path.join(os.path.dirname(__file__), "cli_checks.sh")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
               PATH=os.path.dirname(sys.executable) + os.pathsep + os.environ["PATH"])
    proc = subprocess.run(["bash", script, sys.executable, "-m", "plgee.cli"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr

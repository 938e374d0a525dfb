"""The CSV differential fuzz of tests/test_cli.py at scale: the fast pass
against the exact parser on FILES mutated files, with warnings as errors.

    PYTHONPATH=src python -W error tests/csv_fuzz.py [FILES] [SEED]

Half the files are drawn as in test_differential_fuzz_against_exact_parser,
half with padded and returning subject ids (seed SEED + 1).  Prints one line
per half; an outcome that differs raises AssertionError.  Not named
test_*.py, so pytest does not collect it.
"""

import sys
import tempfile
from pathlib import Path

import pytest

from test_cli import _fuzz_lines, _padded_id_lines, differential_fuzz


def main(argv):
    files = int(float(argv[0])) if argv else 20_000
    seed = int(argv[1]) if len(argv) > 1 else 7
    halves = (("plain ids", _fuzz_lines, files - files // 2, seed),
              ("padded and returning ids", _padded_id_lines, files // 2, seed + 1))
    with tempfile.TemporaryDirectory() as tmp:
        for name, fuzz_lines, n_files, half_seed in halves:
            with pytest.MonkeyPatch.context() as monkeypatch:
                accepted = differential_fuzz(Path(tmp), monkeypatch, n_files, half_seed,
                                             fuzz_lines=fuzz_lines)
            parsed = sum(isinstance(o[0], tuple) for o in accepted)
            print(f"{name}: {n_files} files (seed {half_seed}) agree; the fast pass "
                  f"took {len(accepted)}, {parsed} parsed and {len(accepted) - parsed} "
                  "rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

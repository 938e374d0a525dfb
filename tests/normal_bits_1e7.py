"""gauss_cdf and gauss_quantile_array against scipy.special's ndtr and ndtri,
bit for bit, on at least 1e7 points each, with warnings as errors.

    PYTHONPATH=src python tests/normal_bits_1e7.py [POINTS]

The points are the ones tests/test_normal_bits.py draws, in chunks of about
1e6 with seeds 0, 1, ...  Prints one line per function; exits 1 on the first
differing bit.  Not named test_*.py, so pytest does not collect it.
"""

import sys
import warnings

import numpy as np
from scipy.special import ndtr, ndtri

from plgee.model import gauss_cdf, gauss_quantile_array
from test_normal_bits import (CDF_EDGES, QUANTILE_EDGES, SPECIAL, cdf_points, mismatches,
                              quantile_points)


def check(name, ours, oracle, chunks, want_points):
    done = 0
    for seed, x in enumerate(chunks):
        bad = mismatches(ours(x), oracle(x))
        if len(bad):
            i = bad[0]
            print(f"{name}: chunk {seed} differs at {x[i]!r}: "
                  f"{ours(x[i:i + 1])[0]!r} != {oracle(x[i:i + 1])[0]!r}")
            return False
        done += len(x)
        if done >= want_points:
            break
    print(f"{name}: {done} points bit-identical")
    return True


def main(argv):
    points = int(float(argv[0])) if argv else 10_000_000
    warnings.simplefilter("error")

    def chunks(draw, edges):
        yield edges
        seed = 0
        while True:
            yield draw(np.random.default_rng(seed), 200_000)
            seed += 1

    ok = check("gauss_cdf", gauss_cdf, ndtr,
               chunks(cdf_points, np.concatenate([CDF_EDGES, -CDF_EDGES, SPECIAL])), points)
    ok &= check("gauss_quantile_array", gauss_quantile_array, ndtri,
                chunks(quantile_points, QUANTILE_EDGES), points)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

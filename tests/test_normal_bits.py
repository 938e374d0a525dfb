"""The standard normal CDF and quantile against scipy.special, bit for bit.

plgee ports Cephes' ndtr and ndtri so that it does not import scipy; scipy
stays a test dependency, as the oracle here.  `tests/normal_bits_1e7.py`
runs the same comparison on 1e7 points.
"""

import warnings

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from plgee.errors import InvalidInputError
from plgee.model import _MAXLOG, gauss_cdf, gauss_quantile_array


def cdf_points(rng, k):
    """5k arguments for the CDF: normals, uniforms, 10^-U(0, 300),
    1 - 10^-U(0, 16) and U(-40, 40)."""
    return np.concatenate([rng.standard_normal(k), rng.random(k),
                           10.0 ** -rng.uniform(0, 300, k),
                           1.0 - 10.0 ** -rng.uniform(0, 16, k),
                           rng.uniform(-40, 40, k)])


def quantile_points(rng, k):
    """The arguments of cdf_points that lie in (0, 1), the quantile's domain."""
    q = cdf_points(rng, k)
    return q[(q > 0.0) & (q < 1.0)]


def neighbours(values, k=16):
    """Each positive value with the k doubles on either side of it."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-k, k + 1)
    return bits.ravel().view(np.float64)


def mismatches(got, want):
    """Indices where got and want differ in any bit; NaNs of any payload agree."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    return np.flatnonzero(~same)


# Cephes' branch boundaries: ndtr switches at |a| = 1 (erf to erfc), sqrt(2)
# and 8 sqrt(2) (erfc's polynomials) and where a^2/2 passes MAXLOG (erfc
# underflows, |a| ~ 37.7); ndtri at exp(-2) and 1 - exp(-2) (centre to
# tails) and exp(-32) (between its two tail rationals).
CDF_EDGES = neighbours([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), np.sqrt(2.0 * _MAXLOG)])
QUANTILE_EDGES = neighbours([np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)])
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, -1e-300]


def test_cdf_matches_ndtr_bit_for_bit():
    a = cdf_points(np.random.default_rng(0), 200_000)
    assert len(mismatches(gauss_cdf(a), ndtr(a))) == 0


def test_quantile_matches_ndtri_bit_for_bit():
    q = quantile_points(np.random.default_rng(1), 200_000)
    assert len(mismatches(gauss_quantile_array(q), ndtri(q))) == 0


def test_cdf_edges_without_warnings():
    a = np.concatenate([CDF_EDGES, -CDF_EDGES, SPECIAL])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gauss_cdf(a)
    assert len(mismatches(got, ndtr(a))) == 0
    assert got[-5] != got[-5] and got[-6] == 0.0 and got[-7] == 1.0


def test_quantile_edges_without_warnings():
    q = np.concatenate([QUANTILE_EDGES, [np.nan, 5e-324, 1e-300, 0.5, 1.0 - 2.0 ** -53]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gauss_quantile_array(q)
    assert len(mismatches(got, ndtri(q))) == 0


@pytest.mark.parametrize("value", [0.7, 1.0, 6.0, -3.0, 0.0])
def test_scalars_and_shapes_follow_scipy(value):
    for got, want in ((gauss_cdf(value), ndtr(value)),
                      (gauss_cdf(np.full((2, 3), value)), ndtr(np.full((2, 3), value)))):
        assert type(got) is type(want) and len(mismatches(got, want)) == 0
    q = float(ndtr(value))
    assert type(gauss_quantile_array(q)) is type(ndtri(q))
    assert float(gauss_quantile_array(q)) == float(ndtri(q))


@pytest.mark.parametrize("q", [0.0, -0.0, 1.0, -1e-300, 2.0, np.inf, -np.inf])
def test_quantile_rejects_arguments_outside_the_open_unit_interval(q):
    with pytest.raises(InvalidInputError):
        gauss_quantile_array(np.array([0.5, q]))

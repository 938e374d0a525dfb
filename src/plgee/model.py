"""Marginal GLM layer: canonical links with three derivatives, the
longitudinal dataset container, and per-subject model evaluation.

Canonical links mean the per-cell variance equals the first derivative of
the mean function, so ``d1`` doubles as the variance everywhere downstream.
Probit follows the same convention as in the paper: its variance is
mu'(theta) = phi(theta), not the Bernoulli variance Phi(theta)(1 - Phi(theta)).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidInputError, LinkOverflowError

LINK_KINDS = ("identity", "log", "logit", "probit")

LOG_THETA_LIMIT = 700.0

# Smallest positive normal double; saturated logit/probit variances are
# clamped here instead of underflowing to zero.
_TINY = np.finfo(float).tiny

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gauss_pdf(x):
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def gauss_cdf(x):
    return ndtr(np.asarray(x, dtype=float))


def gauss_quantile_array(q):
    """Vectorized standard normal quantile."""
    q = np.asarray(q, dtype=float)
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise InvalidInputError("quantile arguments must be in (0,1)")
    return ndtri(q)


def gauss_quantile(q):
    return float(gauss_quantile_array(float(q)))


@dataclass(frozen=True)
class LinkFamily:
    kind: str

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise InvalidInputError(
                f"unknown link kind {self.kind!r}; expected one of {LINK_KINDS}"
            )


IDENTITY = LinkFamily("identity")
LOG = LinkFamily("log")
LOGIT = LinkFamily("logit")
PROBIT = LinkFamily("probit")


@dataclass(frozen=True)
class LinkValues:
    mu: float
    d1: float
    d2: float
    d3: float


def _mean_and_variance(family, theta):
    """Vectorized mean function and its first derivative, the variance.

    Returns (mu, d1) arrays.  d1 is clamped to the smallest positive normal
    so saturated logit/probit cells keep strictly positive variance.
    """
    theta = np.asarray(theta, dtype=float)
    kind = family.kind
    if kind == "identity":
        return theta.copy(), np.ones_like(theta)
    if kind == "log":
        if np.any(np.abs(theta) > LOG_THETA_LIMIT):
            raise LinkOverflowError(
                f"log link overflow: |theta| > {LOG_THETA_LIMIT:g}"
            )
        e = np.exp(theta)
        return e, e.copy()
    if kind == "logit":
        # stable sigmoid; variance in a form that underflows gracefully
        z = np.exp(-np.abs(theta))
        mu = np.where(theta >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return mu, np.maximum(z / np.square(1.0 + z), _TINY)
    # probit
    return gauss_cdf(theta), np.maximum(gauss_pdf(theta), _TINY)


def _link_arrays(family, theta):
    """Vectorized mean function with three derivatives: (mu, d1, d2, d3)."""
    theta = np.asarray(theta, dtype=float)
    mu, d1 = _mean_and_variance(family, theta)
    kind = family.kind
    if kind == "identity":
        zero = np.zeros_like(theta)
        return mu, d1, zero, zero
    if kind == "log":
        return mu, d1, mu.copy(), mu.copy()
    if kind == "logit":
        return mu, d1, d1 * (1.0 - 2.0 * mu), d1 * (1.0 - 6.0 * mu + 6.0 * mu * mu)
    # probit
    return mu, d1, -theta * d1, (theta * theta - 1.0) * d1


def link_eval(family, theta):
    """Mean function and first three derivatives at a single theta."""
    theta = float(theta)
    if not np.isfinite(theta):
        raise InvalidInputError(f"theta must be finite, got {theta}")
    mu, d1, d2, d3 = _link_arrays(family, np.float64(theta))
    return LinkValues(mu=float(mu), d1=float(d1), d2=float(d2), d3=float(d3))


class LongitudinalDataset:
    """n subjects, each with an m x p design X_i and an m-vector response y_i.

    Subjects are stored in a fixed order; that order is the filtration index
    under which the residual vectors are assumed to be martingale
    differences, and every estimator iterates in it.  Responses are kept
    real-valued even for count/binary links (quasi-likelihood: only the
    first two marginal moments are modeled).
    """

    __slots__ = ("X", "y")

    def __init__(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 3:
            raise InvalidInputError(f"X must be (n, m, p), got shape {X.shape}")
        if y.shape != X.shape[:2]:
            raise InvalidInputError(
                f"y shape {y.shape} does not match X subjects/times {X.shape[:2]}"
            )
        n, m, p = X.shape
        if n < 1 or m < 1 or p < 1:
            raise InvalidInputError(f"need n, m, p >= 1, got {(n, m, p)}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise InvalidInputError("dataset contains non-finite entries")
        # C order keeps the (n*m, p) flattening that every sum over subjects
        # uses a view rather than a copy
        self.X = np.ascontiguousarray(X)
        self.y = np.ascontiguousarray(y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def m(self):
        return self.X.shape[1]

    @property
    def p(self):
        return self.X.shape[2]

    def subset(self, n_head):
        """Prefix of the first n_head subjects, in stored order."""
        if not 1 <= n_head <= self.n:
            raise InvalidInputError(f"prefix size {n_head} out of range [1, {self.n}]")
        return LongitudinalDataset(self.X[:n_head], self.y[:n_head])

    def permuted(self, order):
        order = np.asarray(order, dtype=int)
        if sorted(order.tolist()) != list(range(self.n)):
            raise InvalidInputError("order must be a permutation of subject indices")
        return LongitudinalDataset(self.X[order], self.y[order])


@dataclass(frozen=True)
class ModelEval:
    """Per-cell model quantities at a given beta; arrays are (subjects, m)."""

    theta: np.ndarray
    mu: np.ndarray
    var: np.ndarray   # diagonal of A_i, one row per subject
    eps: np.ndarray

    @property
    def sd(self):
        return np.sqrt(self.var)


def eval_model(data, family, beta, rows=slice(None)):
    """The model at beta for the subjects data.X[rows] (all by default)."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (data.p,):
        raise InvalidInputError(f"beta must have length {data.p}, got shape {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise InvalidInputError("beta has non-finite entries")
    X = data.X[rows]
    # one GEMV on the (cells, p) flattening: numpy's batched matvec is several times slower
    theta = (X.reshape(-1, data.p) @ beta).reshape(X.shape[:2])
    try:
        mu, var = _mean_and_variance(family, theta)
    except LinkOverflowError:
        bad = np.argwhere(np.abs(theta) > LOG_THETA_LIMIT)
        i, j = (range(data.n)[rows][bad[0][0]], int(bad[0][1])) if len(bad) else (None, None)
        raise LinkOverflowError(
            f"log link overflow at subject {i}, time {j}", subject=i, time=j
        ) from None
    return ModelEval(theta=theta, mu=mu, var=var, eps=data.y[rows] - mu)

"""Marginal GLM layer: canonical links with three derivatives, the
longitudinal dataset container, and per-subject model evaluation.

Canonical links mean the per-cell variance equals the first derivative of
the mean function, so ``d1`` doubles as the variance everywhere downstream.
Probit follows the same convention as in the paper: its variance is
mu'(theta) = phi(theta), not the Bernoulli variance Phi(theta)(1 - Phi(theta)).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


# The standard normal CDF and quantile are Cephes' ndtr and ndtri (S. L.
# Moshier, Methods and Programs for Mathematical Functions, 1989), the code
# behind scipy.special's, and give its results bit for bit.  Coefficients
# run from the highest degree down; each denominator's leading 1, implicit
# in Cephes' p1evl, is written out, which changes no bit.  exp and log go
# through `math`, the C library that scipy's compiled code calls: numpy's
# vectorized exp and log round some arguments differently.  A scalar
# argument gives a numpy scalar (the `[()]`), as scipy's ufuncs do.

_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)

_SQRT1_2 = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2     # log(2**1024)
_EXP_M2 = 1.3533528323661269189E-1     # exp(-2)
_S2PI = 2.50662827463100050242E0       # sqrt(2 pi)


def _polevl(x, coef):
    """The polynomial with coefficients coef at x, by Horner's rule."""
    acc = coef[0] * x + coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def _libm(fn, x):
    """fn, math.exp or math.log, over the elements of the 1-D array x."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def gauss_cdf(a):
    """Standard normal CDF, Cephes ndtr: with x = a sqrt(1/2), 1/2 + erf(x)/2
    for |x| < sqrt(1/2), else erfc(|x|)/2, or one minus it for x > 0.  erf
    and erfc share Cephes' three branches over |x|: [0, 1), [1, 8) and
    [8, inf)."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    y = np.zeros_like(z)              # 0 where -x^2 < -MAXLOG: erfc underflows
    sel = z < 1.0
    xs = x[sel]
    x2 = xs * xs
    erf = xs * _polevl(x2, _ERF_T) / _polevl(x2, _ERF_U)
    y[sel] = np.where(z[sel] < _SQRT1_2, 0.5 + 0.5 * erf, 0.5 * (1.0 - np.abs(erf)))
    e = -z * z
    for sel, p, q in ((~sel & (z < 8.0), _ERFC_P, _ERFC_Q),
                      (~(z < 8.0) & ~(e < -_MAXLOG), _ERFC_R, _ERFC_S)):   # NaN here
        if sel.any():
            zs = z[sel]
            y[sel] = 0.5 * (_libm(math.exp, e[sel]) * _polevl(zs, p) / _polevl(zs, q))
    return np.where((x > 0) & (z >= _SQRT1_2), 1.0 - y, y)[()]


def _ndtri(y0):
    """Cephes ndtri on y0 in (0, 1), NaN giving NaN: a rational in y - 1/2 on
    the centre, and one in 1/z, z = sqrt(-2 log y), on each tail."""
    y0 = np.asarray(y0, dtype=float)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    x = np.empty_like(y)
    centre = y > _EXP_M2
    yc = y[centre] - 0.5
    y2 = yc * yc
    x[centre] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _S2PI
    tail = ~centre
    z = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x1 = np.empty_like(z)
    near = z < 8.0
    for sel, p, q in ((near, _NDTRI_P1, _NDTRI_Q1), (~near, _NDTRI_P2, _NDTRI_Q2)):
        if sel.any():
            w = 1.0 / z[sel]
            x1[sel] = w * _polevl(w, p) / _polevl(w, q)
    xt = z - _libm(math.log, z) / z - x1
    x[tail] = np.where(upper[tail], xt, -xt)
    return x[()]


def gauss_quantile_array(q):
    """Vectorized standard normal quantile."""
    q = np.asarray(q, dtype=float)
    if ((q <= 0.0) | (q >= 1.0)).any():
        raise InvalidInputError("quantile arguments must be in (0,1)")
    return _ndtri(q)


@lru_cache
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
        if (np.abs(theta) > LOG_THETA_LIMIT).any():
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
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
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
    if not np.isfinite(beta).all():
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

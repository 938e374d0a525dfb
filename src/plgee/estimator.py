"""Two-step pseudo-likelihood GEE estimation.

Pipeline: working-independence Newton solve, empirical average-correlation
estimate from the standardized residuals, Fisher-scoring solve of the
pseudo-likelihood equation built on that correlation, and Wald intervals
on top.  Every solve returns the Liang-Zeger sandwich covariance of its
estimate, built from the decomposition of the scoring matrix it already made.

The estimating functions, scoring matrices and R-tilde are sums over
independent subjects, so the model is evaluated and each sum formed over
fixed-size blocks of subjects: a fit's temporaries stay a few (n, m) arrays
plus about a megabyte per block, never a second copy of the (n, m, p) design.
"""

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .errors import (
    InvalidInputError,
    LineSearchFailure,
    LinkOverflowError,
    NotPositiveDefiniteError,
    SingularDesignError,
)
from .matkernel import SymMatrix, sym_eigen
from .model import eval_model

METHOD_INDEPENDENCE = "independence"
METHOD_PSEUDO_LIKELIHOOD = "pseudo_likelihood"

# The one confidence level of the Wald intervals, and its two-sided z: the
# 0.975 standard normal quantile, model.gauss_quantile_array(0.975) bit for bit.
CI_LEVEL = 0.95
Z_95 = 1.959963984540054


# Newton iteration cap, relative gradient and step tolerances, and step
# halvings per iteration; the solver reads them at call time.
_MAX_ITER = 50
_GRAD_TOL = 1e-8
_STEP_TOL = 1e-10
_STEP_HALVING_MAX = 20


@dataclass(frozen=True, eq=False)     # == of array fields has no truth value
class CorrelationEstimate:
    R_tilde: SymMatrix
    computed_at_beta: np.ndarray
    n_used: int


@dataclass(frozen=True, eq=False)
class FitResult:
    beta_hat: np.ndarray
    converged: bool
    trace: list     # per-iteration (beta, gnorm), from the initial point to beta_hat
    cov_beta: SymMatrix     # the Liang-Zeger sandwich H^{-1} M H^{-1} at beta_hat
    method: str = METHOD_INDEPENDENCE
    correlation_used: CorrelationEstimate | None = None
    causes: tuple = ()      # (kind, detail) warnings about this estimate
    # step-1 independence fit of two_step_fit, as gee_independence_fit returned it
    preliminary: "FitResult | None" = field(default=None, repr=False)

    @property
    def iterations(self):
        """Newton iterations taken: the trace's points after the initial one."""
        return len(self.trace) - 1

    @property
    def final_gnorm(self):
        """Estimating-function norm at beta_hat, the trace's last."""
        return self.trace[-1][1]

    @property
    def stderr(self):
        """Robust standard errors: square roots of cov_beta's diagonal, a negative entry as 0."""
        return np.sqrt(np.maximum(np.diag(self.cov_beta.a), 0.0))


# Sums over the (n, m, p) subject stack, as BLAS calls on the (n*m, p)
# flattening.  The reshapes are views only when the stacks are C-contiguous.
# The sums run over blocks of about _BLOCK_CELLS cells (subjects x m x p):
# each block's model values and weighted copy of X stay near 1 MB whatever
# m*p is, instead of (n, m, p) and (n, m) temporaries per call.  A dataset
# that fits in one block gives the single-call result bit for bit: reduce
# returns a lone block's sum as it is.

_BLOCK_CELLS = 1 << 17


def _flat(A):
    return A.reshape(-1, A.shape[-1])


def _blocks(X):
    """Slices of consecutive subjects covering X, about _BLOCK_CELLS cells each."""
    n, m, p = X.shape
    size = max(1, _BLOCK_CELLS // (m * p))
    return [slice(start, start + size) for start in range(0, n, size)]


def _score(X, t):
    """sum_i X_i' t_i (a GEMV)."""
    return t.ravel() @ _flat(X)


def _weighted_gram(X, w):
    """sum_i X_i' diag(w_i) X_i (one GEMM per block)."""
    return reduce(np.add, (_flat(X[rows] * w[rows, :, None]).T @ _flat(X[rows])
                           for rows in _blocks(X)))


def _sandwiched_block(X, sd, Q, rows):
    """(B, Q B) for one block of subjects, where B_i = diag(sd_i) X_i.  Callers
    map over _blocks, so one block's pair is alive at a time."""
    B = sd[rows, :, None] * X[rows]
    return B, np.matmul(Q, B)


def _sandwiched_gram(X, sd, Q):
    """sum_i B_i' Q B_i with B_i = diag(sd_i) X_i (a batched matmul and a
    GEMM per block)."""
    def block_gram(rows):
        B, QB = _sandwiched_block(X, sd, Q, rows)
        return _flat(B).T @ _flat(QB)

    return reduce(np.add, map(block_gram, _blocks(X)))


def _subject_scores(X, t):
    """Per-subject X_i' t_i as an (n, p) array (a batched matmul)."""
    return np.matmul(t[:, None, :], X)[:, 0, :]


def _evaluate(data, family, Q, beta, cells):
    """g = sum_i X_i' t_i at beta, the model evaluated a block of subjects at a
    time into the two planes of cells, which every call overwrites: (eps, var)
    with Q None (working independence), else (t, sd) with the working residuals
    t_i = A_i^{1/2} Q A_i^{-1/2} eps_i of a fixed correlation inverse Q."""
    t, w = cells

    def block_score(rows):
        ev = eval_model(data, family, beta, rows)
        if Q is None:
            t[rows], w[rows] = ev.eps, ev.var
        else:
            sd = ev.sd
            t[rows], w[rows] = sd * ((ev.eps / sd) @ Q.T), sd
        return _score(data.X[rows], t[rows])

    return reduce(np.add, map(block_score, _blocks(data.X)))


def _gram(X, Q, w):
    """H from _evaluate's second plane: sum_i X_i' diag(w_i) X_i with Q None, else
    sum_i B_i' Q B_i, B_i = diag(w_i) X_i; the first is Q = I, summed as its own GEMM."""
    return _weighted_gram(X, w) if Q is None else _sandwiched_gram(X, w, Q)


def _norm(v):
    """Euclidean norm of a vector, as np.linalg.norm forms it."""
    return math.sqrt(v @ v)


def _scoring_inverse(H, where):
    """H^{-1} from the one decomposition of the scoring matrix H."""
    try:
        return sym_eigen(H, require_spd="scoring matrix").power(-1)
    except NotPositiveDefiniteError as exc:
        raise SingularDesignError(f"{exc} {where}") from exc


def _require_finite(value, what):
    """value, if all of it is finite; else InvalidInputError naming `what`."""
    if not np.isfinite(value).all():
        raise InvalidInputError(f"{what} is not finite (it overflows double precision)")
    return value


def _sandwich(X, t, H_inv):
    """H^{-1} M H^{-1}, M the sum of the subjects' score outer products."""
    V = _subject_scores(X, t)
    with np.errstate(over="ignore", invalid="ignore"):      # an overflow is named instead
        return _require_finite(H_inv @ (V.T @ V) @ H_inv, "the sandwich covariance")


def _newton_solve(data, family, beta_init, Q, method):
    """Damped Newton / Fisher scoring on the estimating function of _evaluate
    for the correlation inverse Q (None: working independence).

    Full step first; halved whenever the estimating-function norm fails to
    decrease or the link overflows along the way.  H is built only at the
    accepted points, and decomposed once there, at the head of the loop: at
    the initial point that is the rank check, and at beta_hat it gives H^{-1}
    for the sandwich covariance the result carries.  Every point is evaluated
    into one pair of (n, m) arrays: H^{-1} is taken at an accepted point before
    any candidate overwrites its cells, and beta_hat is the point evaluated last.
    """
    beta = np.asarray(beta_init, dtype=float).copy()
    cells = np.empty((2,) + data.y.shape)
    try:    # under the line search's errstate: what overflows is named below
        with np.errstate(over="ignore", invalid="ignore"):
            tol = _GRAD_TOL * (1.0 + _norm(_score(data.X, data.y)))
            g = _evaluate(data, family, Q, beta, cells)
            gnorm = _norm(g)
    except LinkOverflowError as exc:
        raise LineSearchFailure(f"link overflow at the initial point: {exc}") from exc
    _require_finite(tol, "the convergence scale (the norm of sum_i X_i' y_i)")
    _require_finite(gnorm, "the estimating function's norm at the initial point")
    trace = [(beta.copy(), gnorm)]

    it, step_size = 0, math.inf
    while True:     # at an accepted point: beta, g, gnorm and its cells
        H_inv = _scoring_inverse(_gram(data.X, Q, cells[1]),
                                 f"after iteration {it}" if it else "at the initial point")
        converged = gnorm <= tol
        if converged or it >= _MAX_ITER or step_size <= _STEP_TOL * (1.0 + _norm(beta)):
            break
        it += 1
        step = H_inv @ g
        scale = 1.0
        for _ in range(_STEP_HALVING_MAX + 1):
            cand = beta + scale * step
            try:    # an overflowing g gives an inf or NaN norm, which is rejected
                with np.errstate(over="ignore", invalid="ignore"):
                    g_new = _evaluate(data, family, Q, cand, cells)
                    gnorm_new = _norm(g_new)
            except LinkOverflowError:
                scale *= 0.5
                continue
            if gnorm_new < gnorm:
                break
            scale *= 0.5
        else:
            raise LineSearchFailure(
                f"step halving exhausted after {_STEP_HALVING_MAX} halvings "
                f"at iteration {it} (gnorm={gnorm:.6g})"
            )
        step_size = _norm(scale * step)
        beta, g, gnorm = cand, g_new, gnorm_new
        trace.append((beta.copy(), gnorm))

    causes = ()
    if data.n < data.p:     # the sandwich's middle matrix is a sum of n rank-one terms
        causes += (("fewer-subjects-than-covariates",
                    f"n={data.n} subjects < p={data.p} covariates: the sandwich covariance "
                    "is singular, so stderr and wald_ci are not valid"),)
    if not converged:       # stopped by _MAX_ITER, or else by _STEP_TOL
        stop = (f"it reached the iteration limit of {_MAX_ITER}" if it >= _MAX_ITER else
                f"its last step fell below the step tolerance {_STEP_TOL:g} * (1 + |beta|)")
        causes += (("not-converged",
                    f"the {method} fit did not converge (iterations={len(trace) - 1}, "
                    f"gnorm={gnorm:.6g}): {stop}; beta_hat is its last iterate"),)
    return FitResult(beta_hat=beta, converged=converged, trace=trace, method=method,
                     cov_beta=SymMatrix(_sandwich(data.X, cells[0], H_inv)), causes=causes)


def gee_independence_fit(data, family):
    """Newton solve of the working-independence estimating equation, from zero.

    For canonical links the scoring matrix sum X_i' A_i X_i is the exact
    Jacobian of the estimating function.  The result carries the sandwich
    covariance H^{-1} M H^{-1} at beta_hat.  A rank-deficient design raises
    SingularDesignError at the initial point.
    """
    return _newton_solve(data, family, np.zeros(data.p), None, METHOD_INDEPENDENCE)


def _average_correlation(X, cells):
    """R-tilde = (1/n) sum_i s_i s_i', s_i = eps_i / sqrt(var_i) the standardized
    residuals, summed a block of subjects at a time; cells(rows) gives the
    block's (eps, var).  An R-tilde that overflows raises."""
    def block_outer(rows):
        eps, var = cells(rows)
        s = eps / np.sqrt(var)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
            return s.T @ s

    return _require_finite(reduce(np.add, map(block_outer, _blocks(X))) / len(X), "R-tilde")


def estimate_correlation(data, family, beta):
    """Average outer product of standardized residuals at beta."""
    beta = np.asarray(beta, dtype=float)

    def cells(rows):
        ev = eval_model(data, family, beta, rows)
        return ev.eps, ev.var

    return CorrelationEstimate(
        R_tilde=SymMatrix(_average_correlation(data.X, cells)),
        computed_at_beta=beta.copy(),
        n_used=data.n,
    )


def pseudo_likelihood_fit(data, family, corr, beta_init=None):
    """Fisher-scoring solve of the pseudo-likelihood estimating equation.

    The step matrix is sum X_i' A_i^{1/2} R^{-1} A_i^{1/2} X_i; the extra
    derivative terms of the exact Jacobian are dropped (their effect is
    checked in diagnostics, not used for stepping).  The result carries the
    sandwich covariance H^{-1} M H^{-1} at beta_hat.
    """
    Q = sym_eigen(corr.R_tilde, require_spd="correlation estimate").power(-1)
    if beta_init is None:
        beta_init = np.zeros(data.p)
    return replace(_newton_solve(data, family, beta_init, Q, METHOD_PSEUDO_LIKELIHOOD),
                   correlation_used=corr)


def two_step_fit(data, family):
    """Independence fit from zero, correlation estimate, pseudo-likelihood
    refit.  Falls back to the independence fit, with its own sandwich, when
    that fit did not converge (with ``correlation_used`` None: R-tilde and
    the refit need a consistent preliminary estimate) or when the
    correlation estimate is numerically singular.

    The step-1 fit is kept as ``preliminary``.  Only those two conditions
    trigger the fallback: a singular scoring matrix raises
    SingularDesignError.  The returned fit's ``causes`` name its warnings as
    (kind, detail) pairs: ``fewer-subjects-than-covariates`` (its sandwich is
    singular), ``not-converged`` (beta_hat is the last iterate) and
    ``fallback-to-independence`` (which says which condition it was).
    """
    indep = gee_independence_fit(data, family)
    corr, why = None, "the preliminary fit did not converge"
    if indep.converged:
        corr = estimate_correlation(data, family, indep.beta_hat)
        try:
            fit = pseudo_likelihood_fit(data, family, corr, beta_init=indep.beta_hat)
            return replace(fit, preliminary=indep)
        except NotPositiveDefiniteError as exc:     # R-tilde is singular
            why = str(exc)
    fallback = f"the two-step fit fell back to the independence fit: {why}"
    return replace(indep, correlation_used=corr, preliminary=indep,
                   causes=indep.causes + (("fallback-to-independence", fallback),))


def wald_intervals(fit):
    """Per-coordinate 95 % Wald interval beta_k +/- Z_95 * se_k, se = fit.stderr."""
    return [(float(b - Z_95 * s), float(b + Z_95 * s)) for b, s in zip(fit.beta_hat, fit.stderr)]

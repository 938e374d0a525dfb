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
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .errors import (
    DegenerateVarianceError,
    LineSearchFailure,
    LinkOverflowError,
    NotPositiveDefiniteError,
    PreconditionError,
    SingularDesignError,
)
from .matkernel import SymMatrix, sym_eigen
from .model import eval_model, gauss_quantile

METHOD_INDEPENDENCE = "independence"
METHOD_PSEUDO_LIKELIHOOD = "pseudo_likelihood"


# Newton iteration cap, relative gradient and step tolerances, and step
# halvings per iteration; the solver reads them at call time.
_MAX_ITER = 50
_GRAD_TOL = 1e-8
_STEP_TOL = 1e-10
_STEP_HALVING_MAX = 20


@dataclass(frozen=True)
class CorrelationEstimate:
    R_tilde: SymMatrix
    computed_at_beta: np.ndarray
    n_used: int


@dataclass
class FitResult:
    beta_hat: np.ndarray
    converged: bool
    trace: list     # per-iteration (beta, gnorm), from the initial point to beta_hat
    method: str = METHOD_INDEPENDENCE
    cov_beta: SymMatrix | None = None
    correlation_used: CorrelationEstimate | None = None
    fallback_to_independence: bool = False
    causes: tuple = ()      # (kind, detail) warnings about this estimate
    # step-1 independence fit of two_step_fit (the fit itself on fallback)
    preliminary: "FitResult | None" = field(default=None, repr=False)

    @property
    def iterations(self):
        """Newton iterations taken: the trace's points after the initial one."""
        return len(self.trace) - 1

    @property
    def final_gnorm(self):
        """Estimating-function norm at beta_hat, the trace's last."""
        return self.trace[-1][1]


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


# A system maps (beta, cells) to (g, t, gram): the estimating function
# g = sum_i X_i' t_i, the working residuals t, one row per subject, and a
# callable that builds the scoring matrix H at beta from the arrays it binds.
# t and those arrays are the planes of cells, which each evaluation overwrites.
# The line search calls gram only at the points it accepts.

def _blockwise_system(data, family, beta, cell_values, cells):
    """(g, t, w): the model is evaluated a block of subjects at a time, and
    cell_values(ModelEval) gives the block's rows of t and w, the planes of
    cells."""
    t, w = cells

    def block_score(rows):
        t[rows], w[rows] = cell_values(eval_model(data, family, beta, rows))
        return _score(data.X[rows], t[rows])

    return reduce(np.add, map(block_score, _blocks(data.X))), t, w


def _independence_system(data, family, beta, cells):
    g, eps, var = _blockwise_system(data, family, beta, lambda ev: (ev.eps, ev.var), cells)
    return g, eps, partial(_weighted_gram, data.X, var)


def _general_system(data, family, Q, beta, cells):
    """Estimating function and scoring matrix for a fixed correlation inverse Q;
    the working residuals are A^{1/2} Q A^{-1/2} eps, per subject."""
    def cell_values(ev):
        sd = ev.sd
        return sd * ((ev.eps / sd) @ Q.T), sd

    g, t, sd = _blockwise_system(data, family, beta, cell_values, cells)
    return g, t, partial(_sandwiched_gram, data.X, sd, Q)


def _norm(v):
    """Euclidean norm of a vector, as np.linalg.norm forms it."""
    return math.sqrt(v @ v)


def _convergence_scale(data):
    return _GRAD_TOL * (1.0 + _norm(_score(data.X, data.y)))


def _scoring_inverse(H, where):
    """H^{-1} from the one decomposition of the scoring matrix H."""
    try:
        return sym_eigen(H, require_spd="scoring matrix").power(-1)
    except NotPositiveDefiniteError as exc:
        raise SingularDesignError(f"{exc} {where}") from exc


def _sandwich(X, t, H_inv):
    """H^{-1} M H^{-1}, M the sum of the subjects' score outer products."""
    V = _subject_scores(X, t)
    return H_inv @ (V.T @ V) @ H_inv


def _newton_solve(data, beta_init, system, method):
    """Damped Newton / Fisher scoring on the estimating function.

    Full step first; halved whenever the estimating-function norm fails to
    decrease or the link overflows along the way.  H is built only at the
    accepted points and decomposed once there: at the initial point that is
    the rank check, and at beta_hat it gives H^{-1} for the sandwich
    covariance the result carries.  Every point is evaluated into one pair of
    (n, m) arrays: H^{-1} is taken at an accepted point before any candidate
    overwrites its t and gram, and beta_hat is the point evaluated last.
    """
    beta = np.asarray(beta_init, dtype=float).copy()
    tol = _convergence_scale(data)
    cells = np.empty((2,) + data.y.shape)
    try:
        g, t, gram = system(beta, cells)
    except LinkOverflowError as exc:
        raise LineSearchFailure(f"link overflow at the initial point: {exc}") from exc
    gnorm = _norm(g)
    trace = [(beta.copy(), gnorm)]
    H_inv = _scoring_inverse(gram(), "at the initial point")
    converged = gnorm <= tol

    it = 0
    while not converged and it < _MAX_ITER:
        it += 1
        step = H_inv @ g
        accepted = False
        scale = 1.0
        for _ in range(_STEP_HALVING_MAX + 1):
            cand = beta + scale * step
            try:
                g_new, t, gram = system(cand, cells)
            except LinkOverflowError:
                scale *= 0.5
                continue
            gnorm_new = _norm(g_new)
            if gnorm_new < gnorm:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise LineSearchFailure(
                f"step halving exhausted after {_STEP_HALVING_MAX} halvings "
                f"at iteration {it} (gnorm={gnorm:.6g})"
            )

        step_size = _norm(scale * step)
        beta, g, gnorm = cand, g_new, gnorm_new
        trace.append((beta.copy(), gnorm))
        H_inv = _scoring_inverse(gram(), f"after iteration {it}")
        converged = gnorm <= tol
        if step_size <= _STEP_TOL * (1.0 + _norm(beta)):
            break

    causes = ()
    if data.n < data.p:     # the sandwich's middle matrix is a sum of n rank-one terms
        causes += (("fewer-subjects-than-covariates",
                    f"n={data.n} subjects < p={data.p} covariates: the sandwich covariance "
                    "is singular, so stderr and wald_ci are not valid"),)
    if not converged:
        causes += (("not-converged",
                    f"the {method} fit did not converge (iterations={len(trace) - 1}, "
                    f"gnorm={gnorm:.6g}); beta_hat is its last iterate"),)
    return FitResult(beta_hat=beta, converged=converged, trace=trace, method=method,
                     cov_beta=SymMatrix(_sandwich(data.X, t, H_inv)), causes=causes)


def gee_independence_fit(data, family):
    """Newton solve of the working-independence estimating equation, from zero.

    For canonical links the scoring matrix sum X_i' A_i X_i is the exact
    Jacobian of the estimating function.  The result carries the sandwich
    covariance H^{-1} M H^{-1} at beta_hat.  A rank-deficient design raises
    SingularDesignError at the initial point.
    """
    return _newton_solve(data, np.zeros(data.p), partial(_independence_system, data, family),
                         METHOD_INDEPENDENCE)


def _average_correlation(X, cells):
    """R-tilde = (1/n) sum_i s_i s_i', s_i = eps_i / sqrt(var_i) the standardized
    residuals, summed a block of subjects at a time; cells(rows) gives the
    block's (eps, var).  A variance that is not positive and finite raises,
    naming its subject and time."""
    def block_outer(rows):
        eps, var = cells(rows)
        ok = (var > 0.0) & np.isfinite(var)
        if not ok.all():
            bad = np.argwhere(~ok)[0]
            i, j = range(len(X))[rows][bad[0]], int(bad[1])
            raise DegenerateVarianceError(
                f"degenerate variance at subject {i}, time {j}", subject=i, time=j)
        s = eps / np.sqrt(var)
        return s.T @ s

    return reduce(np.add, map(block_outer, _blocks(X))) / len(X)


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
    result = _newton_solve(data, beta_init, partial(_general_system, data, family, Q),
                           METHOD_PSEUDO_LIKELIHOOD)
    result.correlation_used = corr
    return result


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
    singular) and ``not-converged`` (beta_hat is the last iterate).
    """
    indep = gee_independence_fit(data, family)
    if indep.converged:
        corr = estimate_correlation(data, family, indep.beta_hat)
        try:
            fit = pseudo_likelihood_fit(data, family, corr, beta_init=indep.beta_hat)
        except NotPositiveDefiniteError:
            indep.correlation_used = corr
        else:
            fit.preliminary = indep
            return fit
    indep.fallback_to_independence = True
    indep.preliminary = indep
    return indep


def wald_intervals(fit, level=0.95):
    """Per-coordinate Wald interval beta_k +/- z * se_k."""
    if fit.cov_beta is None:
        raise PreconditionError("fit carries no covariance; every fit returned by "
                                "gee_independence_fit, pseudo_likelihood_fit or "
                                "two_step_fit has one")
    if not 0.0 < level < 1.0:
        raise PreconditionError(f"level must be in (0,1), got {level}")
    z = gauss_quantile(0.5 * (1.0 + level))
    se = np.sqrt(np.maximum(np.diag(fit.cov_beta.a), 0.0))
    return [(float(b - z * s), float(b + z * s)) for b, s in zip(fit.beta_hat, se)]

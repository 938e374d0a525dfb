"""Finite-sample regularity diagnostics for the two-step estimator.

The quantities reported here (eigenvalue floors, leverage-type maxima,
correlation conditioning, smoothness ratios) are the finite-n versions of
asymptotic regularity conditions.  Nothing here claims a condition "holds";
the report exposes the raw numbers and `trend_flags` checks monotonicity
along a grid of subject prefixes, leaving judgment to the user.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NotPositiveDefiniteError, ShapeError
from .estimator import (_average_correlation, _blocks, _flat, _sandwiched_block,
                        _sandwiched_gram, _subject_scores, _weighted_gram)
from .matkernel import max_relative_eigenvalue, sym_eigen
from .model import _link_arrays, eval_model

DEFAULT_DET_FLOOR = 1e-6


@dataclass(frozen=True)
class DiagnosticsReport:
    n_used: int
    lambda_min_H_indep: float
    lambda_min_H_general: float
    gamma0_indep: float
    pi_n: float
    tau_tilde_n: float
    gamma0: float
    gamma_tilde: float
    gamma_D: float
    c_n: float | None
    k2: float
    k3: float
    sqrt_n_times_gamma0_indep: float
    pi2_gamma_tilde: float
    sqrt_n_pi_gamma_tilde: float
    det_R: float
    lambda_min_R: float

    def to_json(self):
        """Flat dict of the fields, ready for JSON output."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _max_quad_form(X, A):
    """max over the cells x_ij of the (n, m, p) design X of x_ij' A x_ij,
    a block of subjects at a time."""
    return max(float(np.max(np.sum((_flat(X[rows]) @ A) * _flat(X[rows]), axis=1)))
               for rows in _blocks(X))


def design_diagnostics(data, family, beta):
    """Evaluate all regularity quantities at (beta, R-tilde), R-tilde the
    average correlation of the standardized residuals at beta, from one
    evaluation of the model.

    k2 and k3 are the maxima of |mu''/mu'| and |mu'''/mu'| over the cells at
    beta.  c_n is lambda_max(M^{-1/2} H M^{-1/2}), with M = sum_i V_i V_i' the
    sandwich meat of the residuals at beta and H the scoring matrix; it is
    None where M is not numerically SPD (fewer subjects than covariates).
    """
    beta = np.asarray(beta, dtype=float)
    ev = eval_model(data, family, beta)
    theta, var, eps = ev.theta, ev.var, ev.eps      # the report needs no mu
    del ev

    R = _average_correlation(data.X, lambda rows: (eps[rows], var[rows]))

    def ratio_maxima(rows):     # a block's link arrays are released on return
        _, d1, d2, d3 = _link_arrays(family, theta[rows])
        return np.max(np.abs(d2 / d1)), np.max(np.abs(d3 / d1))

    k2, k3 = map(float, np.max([ratio_maxima(rows) for rows in _blocks(data.X)], axis=0))
    del theta

    eig_Hi = sym_eigen(_weighted_gram(data.X, var), require_spd="independence scoring matrix")
    sd = np.sqrt(var, out=var)      # ModelEval.sd, in place: var is not needed again

    eig_R = sym_eigen(R, require_spd="correlation matrix")
    Q = eig_R.power(-1)
    q_min, q_max = 1.0 / eig_R.values[-1], 1.0 / eig_R.values[0]
    pi_n = float(q_max / q_min)
    tau_tilde = float(data.m * q_max)

    H = _sandwiched_gram(data.X, sd, Q)
    eig_H = sym_eigen(H, require_spd="general scoring matrix")

    gamma0_indep = _max_quad_form(data.X, eig_Hi.power(-1))
    gamma0 = _max_quad_form(data.X, eig_H.power(-1))
    gamma_tilde = tau_tilde * gamma0

    # gamma_D is the largest eigenvalue of H^{-1/2} B_i' Q B_i H^{-1/2} over the
    # subjects, solved only where a norm bound can reach the maximum of the blocks
    # so far; the same Q B gives the subjects' scores V_i = (Q B_i)' s_i, s_i the
    # standardized residuals.  A block's B and Q B are released first
    def block_terms(rows):
        B, QB = _sandwiched_block(data.X, sd, Q, rows)
        return np.swapaxes(B, 1, 2) @ QB, _subject_scores(QB, eps[rows] / sd[rows])

    gamma_D, M = -np.inf, np.zeros((data.p, data.p))
    for rows in _blocks(data.X):
        grams, V = block_terms(rows)
        M += V.T @ V
        gamma_D = max_relative_eigenvalue(grams, eig_H, floor=gamma_D)
        del grams               # before the next block's are built

    try:
        c_n = max_relative_eigenvalue(H, sym_eigen(M, require_spd="sandwich meat"))
    except NotPositiveDefiniteError:
        c_n = None

    sqrt_n = math.sqrt(data.n)
    return DiagnosticsReport(
        n_used=data.n,
        lambda_min_H_indep=float(eig_Hi.values[0]),
        lambda_min_H_general=float(eig_H.values[0]),
        gamma0_indep=gamma0_indep,
        pi_n=pi_n,
        tau_tilde_n=tau_tilde,
        gamma0=gamma0,
        gamma_tilde=gamma_tilde,
        gamma_D=gamma_D,
        c_n=c_n,
        k2=k2,
        k3=k3,
        sqrt_n_times_gamma0_indep=sqrt_n * gamma0_indep,
        pi2_gamma_tilde=pi_n * pi_n * gamma_tilde,
        sqrt_n_pi_gamma_tilde=sqrt_n * pi_n * gamma_tilde,
        det_R=float(np.prod(eig_R.values)),
        lambda_min_R=float(eig_R.values[0]),
    )


def example1_closed_form(data, family, beta):
    """Closed-form spectral quantities for the two-covariate design."""
    if data.p != 2:
        raise ShapeError(f"closed form requires p=2, got p={data.p}")
    ev = eval_model(data, family, np.asarray(beta, dtype=float))
    a = data.X[:, :, 0]
    b = data.X[:, :, 1]
    s2 = ev.var
    u = float(np.sum(s2 * a * a))
    v = float(np.sum(s2 * b * b))
    w = float(np.sum(s2 * a * b))
    d = math.sqrt((u - v) ** 2 + 4.0 * w * w)
    det = u * v - w * w
    sin2 = det / (u * v)
    gamma0_bound = float(np.max((a / math.sqrt(u) + b / math.sqrt(v)) ** 2))
    return {
        "u": u, "v": v, "w": w, "d": d,
        "lambda_min": 0.5 * (u + v - d),
        "lambda_max": 0.5 * (u + v + d),
        "sin2_theta": sin2,
        "gamma0_bound": gamma0_bound,
    }


def example2_closed_form(data, family, beta):
    """Level sums for a single categorical covariate coded by basis vectors."""
    X = data.X
    is_zero = X == 0.0
    is_one = X == 1.0
    ok = np.all(is_zero | is_one, axis=2) & (np.sum(is_one, axis=2) == 1)
    if not np.all(ok):
        i, j = (int(v) for v in np.argwhere(~ok)[0])
        raise ShapeError(
            f"x at subject {i}, time {j} is not a standard basis vector"
        )
    ev = eval_model(data, family, np.asarray(beta, dtype=float))
    level = np.argmax(is_one, axis=2)   # (n, m) level index per cell
    nu = np.zeros(data.p)
    for k in range(data.p):
        nu[k] = float(np.sum(ev.var[level == k]))
    H = _weighted_gram(X, ev.var)
    if np.max(np.abs(H - np.diag(nu))) > 1e-12 * max(1.0, float(np.max(nu))):
        raise ShapeError("independence scoring matrix is not diagonal with the level sums")
    return {"nu": nu, "nu_min": float(np.min(nu))}


def _check_grid(data, n_grid):
    """n_grid as ints, after the checks that need only n, m and the grid:
    every prefix needs at least m subjects, since R-tilde of fewer is
    singular by construction, and the grid must be strictly increasing."""
    if data.n < data.m:
        raise ShapeError(f"n={data.n} subjects < m={data.m} times: R-tilde is singular, "
                         "so no prefix can be diagnosed")
    n_grid = [int(v) for v in n_grid]
    for n_head in n_grid:
        if not data.m <= n_head <= data.n:
            raise ShapeError(f"grid values must lie in [m, n] = [{data.m}, {data.n}], "
                             f"got n_head={n_head}")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ShapeError("grid must be strictly increasing")
    return n_grid


def condition_trend_report(data, family, beta, n_grid=None):
    """Diagnostics along increasing subject prefixes (stored order), the full
    n by default.  Each prefix's report is at its own R-tilde, so det_R
    doubles as the determinant-floor sequence."""
    n_grid = _check_grid(data, [data.n] if n_grid is None else n_grid)
    return [design_diagnostics(data.subset(n_head), family, beta) for n_head in n_grid]


def trend_flags(reports, det_floor=DEFAULT_DET_FLOOR):
    """Monotonicity surrogates for the asymptotic regularity conditions.

    True means the finite-n trend points the right way; single-report input
    yields no trend claims (everything True except the determinant floor,
    which is always checked).
    """
    lam_over_tau = [r.lambda_min_H_general / r.tau_tilde_n for r in reports]
    lam_indep = [r.lambda_min_H_indep for r in reports]
    pi2g = [r.pi2_gamma_tilde for r in reports]
    sng = [r.sqrt_n_pi_gamma_tilde for r in reports]
    sngi = [r.sqrt_n_times_gamma0_indep for r in reports]

    def increasing(xs):
        return all(b > a for a, b in zip(xs, xs[1:]))

    def decreasing(xs):
        return all(b < a for a, b in zip(xs, xs[1:]))

    return {
        "lambda_min_H_over_tau_increasing": increasing(lam_over_tau),
        "lambda_min_H_indep_increasing": increasing(lam_indep),
        "pi2_gamma_tilde_decreasing": decreasing(pi2g),
        "sqrt_n_pi_gamma_tilde_decreasing": decreasing(sng),
        "sqrt_n_gamma0_indep_decreasing": decreasing(sngi),
        "det_R_floor_ok": all(r.det_R >= det_floor for r in reports),
    }

"""Correctness oracles, recomputed with numpy/LAPACK from the input arrays.

Nothing here imports plgee.  Each `check_*` returns a list of problems; an
empty list means the payload passed.
"""

import csv
import io

import numpy as np
from scipy import special

# Relative agreement asked of quantities plgee and LAPACK compute the same way
# up to rounding (eigenvalues, the sandwich).
REL_TOL = 1e-8
# plgee stops at |g| <= 1e-8 (1 + |X'y|); the oracle allows 100 times that.
ROOT_TOL = 1e-6
SE_BAND = 5.0            # |beta_hat - beta0| <= SE_BAND standard errors
COVERAGE_SDS = 4.5       # coverage band, in binomial standard deviations


def _mean_var(family, theta):
    if family == "log":
        mu = np.exp(theta)
        return mu, mu
    if family == "identity":
        return theta, np.ones_like(theta)
    raise ValueError(f"no oracle for family {family!r}")


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _flat(X):
    return X.reshape(-1, X.shape[2])


def pl_system(X, y, family, beta, R):
    """Pseudo-likelihood estimating function g, scoring matrix H and the
    sandwich meat M at (beta, R)."""
    mu, var = _mean_var(family, X @ beta)
    sd = np.sqrt(var)
    Q = np.linalg.inv(0.5 * (R + R.T))
    t = sd * (((y - mu) / sd) @ Q)
    V = np.einsum("nmp,nm->np", X, t)          # per-subject scores
    B = sd[:, :, None] * X
    H = _flat(B).T @ _flat(Q @ B)
    return V.sum(axis=0), H, V.T @ V


def independence_fit(X, y, family, max_iter=100):
    """Newton solve of sum_i X_i'(y_i - mu_i) = 0 from zero."""
    Xf, yf = _flat(X), y.ravel()
    beta = np.zeros(X.shape[2])
    for _ in range(max_iter):
        mu, var = _mean_var(family, Xf @ beta)
        step = np.linalg.solve((Xf * var[:, None]).T @ Xf, Xf.T @ (yf - mu))
        beta = beta + step
        if np.linalg.norm(step) <= 1e-13 * (1.0 + np.linalg.norm(beta)):
            return beta
    raise ArithmeticError("oracle independence fit did not converge")


def average_correlation(X, y, family, beta):
    mu, var = _mean_var(family, X @ beta)
    s = (y - mu) / np.sqrt(var)
    return s.T @ s / X.shape[0]


def check_fit(X, y, family, beta0, payload):
    """`plgee fit` (two-step) payload against a numpy recomputation."""
    problems = []
    if payload.get("converged") is not True:
        problems.append("fit did not converge")
    if payload.get("method") != "pseudo_likelihood" or payload.get("fallback_flag"):
        problems.append(f"unexpected method {payload.get('method')!r} or fallback")
    if payload.get("R_tilde") is None:
        return problems + ["payload has no R_tilde"]
    beta = np.asarray(payload["beta_hat"], dtype=float)
    R = np.asarray(payload["R_tilde"], dtype=float)
    cov = np.asarray(payload["cov_beta"], dtype=float)

    R_ref = average_correlation(X, y, family, independence_fit(X, y, family))
    if _rel(R, R_ref) > 1e-6:
        problems.append(f"R_tilde differs from the independence-fit correlation "
                        f"by {_rel(R, R_ref):.3g} relative")

    g, H, M = pl_system(X, y, family, beta, R)
    scale = 1.0 + np.linalg.norm(_flat(X).T @ y.ravel())
    if np.linalg.norm(g) > ROOT_TOL * scale:
        problems.append(f"estimating function at beta_hat has norm "
                        f"{np.linalg.norm(g):.3g} > {ROOT_TOL * scale:.3g}")
    H_inv = np.linalg.inv(H)
    cov_ref = H_inv @ M @ H_inv
    if _rel(cov, cov_ref) > REL_TOL:
        problems.append(f"cov_beta differs from the sandwich by {_rel(cov, cov_ref):.3g} relative")
    se = np.sqrt(np.diag(cov_ref))
    if _rel(payload["stderr"], se) > REL_TOL:
        problems.append("stderr is not sqrt(diag(sandwich))")
    z = special.ndtri(0.975)
    ci = np.column_stack([beta - z * se, beta + z * se])
    if _rel(payload["wald_ci"], ci) > REL_TOL:
        problems.append("wald_ci is not beta_hat +/- z_0.975 se")
    off = np.abs(beta - np.asarray(beta0)) / se
    if np.max(off) > SE_BAND:
        problems.append(f"beta_hat is {np.max(off):.2f} standard errors from beta0")
    return problems


def diagnostic_reference(X, y, family, beta):
    """lambda_min(H_indep), gamma_D and lambda_min(R) on one subject prefix,
    with R the prefix's own average correlation at beta."""
    mu, var = _mean_var(family, X @ beta)
    sd = np.sqrt(var)
    R = average_correlation(X, y, family, beta)
    H_indep = _flat(X * var[:, :, None]).T @ _flat(X)
    B = sd[:, :, None] * X
    G = np.swapaxes(B, 1, 2) @ (np.linalg.inv(R) @ B)     # (n, p, p)
    L_inv = np.linalg.inv(np.linalg.cholesky(G.sum(axis=0)))
    W = L_inv @ G @ L_inv.T             # similar to H^{-1/2} G_i H^{-1/2}
    return {
        "lambda_min_H_indep": float(np.linalg.eigvalsh(H_indep)[0]),
        "gamma_D": float(np.max(np.linalg.eigvalsh(W)[:, -1])),
        "lambda_min_R": float(np.linalg.eigvalsh(R)[0]),
    }


def check_diagnose(X, y, family, grid, payload):
    """`plgee diagnose` payload (beta from the preliminary fit) against numpy."""
    problems = []
    beta = np.asarray(payload["beta"], dtype=float)
    beta_ref = independence_fit(X, y, family)
    if _rel(beta, beta_ref) > REL_TOL:
        problems.append(f"beta differs from the independence fit by {_rel(beta, beta_ref):.3g}")
    trend = payload["trend"]
    used = [r["n_used"] for r in trend]
    if used != list(grid):
        problems.append(f"trend n_used {used} != grid {list(grid)}")
    reports = list(zip(trend, grid)) + [(payload["report"], X.shape[0])]
    for report, n in reports:
        ref = diagnostic_reference(X[:n], y[:n], family, beta)
        for key, want in ref.items():
            if abs(report[key] - want) > REL_TOL * abs(want):
                problems.append(f"{key} at n={n}: {report[key]!r} != eigvalsh {want!r}")
    return problems


def check_simulate(config, payload, replicates_csv):
    """`plgee simulate` report and replicates CSV: no failures, coverage in a
    binomial band around the nominal level, and a CSV consistent with it."""
    problems = []
    reps, p = config["replications"], config["p"]
    level = payload.get("ci_level", 0.95)
    if payload.get("replications") != reps:
        problems.append(f"report has {payload.get('replications')} replications, expected {reps}")
    if payload.get("n_failures") != 0:
        problems.append(f"{payload.get('n_failures')} replicates failed")
    band = COVERAGE_SDS * np.sqrt(level * (1.0 - level) / reps)
    for k, c in enumerate(payload["coverage"]):
        if abs(c - level) > band:
            problems.append(f"coverage of beta{k + 1} is {c}, outside {level} +/- {band:.3f}")

    rows = list(csv.reader(io.StringIO(replicates_csv)))
    header = (["rep", "converged"] + [f"beta{k + 1}" for k in range(p)]
              + [f"z{k + 1}" for k in range(p)] + [f"covered{k + 1}" for k in range(p)])
    if not rows or rows[0] != header:
        return problems + ["replicates CSV header is wrong"]
    body = rows[1:]
    if [r[0] for r in body] != [str(r) for r in range(reps)]:
        return problems + ["replicates CSV does not have one row per replicate in order"]
    if any(r[1] != "1" for r in body):
        return problems + ["replicates CSV has unconverged rows"]
    values = np.array([[float(v) for v in r[2:]] for r in body])
    betas, zs, covered = values[:, :p], values[:, p:2 * p], values[:, 2 * p:]
    if not np.all(np.isfinite(values)) or not np.all((covered == 0) | (covered == 1)):
        problems.append("replicates CSV has non-finite or non-binary cells")
    if np.max(np.abs(covered.mean(axis=0) - payload["coverage"])) > 1e-12:
        problems.append("replicates CSV coverage disagrees with the report")
    bias = betas.mean(axis=0) - np.asarray(config["beta0"])
    if np.max(np.abs(bias - payload["bias"])) > 1e-10:
        problems.append("replicates CSV bias disagrees with the report")
    z = np.sort(zs.ravel())
    F = special.ndtr(z)
    k = np.arange(1, z.size + 1)
    ks = max(np.max(k / z.size - F), np.max(F - (k - 1) / z.size))
    if abs(ks - payload["ks_distance"]) > 1e-9:
        problems.append("replicates CSV z values disagree with the report's KS distance")
    return problems

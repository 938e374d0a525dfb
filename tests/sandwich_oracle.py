"""The Liang-Zeger sandwich in plain numpy, a test oracle for `cov_beta`.

At (beta, R), with A_i the diagonal of the per-cell variances (mu'(theta)
for every link, probit included) and B_i = A_i^{1/2} X_i:
    H = sum_i B_i' R^{-1} B_i,
    V_i = X_i' A_i^{1/2} R^{-1} A_i^{-1/2} (y_i - mu_i),
    M = sum_i V_i V_i',
    cov = H^{-1} M H^{-1}.
"""

import numpy as np
from scipy import special


def mean_variance(kind, theta):
    if kind == "identity":
        return theta, np.ones_like(theta)
    if kind == "log":
        mu = np.exp(theta)
        return mu, mu
    if kind == "logit":
        mu = special.expit(theta)
        return mu, mu * (1.0 - mu)
    if kind == "probit":
        return special.ndtr(theta), np.exp(-0.5 * theta * theta) / np.sqrt(2.0 * np.pi)
    raise ValueError(f"no oracle for link {kind!r}")


def sandwich(data, family, beta, R):
    """(H, M, H^{-1} M H^{-1}) at (beta, R)."""
    X = data.X
    mu, var = mean_variance(family.kind, X @ beta)
    sd = np.sqrt(var)
    Q = np.linalg.inv(R)
    t = sd * (((data.y - mu) / sd) @ Q)
    V = np.einsum("nmp,nm->np", X, t)
    B = sd[:, :, None] * X
    H = np.einsum("nmp,nmq->pq", B, Q @ B)
    H_inv = np.linalg.inv(H)
    M = V.T @ V
    return H, M, H_inv @ M @ H_inv

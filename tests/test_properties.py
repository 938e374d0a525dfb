"""Invariances the estimator has by construction, checked as properties.

Each example draws its arrays from ``default_rng(seed)`` with the seed drawn
by hypothesis; ``derandomize`` fixes the examples, so every run checks the
same ones.  Probit has no generator of its own, so probit fits run on data
from the logit generator.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from plgee.diagnostics import condition_trend_report
from plgee.estimator import (
    CorrelationEstimate,
    gee_independence_fit,
    pseudo_likelihood_fit,
    two_step_fit,
)
from plgee.matkernel import SymMatrix, max_relative_eigenvalue, sym_eigen
from plgee.model import IDENTITY, LOG, LOGIT, PROBIT, LongitudinalDataset
from plgee.simulator import exchangeable_matrix, gen_discrete, gen_gaussian

PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)

cases = st.tuples(
    st.sampled_from([IDENTITY, LOG, LOGIT, PROBIT]),
    st.integers(0, 2**32 - 1),      # seed
    st.integers(20, 60),            # n
    st.integers(2, 4),              # m
    st.integers(1, 3),              # p
)


def draw(case):
    """(family, dataset, rng): an intercept plus U(-1, 1) covariates, latent
    exchangeable correlation, and the rng for any further draws."""
    family, seed, n, m, p = case
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, m, p))
    X[:, :, 0] = 1.0
    beta0 = rng.uniform(-0.5, 0.5, size=p)
    R = exchangeable_matrix(m, rng.uniform(0.0, 0.6))
    response_seed = int(rng.integers(2**63))
    if family is IDENTITY:
        data = gen_gaussian(X, beta0, R, seed=response_seed)
    else:
        data = gen_discrete(X, beta0, LOG if family is LOG else LOGIT, R,
                            seed=response_seed)
    return family, data, rng


def converged(fit):
    assume(fit.converged)
    return fit


def assert_close(actual, expected, rel):
    """Agreement relative to the size of `expected`, as a whole array."""
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rel * scale


def random_invertible(rng, p):
    """U diag(s) V' with orthogonal U, V and singular values s in [0.5, 5],
    so its condition number is at most 10."""
    U, _ = np.linalg.qr(rng.standard_normal((p, p)))
    V, _ = np.linalg.qr(rng.standard_normal((p, p)))
    A = (U * rng.uniform(0.5, 5.0, size=p)) @ V.T
    assert np.linalg.cond(A) <= 10.0
    return A


@PROPERTY
@given(cases)
def test_affine_reparametrisation(case):
    # X -> XA maps beta-hat to A^{-1} beta-hat and cov to A^{-1} cov A^{-T}.
    # The stopping rule |g| <= tol is not affine-invariant, so the two fits
    # agree to the solver's tolerance, not to rounding.
    family, data, rng = draw(case)
    A = random_invertible(rng, data.p)
    fit = converged(two_step_fit(data, family))
    moved = converged(two_step_fit(LongitudinalDataset(data.X @ A, data.y), family))
    assert fit.method == moved.method
    assert_close(A @ moved.beta_hat, fit.beta_hat, rel=1e-6)
    assert_close(A @ moved.cov_beta.a @ A.T, fit.cov_beta.a, rel=1e-6)


@PROPERTY
@given(cases)
def test_subject_permutation_leaves_fit_unchanged(case):
    family, data, rng = draw(case)
    fit = converged(two_step_fit(data, family))
    shuffled = converged(two_step_fit(data.permuted(rng.permutation(data.n)), family))
    assert fit.method == shuffled.method
    assert_close(shuffled.beta_hat, fit.beta_hat, rel=1e-10)
    assert_close(shuffled.cov_beta.a, fit.cov_beta.a, rel=1e-10)


@PROPERTY
@given(cases)
def test_identity_correlation_collapses_to_independence(case):
    family, data, _ = draw(case)
    identity = CorrelationEstimate(R_tilde=SymMatrix(np.eye(data.m)),
                                   computed_at_beta=np.zeros(data.p), n_used=data.n)
    pl = converged(pseudo_likelihood_fit(data, family, identity))
    indep = converged(gee_independence_fit(data, family))
    assert_close(pl.beta_hat, indep.beta_hat, rel=1e-10)
    assert_close(pl.cov_beta.a, indep.cov_beta.a, rel=1e-10)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 6), st.integers(1, 8),
       st.sampled_from([1.0, 1e-3, 1e3]), st.sampled_from([-np.inf, 0.0, 0.5, 0.999, 1.0, 2.0]))
def test_norm_bound_keeps_the_stack_maximum_bit_for_bit(seed, n, m, p, spread, floor_share):
    # B_i' Q B_i with SPD Q, relative to an SPD S: the stacks gamma_D solves.
    # Subject scales spread over up to six decades, so the bound prunes most;
    # the floor, a share of the maximum, is what a block before this one left
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(n, m, p)) * spread ** rng.uniform(-1, 1, size=(n, 1, 1))
    Q = random_invertible(rng, m)
    Q = Q @ Q.T
    S = random_invertible(rng, p)
    eig = sym_eigen(S @ S.T)
    stack = np.swapaxes(B, 1, 2) @ (Q @ B)
    root = eig.power(-0.5)
    W = root @ stack @ root
    want = np.max(np.linalg.eigvalsh(0.5 * (W + np.swapaxes(W, 1, 2))))
    floor = floor_share * want
    assert max_relative_eigenvalue(stack, eig, floor=floor) == max(floor, want)


INVARIANT_DIAGNOSTICS = ("gamma0", "gamma0_indep", "gamma_tilde", "gamma_D", "c_n", "pi_n",
                         "tau_tilde_n", "k2", "k3", "det_R", "lambda_min_R")


@PROPERTY
@given(cases)
def test_diagnostics_invariant_under_reparametrisation(case):
    # X -> XA with beta -> A^{-1} beta leaves every cell's theta, so R-tilde, and
    # maps H, M-hat and each B_i' Q B_i to A' (.) A: leverages and relative
    # eigenvalues stay.  lambda_min(H) is not invariant and is left out.
    family, data, rng = draw(case)
    A = random_invertible(rng, data.p)
    beta = rng.uniform(-0.5, 0.5, size=data.p)
    [rep] = condition_trend_report(data, family, beta)
    [moved] = condition_trend_report(LongitudinalDataset(data.X @ A, data.y), family,
                                     np.linalg.solve(A, beta))
    for name in INVARIANT_DIAGNOSTICS:
        assert_close(getattr(moved, name), getattr(rep, name), rel=1e-8)

"""Invariances the estimator has by construction, checked as properties, and
the two-step estimate checked against a scipy root of the paper's equation.

Each example draws its arrays from ``default_rng(seed)`` with the seed drawn
by hypothesis; ``derandomize`` fixes the examples, so every run checks the
same ones.  Probit has no generator of its own, so probit fits run on data
from the logit generator.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import optimize

from plgee import estimator
from plgee.diagnostics import condition_trend_report
from plgee.errors import ConfigError, LinkOverflowError
from plgee.estimator import (
    CorrelationEstimate,
    gee_independence_fit,
    pseudo_likelihood_fit,
    two_step_fit,
)
from plgee.matkernel import SymMatrix, max_relative_eigenvalue, sym_eigen
from plgee.model import (_TINY, IDENTITY, LOG, LOG_THETA_LIMIT, LOGIT, PROBIT, LongitudinalDataset,
                         eval_model)
from plgee.simulator import CorrelationSpec, exchangeable_matrix, gen_gaussian, gen_responses
from sandwich_oracle import mean_variance, sandwich

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
    data = gen_responses(X, beta0, LOGIT if family is PROBIT else family, R, seed=response_seed)
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
    order = rng.permutation(data.n)
    shuffled = converged(two_step_fit(LongitudinalDataset(data.X[order], data.y[order]), family))
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


@settings(PROPERTY, max_examples=300)
@given(st.integers(1, 6), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(0, 2**32 - 1))
@example(4, 1e-13, 0)           # lambda_min 4e-13, under the SPD floor
@example(4, 1e-12, 0)           # lambda_min 4e-12, just over it
@example(2, 1.0 - 1e-12, 0)     # rho 1 - 2e-12, lambda_min 2e-12
def test_a_correlation_that_loads_is_one_the_generators_take(m, t, seed):
    # rho = lower + t (1 - lower) sweeps the exchangeable open range, its
    # singular edges included
    lower = -1.0 / (m - 1) if m > 1 else -1.0
    rho = lower + t * (1.0 - lower)
    try:
        R_bar = CorrelationSpec("exchangeable", rho=rho).matrix(m)
    except ConfigError:
        return
    assert np.array_equal(R_bar, R_bar.T)
    assert np.max(np.abs(np.diag(R_bar) - 1.0)) <= 1e-10
    gen_gaussian(np.zeros((3, m, 1)), np.zeros(1), R_bar, seed=seed)


def one_cell(theta):
    """A one-cell dataset whose theta = x'beta at beta = (1,) is `theta`.  x is
    set after the dataset's finiteness check, so theta may be inf or NaN, as
    an x'beta that overflows can be."""
    data = LongitudinalDataset(np.zeros((1, 1, 1)), np.zeros((1, 1)))
    data.X[0, 0, 0] = theta
    return data


@settings(PROPERTY, max_examples=300)
@given(st.one_of(st.tuples(st.just(LOG), st.floats(-LOG_THETA_LIMIT, LOG_THETA_LIMIT)),
                 st.tuples(st.sampled_from([IDENTITY, LOGIT, PROBIT]),
                           st.floats(allow_nan=False, allow_infinity=False))))
@example((LOG, -LOG_THETA_LIMIT))
@example((LOG, LOG_THETA_LIMIT))
def test_every_theta_eval_model_takes_has_a_positive_finite_variance(case):
    # R-tilde divides by sqrt(mu') with no check: mu' > 0 wherever eval_model
    # accepts theta, the saturated logit and probit tails clamped to _TINY
    family, theta = case
    with np.errstate(over="ignore"):    # as the solver evaluates
        var = eval_model(one_cell(theta), family, [1.0]).var
    assert np.isfinite(var).all() and (var >= _TINY).all()


@PROPERTY
@given(st.one_of(
    st.tuples(st.just(LOG), st.floats(min_value=LOG_THETA_LIMIT, exclude_min=True,
                                      allow_infinity=False), st.sampled_from([-1.0, 1.0])),
    st.tuples(st.sampled_from([IDENTITY, LOG, LOGIT, PROBIT]),
              st.sampled_from([np.inf, np.nan]), st.sampled_from([-1.0, 1.0]))))
def test_a_theta_past_the_limit_is_a_link_overflow(case):
    family, magnitude, sign = case
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(LinkOverflowError):
        eval_model(one_cell(sign * magnitude), family, [1.0])


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


def same_report(actual, expected, rel):
    """Every field of two diagnostics reports agrees (c_n may be None in both)."""
    for name, value in expected.to_json().items():
        if value is None:
            assert getattr(actual, name) is None, name
        else:
            assert_close(getattr(actual, name), value, rel=rel)


@PROPERTY
@given(cases)
def test_time_relabelling(case):
    # The same permutation P of the m times in every subject permutes each
    # subject's cells: beta-hat and cov are unchanged, R-tilde becomes P R P',
    # and H = sum_i B_i' Q B_i, each B_i' Q B_i and so every diagnostic stay
    family, data, rng = draw(case)
    perm = rng.permutation(data.m)
    moved_data = LongitudinalDataset(data.X[:, perm], data.y[:, perm])
    fit = converged(two_step_fit(data, family))
    moved = converged(two_step_fit(moved_data, family))
    assert fit.method == moved.method
    assert_close(moved.beta_hat, fit.beta_hat, rel=1e-12)
    assert_close(moved.cov_beta.a, fit.cov_beta.a, rel=1e-12)
    if fit.correlation_used is not None:
        R = fit.correlation_used.R_tilde.a
        assert_close(moved.correlation_used.R_tilde.a, R[perm][:, perm], rel=1e-12)
    beta = rng.uniform(-0.5, 0.5, size=data.p)
    [rep] = condition_trend_report(data, family, beta)
    [moved_rep] = condition_trend_report(moved_data, family, beta)
    same_report(moved_rep, rep, rel=1e-12)


@PROPERTY
@given(cases)
def test_subject_duplication(case):
    # Each subject twice (n -> 2n): the estimating function, H and M double,
    # so beta-hat and R-tilde stay and the sandwich H^{-1} M H^{-1} halves
    family, data, _ = draw(case)
    twice = LongitudinalDataset(np.concatenate([data.X, data.X]),
                                np.concatenate([data.y, data.y]))
    fit = converged(two_step_fit(data, family))
    doubled = converged(two_step_fit(twice, family))
    assert fit.method == doubled.method
    assert_close(doubled.beta_hat, fit.beta_hat, rel=1e-12)
    assert_close(2.0 * doubled.cov_beta.a, fit.cov_beta.a, rel=1e-12)
    if fit.correlation_used is not None:
        assert_close(doubled.correlation_used.R_tilde.a, fit.correlation_used.R_tilde.a,
                     rel=1e-12)


@PROPERTY
@given(cases.map(lambda case: (IDENTITY, *case[1:])))
def test_response_scaling_under_the_identity_link(case):
    # y -> c y scales the residuals and R-tilde (by c^2), not the weights
    # R-tilde^{-1} gives up to scale: beta-hat -> c beta-hat, cov -> c^2 cov
    family, data, rng = draw(case)
    c = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
    fit = converged(two_step_fit(data, family))
    scaled = converged(two_step_fit(LongitudinalDataset(data.X, c * data.y), family))
    assert fit.method == scaled.method
    assert_close(scaled.beta_hat, c * fit.beta_hat, rel=1e-12)
    assert_close(scaled.cov_beta.a, c * c * fit.cov_beta.a, rel=1e-12)


@pytest.mark.parametrize("family", [IDENTITY, LOG, LOGIT, PROBIT],
                         ids=["identity", "log", "logit", "probit"])
@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_two_step_estimate_is_a_root_of_the_numpy_equation(family, seed):
    # The paper's pseudo-likelihood equation at the fit's R-tilde,
    #     g(beta) = sum_i X_i' A_i^{1/2} R^{-1} A_i^{-1/2} (y_i - mu_i) = 0,
    # written in numpy and solved by scipy from the step-1 estimate.  The fit
    # stops at |g| <= tol and the oracle root is held to the same tol, so to
    # first order |beta_hat - root| <= |J^{-1}| (|g(beta_hat)| + |g(root)|)
    # <= 2 |H^{-1}| tol, with the scoring matrix H in place of the Jacobian J
    _, data, _ = draw((family, seed, 80, 4, 3))
    fit = converged(two_step_fit(data, family))
    assume(fit.method == "pseudo_likelihood")
    R = fit.correlation_used.R_tilde.a
    Q = np.linalg.inv(R)

    def g(beta):
        mu, var = mean_variance(family.kind, data.X @ beta)
        sd = np.sqrt(var)
        return np.einsum("nmp,nm->p", data.X, sd * (((data.y - mu) / sd) @ Q))

    # judged by its residual: scipy reports "not making good progress" at
    # |g| near 1e-15 on some of these examples
    root = optimize.root(g, fit.preliminary.beta_hat).x
    tol = estimator._GRAD_TOL * (1.0 + np.linalg.norm(np.einsum("nmp,nm->p", data.X, data.y)))
    assert np.linalg.norm(g(root)) <= tol
    H_inv = np.linalg.inv(sandwich(data, family, root, R)[0])
    assert np.max(np.abs(fit.beta_hat - root)) <= 2.0 * np.linalg.norm(H_inv, 2) * tol

import tracemalloc
from functools import partial

import numpy as np
import pytest

from plgee import estimator, model
from plgee.diagnostics import design_diagnostics
from plgee.errors import (
    DegenerateVarianceError,
    LinkOverflowError,
    NotPositiveDefiniteError,
    PreconditionError,
    SingularDesignError,
)
from plgee.estimator import (
    CorrelationEstimate,
    _sandwiched_gram,
    _score,
    _subject_scores,
    _weighted_gram,
    estimate_correlation,
    gee_independence_fit,
    pseudo_likelihood_fit,
    two_step_fit,
    wald_intervals,
)
from plgee.matkernel import SymMatrix, sym_eigen
from plgee.model import IDENTITY, LOG, LOGIT, PROBIT, LongitudinalDataset, eval_model
from plgee.simulator import exchangeable_matrix, gen_gaussian
from sandwich_oracle import mean_variance, sandwich


def gaussian_dataset(n=60, m=3, p=2, rho=0.5, beta0=(1.0, -0.5), seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m, p))
    return gen_gaussian(X, np.array(beta0), exchangeable_matrix(m, rho), seed=seed)


def glm_dataset(family, n, m, seed):
    """An intercept and one U(-1, 1) covariate; y drawn cell by cell from
    the link's mean (Poisson counts for log, Bernoulli for logit and probit)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m, 2))
    X[:, :, 0] = 1.0
    mu, _ = mean_variance(family.kind, X @ np.array([0.4, -0.6]))
    if family is IDENTITY:
        y = mu + rng.normal(size=mu.shape)
    elif family is LOG:
        y = rng.poisson(mu).astype(float)
    else:
        y = (rng.random(size=mu.shape) < mu).astype(float)
    return LongitudinalDataset(X, y)


def independence_fit_from(data, family, beta_init):
    """gee_independence_fit started at beta_init instead of zero."""
    return estimator._newton_solve(
        data, beta_init, partial(estimator._independence_system, data, family),
        estimator.METHOD_INDEPENDENCE)


def logit_dataset(n=80, m=3, p=2, beta0=(0.8, -0.4), seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m, p))
    theta = X @ np.array(beta0)
    mu = 1 / (1 + np.exp(-theta))
    y = (rng.random(size=(n, m)) < mu).astype(float)
    return LongitudinalDataset(X, y)


class TestIndependenceFit:
    def test_zero_residual_one_step(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(20, 3, 2))
        beta0 = np.array([0.7, -0.3])
        data = LongitudinalDataset(X, X @ beta0)
        fit = independence_fit_from(data, IDENTITY, beta0)
        assert fit.converged
        assert fit.iterations == 0
        assert fit.final_gnorm == 0.0
        assert np.array_equal(fit.beta_hat, beta0)

    def test_identity_matches_normal_equations(self):
        data = gaussian_dataset(n=40, seed=5)
        fit = gee_independence_fit(data, IDENTITY)
        Xf = data.X.reshape(-1, data.p)
        yf = data.y.reshape(-1)
        beta_ols = np.linalg.solve(Xf.T @ Xf, Xf.T @ yf)
        assert fit.converged
        assert np.max(np.abs(fit.beta_hat - beta_ols)) < 1e-8

    def test_logit_symmetric_relabeling_gives_zero_root(self):
        # dataset union of (y, X) and (1-y, X): the pooled estimating
        # function is sum x (1 - 2 mu), which vanishes exactly at beta = 0
        base = logit_dataset(n=40, seed=6)
        X = np.concatenate([base.X, base.X])
        y = np.concatenate([base.y, 1.0 - base.y])
        data = LongitudinalDataset(X, y)
        fit = gee_independence_fit(data, LOGIT)
        assert fit.converged
        assert np.max(np.abs(fit.beta_hat)) < 1e-9

    def test_rank_deficient_design_raises(self):
        X = np.zeros((10, 2, 2))
        X[:, :, 0] = 1.0
        X[:, :, 1] = 2.0   # second column collinear with first
        data = LongitudinalDataset(X, np.ones((10, 2)))
        with pytest.raises(SingularDesignError):
            gee_independence_fit(data, IDENTITY)

    def test_nonconvergence_is_data_not_exception(self, monkeypatch):
        data = gaussian_dataset(n=30, seed=7)
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        monkeypatch.setattr(estimator, "_GRAD_TOL", 1e-300)
        fit = gee_independence_fit(data, IDENTITY)
        assert not fit.converged
        assert fit.iterations >= 1

    def test_root_certificate(self):
        data = logit_dataset(n=60, seed=8)
        fit = gee_independence_fit(data, LOGIT)
        assert fit.converged
        ev = eval_model(data, LOGIT, fit.beta_hat)
        g = np.einsum("nmp,nm->p", data.X, ev.eps)
        xty = np.einsum("nmp,nm->p", data.X, data.y)
        scale = estimator._GRAD_TOL * (1 + np.linalg.norm(xty))
        assert np.linalg.norm(g) <= scale


class TestCauses:
    FEW = ("fewer-subjects-than-covariates",
           "n=1 subjects < p=2 covariates: the sandwich covariance is singular, "
           "so stderr and wald_ci are not valid")

    @staticmethod
    def not_converged(fit):
        return ("not-converged",
                f"the {fit.method} fit did not converge (iterations={fit.iterations}, "
                f"gnorm={fit.final_gnorm:.6g}); beta_hat is its last iterate")

    @pytest.mark.parametrize("fit", [gee_independence_fit, two_step_fit])
    def test_fewer_subjects_than_covariates(self, fit):
        result = fit(gaussian_dataset(n=1, seed=3), IDENTITY)
        assert result.converged
        assert result.causes == (self.FEW,)
        assert fit(gaussian_dataset(n=2, seed=3), IDENTITY).causes == ()

    @pytest.mark.parametrize("fit", [gee_independence_fit, two_step_fit])
    def test_not_converged(self, fit, monkeypatch):
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        monkeypatch.setattr(estimator, "_GRAD_TOL", 1e-300)
        result = fit(gaussian_dataset(n=30, seed=7), IDENTITY)
        assert not result.converged
        assert result.causes == (self.not_converged(result),)
        assert "the independence fit did not converge (iterations=1, " in result.causes[0][1]

    def test_pseudo_likelihood_fit_not_converged(self, monkeypatch):
        data = gaussian_dataset(n=30, seed=7)
        corr = estimate_correlation(data, IDENTITY, gee_independence_fit(data, IDENTITY).beta_hat)
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        monkeypatch.setattr(estimator, "_GRAD_TOL", 1e-300)
        result = pseudo_likelihood_fit(data, IDENTITY, corr)
        assert result.causes == (self.not_converged(result),)
        assert result.causes[0][1].startswith("the pseudo_likelihood fit did not converge")

    @pytest.mark.parametrize("fit", [gee_independence_fit, two_step_fit])
    def test_both_causes_in_order(self, fit, monkeypatch):
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        monkeypatch.setattr(estimator, "_GRAD_TOL", 1e-300)
        result = fit(gaussian_dataset(n=1, seed=3), IDENTITY)
        assert result.causes == (self.FEW, self.not_converged(result))


class TestEstimateCorrelation:
    def test_perfect_fit_gives_zero_matrix(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(10, 3, 2))
        beta0 = np.array([0.5, 0.5])
        data = LongitudinalDataset(X, X @ beta0)
        corr = estimate_correlation(data, IDENTITY, beta0)
        assert np.array_equal(corr.R_tilde.a, np.zeros((3, 3)))

    def test_single_subject_outer_product(self):
        X = np.zeros((1, 2, 1))
        y = np.array([[1.0, 2.0]])
        data = LongitudinalDataset(X, y)
        corr = estimate_correlation(data, IDENTITY, np.zeros(1))
        assert np.allclose(corr.R_tilde.a, [[1.0, 2.0], [2.0, 4.0]])
        assert corr.n_used == 1

    def test_monte_carlo_close_to_true_correlation(self):
        beta0 = np.array([1.0, -0.5])
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, size=(2000, 3, 2))
        R_bar = exchangeable_matrix(3, 0.5)
        data = gen_gaussian(X, beta0, R_bar, seed=11)
        corr = estimate_correlation(data, IDENTITY, beta0)
        assert np.max(np.abs(corr.R_tilde.a - R_bar)) < 0.08

    def test_psd_floor(self):
        data = gaussian_dataset(n=15, seed=12)
        fit = gee_independence_fit(data, IDENTITY)
        corr = estimate_correlation(data, IDENTITY, fit.beta_hat)
        eig = sym_eigen(corr.R_tilde.a)
        assert eig.values[0] >= -1e-10 * np.trace(corr.R_tilde.a)

    def test_saturated_cells_stay_nondegenerate(self):
        # clamped variances keep the standardized residuals finite even at
        # extreme linear predictors
        data = logit_dataset(n=10, seed=13)
        corr = estimate_correlation(data, LOGIT, np.array([50.0, -50.0]))
        assert np.all(np.isfinite(corr.R_tilde.a))


class TestPseudoLikelihoodFit:
    def test_identity_correlation_collapses_to_independence(self):
        data = logit_dataset(n=60, seed=14)
        indep = gee_independence_fit(data, LOGIT)
        corr = CorrelationEstimate(R_tilde=SymMatrix(np.eye(data.m)),
                                   computed_at_beta=np.zeros(data.p), n_used=data.n)
        pl = pseudo_likelihood_fit(data, LOGIT, corr)
        assert len(pl.trace) == len(indep.trace)
        for (b1, g1), (b2, g2) in zip(indep.trace, pl.trace):
            assert np.max(np.abs(b1 - b2)) < 1e-12

    def test_zero_residual_data_one_step(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(-1, 1, size=(20, 3, 2))
        beta0 = np.array([0.7, -0.3])
        data = LongitudinalDataset(X, X @ beta0)
        corr = CorrelationEstimate(R_tilde=SymMatrix(exchangeable_matrix(3, 0.4)),
                                   computed_at_beta=beta0, n_used=20)
        fit = pseudo_likelihood_fit(data, IDENTITY, corr, beta_init=beta0)
        assert fit.converged
        assert fit.iterations == 0
        assert np.array_equal(fit.beta_hat, beta0)

    def test_recovers_beta0_at_moderate_n(self):
        beta0 = np.array([1.0, -0.5])
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(800, 3, 2))
        data = gen_gaussian(X, beta0, exchangeable_matrix(3, 0.6), seed=17)
        fit = two_step_fit(data, IDENTITY)
        assert fit.converged
        assert np.linalg.norm(fit.beta_hat - beta0) < 0.15

    def test_singular_correlation_rejected(self):
        data = gaussian_dataset(n=30, seed=18)
        corr = CorrelationEstimate(R_tilde=SymMatrix(np.ones((3, 3))),
                                   computed_at_beta=np.zeros(2), n_used=30)
        with pytest.raises(NotPositiveDefiniteError):
            pseudo_likelihood_fit(data, IDENTITY, corr)


def assert_rel_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


class TestAssemblyHelpers:
    """The BLAS assembly helpers against their einsum definitions."""

    @pytest.mark.parametrize("n, m, p", [
        (1, 1, 1), (1, 4, 3), (9, 1, 2), (11, 5, 1), (40, 6, 4), (3, 2, 7),
    ])
    def test_match_einsum_definitions(self, n, m, p, monkeypatch):
        rng = np.random.default_rng(100 * n + 10 * m + p)
        X = rng.normal(size=(n, m, p))
        t = rng.normal(size=(n, m))
        w = rng.uniform(0.1, 2.0, size=(n, m))
        sd = rng.uniform(0.1, 2.0, size=(n, m))
        A = rng.normal(size=(m, m))
        Q = A @ A.T + m * np.eye(m)
        assert_rel_close(_score(X, t), np.einsum("nmp,nm->p", X, t))
        assert_rel_close(_subject_scores(X, t), np.einsum("nmp,nm->np", X, t))
        # the Gram sums with every subject in one block, then in blocks of
        # 1 and 3 subjects: n below, equal to and not a multiple of the block
        for subjects in (None, 1, 3):
            if subjects is not None:
                monkeypatch.setattr(estimator, "_BLOCK_CELLS", subjects * m * p)
            assert_rel_close(_weighted_gram(X, w), np.einsum("nmp,nm,nmq->pq", X, w, X))
            assert_rel_close(_sandwiched_gram(X, sd, Q),
                             np.einsum("njp,nj,jk,nk,nkq->pq", X, sd, Q, sd, X))

    @pytest.mark.parametrize("method, gram", [
        ("independence", "_weighted_gram"), ("pseudo_likelihood", "_sandwiched_gram"),
    ])
    def test_scoring_matrix_built_only_at_accepted_points(self, method, gram, monkeypatch):
        # Poisson fits from zero whose line search halves steps; a rejected
        # candidate needs only g, so it builds no scoring matrix
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(30, 3, 2))
        X[:, :, 0] = 1.0
        y = rng.poisson(np.exp(X @ np.array([2.5, 1.5]))).astype(float)
        data = LongitudinalDataset(X, y)
        corr = estimate_correlation(data, LOG, gee_independence_fit(data, LOG).beta_hat)
        counts = dict.fromkeys(("eval_model", gram), 0)
        for name in counts:
            def counted(*args, _real=getattr(estimator, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(estimator, name, counted)
        if method == "independence":
            fit = gee_independence_fit(data, LOG)
        else:
            fit = pseudo_likelihood_fit(data, LOG, corr)
        assert fit.converged
        assert counts["eval_model"] > fit.iterations + 1    # some step was halved
        assert counts[gram] == fit.iterations + 1

    @staticmethod
    def large_counts():
        rng = np.random.default_rng(2)
        n, m, p = 20000, 10, 8
        X = rng.uniform(-1, 1, size=(n, m, p))
        X[:, :, 0] = 1.0
        y = rng.poisson(np.exp(X @ np.linspace(0.5, -0.3, p))).astype(float)
        return LongitudinalDataset(X, y)

    @staticmethod
    def traced_peak(call):
        """(call(), the peak bytes tracemalloc sees above the start)."""
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()

    def test_two_step_fit_peak_memory_below_design_size(self):
        # the model is evaluated and every sum formed over subject blocks, so
        # the fit holds a few (n, m) arrays and no (n, m, p) temporary; whole-
        # array model evaluation peaks at 1.13x X.nbytes, full-stack products
        # at 2.75x, and two blocks of B and Q B alive at once, with the
        # accepted point's arrays kept through each line search, at 0.58x
        data = self.large_counts()
        fit, peak = self.traced_peak(lambda: two_step_fit(data, LOG))
        assert fit.method == "pseudo_likelihood" and fit.converged
        assert peak < 0.5 * data.X.nbytes

    def test_design_diagnostics_peak_memory_below_design_size(self):
        # R-tilde, gamma_D and k2/k3 are reduced a block of subjects at a time
        # from one model evaluation, and theta is released once k2/k3 are
        # taken: a stack of the n subjects' p x p matrices B_i' Q B_i for
        # gamma_D peaked at 2.18x X.nbytes, holding the whole ModelEval
        # through the report at 0.86x, and keeping theta through it at 0.63x
        # (0.51x now)
        data = self.large_counts()
        report, peak = self.traced_peak(
            lambda: design_diagnostics(data, LOG, np.linspace(0.5, -0.3, data.p)))
        assert report.gamma_D > 0.0
        assert peak < 0.55 * data.X.nbytes

    @pytest.mark.parametrize("build", [_sandwiched_gram])
    def test_sandwiched_grams_hold_one_block_at_a_time(self, build, monkeypatch):
        # building the next block's B and Q B while the previous pair is
        # still alive peaked at four blocks' worth
        rng = np.random.default_rng(3)
        n, m, p = 4000, 4, 8
        X = rng.uniform(-1, 1, size=(n, m, p))
        sd = rng.uniform(0.5, 2.0, size=(n, m))
        Q = np.linalg.inv(exchangeable_matrix(m, 0.3))
        monkeypatch.setattr(estimator, "_BLOCK_CELLS", n // 8 * m * p)
        _, peak = self.traced_peak(lambda: build(X, sd, Q))
        assert peak < 3 * X.nbytes / 8

    def test_step_halving_does_not_raise_peak_memory(self, monkeypatch):
        # a candidate is evaluated into the arrays of the point before it:
        # keeping a rejected candidate's arrays alive while the next one is
        # evaluated peaked at 0.54x X.nbytes against 0.35x
        data = self.large_counts()
        systems = []
        real = estimator._independence_system
        monkeypatch.setattr(estimator, "_independence_system",
                            lambda *args: systems.append(1) or real(*args))
        halved, halved_peak = self.traced_peak(lambda: gee_independence_fit(data, LOG))
        assert len(systems) == halved.iterations + 2       # one halving
        systems.clear()
        near, near_peak = self.traced_peak(
            lambda: independence_fit_from(data, LOG, halved.beta_hat + 1e-3))
        assert len(systems) == near.iterations + 1         # none
        # the halved fit holds about a kilobyte more: its longer trace
        assert halved_peak <= near_peak + 0.01 * data.X.nbytes


class TestSubjectBlocks:
    """Fits that evaluate the model and form every sum a block of subjects
    at a time, against one block."""

    @pytest.mark.parametrize("subjects", [1, 3])
    def test_fits_match_one_block(self, subjects, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, size=(40, 3, 2))
        X[:, :, 0] = 1.0
        data = LongitudinalDataset(X, rng.poisson(np.exp(X @ [0.5, -0.4])).astype(float))
        fits = [gee_independence_fit(data, LOG), two_step_fit(data, LOG)]
        corr = estimate_correlation(data, LOG, fits[0].beta_hat)
        monkeypatch.setattr(estimator, "_BLOCK_CELLS", subjects * 3 * 2)
        assert len(estimator._blocks(data.X)) > 1
        blocked = [gee_independence_fit(data, LOG), two_step_fit(data, LOG)]
        for fit, got in zip(fits, blocked):
            assert (got.method, got.iterations) == (fit.method, fit.iterations)
            assert_rel_close(got.beta_hat, fit.beta_hat)
            assert_rel_close(got.cov_beta.a, fit.cov_beta.a)
        assert fits[1].method == "pseudo_likelihood"
        assert_rel_close(blocked[1].correlation_used.R_tilde.a, fits[1].correlation_used.R_tilde.a)
        assert_rel_close(estimate_correlation(data, LOG, fits[0].beta_hat).R_tilde.a,
                         corr.R_tilde.a)

    def test_link_overflow_names_subject_in_later_block(self, monkeypatch):
        X = np.zeros((10, 2, 1))
        X[7, 1, 0] = 1000.0
        data = LongitudinalDataset(X, np.zeros((10, 2)))
        monkeypatch.setattr(estimator, "_BLOCK_CELLS", 3 * 2 * 1)
        with pytest.raises(LinkOverflowError) as info:
            estimate_correlation(data, LOG, [1.0])
        assert (info.value.subject, info.value.time) == (7, 1)
        assert str(info.value) == "log link overflow at subject 7, time 1"

    def test_degenerate_variance_names_subject_in_later_block(self, monkeypatch):
        # canonical variances are clamped positive, so zero one by hand: the
        # variance is 0 where theta is 1, which is subject 8, time 0 alone
        X = np.zeros((10, 2, 1))
        X[8, 0, 0] = 1.0
        data = LongitudinalDataset(X, np.zeros((10, 2)))
        real = model._mean_and_variance

        def zero_variance_at_one(family, theta):
            mu, var = real(family, theta)
            return mu, np.where(theta == 1.0, 0.0, var)

        monkeypatch.setattr(model, "_mean_and_variance", zero_variance_at_one)
        monkeypatch.setattr(estimator, "_BLOCK_CELLS", 3 * 2 * 1)
        with pytest.raises(DegenerateVarianceError) as info:
            estimate_correlation(data, IDENTITY, [1.0])
        assert (info.value.subject, info.value.time) == (8, 0)
        assert str(info.value) == "degenerate variance at subject 8, time 0"


class TestTwoStep:
    @pytest.mark.parametrize("family, data", [
        (IDENTITY, gaussian_dataset(n=70, m=4, p=2, seed=40)),
        (LOGIT, logit_dataset(n=90, seed=41)),
    ])
    def test_preliminary_is_the_standalone_independence_fit(self, family, data):
        fit = two_step_fit(data, family)
        alone = gee_independence_fit(data, family)
        assert fit.method == "pseudo_likelihood"
        assert np.array_equal(fit.preliminary.beta_hat, alone.beta_hat)
        assert fit.preliminary.iterations == alone.iterations

    def test_preliminary_on_fallback_is_the_fit_itself(self):
        rng = np.random.default_rng(20)
        data = gen_gaussian(rng.uniform(-1, 1, size=(2, 4, 2)), np.array([0.5, 0.5]),
                            np.eye(4), seed=21)
        fit = two_step_fit(data, IDENTITY)
        assert fit.fallback_to_independence
        assert fit.preliminary is fit

    def test_unconverged_preliminary_fit_is_returned_flagged(self, monkeypatch):
        # a preliminary estimate that did not converge never feeds R-tilde
        # or the refit: the fit falls back to it, still flagged unconverged
        rng = np.random.default_rng(47)
        X = rng.uniform(-1, 1, size=(80, 3, 2))
        data = LongitudinalDataset(X, rng.poisson(np.exp(X @ [1.5, -1.0])).astype(float))
        assert gee_independence_fit(data, LOG).iterations > 1
        assert two_step_fit(data, LOG).method == "pseudo_likelihood"
        monkeypatch.setattr(estimator, "_MAX_ITER", 1)
        fit = two_step_fit(data, LOG)
        alone = gee_independence_fit(data, LOG)
        assert not fit.converged
        assert fit.fallback_to_independence
        assert fit.correlation_used is None
        assert fit.method == "independence"
        assert fit.preliminary is fit
        assert np.array_equal(fit.beta_hat, alone.beta_hat)

    @pytest.mark.parametrize("family", [IDENTITY, LOG, LOGIT, PROBIT],
                             ids=["identity", "log", "logit", "probit"])
    @pytest.mark.parametrize("n, m", [(90, 4), (3, 12)], ids=["two-step", "fallback"])
    def test_cov_beta_is_the_numpy_sandwich(self, family, n, m):
        # at (beta_hat, R-tilde) for the refit; at (beta_hat, I) when fewer
        # subjects than times make R-tilde singular and the fit falls back
        data = glm_dataset(family, n, m, seed=44)
        fit = two_step_fit(data, family)
        assert fit.converged
        assert fit.fallback_to_independence == (n < m)
        R = np.eye(m) if n < m else fit.correlation_used.R_tilde.a
        assert_rel_close(fit.cov_beta.a, sandwich(data, family, fit.beta_hat, R)[2],
                         rel=1e-10)

    def test_singular_scoring_matrix_at_beta_hat_raises(self, monkeypatch):
        # only the correlation estimate's SPD check may trigger the fallback
        import plgee.estimator as estimator
        data = logit_dataset(n=90, seed=46)
        beta_hat = two_step_fit(data, LOGIT).beta_hat
        real = estimator._general_system

        def singular_at_beta_hat(data, family, Q, beta, cells):
            g, t, gram = real(data, family, Q, beta, cells)
            if np.array_equal(beta, beta_hat):
                return g, t, lambda: 0.0 * gram()
            return g, t, gram

        monkeypatch.setattr(estimator, "_general_system", singular_at_beta_hat)
        with pytest.raises(SingularDesignError, match="scoring matrix"):
            two_step_fit(data, LOGIT)

    @pytest.mark.parametrize("family", [IDENTITY, LOG])
    @pytest.mark.parametrize("m, p", [(1, 2), (3, 1)])
    def test_one_time_or_one_covariate_fits(self, family, m, p):
        # m=1 makes R-tilde 1x1, p=1 makes every scoring matrix 1x1
        data = gaussian_dataset(n=50, m=m, p=p, beta0=(0.3, -0.2)[:p], seed=33)
        if family is LOG:
            data = LongitudinalDataset(data.X, np.rint(np.exp(data.y)))
        fit = two_step_fit(data, family)
        assert fit.converged
        assert fit.method == "pseudo_likelihood"
        assert fit.beta_hat.shape == (p,)
        assert np.all(np.diag(fit.cov_beta.a) > 0)

    def test_fewer_cells_than_covariates_raises(self):
        # n*m = 1 < p = 2: the independence scoring matrix has rank 1
        data = LongitudinalDataset(np.array([[[1.0, 0.5]]]), np.array([[2.0]]))
        with pytest.raises(SingularDesignError, match="at the initial point"):
            two_step_fit(data, IDENTITY)

    def test_zero_residual_both_stages(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(-1, 1, size=(20, 3, 2))
        beta0 = np.array([0.7, -0.3])
        # tiny noise so the correlation estimate is nonsingular
        y = X @ beta0 + 1e-9 * rng.normal(size=(20, 3))
        data = LongitudinalDataset(X, y)
        fit = two_step_fit(data, IDENTITY)
        assert fit.converged
        assert np.max(np.abs(fit.beta_hat - beta0)) < 1e-7
        assert fit.cov_beta is not None
        assert fit.correlation_used is not None

    def test_fallback_on_singular_correlation(self):
        # n < m makes the average outer product rank deficient
        rng = np.random.default_rng(20)
        X = rng.uniform(-1, 1, size=(2, 4, 2))
        beta0 = np.array([0.5, 0.5])
        data = gen_gaussian(X, beta0, np.eye(4), seed=21)
        fit = two_step_fit(data, IDENTITY)
        assert fit.fallback_to_independence
        assert fit.method == "independence"
        # the independence fit's own sandwich, not a rebuilt one
        assert np.array_equal(fit.cov_beta.a, gee_independence_fit(data, IDENTITY).cov_beta.a)

    def test_correlation_decomposed_once(self, monkeypatch):
        # for the pseudo-likelihood step matrix; the sandwich reuses its inverse
        import plgee.estimator as estimator
        import plgee.matkernel as matkernel
        shapes = []
        real = matkernel.sym_eigen

        def recording(S, **kwargs):
            eig = real(S, **kwargs)
            shapes.append(eig.basis.shape)
            return eig

        monkeypatch.setattr(estimator, "sym_eigen", recording)
        monkeypatch.setattr(matkernel, "sym_eigen", recording)
        fit = two_step_fit(gaussian_dataset(n=60, m=3, p=2, seed=25), IDENTITY)
        assert fit.method == "pseudo_likelihood"
        assert shapes.count((3, 3)) == 1

    def test_scale_equivariance_of_root(self):
        data = gaussian_dataset(n=100, seed=22)
        fit = two_step_fit(data, IDENTITY)
        for c in (2.0, 0.5, -3.0):
            scaled = LongitudinalDataset(c * data.X, data.y)
            fit_c = two_step_fit(scaled, IDENTITY)
            assert np.linalg.norm(c * fit_c.beta_hat - fit.beta_hat) <= 1e-6

    def test_permutation_of_subjects_leaves_outputs_unchanged(self):
        data = gaussian_dataset(n=50, seed=23)
        rng = np.random.default_rng(24)
        perm = data.permuted(rng.permutation(data.n))
        f1 = two_step_fit(data, IDENTITY)
        f2 = two_step_fit(perm, IDENTITY)
        assert np.allclose(f1.beta_hat, f2.beta_hat, atol=1e-10)
        c1 = estimate_correlation(data, IDENTITY, f1.beta_hat)
        c2 = estimate_correlation(perm, IDENTITY, f1.beta_hat)
        assert np.allclose(c1.R_tilde.a, c2.R_tilde.a, atol=1e-12)


class TestSandwich:
    def test_zero_residuals_give_zero_covariance(self):
        rng = np.random.default_rng(25)
        X = rng.uniform(-1, 1, size=(20, 3, 2))
        beta0 = np.array([0.7, -0.3])
        data = LongitudinalDataset(X, X @ beta0)
        fit = independence_fit_from(data, IDENTITY, beta0)
        assert fit.iterations == 0
        assert np.max(np.abs(fit.cov_beta.a)) == 0.0

    @pytest.mark.parametrize("family, data", [
        (IDENTITY, gaussian_dataset(n=50, m=3, p=2, seed=28)),
        (LOGIT, logit_dataset(n=80, seed=29)),
        (IDENTITY, gaussian_dataset(n=1, m=1, p=1, beta0=(0.5,), seed=30)),
    ])
    def test_independence_fit_carries_identity_sandwich(self, family, data):
        fit = gee_independence_fit(data, family)
        assert_rel_close(fit.cov_beta.a, sandwich(data, family, fit.beta_hat, np.eye(data.m))[2])
        assert len(wald_intervals(fit)) == data.p

    def test_identity_correlation_matches_stacked_formula(self):
        data = gaussian_dataset(n=50, seed=26)
        fit = gee_independence_fit(data, IDENTITY)
        # direct stacked computation
        H = sum(data.X[i].T @ data.X[i] for i in range(data.n))
        eps = data.y - np.einsum("nmp,p->nm", data.X, fit.beta_hat)
        M = sum(np.outer(data.X[i].T @ eps[i], data.X[i].T @ eps[i])
                for i in range(data.n))
        Hinv = np.linalg.inv(H)
        assert np.max(np.abs(fit.cov_beta.a - Hinv @ M @ Hinv)) < 1e-9

    def test_symmetry_and_psd(self):
        data = gaussian_dataset(n=60, seed=27)
        fit = two_step_fit(data, IDENTITY)
        cov = fit.cov_beta.a
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        assert sym_eigen(cov).values[0] >= -1e-10 * np.trace(cov)


class TestWaldIntervals:
    def _fit_with_cov(self, beta, var):
        from plgee.estimator import FitResult
        beta = np.asarray(beta, dtype=float)
        return FitResult(beta_hat=beta, converged=True, trace=[(beta, 0.0)],
                         cov_beta=SymMatrix(np.diag(var)))

    def test_standard_95(self):
        fit = self._fit_with_cov([1.0], [0.25])
        (lo, hi), = wald_intervals(fit, level=0.95)
        assert lo == pytest.approx(1.0 - 1.959964 * 0.5, abs=1e-5)
        assert hi == pytest.approx(1.0 + 1.959964 * 0.5, abs=1e-5)

    def test_zero_variance_degenerates(self):
        fit = self._fit_with_cov([2.5], [0.0])
        (lo, hi), = wald_intervals(fit, level=0.95)
        assert lo == hi == 2.5

    def test_level_half_uses_correct_quantile(self):
        fit = self._fit_with_cov([0.0], [1.0])
        (lo, hi), = wald_intervals(fit, level=0.5)
        assert hi == pytest.approx(0.674490, abs=1e-5)

    def test_missing_covariance_rejected(self):
        from plgee.estimator import FitResult
        fit = FitResult(beta_hat=np.zeros(1), converged=True, trace=[(np.zeros(1), 0.0)])
        with pytest.raises(PreconditionError):
            wald_intervals(fit)

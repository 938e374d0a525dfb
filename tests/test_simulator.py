import warnings
from dataclasses import fields

import numpy as np
import pytest

from plgee import simulator
from plgee.errors import ConfigError, InvalidInputError, NotPositiveDefiniteError, PlgeeError
from plgee.model import IDENTITY, LOG, LOGIT, PROBIT
from plgee.simulator import (
    CorrelationSpec,
    DesignSpec,
    MCReport,
    SimConfig,
    _poisson_quantile_grid,
    ar1_matrix,
    exchangeable_matrix,
    gen_discrete,
    gen_gaussian,
    generate_dataset,
    ks_distance_to_normal,
    make_design,
    mix_seed,
    monte_carlo_run,
    run_replicates,
)


def config(**kw):
    base = dict(
        n=40, m=3, p=2, family=IDENTITY, beta0=(1.0, -0.5),
        design=DesignSpec("iid_uniform"),
        correlation=CorrelationSpec("exchangeable", rho=0.3),
        replications=5, base_seed=11,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSeeds:
    def test_mix_seed_deterministic_and_distinct(self):
        vals = [mix_seed(7, i) for i in range(100)]
        assert vals == [mix_seed(7, i) for i in range(100)]
        assert len(set(vals)) == 100
        assert all(0 <= v < 2**64 for v in vals)

    def test_dataset_bit_identical_across_calls(self):
        c = config()
        d1 = generate_dataset(c, seed=5)
        d2 = generate_dataset(c, seed=5)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)
        d3 = generate_dataset(c, seed=6)
        assert not np.array_equal(d1.y, d3.y)


class TestCorrelationMatrices:
    def test_exchangeable(self):
        R = exchangeable_matrix(3, 0.4)
        assert np.allclose(np.diag(R), 1.0)
        assert R[0, 1] == R[1, 2] == 0.4

    def test_ar1(self):
        R = ar1_matrix(3, 0.5)
        assert R[0, 1] == 0.5 and R[0, 2] == 0.25
        assert np.allclose(R, R.T)


class TestDesigns:
    def test_iid_uniform_range_and_mean(self):
        c = config(n=2000, design=DesignSpec("iid_uniform", lo=-1.0, hi=1.0))
        X = make_design(c, seed=3)
        assert X.min() >= -1.0 and X.max() <= 1.0
        assert abs(X.mean()) < 0.02   # se ~ 0.0053

    def test_grid_is_seed_free_and_bounded(self):
        c = config(design=DesignSpec("grid"))
        X1 = make_design(c, seed=1)
        X2 = make_design(c, seed=99)
        assert np.array_equal(X1, X2)
        assert np.all((X1 >= -1.0) & (X1 <= 1.0))
        assert len(np.unique(X1)) == 11
        # columns must not be collinear
        flat = X1.reshape(-1, c.p)
        assert abs(np.corrcoef(flat.T)[0, 1]) < 0.999

    def test_categorical_rows_are_basis_vectors_with_balanced_levels(self):
        c = config(n=33, m=3, p=2, design=DesignSpec("categorical"),
                   beta0=(1.0, -0.5))
        X = make_design(c, seed=4)
        flat = X.reshape(-1, c.p)
        assert np.all(np.sum(flat, axis=1) == 1.0)
        assert np.all((flat == 0.0) | (flat == 1.0))
        counts = flat.sum(axis=0)
        # cyclic pre-shuffle assignment keeps levels balanced to within one
        assert counts.max() - counts.min() <= 1.0
        # shuffle actually happened: not the plain cyclic pattern
        cyclic = np.arange(c.n * c.m) % c.p
        assert not np.array_equal(np.argmax(flat, axis=1), cyclic)


class TestGaussianGenerator:
    def test_mean_structure_exact_at_zero_noise_scale(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3, 2))
        beta0 = np.array([1.0, -0.5])
        d = gen_gaussian(X, beta0, exchangeable_matrix(3, 0.4), seed=2)
        eps = d.y - np.einsum("nmp,p->nm", X, beta0)
        assert abs(eps.mean()) < 0.05

    def test_zero_rho_residual_covariance_near_identity(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(1000, 3, 2))
        beta0 = np.array([1.0, -0.5])
        d = gen_gaussian(X, beta0, np.eye(3), seed=3)
        eps = d.y - np.einsum("nmp,p->nm", X, beta0)
        C = eps.T @ eps / len(eps)
        assert np.max(np.abs(C - np.eye(3))) < 0.15

    def test_target_covariance_recovered(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(4000, 3, 1))
        R = exchangeable_matrix(3, 0.6)
        d = gen_gaussian(X, np.array([1.0]), R, seed=4)
        eps = d.y - X[:, :, 0]
        C = eps.T @ eps / len(eps)
        assert np.max(np.abs(C - R)) < 0.1

    def test_sign_modulation_preserves_magnitudes(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 2, 1))
        beta0 = np.array([0.5])
        R = exchangeable_matrix(2, 0.3)
        d_ind = gen_gaussian(X, beta0, R, seed=7)
        d_mod = gen_gaussian(X, beta0, R, subject_dependence="sign_modulated", seed=7)
        e_ind = d_ind.y - 0.5 * X[:, :, 0]
        e_mod = d_mod.y - 0.5 * X[:, :, 0]
        assert np.allclose(np.abs(e_ind), np.abs(e_mod), rtol=0, atol=1e-12)
        # each subject's vector is either copied or flipped wholesale
        ratio = e_mod / e_ind
        assert np.all(np.isclose(np.abs(ratio), 1.0))
        assert np.allclose(ratio[:, 0], ratio[:, 1])
        assert np.any(ratio < 0)

    def test_sign_modulation_flip_rule(self):
        # the flip sign for subject i is determined by the running sum of
        # earlier first-component residuals: recompute it independently
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 2, 1))
        R = exchangeable_matrix(2, 0.3)
        e_ind = gen_gaussian(X, np.zeros(1) + 0.0, R, seed=9).y
        e_mod = gen_gaussian(X, np.zeros(1) + 0.0, R,
                             subject_dependence="sign_modulated", seed=9).y
        running = 0.0
        for i in range(200):
            s = 1.0 if running >= 0.0 else -1.0
            assert np.allclose(e_mod[i], s * e_ind[i])
            running += e_mod[i, 0]

    def test_sign_modulation_keeps_marginal_variance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(5000, 2, 1))
        R = exchangeable_matrix(2, 0.5)
        d = gen_gaussian(X, np.zeros(1), R,
                         subject_dependence="sign_modulated", seed=11)
        C = d.y.T @ d.y / 5000
        assert np.max(np.abs(C - R)) < 0.08

    def test_rejects_non_pd_correlation(self):
        with pytest.raises(NotPositiveDefiniteError):
            gen_gaussian(np.zeros((2, 2, 1)), np.zeros(1), np.ones((2, 2)), seed=0)


class TestDiscreteGenerators:
    def test_poisson_quantile_known_values(self):
        # Poisson(1): CDF(0)=e^-1=0.368, CDF(1)=0.736; v=0.5 -> 1, v=0.3 -> 0
        lam = np.array([1.0, 1.0, 1.0])
        v = np.array([0.3, 0.5, 0.99])
        y = _poisson_quantile_grid(v, lam)
        assert list(y) == [0.0, 1.0, 4.0]   # CDF(3)=0.981, CDF(4)=0.996

    def test_poisson_quantile_search_stops_at_its_cap(self, monkeypatch):
        # v=0.99 under Poisson(1) needs k=4: a cap of 4 reaches it, 3 does not
        v, lam = np.array([0.3, 0.99]), np.array([1.0, 1.0])
        monkeypatch.setattr(simulator, "_POISSON_QUANTILE_CAP", 4)
        assert list(_poisson_quantile_grid(v, lam)) == [0.0, 4.0]
        monkeypatch.setattr(simulator, "_POISSON_QUANTILE_CAP", 3)
        with pytest.raises(PlgeeError, match="^poisson quantile search exceeded its cap$"):
            _poisson_quantile_grid(v, lam)

    def test_poisson_marginal_moments(self):
        n = 100_000
        X = np.full((n, 1, 1), 1.0)
        beta0 = np.array([np.log(2.0)])     # lambda = 2
        d = gen_discrete(X, beta0, LOG, np.eye(1), seed=13)
        assert d.y.mean() == pytest.approx(2.0, abs=0.02)
        assert d.y.var() == pytest.approx(2.0, abs=0.05)
        assert np.all(d.y == np.floor(d.y)) and np.all(d.y >= 0)

    def test_bernoulli_marginal_moments(self):
        n = 100_000
        X = np.full((n, 1, 1), 1.0)
        theta = 0.4
        mu = 1.0 / (1.0 + np.exp(-theta))
        d = gen_discrete(X, np.array([theta]), LOGIT, np.eye(1), seed=17)
        assert set(np.unique(d.y)) <= {0.0, 1.0}
        assert d.y.mean() == pytest.approx(mu, abs=0.005)
        assert d.y.var() == pytest.approx(mu * (1 - mu), abs=0.005)

    def test_gaussian_marginal_moments(self):
        n = 100_000
        X = np.full((n, 1, 1), 1.0)
        d = gen_gaussian(X, np.array([0.7]), np.eye(1), seed=19)
        assert d.y.mean() == pytest.approx(0.7, abs=0.02)
        assert d.y.var() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("family", [LOGIT, LOG], ids=lambda f: f.kind)
    def test_copula_dependence_is_monotone_in_rho(self, family):
        n, m = 20_000, 2
        X = np.zeros((n, m, 1))
        beta0 = np.array([0.0])
        corrs = []
        for rho in (0.0, 0.5, 0.9):
            d = gen_discrete(X, beta0, family, exchangeable_matrix(m, rho), seed=23)
            corrs.append(np.corrcoef(d.y[:, 0], d.y[:, 1])[0, 1])
        assert corrs[0] == pytest.approx(0.0, abs=0.03)
        assert corrs[0] < corrs[1] < corrs[2]
        # attenuation: response correlation below the latent rho
        assert corrs[2] < 0.9

    def test_rejects_identity_family(self):
        with pytest.raises(ConfigError):
            gen_discrete(np.zeros((2, 2, 1)), np.zeros(1), IDENTITY, np.eye(2))

    def test_rejects_non_pd_correlation(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            gen_discrete(np.zeros((2, 2, 1)), np.zeros(1), LOG, [[1, 2], [2, 1]])
        assert exc.value.lambda_min == pytest.approx(-1.0)


class TestConfigValidation:
    def test_probit_rejected(self):
        with pytest.raises(ConfigError, match="probit"):
            config(family=PROBIT)

    def test_sign_modulated_requires_identity(self):
        with pytest.raises(ConfigError):
            config(family=LOG, subject_dependence="sign_modulated")
        config(subject_dependence="sign_modulated")   # identity link: fine

    def test_exchangeable_rho_range(self):
        with pytest.raises(ConfigError):
            config(correlation=CorrelationSpec("exchangeable", rho=1.0))
        with pytest.raises(ConfigError):
            config(correlation=CorrelationSpec("exchangeable", rho=-0.6), m=3)

    def test_ar1_rho_range(self):
        with pytest.raises(ConfigError):
            config(correlation=CorrelationSpec("ar1", rho=1.2))

    def test_custom_matrix_checked(self):
        bad_diag = ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(ConfigError):
            config(correlation=CorrelationSpec("custom", R_bar=bad_diag))
        not_pd = ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ConfigError):
            config(correlation=CorrelationSpec("custom", R_bar=not_pd))

    def test_beta0_length(self):
        with pytest.raises(ConfigError):
            config(beta0=(1.0,))

    def test_high_latent_rho_binary_is_a_cause_not_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = config(family=LOGIT,
                       correlation=CorrelationSpec("exchangeable", rho=0.97))
        assert c.causes == ((
            "latent-correlation-above-frechet-bound",
            "latent rho > 0.95 with binary marginals: attainable response "
            "correlation is Frechet-bounded well below the latent value"),)

    @pytest.mark.parametrize("family, rho", [(LOGIT, 0.95), (IDENTITY, 0.97), (LOG, 0.97)],
                             ids=["logit-0.95", "identity-0.97", "log-0.97"])
    def test_attainable_latent_rho_has_no_cause(self, family, rho):
        assert config(family=family,
                      correlation=CorrelationSpec("exchangeable", rho=rho)).causes == ()

    def test_from_json_round_trip(self):
        doc = {
            "n": 40, "m": 2, "p": 2, "family": "identity",
            "beta0": [1.0, -0.5],
            "design": {"kind": "iid_uniform", "lo": -1, "hi": 1},
            "correlation": {"kind": "custom",
                            "R_bar": [[1.0, 0.3], [0.3, 1.0]]},
            "replications": 3, "base_seed": 7,
        }
        c = SimConfig.from_json(doc)
        assert c.correlation.matrix(2)[0, 1] == 0.3
        assert c.beta0 == (1.0, -0.5)

    def test_from_json_missing_key(self):
        with pytest.raises(ConfigError):
            SimConfig.from_json({"n": 5})

    @pytest.mark.parametrize("where, key", [
        (None, "design"), ("design", "kind"), ("correlation", "kind"),
    ])
    def test_from_json_missing_key_is_named(self, where, key):
        doc = {"n": 40, "m": 2, "p": 2, "family": "identity", "beta0": [1.0, -0.5],
               "design": {"kind": "grid"}, "correlation": {"kind": "ar1"}}
        del (doc if where is None else doc[where])[key]
        with pytest.raises(ConfigError, match=f"missing .*'{key}'"):
            SimConfig.from_json(doc)

    def test_from_json_unknown_family_is_config_error(self):
        doc = {"n": 40, "m": 2, "p": 2, "family": "probitx", "beta0": [1.0, -0.5],
               "design": {"kind": "grid"}, "correlation": {"kind": "ar1"}}
        with pytest.raises(ConfigError, match="unknown link kind 'probitx'"):
            SimConfig.from_json(doc)

    def test_from_json_absent_keys_take_field_defaults(self):
        c = SimConfig.from_json({
            "n": 40, "m": 2, "p": 2, "family": "identity", "beta0": [1, -0.5],
            "design": {"kind": "iid_uniform"}, "correlation": {"kind": "custom",
                                                              "R_bar": [[1, 0], [0, 1]]}})
        assert c == SimConfig(n=40, m=2, p=2, family=IDENTITY, beta0=(1.0, -0.5),
                              design=DesignSpec("iid_uniform"),
                              correlation=CorrelationSpec("custom",
                                                          R_bar=((1.0, 0.0), (0.0, 1.0))))
        assert type(c.n) is int and type(c.beta0[0]) is float

    @pytest.mark.parametrize("where, key", [
        (None, "replicatons"), ("correlation", "rh0"), ("design", "hi_"),
    ])
    def test_from_json_unknown_key(self, where, key):
        doc = {
            "n": 40, "m": 2, "p": 2, "family": "identity", "beta0": [1.0, -0.5],
            "design": {"kind": "iid_uniform", "lo": -1, "hi": 1},
            "correlation": {"kind": "exchangeable", "rho": 0.3},
        }
        SimConfig.from_json(doc)
        target = doc if where is None else doc[where]
        target[key] = 3
        with pytest.raises(ConfigError, match=f"unknown key.*in {where or 'config'}: {key}$"):
            SimConfig.from_json(doc)


class TestKS:
    def test_normal_sample_is_close(self):
        rng = np.random.default_rng(29)
        assert ks_distance_to_normal(rng.standard_normal(10_000)) < 0.02

    def test_uniform_sample_is_far(self):
        rng = np.random.default_rng(31)
        assert ks_distance_to_normal(rng.random(10_000)) > 0.1


class TestHarness:
    def test_report_deterministic(self):
        c = config(n=80, replications=8)
        r1 = monte_carlo_run(c)
        r2 = monte_carlo_run(c)
        assert r1.to_json() == r2.to_json()

    def test_parallel_matches_sequential(self):
        c = config(n=80, replications=8)
        seq = monte_carlo_run(c, workers=1)
        par = monte_carlo_run(c, workers=3)
        assert seq.to_json() == par.to_json()

    def test_report_shape_and_sanity(self):
        c = config(n=150, replications=20, base_seed=101)
        rep = monte_carlo_run(c)
        assert isinstance(rep, MCReport)
        assert rep.n_failures == 0
        assert len(rep.bias) == c.p
        assert all(abs(b) < 0.1 for b in rep.bias)
        assert all(v > 0 for v in rep.emp_var)
        assert all(0.0 <= x <= 1.0 for x in rep.coverage)
        assert 0.0 <= rep.z_within_1960_frac <= 1.0
        assert rep.lambda_min_R_bar == pytest.approx(0.7, abs=1e-10)
        # lambda_max(R_mean^{-1} R_bar): the mean estimate is near R_bar
        assert rep.tau_oracle == pytest.approx(1.0, abs=0.1)

    def test_one_independence_fit_per_replicate(self, monkeypatch):
        import plgee.estimator as estimator
        from plgee.simulator import _run_replicate
        c = config(n=60, replications=3)
        calls = []
        real = estimator.gee_independence_fit

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimator, "gee_independence_fit", counted)
        results = [_run_replicate(c, r) for r in range(c.replications)]
        assert len(calls) == c.replications
        monkeypatch.undo()
        for r, res in enumerate(results):
            alone = real(generate_dataset(c, mix_seed(c.base_seed, r)), c.family)
            assert res["beta_indep"] == alone.beta_hat.tolist()

    def test_fallback_replicate_is_a_failure(self, monkeypatch):
        # a fit that fell back carries the independence estimate: replicate 2
        # is counted as failed and left out of every moment
        import plgee.simulator as simulator
        c = config(n=60, replications=5)
        want = run_replicates(c)
        assert all(d["ok"] for d in want)
        real = simulator.two_step_fit
        fits = []

        def falls_back_once(data, family):
            fit = real(data, family)
            fits.append(fit)
            if len(fits) == 3:
                fit = fit.preliminary
                fit.fallback_to_independence = True
                fit.preliminary = fit
            return fit

        monkeypatch.setattr(simulator, "two_step_fit", falls_back_once)
        got = run_replicates(c)
        assert got[2] == {"rep": 2, "ok": False}
        assert got[:2] + got[3:] == want[:2] + want[3:]
        report = simulator.summarize_replicates(c, got)
        assert report.n_failures == 1
        kept = np.array([d["beta_two"] for d in want if d["rep"] != 2])
        assert report.emp_var == np.var(kept, axis=0, ddof=1).tolist()
        assert report.bias == np.mean(kept - np.array(c.beta0), axis=0).tolist()
        assert report.to_json() == simulator.summarize_replicates(
            c, want[:2] + [{"rep": 2, "ok": False}] + want[3:]).to_json()

    @pytest.mark.parametrize("replications, n_failures, warns", [
        (100, 2, False), (50, 1, False), (100, 0, False), (100, 3, True), (49, 1, True)])
    def test_report_causes_past_the_failure_fraction(self, replications, n_failures, warns):
        # at most 2 % of the replicates may fail; the payload is the
        # dataclass fields, and causes is not one of them
        import plgee.simulator as simulator
        assert simulator.MAX_FAILURE_FRACTION == 0.02
        report = MCReport(**dict({f.name: 0.0 for f in fields(MCReport)},
                                 replications=replications, n_failures=n_failures))
        assert report.causes == ((
            "replicates-failed",
            f"{n_failures} of {replications} replicates failed, "
            "more than the 0.02 fraction allowed"),) * warns
        assert "causes" not in report.to_json()

    def test_per_replicate_rows(self):
        c = config(n=60, replications=6)
        rows = run_replicates(c)
        assert [r["rep"] for r in rows] == list(range(6))
        for r in rows:
            if r["ok"]:
                assert len(r["beta_two"]) == c.p
                assert len(r["z"]) == c.p
                assert len(r["covered"]) == c.p

    def test_pool_never_larger_than_replications(self, monkeypatch):
        import concurrent.futures
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        c = config(n=40, replications=3)
        rows = run_replicates(c, workers=10_000)
        assert sizes == [3]
        assert rows == run_replicates(c, workers=1)
        run_replicates(config(n=40, replications=1), workers=8)   # one replicate: no pool
        assert sizes == [3]

    @pytest.mark.parametrize("workers", [0, -2])
    def test_fewer_than_one_worker_is_rejected(self, workers, monkeypatch):
        import plgee.simulator as simulator
        monkeypatch.setattr(simulator, "_run_replicate", pytest.fail)    # nothing runs
        with pytest.raises(InvalidInputError, match=f"workers must be at least 1, got {workers}"):
            run_replicates(config(), workers=workers)

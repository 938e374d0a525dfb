import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from plgee import diagnostics, estimator
from plgee.diagnostics import (
    DET_FLOOR,
    _max_quad_form,
    condition_trend_report,
    design_diagnostics,
    example1_closed_form,
    example2_closed_form,
    trend_flags,
)
from plgee.errors import InvalidInputError, LinkOverflowError, NotPositiveDefiniteError, ShapeError
from plgee.estimator import estimate_correlation, gee_independence_fit
from plgee.matkernel import SymMatrix, matrix_stats, max_relative_eigenvalue, sym_eigen
from plgee.model import (IDENTITY, LOG, LOGIT, LongitudinalDataset, _higher_derivatives,
                         eval_model, link_eval)
from plgee.simulator import exchangeable_matrix, gen_gaussian
from sandwich_oracle import sandwich


def gaussian_dataset(n=60, m=3, p=2, rho=0.4, beta0=(1.0, -0.5), seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, m, p))
    return gen_gaussian(X, np.array(beta0), exchangeable_matrix(m, rho), seed=seed)


@pytest.mark.parametrize("cells, p", [(1, 1), (5, 1), (1, 4), (37, 6)])
def test_max_quad_form_matches_einsum(cells, p, monkeypatch):
    rng = np.random.default_rng(cells * 10 + p)
    Xf = rng.normal(size=(cells, p))
    A = rng.normal(size=(p, p))
    A = A @ A.T + np.eye(p)
    want = float(np.max(np.einsum("cp,pq,cq->c", Xf, A, Xf)))
    # the cells as subjects of one time each, and as one subject; every
    # subject in one block, then blocks of 1 and 3 subjects
    for X in (Xf.reshape(cells, 1, p), Xf.reshape(1, cells, p)):
        for subjects in (None, 1, 3):
            if subjects is not None:
                monkeypatch.setattr(estimator, "_BLOCK_CELLS", subjects * X.shape[1] * p)
            assert _max_quad_form(X, A) == pytest.approx(want, rel=1e-12)


def gamma_D_loop(data, family, beta):
    """gamma_D by its definition: a per-subject loop of p x p eigenproblems, at
    R-tilde, the average outer product of the standardized residuals."""
    ev = eval_model(data, family, beta)
    s = ev.eps / ev.sd
    Q = np.linalg.inv(sum(np.outer(s[i], s[i]) for i in range(data.n)) / data.n)
    G = [(ev.sd[i, :, None] * data.X[i]).T @ Q @ (ev.sd[i, :, None] * data.X[i])
         for i in range(data.n)]
    H = sum(G)
    return max(scipy.linalg.eigh(Gi, H, eigvals_only=True)[-1] for Gi in G)


@pytest.mark.parametrize("n, m, p, family", [
    (1, 1, 1, IDENTITY), (4, 3, 2, LOG), (7, 1, 1, LOGIT), (12, 4, 1, LOG),
    (40, 3, 3, IDENTITY), (25, 5, 4, LOGIT), (240, 4, 3, LOG),
])
def test_batched_gamma_D_matches_subject_loop(n, m, p, family):
    rng = np.random.default_rng(1000 + 100 * n + 10 * m + p)
    X = rng.uniform(-1, 1, size=(n, m, p))
    data = LongitudinalDataset(X, rng.poisson(1.0, size=(n, m)).astype(float))
    beta = rng.uniform(-0.5, 0.5, size=p)
    rep = design_diagnostics(data, family, beta)
    assert rep.gamma_D == pytest.approx(gamma_D_loop(data, family, beta), rel=1e-12)


class TestDesignDiagnostics:
    @pytest.mark.parametrize("subjects", [1, 3])
    def test_subject_blocks_match_one_block(self, subjects, monkeypatch):
        # logit, so that k2 and k3 vary over the cells (log gives 1 at each)
        data = gaussian_dataset(n=30, m=4, seed=9)
        beta = np.array([1.0, -0.5])
        want = design_diagnostics(data, LOGIT, beta)
        monkeypatch.setattr(estimator, "_BLOCK_CELLS", subjects * 4 * 2)
        got = design_diagnostics(data, LOGIT, beta)
        for name in ("gamma_D", "gamma0", "gamma0_indep", "lambda_min_H_indep", "det_R"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)
        # each cell's theta is the same GEMV row whatever the block
        assert (got.k2, got.k3) == (want.k2, want.k3)
        assert 0.0 < want.k2 < 1.0

    @pytest.mark.parametrize("subjects", [None, 1, 3, 150])
    def test_gamma_D_of_subject_blocks_solves_no_maximum_away(self, subjects, monkeypatch):
        # H sums its blocks in another order for another block size, so gamma_D
        # agrees with the one-block value to rounding only; at any one block
        # size it is the maximum over every subject's eigenvalues bit for bit
        data = gaussian_dataset(n=400, m=5, p=4, beta0=(1.0, -0.5, 0.3, 0.2), seed=11)
        beta = np.linspace(-0.4, 0.4, 4)
        one_block = design_diagnostics(data, LOG, beta).gamma_D
        if subjects is not None:
            monkeypatch.setattr(estimator, "_BLOCK_CELLS", subjects * 5 * 4)
        got = design_diagnostics(data, LOG, beta).gamma_D
        assert got == pytest.approx(one_block, rel=1e-12)

        def every_subject_solved(A, eig, floor=-np.inf):
            root = eig.power(-0.5)
            W = root @ A @ root
            W = 0.5 * (W + np.swapaxes(W, -1, -2))
            return max(floor, float(np.max(np.linalg.eigvalsh(W))))

        monkeypatch.setattr(diagnostics, "max_relative_eigenvalue", every_subject_solved)
        assert got == design_diagnostics(data, LOG, beta).gamma_D

    @pytest.mark.parametrize("subjects", [1, 3])
    def test_floor_carried_across_blocks_keeps_gamma_D_bits(self, subjects, monkeypatch):
        # each block prunes against the maximum of the blocks before it: the
        # same gamma_D, bit for bit, as blocks reduced on their own, from
        # fewer eigenproblems
        data = gaussian_dataset(n=400, m=5, p=4, beta0=(1.0, -0.5, 0.3, 0.2), seed=11)
        beta = np.linspace(-0.4, 0.4, 4)
        one_block = design_diagnostics(data, LOG, beta).gamma_D
        monkeypatch.setattr(estimator, "_BLOCK_CELLS", subjects * 5 * 4)
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            solved.append(1 if a.ndim == 2 else len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        carried = design_diagnostics(data, LOG, beta).gamma_D
        carried_solves = sum(solved)
        kernel = diagnostics.max_relative_eigenvalue
        monkeypatch.setattr(diagnostics, "max_relative_eigenvalue",
                            lambda A, eig, floor=-np.inf: max(floor, kernel(A, eig)))
        solved.clear()
        assert carried == design_diagnostics(data, LOG, beta).gamma_D
        assert carried_solves < sum(solved)
        assert carried == pytest.approx(one_block, rel=1e-12)

    def test_identity_correlation_values(self):
        # residual columns orthogonal, each of squared length n: R-tilde = I
        r = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, -1.0], [-1.0, -1.0, 1.0]])
        X = np.random.default_rng(1).uniform(-1, 1, size=(4, 3, 2))
        rep = design_diagnostics(LongitudinalDataset(X, r), IDENTITY, np.zeros(2))
        assert rep.det_R == pytest.approx(1.0, rel=1e-12)
        assert rep.pi_n == pytest.approx(1.0, rel=1e-12)
        assert rep.tau_tilde_n == pytest.approx(3.0, rel=1e-12)
        assert rep.gamma_tilde == pytest.approx(rep.tau_tilde_n * rep.gamma0)

    def test_single_subject_single_time(self):
        # x = 1 and y = 2 at beta = 0: R-tilde = 4, so Q = H = 1/4, and the
        # meat is (Q x s)^2 = 1/4 with s = 2
        data = LongitudinalDataset(np.ones((1, 1, 1)), np.full((1, 1), 2.0))
        rep = design_diagnostics(data, IDENTITY, np.zeros(1))
        assert rep.det_R == pytest.approx(4.0)
        assert rep.lambda_min_H_indep == pytest.approx(1.0)
        assert rep.lambda_min_H_general == pytest.approx(0.25)
        assert rep.gamma0_indep == pytest.approx(1.0)
        assert rep.gamma_D == pytest.approx(1.0)
        assert rep.c_n == pytest.approx(1.0)

    def test_gamma_D_bounded_by_dn_gamma_tilde(self):
        data = gaussian_dataset(n=200, seed=2)
        beta = np.array([1.0, -0.5])
        rep = design_diagnostics(data, IDENTITY, beta)
        ev = eval_model(data, IDENTITY, beta)
        d_n = float(np.max(ev.var))
        assert rep.gamma_D <= d_n * rep.gamma_tilde * (1 + 1e-9)

    def test_gamma0_indep_positive_finite(self):
        data = gaussian_dataset(seed=3)
        rep = design_diagnostics(data, IDENTITY, np.zeros(2))
        assert 0 < rep.gamma0_indep < np.inf

    def test_tau_floor_when_trace_small(self):
        # lambda_min(R) <= trace/m <= 2 forces tau_tilde = m*lambda_max(R^-1) >= m/2
        data = gaussian_dataset(seed=4)
        beta = np.array([1.0, -0.5])
        rep = design_diagnostics(data, IDENTITY, beta)
        assert np.trace(estimate_correlation(data, IDENTITY, beta).R_tilde.a) <= 2 * data.m
        assert rep.tau_tilde_n >= 0.5 * data.m

    def test_sandwich_bound_chain(self):
        # (1/2m) H_indep <= H_general <= (tau/m) H_indep when |R entries| <= 2
        data = gaussian_dataset(n=100, seed=6)
        beta = np.array([1.0, -0.5])
        corr = estimate_correlation(data, IDENTITY, beta)
        R = corr.R_tilde.a
        assert np.max(np.abs(R)) <= 2.0
        rep = design_diagnostics(data, IDENTITY, beta)
        var = eval_model(data, IDENTITY, beta).var
        Hg = estimator._sandwiched_gram(data.X, np.sqrt(var), np.linalg.inv(R))
        Hi = estimator._weighted_gram(data.X, var)
        assert rep.lambda_min_H_general == pytest.approx(sym_eigen(Hg).values[0], rel=1e-12)
        assert rep.lambda_min_H_indep == pytest.approx(sym_eigen(Hi).values[0], rel=1e-12)
        m = data.m
        upper = (rep.tau_tilde_n / m) * Hi - Hg
        lower = Hg - (1.0 / (2.0 * m)) * Hi
        for diff in (upper, lower):
            eig = sym_eigen(SymMatrix(diff))
            assert eig.values[0] >= -1e-9 * abs(np.trace(diff))

    @pytest.mark.parametrize("family", [IDENTITY, LOG, LOGIT], ids=["identity", "log", "logit"])
    @pytest.mark.parametrize("subjects", [None, 7], ids=["one-block", "blocks-of-7"])
    def test_c_n_is_relative_to_the_sandwich_meat(self, family, subjects, monkeypatch):
        # M-hat summed over the gamma_D blocks is the sandwich's, at any block size
        data = gaussian_dataset(n=80, seed=7)
        beta = gee_independence_fit(data, IDENTITY).beta_hat
        H, M, _ = sandwich(data, family, beta, estimate_correlation(data, family, beta).R_tilde.a)
        want = max_relative_eigenvalue(H, sym_eigen(M))
        if subjects is not None:
            monkeypatch.setattr(estimator, "_BLOCK_CELLS", subjects * 3 * 2)
        rep = design_diagnostics(data, family, beta)
        assert rep.c_n == pytest.approx(want, rel=1e-12)
        assert rep.c_n > 0

    def test_singular_R_rejected(self):
        # two subjects' residuals span two of the m=3 dimensions
        data = gaussian_dataset(seed=9).subset(2)
        with pytest.raises(NotPositiveDefiniteError, match="^correlation matrix "):
            design_diagnostics(data, IDENTITY, np.zeros(2))

    def test_log_link_overflow_names_subject_and_time(self, monkeypatch):
        X = np.ones((6, 2, 1))
        X[4, 1] = 800.0      # theta = 800 > the log link's limit, in the third block
        data = LongitudinalDataset(X, np.zeros((6, 2)))
        monkeypatch.setattr(estimator, "_BLOCK_CELLS", 2 * 2 * 1)
        with pytest.raises(LinkOverflowError,
                           match=r"^log link overflow at subject position 5 "
                                 r"\(first-appearance order\), time 2$") as info:
            design_diagnostics(data, LOG, np.ones(1))
        assert (info.value.subject, info.value.time) == (4, 1)


    def test_beta_that_overflows_is_named_without_a_warning(self):
        # theta = 1e308 (1 + x) overflows where x > 0.797; at 1e200 theta is
        # finite, but R-tilde's sum of squared residuals overflows
        rng = np.random.default_rng(0)
        X = np.ones((30, 3, 2))
        X[:, :, 1] = rng.uniform(-1, 1, (30, 3))
        data = LongitudinalDataset(X, X @ [1.0, 0.5] + rng.standard_normal((30, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinkOverflowError, match="^identity link overflow at subject"):
                design_diagnostics(data, IDENTITY, [1e308, 1e308])
            with pytest.raises(InvalidInputError,
                               match=r"^R-tilde is not finite \(it overflows"):
                design_diagnostics(data, IDENTITY, [1e200, 1e200])


class TestSmoothnessMaxima:
    """k2 and k3: the maxima of |mu''/mu'| and |mu'''/mu'| over the cells at beta."""

    def test_identity_link_zero(self):
        rep = design_diagnostics(gaussian_dataset(seed=10), IDENTITY, np.zeros(2))
        assert (rep.k2, rep.k3) == (0.0, 0.0)

    def test_log_link_unity(self):
        rep = design_diagnostics(gaussian_dataset(seed=11), LOG, np.zeros(2))
        assert (rep.k2, rep.k3) == (1.0, 1.0)

    def test_theta_is_eval_models_gemv(self):
        # theta is the one GEMV on the (cells, p) flattening that eval_model
        # forms, reduced a block at a time: the whole array's maxima bit for
        # bit (numpy's batched 3-D matvec gives a theta whose k2 differs in
        # the last bit on this draw)
        rng = np.random.default_rng(84)
        X = rng.uniform(-1, 1, size=(40, 10, 8))
        data = LongitudinalDataset(X, np.zeros((40, 10)))
        beta = rng.uniform(-0.5, 0.5, size=8)
        ev = eval_model(data, LOGIT, beta)
        d1 = ev.var
        d2, d3 = _higher_derivatives(LOGIT, ev.theta, ev.mu, d1)
        rep = design_diagnostics(data, LOGIT, beta)
        assert (rep.k2, rep.k3) == (float(np.max(np.abs(d2 / d1))),
                                    float(np.max(np.abs(d3 / d1))))

    def test_logit_grid_oracle(self):
        # single covariate ranging over [-2, 2]: the maxima over the cells
        # match a dense grid maximization of |mu''/mu'| at the same points
        thetas = np.linspace(-2.0, 2.0, 41)
        X = thetas.reshape(-1, 1, 1)
        data = LongitudinalDataset(X, np.zeros((len(thetas), 1)))
        rep = design_diagnostics(data, LOGIT, np.array([1.0]))
        dense = max(abs(link_eval(LOGIT, t).d2) / link_eval(LOGIT, t).d1
                    for t in thetas)
        assert rep.k2 == pytest.approx(dense, abs=1e-3)


class TestExample1:
    def test_orthonormal_weighted_design(self):
        # u = v = 1, w = 0: one subject, X = I2, identity link
        data = LongitudinalDataset(np.eye(2)[None, :, :], np.zeros((1, 2)))
        out = example1_closed_form(data, IDENTITY, np.zeros(2))
        assert out["lambda_min"] == pytest.approx(1.0)
        assert out["lambda_max"] == pytest.approx(1.0)
        assert out["sin2_theta"] == pytest.approx(1.0)

    def test_hand_computed_case(self):
        # u=4, v=1, w=1 -> d=sqrt(13), lambda_max=(5+sqrt13)/2
        X = np.array([[[2.0, 0.5], [0.0, np.sqrt(0.75)]]])
        data = LongitudinalDataset(X, np.zeros((1, 2)))
        out = example1_closed_form(data, IDENTITY, np.zeros(2))
        assert out["u"] == pytest.approx(4.0)
        assert out["v"] == pytest.approx(1.0)
        assert out["w"] == pytest.approx(1.0)
        assert out["d"] == pytest.approx(np.sqrt(13.0))
        assert out["lambda_max"] == pytest.approx((5 + np.sqrt(13.0)) / 2)
        assert out["lambda_max"] == pytest.approx(4.302776, abs=1e-6)

    def test_agrees_with_eigensolver_on_random_designs(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, m, 2))
            y = rng.normal(size=(n, m))
            data = LongitudinalDataset(X, y)
            beta = rng.normal(size=2) * 0.3
            out = example1_closed_form(data, LOGIT, beta)
            ev = eval_model(data, LOGIT, beta)
            H = np.einsum("nmp,nm,nmq->pq", X, ev.var, X)
            st = matrix_stats(SymMatrix(H))
            assert out["lambda_min"] == pytest.approx(st.lambda_min, rel=1e-10, abs=1e-12)
            assert out["lambda_max"] == pytest.approx(st.lambda_max, rel=1e-10)

    def test_requires_p2(self):
        data = LongitudinalDataset(np.zeros((2, 2, 3)), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            example1_closed_form(data, IDENTITY, np.zeros(3))


class TestExample2:
    def test_single_level_leaves_empty_level_at_zero(self):
        X = np.zeros((3, 2, 2))
        X[:, :, 0] = 1.0   # every cell at level 1
        data = LongitudinalDataset(X, np.zeros((3, 2)))
        out = example2_closed_form(data, IDENTITY, np.zeros(2))
        assert np.allclose(out["nu"], [6.0, 0.0])
        assert out["nu_min"] == 0.0

    def test_balanced_two_level_identity(self):
        n, m = 10, 2
        X = np.zeros((n, m, 2))
        X[:, 0, 0] = 1.0
        X[:, 1, 1] = 1.0
        data = LongitudinalDataset(X, np.zeros((n, m)))
        out = example2_closed_form(data, IDENTITY, np.zeros(2))
        assert np.allclose(out["nu"], [10.0, 10.0])

    def test_logit_quarter_variance(self):
        n, m = 8, 3
        rng = np.random.default_rng(13)
        levels = rng.integers(0, 2, size=(n, m))
        X = np.zeros((n, m, 2))
        for k in range(2):
            X[:, :, k] = (levels == k).astype(float)
        data = LongitudinalDataset(X, np.zeros((n, m)))
        out = example2_closed_form(data, LOGIT, np.zeros(2))
        counts = [(levels == k).sum() for k in range(2)]
        assert np.allclose(out["nu"], [0.25 * c for c in counts])

    def test_non_basis_vector_named(self):
        X = np.zeros((2, 2, 2))
        X[:, :, 0] = 1.0
        X[1, 1] = [0.5, 0.5]
        data = LongitudinalDataset(X, np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="subject 1, time 1"):
            example2_closed_form(data, IDENTITY, np.zeros(2))

    def test_matches_generic_H(self):
        n, m = 12, 2
        rng = np.random.default_rng(14)
        levels = rng.integers(0, 3, size=(n, m))
        X = np.zeros((n, m, 3))
        for k in range(3):
            X[:, :, k] = (levels == k).astype(float)
        data = LongitudinalDataset(X, np.zeros((n, m)))
        beta = np.array([0.2, -0.1, 0.4])
        out = example2_closed_form(data, LOG, beta)
        ev = eval_model(data, LOG, beta)
        H = np.einsum("nmp,nm,nmq->pq", X, ev.var, X)
        assert np.max(np.abs(H - np.diag(out["nu"]))) < 1e-12 * max(1, out["nu"].max())


class TestTrends:
    def test_single_point_grid(self):
        data = gaussian_dataset(n=50, seed=15)
        reports = condition_trend_report(data, IDENTITY, np.array([1.0, -0.5]),
                                         n_grid=[50])
        assert len(reports) == 1
        flags = trend_flags(reports)
        assert flags["lambda_min_H_over_tau_increasing"]   # vacuous on one point

    def test_det_floor_is_the_constant(self):
        report, = condition_trend_report(gaussian_dataset(n=50, seed=15), IDENTITY,
                                         np.array([1.0, -0.5]))
        for det, ok in [(DET_FLOOR, True), (DET_FLOOR * (1 - 1e-12), False)]:
            flags = trend_flags([report, replace(report, det_R=det)])
            assert flags["det_R_floor_ok"] is ok

    def test_iid_design_trends_point_the_right_way(self):
        beta0 = np.array([1.0, -0.5])
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(1600, 3, 2))
        data = gen_gaussian(X, beta0, exchangeable_matrix(3, 0.3), seed=17)
        reports = condition_trend_report(data, IDENTITY, beta0,
                                         n_grid=[100, 400, 1600])
        flags = trend_flags(reports)
        assert flags["lambda_min_H_over_tau_increasing"]
        assert flags["sqrt_n_pi_gamma_tilde_decreasing"]
        assert flags["sqrt_n_gamma0_indep_decreasing"]
        # lambda_min grows roughly linearly in n for i.i.d. designs
        lam = [r.lambda_min_H_indep for r in reports]
        for a, b in zip(lam, lam[1:]):
            assert 3.0 <= b / a <= 5.0

    def test_frozen_level_counterexample_is_flagged(self):
        # categorical design where level 2 stops appearing after subject 100
        n, m = 1600, 2
        X = np.zeros((n, m, 2))
        for i in range(n):
            for j in range(m):
                level = (i + j) % 2 if i < 100 else 0
                X[i, j, level] = 1.0
        beta0 = np.array([1.0, 0.5])
        data = gen_gaussian(X, beta0, exchangeable_matrix(m, 0.3), seed=18)
        reports = condition_trend_report(data, IDENTITY, beta0,
                                         n_grid=[100, 400, 1600])
        flags = trend_flags(reports)
        assert not flags["lambda_min_H_indep_increasing"]
        nu_last = example2_closed_form(data, IDENTITY, beta0)
        nu_100 = example2_closed_form(data.subset(100), IDENTITY, beta0)
        assert nu_last["nu_min"] == pytest.approx(nu_100["nu_min"])

    def test_one_model_evaluation_per_grid_row(self, monkeypatch):
        data = gaussian_dataset(n=60, seed=20)
        evaluated = []

        def counted(data, *args, **kwargs):
            evaluated.append(data.n)
            return eval_model(data, *args, **kwargs)

        for module in (diagnostics, estimator):
            monkeypatch.setattr(module, "eval_model", counted)
        condition_trend_report(data, IDENTITY, np.array([1.0, -0.5]), n_grid=[20, 40, 60])
        assert evaluated == [20, 40, 60]

    @pytest.mark.parametrize("n_grid, message", [
        ([40, 20], "grid must be strictly increasing"),
        ([2], r"grid values must lie in \[m, n\] = \[3, 60\], got n_head=2"),
    ], ids=["decreasing", "below-m"])
    def test_diagnose_checks_the_grid_before_any_fit(self, monkeypatch, n_grid, message):
        monkeypatch.setattr(diagnostics, "gee_independence_fit", pytest.fail)
        monkeypatch.setattr(diagnostics, "design_diagnostics", pytest.fail)
        with pytest.raises(ShapeError, match=message):
            diagnostics.diagnose(gaussian_dataset(), IDENTITY, n_grid=n_grid)

    def test_bad_grid_rejected(self):
        data = gaussian_dataset(n=20, seed=19)
        with pytest.raises(ShapeError):
            condition_trend_report(data, IDENTITY, np.zeros(2), n_grid=[10, 10])
        with pytest.raises(ShapeError):
            condition_trend_report(data, IDENTITY, np.zeros(2), n_grid=[30])

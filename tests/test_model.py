import numpy as np
import pytest

from plgee.errors import InvalidInputError, LinkOverflowError
from plgee.model import (
    IDENTITY,
    LOG,
    LOGIT,
    PROBIT,
    LinkFamily,
    LongitudinalDataset,
    eval_model,
    gauss_cdf,
    gauss_pdf,
    gauss_quantile,
    link_eval,
)

ALL_LINKS = [IDENTITY, LOG, LOGIT, PROBIT]
GRID = np.linspace(-3.0, 3.0, 61)


class TestLinkValues:
    def test_identity(self):
        v = link_eval(IDENTITY, 7.0)
        assert (v.mu, v.d1, v.d2, v.d3) == (7.0, 1.0, 0.0, 0.0)

    def test_log_at_zero(self):
        v = link_eval(LOG, 0.0)
        assert (v.mu, v.d1, v.d2, v.d3) == (1.0, 1.0, 1.0, 1.0)

    def test_logit_at_zero(self):
        v = link_eval(LOGIT, 0.0)
        assert v.mu == pytest.approx(0.5)
        assert v.d1 == pytest.approx(0.25)
        assert v.d2 == pytest.approx(0.0, abs=1e-15)
        assert v.d3 == pytest.approx(-0.125)

    def test_logit_symbolic_forms(self):
        # mu' = mu(1-mu), mu'' = mu'(1-2mu), mu''' = mu'(1-6mu+6mu^2)
        for theta in GRID:
            v = link_eval(LOGIT, theta)
            mu = v.mu
            assert v.d1 == pytest.approx(mu * (1 - mu), rel=1e-12)
            assert v.d2 == pytest.approx(v.d1 * (1 - 2 * mu), rel=1e-12, abs=1e-15)
            assert v.d3 == pytest.approx(v.d1 * (1 - 6 * mu + 6 * mu * mu),
                                         rel=1e-12, abs=1e-15)

    def test_probit_at_zero(self):
        v = link_eval(PROBIT, 0.0)
        phi0 = 1.0 / np.sqrt(2 * np.pi)
        assert v.mu == pytest.approx(0.5)
        assert v.d1 == pytest.approx(phi0, abs=1e-10)
        assert v.d2 == pytest.approx(0.0, abs=1e-15)
        assert v.d3 == pytest.approx(-phi0, abs=1e-10)

    def test_probit_closed_forms_on_grid(self):
        # d1 = phi, d2 = -theta*phi, d3 = (theta^2-1)*phi
        for theta in GRID:
            v = link_eval(PROBIT, theta)
            phi = float(gauss_pdf(theta))
            assert v.d1 == pytest.approx(phi, abs=1e-10)
            assert v.d2 == pytest.approx(-theta * phi, abs=1e-10)
            assert v.d3 == pytest.approx((theta * theta - 1) * phi, abs=1e-10)

    @pytest.mark.parametrize("family", ALL_LINKS, ids=lambda f: f.kind)
    def test_d1_positive_everywhere(self, family):
        for theta in GRID:
            assert link_eval(family, theta).d1 > 0

    @pytest.mark.parametrize("family", ALL_LINKS, ids=lambda f: f.kind)
    def test_finite_difference_consistency(self, family):
        # central differences of mu reproduce d1, of d1 reproduce d2, of d2
        # reproduce d3, to 1e-6 relative on the grid
        h = 1e-5
        for theta in GRID:
            v = link_eval(family, theta)
            up = link_eval(family, theta + h)
            dn = link_eval(family, theta - h)
            fd1 = (up.mu - dn.mu) / (2 * h)
            fd2 = (up.d1 - dn.d1) / (2 * h)
            fd3 = (up.d2 - dn.d2) / (2 * h)
            scale1 = max(abs(v.d1), 1e-8)
            assert abs(fd1 - v.d1) <= 1e-6 * scale1
            assert abs(fd2 - v.d2) <= 1e-6 * max(abs(v.d2), scale1)
            assert abs(fd3 - v.d3) <= 1e-6 * max(abs(v.d3), scale1)

    def test_log_overflow_guard(self):
        with pytest.raises(LinkOverflowError):
            link_eval(LOG, 701.0)

    @pytest.mark.parametrize("family", [LOGIT, PROBIT], ids=lambda f: f.kind)
    def test_saturation_keeps_variance_positive(self, family):
        for theta in (-1e4, -500.0, 500.0, 1e4):
            v = link_eval(family, theta)
            assert v.d1 > 0
            assert np.isfinite(v.mu)

    def test_nonfinite_theta_rejected(self):
        with pytest.raises(InvalidInputError):
            link_eval(LOGIT, float("nan"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            LinkFamily("cauchit")


class TestGauss:
    def test_quantile_round_trip(self):
        for q in (0.001, 0.025, 0.25, 0.5, 0.9, 0.975, 0.999):
            assert float(gauss_cdf(gauss_quantile(q))) == pytest.approx(q, abs=1e-12)

    def test_known_quantiles(self):
        assert gauss_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert gauss_quantile(0.75) == pytest.approx(0.674490, abs=1e-6)

    def test_cdf_accuracy(self):
        # against a high-precision reference value for Phi(1)
        assert float(gauss_cdf(1.0)) == pytest.approx(0.8413447460685429, abs=1e-12)


class TestDataset:
    def test_shapes_and_counts(self):
        d = LongitudinalDataset(np.zeros((4, 3, 2)), np.zeros((4, 3)))
        assert (d.n, d.m, d.p) == (4, 3, 2)

    def test_rejects_ragged_or_nonfinite(self):
        with pytest.raises(InvalidInputError):
            LongitudinalDataset(np.zeros((2, 3, 1)), np.zeros((2, 2)))
        X = np.zeros((1, 2, 1))
        y = np.array([[np.inf, 0.0]])
        with pytest.raises(InvalidInputError):
            LongitudinalDataset(X, y)

    def test_stores_c_contiguous_arrays(self):
        buf = np.arange(4 * 3 * 3, dtype=float).reshape(4, 3, 3)
        d = LongitudinalDataset(buf[:, :, 1:], buf[:, :, 0])
        assert d.X.flags.c_contiguous and d.y.flags.c_contiguous
        assert np.array_equal(d.X, buf[:, :, 1:]) and np.array_equal(d.y, buf[:, :, 0])


class TestEvalModel:
    def test_identity_single_cell(self):
        X = np.array([[[1.0, 1.0]]])
        y = np.array([[5.0]])
        d = LongitudinalDataset(X, y)
        ev = eval_model(d, IDENTITY, np.array([1.0, 2.0]))
        assert ev.theta[0, 0] == 3.0
        assert ev.mu[0, 0] == 3.0
        assert ev.var[0, 0] == 1.0
        assert ev.eps[0, 0] == 2.0

    def test_zero_beta_logit(self):
        rng = np.random.default_rng(0)
        d = LongitudinalDataset(rng.normal(size=(5, 3, 2)), rng.normal(size=(5, 3)))
        ev = eval_model(d, LOGIT, np.zeros(2))
        assert np.all(ev.mu == 0.5)
        assert np.all(ev.var == 0.25)

    @pytest.mark.parametrize("family", ALL_LINKS, ids=lambda f: f.kind)
    def test_cellwise_oracle(self, family):
        rng = np.random.default_rng(1)
        d = LongitudinalDataset(0.3 * rng.normal(size=(6, 4, 3)),
                                rng.normal(size=(6, 4)))
        beta = np.array([0.5, -0.2, 0.1])
        ev = eval_model(d, family, beta)
        for i in range(d.n):
            for j in range(d.m):
                theta = float(d.X[i, j] @ beta)
                assert theta == pytest.approx(ev.theta[i, j], rel=1e-14, abs=1e-15)
                v = link_eval(family, float(ev.theta[i, j]))
                assert ev.var[i, j] == v.d1
                assert ev.mu[i, j] == v.mu

    def test_residual_reconstruction_exact(self):
        rng = np.random.default_rng(2)
        d = LongitudinalDataset(rng.normal(size=(5, 3, 2)), rng.normal(size=(5, 3)))
        ev = eval_model(d, LOGIT, np.array([0.4, -0.7]))
        # eps is y - mu by definition (bitwise); re-adding mu recovers y to
        # the last ulp
        assert np.array_equal(ev.eps, d.y - ev.mu)
        assert np.allclose(ev.mu + ev.eps, d.y, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("c", [2.0, 0.5, -3.0])
    def test_affine_consistency(self, c):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 3, 2))
        y = rng.normal(size=(5, 3))
        beta = np.array([0.4, -0.7])
        ev1 = eval_model(LongitudinalDataset(X, y), LOGIT, beta)
        ev2 = eval_model(LongitudinalDataset(c * X, y), LOGIT, beta / c)
        assert np.allclose(ev1.theta, ev2.theta, atol=1e-14)
        assert np.allclose(ev1.var, ev2.var, atol=1e-14)

    def test_rows_are_the_whole_evaluation_rows(self):
        rng = np.random.default_rng(6)
        d = LongitudinalDataset(rng.normal(size=(7, 3, 2)), rng.normal(size=(7, 3)))
        beta = np.array([0.3, -0.8])
        whole = eval_model(d, LOGIT, beta)
        for rows in (slice(0, 7), slice(2, 5), slice(6, 9)):
            part = eval_model(d, LOGIT, beta, rows)
            for name in ("theta", "mu", "var", "eps"):
                assert np.allclose(getattr(part, name), getattr(whole, name)[rows],
                                   rtol=1e-15, atol=1e-15)
        X = np.zeros((4, 2, 1))
        X[2, 1, 0] = 1000.0
        with pytest.raises(LinkOverflowError) as exc:
            eval_model(LongitudinalDataset(X, np.zeros((4, 2))), LOG, np.array([1.0]),
                       slice(1, 4))
        assert (exc.value.subject, exc.value.time) == (2, 1)

    def test_overflow_carries_coordinates(self):
        X = np.zeros((2, 2, 1))
        X[1, 1, 0] = 1000.0
        d = LongitudinalDataset(X, np.zeros((2, 2)))
        with pytest.raises(LinkOverflowError) as exc:
            eval_model(d, LOG, np.array([1.0]))
        assert exc.value.subject == 1
        assert exc.value.time == 1

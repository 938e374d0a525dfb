import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg

from plgee.errors import InvalidInputError, NotPositiveDefiniteError
from plgee.matkernel import (
    SymMatrix,
    matrix_stats,
    max_relative_eigenvalue,
    sym_eigen,
)


def random_sym(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) * scale
    return 0.5 * (a + a.T)


def random_spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + dim * np.eye(dim)


def spd_power(s, k):
    """S^k through the one SPD-checked decomposition, as every caller does."""
    return sym_eigen(s, require_spd="matrix").power(k)


def sqrt_pair(s):
    return spd_power(s, 0.5), spd_power(s, -0.5)


def solve(s, b):
    return spd_power(s, -1) @ np.asarray(b, dtype=float)


class TestSymMatrix:
    def test_symmetrization_is_exact(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = SymMatrix(a)
        assert np.array_equal(s.a, s.a.T)
        assert repr(s) == "SymMatrix(dim=2)"

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            SymMatrix(np.zeros((2, 3)))


class TestSymEigen:
    def test_identity(self):
        e = sym_eigen(np.eye(3))
        assert np.allclose(e.values, [1, 1, 1])

    def test_2x2_known(self):
        e = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(e.values, [1.0, 3.0], atol=1e-12)
        v0 = e.basis[:, 0] * np.sqrt(2)
        v1 = e.basis[:, 1] * np.sqrt(2)
        assert np.allclose(np.abs(v0), [1, 1], atol=1e-12)
        assert np.allclose(np.abs(v1), [1, 1], atol=1e-12)
        assert v0[0] * v0[1] < 0 < v1[0] * v1[1]

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        s = random_sym(rng, 5)
        # the same random basis with a triple eigenvalue in the spectrum
        basis, _ = np.linalg.qr(s)
        repeated = (basis * [-1.0, 2.0, 2.0, 2.0, 5.0]) @ basis.T
        for a in (s, repeated):
            e = sym_eigen(a)
            assert np.allclose(e.values, np.linalg.eigvalsh(a), rtol=0, atol=1e-12)
            rec = (e.basis * e.values) @ e.basis.T
            tol = 1e-10 * max(1.0, np.linalg.norm(a))
            assert np.max(np.abs(rec - a)) < tol
            assert np.max(np.abs(e.basis.T @ e.basis - np.eye(5))) < 1e-10

    def test_values_sorted(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_sym(rng, 6)
            e = sym_eigen(s)
            assert np.all(np.diff(e.values) >= 0)
            assert np.allclose(e.values, np.linalg.eigvalsh(s), rtol=0, atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError, match="^matrix has non-finite entries$"):
            sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_nonfinite_error_names_the_required_spd_matrix(self):
        with pytest.raises(InvalidInputError, match="^sandwich meat has non-finite entries$"):
            sym_eigen(np.array([[np.inf, 0.0], [0.0, 1.0]]), require_spd="sandwich meat")


class TestSqrtPair:
    """S^{1/2} and S^{-1/2} as power(0.5) and power(-0.5)."""

    def test_identity(self):
        half, inv_half = sqrt_pair(np.eye(3))
        assert np.allclose(half, np.eye(3), atol=1e-12)
        assert np.allclose(inv_half, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        half, inv_half = sqrt_pair(np.diag([4.0, 9.0]))
        assert np.allclose(half, np.diag([2.0, 3.0]), atol=1e-12)
        assert np.allclose(inv_half, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)

    def test_remultiplication(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        half, inv_half = sqrt_pair(s)
        assert np.max(np.abs(half @ half - s)) < 1e-9
        assert np.max(np.abs(half @ inv_half - np.eye(2))) < 1e-9

    def test_spd_invariant_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_spd(rng, 6)
            half, inv_half = sqrt_pair(s)
            assert np.max(np.abs(half @ half - s)) < 1e-9 * max(1, np.linalg.norm(s))
            assert np.max(np.abs(half @ inv_half - np.eye(6))) < 1e-9

    def test_not_pd_raises_with_lambda_min(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            sqrt_pair(np.diag([1.0, -2.0]))
        assert exc.value.lambda_min == pytest.approx(-2.0)


class TestRequireSpd:
    """sym_eigen with the SPD floor check."""

    def test_passes_spd_decomposition_through(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        e, want = sym_eigen(s, require_spd="widget"), sym_eigen(s)
        assert e.values.tobytes() == want.values.tobytes()
        assert e.basis.tobytes() == want.basis.tobytes()

    def test_symmetrizes_what_it_is_given(self):
        a = np.array([[2.0, 1.2], [0.8, 2.0]])
        want = sym_eigen(SymMatrix(a))
        for given in (a, SymMatrix(a)):
            e = sym_eigen(given, require_spd="widget")
            assert e.values.tobytes() == want.values.tobytes()
            assert e.basis.tobytes() == want.basis.tobytes()

    @pytest.mark.parametrize("lam_min", [-2.0, 0.0, 1e-13])
    def test_error_names_matrix_and_lambda_min(self, lam_min):
        s = np.diag([1.0, lam_min])
        with pytest.raises(NotPositiveDefiniteError, match="widget") as exc:
            sym_eigen(s, require_spd="widget")
        assert exc.value.lambda_min == pytest.approx(lam_min, abs=1e-15)


class TestSolveSpd:
    """Solving S x = b as power(-1) @ b."""

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.allclose(solve(np.eye(3), b), b)

    def test_diagonal(self):
        assert np.allclose(solve(np.diag([2.0, 4.0]), [2.0, 8.0]), [1.0, 2.0])

    def test_residual_random(self):
        rng = np.random.default_rng(13)
        s = random_spd(rng, 6)
        b = rng.normal(size=6)
        x = solve(s, b)
        assert np.linalg.norm(s @ x - b) <= 1e-9 * (np.linalg.norm(b) + 1)

    def test_eigen_reciprocity_via_solve(self):
        # eigenvalues of S^{-1} (columns solved from basis vectors) are the
        # reciprocals of those of S
        rng = np.random.default_rng(17)
        s = random_spd(rng, 5)
        inv = np.column_stack([solve(s, e) for e in np.eye(5)])
        vals_inv = sym_eigen(0.5 * (inv + inv.T)).values
        vals = sym_eigen(s).values
        assert np.allclose(np.sort(1.0 / vals), vals_inv, rtol=1e-8)


class TestPower:
    @pytest.mark.parametrize("k", [-1, -0.5, 0.5, 1, 2])
    def test_matches_scipy_fractional_matrix_power(self, k):
        rng = np.random.default_rng(37)
        for dim in (1, 2, 6):
            s = random_spd(rng, dim)
            want = np.real(scipy.linalg.fractional_matrix_power(s, k))
            got = sym_eigen(s).power(k)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestMaxRelativeEigenvalue:
    """lambda_max(S^{-1/2} A S^{-1/2}) against the generalized eigenproblem
    A v = lambda S v."""

    @pytest.mark.parametrize("p", [1, 2, 7])
    def test_single_matrix_matches_scipy_eigh(self, p):
        rng = np.random.default_rng(41 + p)
        s, a = random_spd(rng, p), random_sym(rng, p, scale=3.0)
        want = scipy.linalg.eigh(a, s, eigvals_only=True)[-1]
        got = max_relative_eigenvalue(a, sym_eigen(s))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n, p", [(1, 1), (1, 4), (9, 1), (30, 5)])
    def test_stack_is_max_over_matrices(self, n, p):
        rng = np.random.default_rng(43 + 10 * n + p)
        s = random_spd(rng, p)
        stack = np.array([random_sym(rng, p) for _ in range(n)])
        want = max(scipy.linalg.eigh(a, s, eigvals_only=True)[-1] for a in stack)
        got = max_relative_eigenvalue(stack, sym_eigen(s))
        assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def whole_stack(stack, s):
        """The maximum over every matrix of the stack, W formed as the kernel
        forms it: the value the norm bound must give bit for bit."""
        root = sym_eigen(s).power(-0.5)
        W = root @ stack @ root
        return np.max(np.linalg.eigvalsh(0.5 * (W + np.swapaxes(W, 1, 2))))

    @staticmethod
    def rank_one(rng, n, p):
        """v_i v_i', where the norm bound equals lambda_max in exact arithmetic;
        half the rows share one length, so their bounds tie with the maximum."""
        v = rng.normal(size=(n, p))
        v[::2] /= np.linalg.norm(v[::2], axis=1, keepdims=True)
        return v[:, :, None] * v[:, None, :]

    @pytest.mark.parametrize("n, p", [(1, 3), (2, 1), (17, 4), (200, 8), (200, 2)])
    def test_pruned_stack_is_whole_stack_bit_for_bit(self, n, p):
        rng = np.random.default_rng(59 + 10 * n + p)
        s = random_spd(rng, p)
        psd = rng.normal(size=(n, p, p))
        stacks = {
            "symmetric": np.array([random_sym(rng, p) for _ in range(n)]),
            "rank one": self.rank_one(rng, n, p),
            "identical": np.repeat(random_sym(rng, p)[None], n, axis=0),
            "negative definite": -(psd @ np.swapaxes(psd, 1, 2) + np.eye(p)),
            "indefinite": np.array([random_sym(rng, p) - 0.5 * np.eye(p) for _ in range(n)]),
        }
        for name, stack in stacks.items():
            for spd in (s, np.eye(p)):
                got = max_relative_eigenvalue(stack, sym_eigen(spd))
                assert got == self.whole_stack(stack, spd), name

    @pytest.mark.parametrize("n, p", [(1, 3), (17, 4), (200, 8)])
    def test_floor_is_the_result_only_when_no_matrix_reaches_it(self, n, p):
        rng = np.random.default_rng(63 + 10 * n + p)
        s, stack = random_spd(rng, p), self.rank_one(rng, n, p)
        want = self.whole_stack(stack, s)
        for floor, result in ((-np.inf, want), (0.5 * want, want), (want, want),
                              (2.0 * want, 2.0 * want)):
            assert max_relative_eigenvalue(stack, sym_eigen(s), floor=floor) == result

    @pytest.mark.parametrize("scale", [1e-320, 1e-160, 1e-140, 1e160, 1e300])
    def test_norms_that_underflow_or_overflow_still_bound(self, scale):
        # squares of entries below 1e-154 lose their digits (or vanish) and
        # those above 1e154 overflow; neither may drop the maximum or warn
        rng = np.random.default_rng(61)
        stack = self.rank_one(rng, 100, 3) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = max_relative_eigenvalue(stack, sym_eigen(np.eye(3)))
        assert got == self.whole_stack(stack, np.eye(3))
        assert got > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("subject", [0, 7, 19])
    def test_nonfinite_stack_raises_as_before(self, bad, subject):
        rng = np.random.default_rng(67)
        stack = np.array([random_sym(rng, 3) for _ in range(20)])
        stack[subject, 0, 1] = stack[subject, 1, 0] = bad
        eig = sym_eigen(random_spd(rng, 3))
        # also above a floor that every finite matrix's bound lies below
        for floor in (-np.inf, 1e300):
            with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
                max_relative_eigenvalue(stack, eig, floor=floor)

    @staticmethod
    def count_solves(monkeypatch):
        """A list that np.linalg.eigvalsh appends each call's matrix count to."""
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            solved.append(1 if a.ndim == 2 else len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return solved

    def test_one_dominant_matrix_is_nearly_all_that_is_solved(self, monkeypatch):
        rng = np.random.default_rng(71)
        v = rng.normal(size=(400, 8, 8))
        stack = 1e-3 * (v @ np.swapaxes(v, 1, 2))
        stack[123] *= 1e3
        want = self.whole_stack(stack, np.eye(8))
        solved = self.count_solves(monkeypatch)
        assert max_relative_eigenvalue(stack, sym_eigen(np.eye(8))) == want
        assert sum(solved) <= 3

    def test_stack_wholly_below_the_floor_solves_nothing(self, monkeypatch):
        rng = np.random.default_rng(73)
        stack = self.rank_one(rng, 50, 4)
        bound = max(np.linalg.norm(a) for a in stack)
        solved = self.count_solves(monkeypatch)
        assert max_relative_eigenvalue(stack, sym_eigen(np.eye(4)), floor=2.0 * bound) \
            == 2.0 * bound
        assert solved == []

    @pytest.mark.parametrize("blocks", [1, 4])
    def test_largest_norm_matrix_is_solved_once_per_block(self, blocks, monkeypatch):
        # a stack reduced block by block with the running maximum as the
        # floor, as design_diagnostics does; every matrix v v' has |v| = 1, so
        # all norms tie and every matrix is a candidate: each is solved once,
        # the largest-norm one of a block first and not again with the rest
        v = np.random.default_rng(79).normal(size=(40, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        stack = v[:, :, None] * v[:, None, :]
        want = self.whole_stack(stack, np.eye(3))
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            solved.extend(w.tobytes() for w in a.reshape(-1, 3, 3))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        got = -np.inf
        for part in np.array_split(stack, blocks):
            got = max_relative_eigenvalue(part, sym_eigen(np.eye(3)), floor=got)
        assert got == want
        assert len(solved) == len(set(solved)) == len(stack)

    @staticmethod
    def single_matrix(A, eig):
        """The kernel's former path for one matrix: W formed without a stack
        axis and solved whole."""
        root = eig.power(-0.5)
        W = root @ A @ root
        W = W + W.T
        W *= 0.5
        return float(np.max(np.linalg.eigvalsh(W)))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_one_matrix_is_a_stack_of_one_bit_for_bit(self, scale):
        rng = np.random.default_rng(83)
        for _ in range(100):
            p = int(rng.integers(1, 12))
            s = random_spd(rng, p) * scale
            a = random_sym(rng, p, scale=scale)
            eig = sym_eigen(s)
            assert max_relative_eigenvalue(a, eig) == self.single_matrix(a, eig)
            assert max_relative_eigenvalue(a, eig) == max_relative_eigenvalue(a[None], eig)

    def test_relative_to_itself_is_one(self):
        s = random_spd(np.random.default_rng(47), 5)
        assert max_relative_eigenvalue(s, sym_eigen(s)) == pytest.approx(1.0, rel=1e-12)


class TestMatrixStats:
    def test_identity(self):
        st = matrix_stats(np.eye(4))
        assert (st.lambda_min, st.lambda_max) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_2x2_known(self):
        st = matrix_stats(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert st.lambda_min == pytest.approx(1.0)
        assert st.lambda_max == pytest.approx(3.0)

    def test_fields_are_the_extreme_eigenvalues(self):
        s = random_sym(np.random.default_rng(19), 5)
        st = matrix_stats(SymMatrix(s))
        assert [f.name for f in fields(st)] == ["lambda_min", "lambda_max"]
        values = sym_eigen(s).values
        assert (st.lambda_min, st.lambda_max) == (values[0], values[-1])

    def test_rayleigh_quotient_bounds(self):
        rng = np.random.default_rng(29)
        s = random_sym(rng, 6)
        st = matrix_stats(s)
        for _ in range(100):
            x = rng.normal(size=6)
            x /= np.linalg.norm(x)
            q = x @ s @ x
            assert st.lambda_min - 1e-10 <= q <= st.lambda_max + 1e-10


def test_spd_inverse_matches_solve():
    rng = np.random.default_rng(31)
    s = random_spd(rng, 5)
    inv = spd_power(s, -1)
    assert np.max(np.abs(s @ inv - np.eye(5))) < 1e-9


def test_decompositions_compare_and_hash_by_identity():
    a, b = sym_eigen(np.eye(3)), sym_eigen(np.eye(3))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2

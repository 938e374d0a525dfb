"""Dense symmetric-matrix primitives for small dimensions.

Everything downstream (estimating-equation solves, correlation handling,
diagnostics) funnels through this module.  Matrices here are tiny (cluster
size and covariate dimension, both well under ~50).  The eigensolver is
LAPACK's symmetric ``eigh``; its eigenvectors, with the signs LAPACK gives
them, enter only matrix functions, where a column's sign cancels.
``sym_eigen(S, require_spd=what)`` is the one door for an SPD matrix: it
symmetrizes, decomposes and floor-checks S in one call, and callers hand it
a ``SymMatrix`` or a plain array as they have it.  Every
matrix function of an SPD matrix (inverse, square root, inverse square root)
is ``EigenDecomposition.power`` of that one decomposition.
``max_relative_eigenvalue`` gives the largest eigenvalue of a matrix, or of a
stack of them, relative to it; a norm bound leaves most of a stack unsolved.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError


def _as_matrix(a):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {arr.shape}")
    return arr


class SymMatrix:
    """Square matrix stored exactly symmetric; construction symmetrizes."""

    __slots__ = ("a",)

    def __init__(self, entries):
        arr = _as_matrix(entries)
        self.a = 0.5 * (arr + arr.T)

    @property
    def dim(self):
        return self.a.shape[0]

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


def _sym_array(S):
    """Accept SymMatrix or array-like; return the symmetrized ndarray."""
    return (S if isinstance(S, SymMatrix) else SymMatrix(S)).a


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray   # nondecreasing
    basis: np.ndarray    # eigh's orthonormal columns, basis[:, k] <-> values[k]

    def power(self, k):
        """S^k = V diag(values**k) V' of the decomposed S, from ``basis``: a
        column's sign cancels bit for bit.  Negative or fractional k need S
        SPD: decompose it with ``require_spd`` set."""
        return (self.basis * self.values ** k) @ self.basis.T


def sym_eigen(S, require_spd=None):
    """Eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Eigenvalues are returned in nondecreasing order; ``basis`` holds eigh's
    eigenvectors with the signs LAPACK gives them.

    With ``require_spd`` set to the matrix's name, S must be numerically SPD.
    The eigenvalue floor is 1e-12 * max(1, trace/dim), scaled so that
    well-conditioned problems in natural units are never falsely rejected.
    Below it, raises NotPositiveDefiniteError naming the matrix and carrying
    lambda_min.
    """
    a = _sym_array(S)
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix has non-finite entries")
    values, vectors = np.linalg.eigh(a)
    if require_spd is not None:
        tol = 1e-12 * max(1.0, float(np.trace(a)) / a.shape[0])
        lam_min = float(values[0])
        if lam_min <= tol:
            raise NotPositiveDefiniteError(
                f"{require_spd} is not positive definite "
                f"(lambda_min={lam_min:.6g}, tol={tol:.6g})",
                lambda_min=lam_min,
            )
    return EigenDecomposition(values=values, basis=vectors)


def max_relative_eigenvalue(A, eig, floor=-np.inf):
    """lambda_max(S^{-1/2} A S^{-1/2}), where ``eig`` decomposes the SPD S.

    A is one symmetric matrix (a SymMatrix or an array) or an (n, p, p) stack
    of them; for a stack the result is the largest eigenvalue over the whole
    stack, or ``floor`` if that is larger.

    For a stack, lambda_max(W_i) <= ||W_i||_F: a matrix is solved only when
    its norm, with 1e-10 relative and 1e-150 added for rounding, reaches the
    floor and, once the matrix of largest norm is solved, its eigenvalue.
    LAPACK solves each matrix on its own, so the result is the whole stack's
    bit for bit.  A caller that reduces a stack block by block passes the
    running maximum as the floor, so each block prunes against every block
    before it, and a block wholly below the floor solves nothing.
    """
    root = eig.power(-0.5)
    W = root @ (A.a if isinstance(A, SymMatrix) else np.asarray(A, dtype=float)) @ root
    W = W + np.swapaxes(W, -1, -2)
    W *= 0.5            # in place: one stack-sized temporary fewer alive
    if W.ndim == 2:
        return float(np.max(np.linalg.eigvalsh(W)))
    flat = W.reshape(len(W), 1, -1)     # a view: W is C-contiguous
    with np.errstate(over="ignore"):    # an inf norm only widens the search
        bound = np.sqrt((flat @ np.swapaxes(flat, 1, 2)).ravel()) * (1 + 1e-10) + 1e-150
    largest = np.argmax(bound)
    if bound[largest] < floor:          # False for a NaN, which is solved and raises
        return float(floor)
    top = max(floor, np.max(np.linalg.eigvalsh(W[largest])))
    bound[largest] = -np.inf            # solved: not a candidate again
    return float(np.max(np.linalg.eigvalsh(W[bound >= top]), initial=top))


@dataclass(frozen=True)
class MatrixStats:
    spectral_norm: float
    det: float
    trace: float
    lambda_min: float
    lambda_max: float


def matrix_stats(S):
    a = _sym_array(S)
    eig = sym_eigen(a)
    lam_min = float(eig.values[0])
    lam_max = float(eig.values[-1])
    return MatrixStats(
        spectral_norm=max(abs(lam_min), abs(lam_max)),
        det=float(np.prod(eig.values)),
        trace=float(np.trace(a)),
        lambda_min=lam_min,
        lambda_max=lam_max,
    )

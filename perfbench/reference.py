"""A fixed piece of reference work, timed in every sample's process.

On a shared virtual machine the host's speed drifts by 25 % and more over
minutes, which moves every wall time with it.  Each sample therefore also
times this work, which never changes.  The bounded call times are the plgee
call's time in units of it, and `setup_s` is the import time rescaled to a
host on which this work takes NOMINAL_S seconds.  It mixes the three kinds
of work the workloads spend their time in: Python-level loops of small
numpy calls (as in the Jacobi kernel), parsing decimal text into floats (as
in the CSV reader), and a large three-operand einsum (as in the estimating
system).
"""

import time

import numpy as np

NOMINAL_S = 0.25

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((8, 8))
_TEXT = ",".join(f"{v:.6f}" for v in _RNG.standard_normal(200_000))
_X = _RNG.standard_normal((12_000, 10, 8))
_Q = np.eye(10) + 0.1


def reference_s():
    """Seconds this process takes for the reference work (~0.3 s)."""
    start = time.perf_counter()
    a = _A + _A.T
    for _ in range(5_000):
        col_p, col_q = a[:, 1].copy(), a[:, 5].copy()
        a[:, 1] = 0.8 * col_p - 0.6 * col_q
        a[:, 5] = 0.6 * col_p + 0.8 * col_q
        np.sqrt(np.sum(np.square(a - np.diag(np.diag(a)))))
    [float(v) for v in _TEXT.split(",")]
    np.einsum("njp,jk,nkq->pq", _X, _Q, _X)
    return time.perf_counter() - start

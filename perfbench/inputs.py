"""Seeded workload inputs, built with numpy/scipy only.

The generators here do not call `plgee.simulator`, so the CSV bytes a seed
produces stay the same across commits even when the package's own
generators change.  CSVs are cached under `perfbench/.cache/`, keyed by
workload, seed and `FORMAT_VERSION`; only the newest few are kept, because
every run may use a different seed.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

FORMAT_VERSION = 1
CACHE_KEEP = 2          # cached CSVs kept per workload


@dataclass(frozen=True)
class CsvShape:
    """A long-format dataset drawn from a marginal GLM with latent
    exchangeable correlation `rho`; column 1 of X is an intercept."""
    family: str          # "log" (Poisson copula) or "identity" (Gaussian)
    n: int
    m: int
    p: int
    rho: float
    beta0: tuple


FIT_LARGE = CsvShape("log", 20_000, 10, 8, 0.4,
                     (0.5, 0.25, -0.25, 0.2, -0.2, 0.15, -0.15, 0.1))
DIAGNOSE_TREND = CsvShape("identity", 400, 10, 8, 0.5,
                          (1.0, 0.5, -0.5, 0.4, -0.4, 0.3, -0.3, 0.2))
DIAGNOSE_GRID = (100, 200, 400)

MC_SMALL = {
    "n": 400, "m": 4, "p": 3, "family": "log",
    "beta0": [0.5, 0.3, -0.3],
    "design": {"kind": "iid_uniform", "lo": -1.0, "hi": 1.0},
    "correlation": {"kind": "exchangeable", "rho": 0.4},
    "replications": 100,
}


def draw_arrays(shape, seed):
    """(X, y) for `shape`; the same seed always gives the same arrays."""
    rng = np.random.Generator(np.random.PCG64([FORMAT_VERSION, seed]))
    n, m, p = shape.n, shape.m, shape.p
    X = np.empty((n, m, p))
    X[:, :, 0] = 1.0
    # covariates on a 1e-3 grid in [-1, 1], so the CSV text is short and exact
    X[:, :, 1:] = rng.integers(-1000, 1001, size=(n, m, p - 1)) / 1000.0
    R = (1.0 - shape.rho) * np.eye(m) + shape.rho * np.ones((m, m))
    z = rng.standard_normal((n, m)) @ np.linalg.cholesky(R).T
    theta = X @ np.asarray(shape.beta0)
    if shape.family == "log":
        y = _poisson_quantile(special.ndtr(z), np.exp(theta))
    elif shape.family == "identity":
        y = np.rint((theta + z) * 1e6) / 1e6
    else:
        raise ValueError(f"no generator for family {shape.family!r}")
    return X, y


def _poisson_quantile(u, lam):
    """Smallest k with Poisson(lam) CDF >= u, all cells in lockstep."""
    y = np.zeros_like(lam)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    k = 0
    while True:
        below = cdf < u
        if not below.any():
            return y
        k += 1
        y += below
        pmf = pmf * lam / k
        cdf = cdf + pmf


def _format(values):
    """Shortest exact text for values on the generators' decimal grids."""
    if np.all(values == np.rint(values)):
        return values.astype(np.int64).astype(str)
    return np.char.mod("%.15g", values)


def _write_csv(fh, X, y, chunk=5_000):
    """Write X, y as a long-format CSV, `chunk` subjects at a time."""
    n, m, p = X.shape
    fh.write(",".join(["subject", "time", "y"] + [f"x{k + 1}" for k in range(p)]) + "\n")
    grid = np.array(["%.15g" % (k / 1000.0) for k in range(-1000, 1001)])
    for lo in range(0, n, chunk):
        Xc, yc = X[lo:lo + chunk], y[lo:lo + chunk]
        cols = [np.repeat(np.arange(lo + 1, lo + len(yc) + 1), m).astype(str),
                np.tile(np.arange(1, m + 1), len(yc)).astype(str),
                _format(yc.ravel())]
        for k in range(p):
            x = Xc[:, :, k].ravel()
            cols.append(grid[np.rint(x * 1000.0).astype(np.int64) + 1000]
                        if k else _format(x))
        rows = cols[0]
        for col in cols[1:]:
            rows = np.strings.add(np.strings.add(rows, ","), col)
        fh.write("\n".join(rows.tolist()) + "\n")


def cache_dir():
    path = Path(__file__).resolve().parent / ".cache"
    path.mkdir(exist_ok=True)
    return path


def _prune(prefix, keep):
    files = sorted(cache_dir().glob(prefix + "*.csv"),
                   key=lambda f: f.stat().st_mtime, reverse=True)
    for stale in files[keep:]:
        stale.unlink(missing_ok=True)


def dataset_csv(name, shape, seed):
    """Path of the cached CSV for (name, seed), written on a cache miss.

    Returns (path, X, y, sha256 of the file)."""
    X, y = draw_arrays(shape, seed)
    path = cache_dir() / f"{name}-v{FORMAT_VERSION}-seed{seed}.csv"
    if not path.exists():
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            _write_csv(fh, X, y)
        os.replace(tmp, path)
    os.utime(path)
    _prune(f"{name}-", CACHE_KEEP)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return path, X, y, digest


def simulate_config(seed):
    """SimConfig JSON for the Monte Carlo workload, written to the cache."""
    doc = dict(MC_SMALL, base_seed=int(seed))
    path = cache_dir() / "mc_small.json"
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return path, doc

"""Seeded synthetic-data generators and the Monte Carlo harness.

Generators produce datasets whose marginal mean and variance follow the
canonical-link model exactly (Gaussian for the identity link; Poisson and
Bernoulli through a latent Gaussian copula for log and logit).  The harness
runs the two-step and working-independence estimators over replicates with
deterministic per-replicate seeds, so parallel and sequential runs agree
bit for bit.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConfigError, EmptyReportError, InvalidInputError, NotPositiveDefiniteError,
                     PlgeeError)
from .estimator import (
    estimate_correlation,
    two_step_fit,
    wald_intervals,
)
from .matkernel import SymMatrix, max_relative_eigenvalue, sym_eigen
from .model import (
    LinkFamily,
    LongitudinalDataset,
    gauss_cdf,
    gauss_quantile_array,
)

Z_TWO_SIDED_95 = 1.959964
MAX_FAILURE_FRACTION = 0.02     # of replicates, before a report warns
_POISSON_QUANTILE_CAP = 100000  # largest count the Poisson quantile search tries

# Stream tags keep the design, response, and shuffle draws on distinct
# deterministic substreams of each replicate seed.
_TAG_DESIGN = 0x9E3779B97F4A7C15
_TAG_RESPONSE = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1


def mix_seed(seed, index):
    """splitmix64-style mix of a base seed and a stream index."""
    x = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _rng(seed):
    """The PCG64 generator of `seed`.  numpy.random (which loads OpenSSL) is
    imported here, so that only a run that draws pays for it."""
    from numpy.random import PCG64, Generator
    return Generator(PCG64(seed))


def _uniforms(seed, shape):
    return _rng(seed).random(shape)


def _standard_normals(seed, shape):
    # inverse-CDF sampling: all randomness flows through one uniform stream
    u = _uniforms(seed, shape)
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return gauss_quantile_array(u)


def _correlated_normals(R_bar, seed, shape):
    """Gaussian (n, m) array whose rows are N(0, R_bar); R_bar must be SPD."""
    R_bar = SymMatrix(R_bar).a
    sym_eigen(R_bar, require_spd="correlation matrix")
    return _standard_normals(seed, shape) @ np.linalg.cholesky(R_bar).T


def exchangeable_matrix(m, rho):
    return (1.0 - rho) * np.eye(m) + rho * np.ones((m, m))


def ar1_matrix(m, rho):
    idx = np.arange(m)
    return rho ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class DesignSpec:
    kind: str                 # iid_uniform | grid | categorical
    lo: float = -1.0
    hi: float = 1.0

    def validate(self, p):
        if self.kind not in ("iid_uniform", "grid", "categorical"):
            raise ConfigError(f"unknown design kind {self.kind!r}")
        if self.kind == "iid_uniform" and not self.lo < self.hi:
            raise ConfigError(f"iid_uniform needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class CorrelationSpec:
    kind: str                 # exchangeable | ar1 | custom
    rho: float = 0.0
    R_bar: tuple = ()         # nested tuple for custom matrices (hashable)

    def validate(self, m):
        if self.kind == "exchangeable":
            lower = -1.0 / (m - 1) if m > 1 else -1.0
            if not lower < self.rho < 1.0:
                raise ConfigError(
                    f"exchangeable rho must be in ({lower:.4g}, 1), got {self.rho}"
                )
        elif self.kind == "ar1":
            if not abs(self.rho) < 1.0:
                raise ConfigError(f"ar1 rho must satisfy |rho| < 1, got {self.rho}")
        elif self.kind == "custom":
            R = np.asarray(self.R_bar, dtype=float)
            if R.shape != (m, m):
                raise ConfigError(f"custom correlation must be {m}x{m}, got {R.shape}")
            if np.max(np.abs(np.diag(R) - 1.0)) > 1e-10:
                raise ConfigError("custom correlation must have unit diagonal")
            try:
                sym_eigen(R, require_spd="custom correlation")
            except NotPositiveDefiniteError as exc:
                raise ConfigError(str(exc)) from exc
        else:
            raise ConfigError(f"unknown correlation kind {self.kind!r}")

    def matrix(self, m):
        if self.kind == "exchangeable":
            return exchangeable_matrix(m, self.rho)
        if self.kind == "ar1":
            return ar1_matrix(m, self.rho)
        return SymMatrix(self.R_bar).a


@dataclass(frozen=True)
class SimConfig:
    n: int
    m: int
    p: int
    family: LinkFamily
    beta0: tuple
    design: DesignSpec
    correlation: CorrelationSpec
    subject_dependence: str = "independent"   # independent | sign_modulated
    replications: int = 1
    base_seed: int = 0
    ci_level: float = 0.95

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.p < 1:
            raise ConfigError(f"need n, m, p >= 1, got {(self.n, self.m, self.p)}")
        if len(self.beta0) != self.p:
            raise ConfigError(f"beta0 must have length p={self.p}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError("ci_level must be in (0,1)")
        if self.subject_dependence not in ("independent", "sign_modulated"):
            raise ConfigError(
                f"unknown subject_dependence {self.subject_dependence!r}"
            )
        if self.family.kind == "probit":
            raise ConfigError(
                "no generator exists for the probit variance function; "
                "fit probit on logit-generated data instead"
            )
        if self.family.kind != "identity" and self.subject_dependence != "independent":
            raise ConfigError("sign_modulated dependence requires the identity link")
        self.design.validate(self.p)
        self.correlation.validate(self.m)

    @property
    def causes(self):
        """(kind, detail) warnings: a latent rho binary marginals cannot attain."""
        if self.family.kind == "logit" and self.correlation.rho > 0.95:
            return (("latent-correlation-above-frechet-bound",
                     "latent rho > 0.95 with binary marginals: attainable response "
                     "correlation is Frechet-bounded well below the latent value"),)
        return ()

    @staticmethod
    def from_json(doc):
        """SimConfig from its JSON object; a key it does not know is an error."""
        spec = {"lo": float, "hi": float, "rho": float,
                "R_bar": lambda rows: tuple(map(_floats, rows))}
        try:
            return _from_json(SimConfig, doc, "config", {
                "n": int, "m": int, "p": int, "family": LinkFamily, "beta0": _floats,
                "design": lambda d: _from_json(DesignSpec, d, "design", spec),
                "correlation": lambda d: _from_json(CorrelationSpec, d, "correlation", spec),
                "replications": int, "base_seed": int, "ci_level": float,
            })
        except (TypeError, ValueError, InvalidInputError) as exc:   # LinkFamily raises the last
            raise ConfigError(f"invalid simulation config: {exc}") from exc


def _floats(values):
    return tuple(map(float, values))


def _from_json(cls, doc, where, convert):
    """cls built from the keys of `doc` that name its fields, each passed
    through convert[name] if given, so an absent key takes the field's
    default; a key that is not a field is a ConfigError naming `where`."""
    rest = dict(doc)
    obj = cls(**{f.name: convert.get(f.name, lambda v: v)(rest.pop(f.name))
                 for f in fields(cls) if f.name in rest})
    if rest:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(rest))}")
    return obj


def make_design(config, seed):
    """Design array (n, m, p); deterministic given the seed."""
    n, m, p = config.n, config.m, config.p
    spec = config.design
    if spec.kind == "iid_uniform":
        u = _uniforms(seed, (n, m, p))
        return spec.lo + (spec.hi - spec.lo) * u
    if spec.kind == "grid":
        # deterministic bounded design: 11 equally spaced levels in [-1, 1],
        # phase-shifted per covariate so columns are not collinear
        levels = np.linspace(-1.0, 1.0, 11)
        cell = np.arange(n * m).reshape(n, m)
        X = np.empty((n, m, p))
        for k in range(p):
            X[:, :, k] = levels[(cell + 2 * k + k * k) % len(levels)]
        return X
    # categorical: levels assigned cyclically over cells, then shuffled
    cells = n * m
    levels = np.arange(cells) % p
    levels = levels[_rng(seed).permutation(cells)]
    X = np.zeros((cells, p))
    X[np.arange(cells), levels] = 1.0
    return X.reshape(n, m, p)


def gen_gaussian(X, beta0, R_bar, subject_dependence="independent", seed=0):
    """Identity-link responses y_i = X_i beta0 + L z_i with Cov = R_bar.

    sign_modulated flips each residual vector by a sign that is a function
    of the previous subjects' first residual components: the flip is
    past-measurable, so the residuals stay a martingale difference sequence
    with unchanged marginal covariance.
    """
    X = np.asarray(X, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    eps = _correlated_normals(R_bar, seed, X.shape[:2])
    if subject_dependence == "sign_modulated":
        running = 0.0
        for row in eps:
            row *= 1.0 if running >= 0.0 else -1.0
            running += row[0]
    theta = X @ beta0
    return LongitudinalDataset(X, theta + eps)


def _poisson_quantile_grid(v, lam):
    """Smallest k with Poisson(lam) CDF >= v, vectorized in lockstep."""
    y = np.zeros_like(lam)
    pmf = np.exp(-lam)
    cdf = pmf.copy()
    active = cdf < v
    k = 0
    while active.any():
        k += 1
        if k > _POISSON_QUANTILE_CAP:
            raise PlgeeError("poisson quantile search exceeded its cap")
        pmf = pmf * lam / k
        cdf = cdf + pmf
        y[active] = k
        active = active & (cdf < v)
    return y


def gen_discrete(X, beta0, family, R_bar, seed=0):
    """Poisson (log link) or Bernoulli (logit link) marginals with latent
    Gaussian-copula dependence.

    Marginal means and variances match the canonical-link model exactly;
    the realized response correlation differs from the latent R_bar (it is
    attenuated, and for binary data Frechet-bounded)."""
    if family.kind not in ("log", "logit"):
        raise ConfigError(
            f"discrete generator supports log and logit links, not {family.kind!r}"
        )
    X = np.asarray(X, dtype=float)
    beta0 = np.asarray(beta0, dtype=float)
    v = gauss_cdf(_correlated_normals(R_bar, seed, X.shape[:2]))
    theta = X @ beta0
    if family.kind == "log":
        y = _poisson_quantile_grid(v, np.exp(theta))
    else:
        mu = 1.0 / (1.0 + np.exp(-theta))
        y = (v > 1.0 - mu).astype(float)
    return LongitudinalDataset(X, y)


def generate_dataset(config, seed):
    """Dispatch to the generator matching the configured link."""
    X = make_design(config, seed=mix_seed(seed, _TAG_DESIGN))
    R_bar = config.correlation.matrix(config.m)
    resp_seed = mix_seed(seed, _TAG_RESPONSE)
    if config.family.kind == "identity":
        return gen_gaussian(X, config.beta0, R_bar,
                            subject_dependence=config.subject_dependence,
                            seed=resp_seed)
    return gen_discrete(X, config.beta0, config.family, R_bar, seed=resp_seed)


@dataclass
class MCReport:
    replications: int
    n_failures: int
    ci_level: float
    bias: list
    emp_var: list
    rmse: list
    coverage: list
    indep_emp_var: list
    efficiency_ratio: list
    z_within_1960_frac: float
    ks_distance: float
    median_beta_error_norm: float
    mean_corr_max_abs_error: float
    max_corr_max_abs_error: float
    lambda_min_R_bar: float
    tau_oracle: float

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def causes(self):
        """(kind, detail) warnings about this report: too many failed replicates."""
        if self.n_failures / self.replications > MAX_FAILURE_FRACTION:
            return (("replicates-failed",
                     f"{self.n_failures} of {self.replications} replicates failed, "
                     f"more than the {MAX_FAILURE_FRACTION:g} fraction allowed"),)
        return ()


def ks_distance_to_normal(z):
    """Kolmogorov-Smirnov distance of a sample to the standard normal."""
    z = np.sort(np.asarray(z, dtype=float))
    n = len(z)
    F = gauss_cdf(z)
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))


def _run_replicate(config, r):
    """One seeded replicate: generate, fit both ways, standardize."""
    seed = mix_seed(config.base_seed, r)
    data = generate_dataset(config, seed)
    R_bar = config.correlation.matrix(config.m)
    out = {"rep": r, "ok": False}
    try:
        two = two_step_fit(data, config.family)
    except PlgeeError:
        return out
    if not two.converged or two.fallback_to_independence:   # not a two-step estimate
        return out
    beta0 = np.asarray(config.beta0, dtype=float)
    delta = two.beta_hat - beta0
    z = sym_eigen(two.cov_beta, require_spd="sandwich covariance").power(-0.5) @ delta
    ci = wald_intervals(two, level=config.ci_level)
    covered = [lo <= b0 <= hi for (lo, hi), b0 in zip(ci, beta0)]
    corr = estimate_correlation(data, config.family, beta0)   # oracle-beta estimate
    out.update(
        ok=True,
        beta_two=two.beta_hat.tolist(),
        beta_indep=two.preliminary.beta_hat.tolist(),
        z=z.tolist(),
        covered=covered,
        corr_err=float(np.max(np.abs(corr.R_tilde.a - R_bar))),
        R_tilde=corr.R_tilde.a.tolist(),
    )
    return out


def run_replicates(config, workers=1):
    """Run every replicate once, in a process pool when workers > 1.

    The pool, imported only by a run that starts it, has at most one process
    per replicate.  Results come back in replicate order either way, so
    worker count does not affect anything built from them.  Fewer than one
    worker raises InvalidInputError.
    """
    if workers < 1:
        raise InvalidInputError(f"workers must be at least 1, got {workers}")
    reps = range(config.replications)
    workers = min(workers, config.replications)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_replicate, [config] * config.replications, reps))
    return [_run_replicate(config, r) for r in reps]


def _median(values):
    """np.median of finite floats, bit for bit, without its numpy.ma import."""
    s = sorted(values)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def summarize_replicates(config, results):
    """Aggregate bias/variance/coverage/normality over replicate results.

    Replicates that fail to converge, fall back to the independence fit or
    error out of the solver are counted and excluded from the moment
    statistics.
    """
    ok = [d for d in results if d["ok"]]
    n_fail = config.replications - len(ok)
    if not ok:
        raise EmptyReportError("no replicate gave a two-step estimate; nothing to aggregate")

    beta0 = np.asarray(config.beta0, dtype=float)
    B_two = np.array([d["beta_two"] for d in ok])
    B_ind = np.array([d["beta_indep"] for d in ok])
    Z = np.array([d["z"] for d in ok])
    covered = np.array([d["covered"] for d in ok], dtype=float)
    corr_err = np.array([d["corr_err"] for d in ok])
    R_mean = np.mean(np.array([d["R_tilde"] for d in ok]), axis=0)

    err = B_two - beta0
    ddof = 1 if len(ok) > 1 else 0
    emp_var = np.var(B_two, axis=0, ddof=ddof)
    ind_var = np.var(B_ind, axis=0, ddof=ddof)
    z_pool = Z.ravel()

    R_bar = config.correlation.matrix(config.m)
    eig_mean = sym_eigen(R_mean, require_spd="mean correlation estimate")
    tau_oracle = max_relative_eigenvalue(R_bar, eig_mean)   # lambda_max(R_mean^{-1} R_bar)

    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(ind_var > 0, emp_var / ind_var, np.nan)

    return MCReport(
        replications=config.replications,
        n_failures=n_fail,
        ci_level=config.ci_level,
        bias=np.mean(err, axis=0).tolist(),
        emp_var=emp_var.tolist(),
        rmse=np.sqrt(np.mean(err * err, axis=0)).tolist(),
        coverage=np.mean(covered, axis=0).tolist(),
        indep_emp_var=ind_var.tolist(),
        efficiency_ratio=eff.tolist(),
        z_within_1960_frac=float(np.mean(np.abs(z_pool) <= Z_TWO_SIDED_95)),
        ks_distance=ks_distance_to_normal(z_pool),
        median_beta_error_norm=_median(np.linalg.norm(err, axis=1).tolist()),
        mean_corr_max_abs_error=float(np.mean(corr_err)),
        max_corr_max_abs_error=float(np.max(corr_err)),
        lambda_min_R_bar=float(sym_eigen(R_bar).values[0]),
        tau_oracle=tau_oracle,
    )


def monte_carlo_run(config, workers=1):
    """Run all replicates and aggregate them into an MCReport."""
    return summarize_replicates(config, run_replicates(config, workers))


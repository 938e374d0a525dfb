"""Seeded synthetic-data generators and the Monte Carlo harness.

One generator draws datasets whose marginal mean and variance follow the
canonical-link model exactly (Gaussian for the identity link; Poisson and
Bernoulli through a latent Gaussian copula for log and logit).  The harness
runs the two-step and working-independence estimators over replicates with
deterministic per-replicate seeds, so parallel and sequential runs agree
bit for bit.
"""

import os
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import (ConfigError, EmptyReportError, InvalidInputError, NotPositiveDefiniteError,
                     PlgeeError)
from .estimator import CI_LEVEL, Z_95, estimate_correlation, two_step_fit, wald_intervals
from .matkernel import SymMatrix, max_relative_eigenvalue, sym_eigen
from .model import (
    _TINY,
    IDENTITY,
    LINK_KINDS,
    LinkFamily,
    LongitudinalDataset,
    gauss_cdf,
    gauss_quantile_array,
)

MAX_FAILURE_FRACTION = 0.02     # of replicates, before a report warns
_POISSON_QUANTILE_CAP = 100000  # largest count the Poisson quantile search tries
_MAX_ENTRIES = np.iinfo(np.intp).max // 8   # float64 entries one numpy array can index

# Stream tags keep the design and response draws on distinct deterministic
# substreams of each replicate seed.
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


def _correlated_normals(R_bar, seed, shape):
    """Gaussian (n, m) array whose rows are N(0, R_bar); R_bar must be SPD.  All
    randomness flows through one uniform stream, by inverse-CDF sampling."""
    R_bar = SymMatrix(R_bar)
    sym_eigen(R_bar, require_spd="correlation matrix")
    u = np.clip(_rng(seed).random(shape), 1e-300, 1.0 - 1e-16)
    return gauss_quantile_array(u) @ np.linalg.cholesky(R_bar.a).T


def exchangeable_matrix(m, rho):
    return (1.0 - rho) * np.eye(m) + rho * np.ones((m, m))


@dataclass(frozen=True)
class DesignSpec:
    kind: str                 # iid_uniform
    lo: float = -1.0
    hi: float = 1.0

    def validate(self):
        if self.kind != "iid_uniform":
            raise ConfigError(f"unknown design kind {self.kind!r}")
        if not self.lo < self.hi:
            raise ConfigError(f"iid_uniform needs lo < hi, got [{self.lo}, {self.hi}]")
        if not np.isfinite(self.hi - self.lo):
            raise ConfigError(f"iid_uniform needs finite lo, hi and hi - lo, "
                              f"got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class CorrelationSpec:
    kind: str                 # exchangeable
    rho: float = 0.0

    def matrix(self, m):
        """R_bar for m times, read-only.  A ConfigError unless it meets sym_eigen's
        SPD floor, which the generators apply."""
        if self.kind != "exchangeable":
            raise ConfigError(f"unknown correlation kind {self.kind!r}")
        lower = -1.0 / (m - 1) if m > 1 else -1.0
        if not lower < self.rho < 1.0:
            raise ConfigError(f"exchangeable rho must be in ({lower:.4g}, 1), got {self.rho}")
        R = exchangeable_matrix(m, self.rho)
        try:
            sym_eigen(R, require_spd="exchangeable correlation")
        except NotPositiveDefiniteError as exc:
            raise ConfigError(str(exc)) from exc
        R.setflags(write=False)
        return R


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
    R_bar: np.ndarray = field(init=False, repr=False, compare=False)   # correlation's, once

    def __post_init__(self):
        for key in ("n", "m", "p", "replications", "base_seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        n, m, p = map(int, (self.n, self.m, self.p))    # numpy integers would wrap
        if n < 1 or m < 1 or p < 1:
            raise ConfigError(f"need n, m, p >= 1, got {(n, m, p)}")
        if max(n * m * p, m * m) > _MAX_ENTRIES:
            raise ConfigError(f"n, m, p = {(n, m, p)} need an array larger than numpy can "
                              f"index ({_MAX_ENTRIES} float64 entries)")
        if len(self.beta0) != self.p:
            raise ConfigError(f"beta0 must have length p={self.p}")
        if not np.isfinite(self.beta0).all():
            raise ConfigError(f"beta0 must be finite, got {list(self.beta0)}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        _check_response_model(self.family, self.subject_dependence)
        self.design.validate()
        object.__setattr__(self, "R_bar", self.correlation.matrix(self.m))

    @property
    def causes(self):
        """(kind, detail) warnings: a latent correlation binary marginals cannot attain."""
        if self.family.kind == "logit" and self.m > 1 and self.correlation.rho > 0.95:
            return (("latent-correlation-above-frechet-bound",
                     "latent rho > 0.95 with binary marginals: attainable response "
                     "correlation is Frechet-bounded well below the latent value"),)
        return ()

    @staticmethod
    def from_json(doc):
        """SimConfig from its JSON object.  An unknown key, an absent key it needs and
        a value of the wrong JSON shape are ConfigErrors that name the key."""
        spec = {key: _number(key) for key in ("lo", "hi", "rho")}
        return _from_json(SimConfig, doc, "config", {
            "family": _family, "beta0": _beta0,
            "design": lambda d: _from_json(DesignSpec, d, "design", spec),
            "correlation": lambda d: _from_json(CorrelationSpec, d, "correlation", spec),
        })


def _family(value):
    if value not in LINK_KINDS:
        raise ConfigError(f"family must be one of {LINK_KINDS}, got {value!r}")
    return LinkFamily(value)


def _beta0(value):
    if not isinstance(value, list):
        raise ConfigError(f"beta0 takes a JSON array of numbers, got {value!r}")
    return tuple(map(_number("beta0"), value))


def _number(key):
    """The converter of a value of `key` to float: a JSON number (an int or a float,
    not a bool) within double range; anything else is a ConfigError naming the key."""
    def number(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} takes JSON numbers only, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{key} is an integer beyond double range") from None
    return number


def _from_json(cls, doc, where, convert):
    """cls built from the JSON object `doc`, each key passed through convert[key] if
    given; an absent key takes the field's default.  A doc that is not an object, a
    key that is not a field and an absent field with no default are ConfigErrors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    init = [f for f in fields(cls) if f.init]
    for fault, keys in (("unknown", set(doc) - {f.name for f in init}),
                        ("missing", {f.name for f in init if f.default is MISSING} - set(doc))):
        if keys:
            raise ConfigError(f"{fault} key(s) in {where}: {', '.join(sorted(keys))}")
    return cls(**{f.name: convert.get(f.name, lambda v: v)(doc[f.name])
                  for f in init if f.name in doc})


def make_design(config, seed):
    """Design array (n, m, p) of iid U(lo, hi) covariates; deterministic given the seed."""
    spec = config.design
    return spec.lo + (spec.hi - spec.lo) * _rng(seed).random((config.n, config.m, config.p))


def _poisson_quantile_grid(v, lam):
    """Smallest k with Poisson(lam) CDF >= v, vectorized in lockstep.  A mean whose
    exp(-lam) is subnormal or 0 (lam > ~708.4) gives wrong counts, so it is a ConfigError."""
    pmf = np.exp(-lam)
    if (pmf < _TINY).any():
        raise ConfigError(f"poisson mean {float(np.max(lam)):.6g} is too large to generate: "
                          f"exp(-mean) underflows for means above {-np.log(_TINY):.6g}")
    y = np.zeros_like(lam)
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


def _check_response_model(family, subject_dependence):
    """ConfigError unless a generator exists for the link and the dependence."""
    if subject_dependence not in ("independent", "sign_modulated"):
        raise ConfigError(f"unknown subject_dependence {subject_dependence!r}")
    if family.kind == "probit":
        raise ConfigError("no generator exists for the probit variance function; "
                          "fit probit on logit-generated data instead")
    if family.kind != "identity" and subject_dependence != "independent":
        raise ConfigError("sign_modulated dependence requires the identity link")


def gen_responses(X, beta0, family, R_bar, subject_dependence="independent", *, seed):
    """Responses with canonical-link marginals at theta = X beta0 and latent
    correlation R_bar: the rows z_i ~ N(0, R_bar) are drawn once.

    identity: y_i = theta_i + z_i, so Cov(y_i) = R_bar.  sign_modulated flips
    each z_i by a sign that is a function of the previous subjects' first
    components: the flip is past-measurable, so the residuals stay a martingale
    difference sequence with unchanged marginal covariance.

    log and logit: Poisson and Bernoulli marginals through the Gaussian copula
    Phi(z).  Their means and variances match the model exactly; the realized
    response correlation differs from the latent R_bar (it is attenuated, and
    for binary data Frechet-bounded).
    """
    _check_response_model(family, subject_dependence)
    X = np.asarray(X, dtype=float)
    z = _correlated_normals(R_bar, seed, X.shape[:2])
    theta = X @ np.asarray(beta0, dtype=float)
    if family.kind == "identity":
        if subject_dependence == "sign_modulated":
            running = 0.0
            for row in z:
                row *= 1.0 if running >= 0.0 else -1.0
                running += row[0]
        return LongitudinalDataset(X, theta + z)
    v = gauss_cdf(z)
    with np.errstate(over="ignore"):    # inf: a mean the quantile grid rejects, or mu = 0
        e = np.exp(theta if family.kind == "log" else -theta)
    if family.kind == "log":
        y = _poisson_quantile_grid(v, e)
    else:
        mu = 1.0 / (1.0 + e)
        y = (v > 1.0 - mu).astype(float)
    return LongitudinalDataset(X, y)


def gen_gaussian(X, beta0, R_bar, subject_dependence="independent", *, seed):
    """The identity-link case of gen_responses: y_i = X_i beta0 + z_i."""
    return gen_responses(X, beta0, IDENTITY, R_bar, subject_dependence, seed=seed)


def generate_dataset(config, seed):
    """The dataset of a config at a replicate seed: the design, then the responses."""
    X = make_design(config, seed=mix_seed(seed, _TAG_DESIGN))
    return gen_responses(X, config.beta0, config.family, config.R_bar,
                         config.subject_dependence, seed=mix_seed(seed, _TAG_RESPONSE))


def _counts(kinds):
    """(kind, count) pairs as "3 not-converged, 1 link-overflow"."""
    return ", ".join(f"{count} {kind}" for kind, count in kinds)


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
    tau_oracle: float | None    # None where the replicates' mean R-tilde is not SPD
    failure_kinds: tuple = ()   # (kind, count) of the failed replicates, most frequent first

    def to_json(self):
        """The payload: every field but failure_kinds, which only causes reads."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "failure_kinds"}

    @property
    def causes(self):
        """(kind, detail) warnings about this report: too many failed replicates,
        and an oracle tau that does not exist."""
        causes = ()
        if self.n_failures / self.replications > MAX_FAILURE_FRACTION:
            causes += (("replicates-failed",
                        f"{self.n_failures} of {self.replications} replicates failed, more than "
                        f"the {MAX_FAILURE_FRACTION:g} fraction allowed "
                        f"({_counts(self.failure_kinds)})"),)
        if self.tau_oracle is None:
            causes += (("tau-oracle-undefined",
                        f"{self.replications - self.n_failures} of {self.replications} "
                        "replicates passed, and their mean correlation estimate is not "
                        "positive definite"),)
        return causes


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
    try:
        two = two_step_fit(data, config.family)
    except PlgeeError as exc:
        return {"rep": r, "ok": False, "kind": exc.kind}
    if two.causes:      # unconverged, fallen back, or a singular sandwich
        return {"rep": r, "ok": False, "kind": two.causes[0][0]}
    beta0 = np.asarray(config.beta0, dtype=float)
    delta = two.beta_hat - beta0
    z = sym_eigen(two.cov_beta, require_spd="sandwich covariance").power(-0.5) @ delta
    ci = wald_intervals(two)
    covered = [lo <= b0 <= hi for (lo, hi), b0 in zip(ci, beta0)]
    corr = estimate_correlation(data, config.family, beta0)   # oracle-beta estimate
    return dict(
        rep=r,
        ok=True,
        beta_two=two.beta_hat.tolist(),
        beta_indep=two.preliminary.beta_hat.tolist(),
        z=z.tolist(),
        covered=covered,
        corr_err=float(np.max(np.abs(corr.R_tilde.a - config.R_bar))),
        R_tilde=corr.R_tilde.a.tolist(),
    )


def run_replicates(config, workers=1):
    """Run every replicate once, in a process pool when workers > 1.

    The pool, imported only by a run that starts it, has at most one process
    per replicate and per CPU this process may use.  Results come back in
    replicate order either way, so worker count does not affect anything
    built from them.  Fewer than one worker raises InvalidInputError.
    """
    if workers < 1:
        raise InvalidInputError(f"workers must be at least 1, got {workers}")
    reps = range(config.replications)
    # the CPUs this process may run on (macOS and Windows have no affinity)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, config.replications, cpus or 1)
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

    Replicates whose two-step fit raises or carries any cause (it did not
    converge, fell back to the independence fit, or has a singular sandwich)
    are counted by kind and excluded from the moment statistics.
    """
    ok = [d for d in results if d["ok"]]
    n_fail = config.replications - len(ok)
    kinds = tuple(Counter(d["kind"] for d in results if not d["ok"]).most_common())
    if not ok:
        raise EmptyReportError("no replicate gave a two-step estimate; nothing to aggregate "
                               f"({_counts(kinds)})")

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

    try:
        eig_mean = sym_eigen(R_mean, require_spd="mean correlation estimate")
    except NotPositiveDefiniteError:    # tau does not exist for a singular R_mean
        tau_oracle = None
    else:   # lambda_max(R_mean^{-1} R_bar)
        tau_oracle = max_relative_eigenvalue(config.R_bar, eig_mean)

    with np.errstate(divide="ignore", invalid="ignore"):
        eff = np.where(ind_var > 0, emp_var / ind_var, np.nan)

    return MCReport(
        replications=config.replications,
        n_failures=n_fail,
        ci_level=CI_LEVEL,
        bias=np.mean(err, axis=0).tolist(),
        emp_var=emp_var.tolist(),
        rmse=np.sqrt(np.mean(err * err, axis=0)).tolist(),
        coverage=np.mean(covered, axis=0).tolist(),
        indep_emp_var=ind_var.tolist(),
        efficiency_ratio=eff.tolist(),
        z_within_1960_frac=float(np.mean(np.abs(z_pool) <= Z_95)),
        ks_distance=ks_distance_to_normal(z_pool),
        median_beta_error_norm=_median(np.linalg.norm(err, axis=1).tolist()),
        mean_corr_max_abs_error=float(np.mean(corr_err)),
        max_corr_max_abs_error=float(np.max(corr_err)),
        lambda_min_R_bar=float(sym_eigen(config.R_bar).values[0]),
        tau_oracle=tau_oracle,
        failure_kinds=kinds,
    )


def monte_carlo_run(config):
    """Run all replicates in this process and aggregate them into an MCReport."""
    return summarize_replicates(config, run_replicates(config))


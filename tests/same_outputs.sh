#!/usr/bin/env bash
# Byte comparison of the plgee command line between a git revision and this
# checkout.  It extracts BASE_REV's src/ with `git archive` into a temporary
# directory, writes small seeded inputs with numpy alone, runs `plgee fit`,
# `plgee diagnose --grid ...` and `plgee simulate --replicates-csv ...` (and
# a few warning and error cases) on both source trees, and compares each
# run's stdout, --out file, replicates CSV, stderr and exit code with `cmp`.
# The checkout's tree is its working tree, uncommitted edits included.
#     tests/same_outputs.sh HEAD~1
# Prints one line per file that differs and exits 1 if any does; otherwise
# prints "same outputs" and exits 0.  `python` must have numpy.
set -euo pipefail
if [ "$#" -ne 1 ]; then
  echo "usage: $0 BASE_REV" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$repo" archive "$1" src | tar -x -C "$work/base"
cd "$work"

python - <<'EOF'
import json

import numpy as np


def write_csv(path, X, y):
    n, m, p = X.shape
    with open(path, "w") as fh:
        fh.write(",".join(["subject", "time", "y"] + [f"x{k + 1}" for k in range(p)]) + "\n")
        for i in range(n):
            for j in range(m):
                fh.write(",".join([f"s{i}", str(j + 1)] + [repr(float(v))
                                  for v in [y[i, j], *X[i, j]]]) + "\n")


def design(rng, n, m, p):
    X = rng.uniform(-1, 1, size=(n, m, p))
    X[:, :, 0] = 1.0
    return X


def exchangeable_normals(rng, n, m, rho):
    R = (1 - rho) * np.eye(m) + rho
    return rng.standard_normal((n, m)) @ np.linalg.cholesky(R).T


rng = np.random.default_rng(20231)
X = design(rng, 60, 4, 3)
write_csv("counts.csv", X, rng.poisson(np.exp(X @ [0.5, -0.3, 0.2])).astype(float))
X = design(rng, 80, 3, 2)
write_csv("binary.csv", X, (rng.random((80, 3)) < 1 / (1 + np.exp(-X @ [0.4, -0.8]))) * 1.0)
X = design(rng, 60, 4, 3)
write_csv("gauss.csv", X, X @ [1.0, -0.5, 0.3] + exchangeable_normals(rng, 60, 4, 0.5))
X = design(rng, 2, 5, 3)        # fewer subjects than times and than covariates
write_csv("short.csv", X, X @ [1.0, -0.5, 0.3] + exchangeable_normals(rng, 2, 5, 0.5))
x = np.random.default_rng(0).uniform(-1, 1, (60, 3))     # y = 1[x > 0]: separated
write_csv("separated.csv", np.stack([np.ones_like(x), x], axis=2), (x > 0) * 1.0)
x = np.random.default_rng(0).uniform(-1, 1, (50, 3))     # one outlying count
y = np.round(np.exp(3.0 * x))
y[0, 0] = 1e5
write_csv("overflow.csv", np.stack([np.ones_like(x), x], axis=2), y)
rng = np.random.default_rng(0)      # responses of order 1e200, and of unit scale
X = np.ones((30, 3, 2))
X[:, :, 1] = rng.uniform(-1, 1, (30, 3))
write_csv("huge_y.csv", X, 1e200 * rng.standard_normal((30, 3)))
write_csv("unit_y.csv", X, X @ [1.0, 0.5] + rng.standard_normal((30, 3)))
configs = {
    "sim_log.json": {"n": 100, "m": 3, "p": 2, "family": "log", "beta0": [0.5, -0.3],
                     "design": {"kind": "iid_uniform"},
                     "correlation": {"kind": "exchangeable", "rho": 0.4},
                     "replications": 10, "base_seed": 7},
    "sim_identity.json": {"n": 50, "m": 4, "p": 2, "family": "identity", "beta0": [1.0, 0.5],
                          "design": {"kind": "iid_uniform", "lo": 0.0, "hi": 2.0},
                          "correlation": {"kind": "exchangeable", "rho": 0.5},
                          "subject_dependence": "sign_modulated",
                          "replications": 8, "base_seed": 3},
    "sim_logit.json": {"n": 60, "m": 3, "p": 2, "family": "logit", "beta0": [0.2, -0.4],
                       "design": {"kind": "iid_uniform"},
                       "correlation": {"kind": "exchangeable", "rho": 0.97},
                       "replications": 5, "base_seed": 5},
    "sim_few.json": {"n": 4, "m": 3, "p": 5, "family": "identity",    # n < p
                     "beta0": [1.0, 0.5, -0.5, 0.2, 0.1], "design": {"kind": "iid_uniform"},
                     "correlation": {"kind": "exchangeable", "rho": 0.3}, "replications": 5},
    "sim_ci_level.json": {"n": 40, "m": 3, "p": 2, "family": "identity", "beta0": [1.0, -0.5],
                          "design": {"kind": "iid_uniform"},
                          "correlation": {"kind": "exchangeable", "rho": 0.3},
                          "ci_level": 0.9},
}
small = {"n": 50, "p": 2, "beta0": [0.2, -0.3], "design": {"kind": "iid_uniform"},
         "replications": 3, "base_seed": 1}
configs["sim_exchangeable_singular.json"] = dict(    # R-bar under the SPD floor
    small, family="identity", m=4, correlation={"kind": "exchangeable", "rho": -0.3333333333333})
for path, edit in (      # numbers a config must give as they are, and finite
        ("sim_n_fraction.json", {"n": 30.5}), ("sim_n_bool.json", {"n": True}),
        ("sim_n_string.json", {"n": "30"}), ("sim_beta0_inf.json", {"beta0": [float("inf"), 0]}),
        ("sim_beta0_nan.json", {"beta0": [float("nan"), 0]}),
        ("sim_width_overflow.json", {"design": {"kind": "iid_uniform", "lo": -1e308, "hi": 1e308}}),
        ("sim_log_overflow.json", {"family": "log", "beta0": [800.0, 0.0]}),
        ("sim_rho_string.json", {"correlation": {"kind": "exchangeable", "rho": "0.3"}}),
        # design and correlation kinds, and a key, the config format does not have
        ("sim_grid.json", {"design": {"kind": "grid"}}),
        ("sim_categorical.json", {"design": {"kind": "categorical"}}),
        ("sim_ar1.json", {"correlation": {"kind": "ar1", "rho": 0.5}}),
        ("sim_custom.json", {"correlation": {"kind": "custom"}}),
        ("sim_R_bar.json", {"correlation": {"kind": "custom", "R_bar": [
            [1, 0.3, 0.3], [0.3, 1, 0.3], [0.3, 0.3, 1]]}}),
        # values of the wrong JSON shape, and sizes past numpy's index or memory
        ("sim_beta0_number.json", {"beta0": 3}),
        ("sim_design_string.json", {"design": "iid_uniform"}),
        ("sim_family_object.json", {"family": {"kind": "log"}}),
        ("sim_rho_huge.json", {"correlation": {"kind": "exchangeable", "rho": 10 ** 400}}),
        ("sim_n_index.json", {"n": 10 ** 20}),
        ("sim_huge_design.json", {"n": 2 ** 59, "m": 1, "p": 1, "beta0": [1.0]})):
    configs[path] = {**small, "family": "identity", "m": 3,
                     "correlation": {"kind": "exchangeable", "rho": 0.3}, **edit}
configs["sim_singular_mean.json"] = {    # separated: the one ok replicate's R-tilde is ~0
    **small, "n": 30, "m": 3, "family": "logit", "beta0": [-800.0, 0.0],
    "correlation": {"kind": "exchangeable", "rho": 0.3}}
configs["sim_empty_report.json"] = {     # n < m: every replicate falls back
    **small, "n": 4, "m": 6, "family": "identity", "beta0": [1.0, 0.5], "replications": 20,
    "correlation": {"kind": "exchangeable", "rho": 0.3}}
configs["sim_array.json"] = [configs["sim_log.json"]]   # not a JSON object
for path, doc in configs.items():
    with open(path, "w") as fh:
        json.dump(doc, fh)
EOF

# One run per line: a name, then the plgee arguments.  @OUT@ and @CSV@ stand
# for the run's --out and --replicates-csv paths.
cases=(
  "fit-log fit --data counts.csv --link log"
  "fit-independence fit --data counts.csv --link log --method independence --out @OUT@"
  "fit-logit fit --data binary.csv --link logit"
  "fit-probit fit --data binary.csv --link probit"
  "fit-fallback fit --data short.csv --link identity"
  "fit-missing fit --data missing.csv --link identity"
  "fit-probit-separated fit --data separated.csv --link probit"
  "fit-overflow fit --data overflow.csv --link log --method independence"
  "fit-usage fit --link identity"
  "fit-ci-level fit --data counts.csv --link log --ci-level 0.9"
  "fit-huge-independence fit --data huge_y.csv --link identity --method independence"
  "fit-huge-two-step fit --data huge_y.csv --link identity"
  "diagnose-grid diagnose --data gauss.csv --link identity --grid 20,40,60 --out @OUT@"
  "diagnose-beta diagnose --data gauss.csv --link identity --beta 1,-0.5,0.3 --grid 10,30"
  "diagnose-log diagnose --data counts.csv --link log --grid 30,60"
  "diagnose-short diagnose --data short.csv --link identity"
  "diagnose-theta-overflow diagnose --data unit_y.csv --link identity --beta 1e308,1e308"
  "diagnose-r-tilde-overflow diagnose --data unit_y.csv --link identity --beta 1e200,1e200"
  "diagnose-separated-logit diagnose --data separated.csv --link logit"
  "simulate-log simulate --config sim_log.json --replicates-csv @CSV@ --out @OUT@"
  "simulate-identity simulate --config sim_identity.json --replicates-csv @CSV@"
  "simulate-logit simulate --config sim_logit.json --replicates-csv @CSV@"
  "simulate-few simulate --config sim_few.json --replicates-csv @CSV@"
  "simulate-ci-level simulate --config sim_ci_level.json"
  "simulate-exchangeable-singular simulate --config sim_exchangeable_singular.json"
  "simulate-n-fraction simulate --config sim_n_fraction.json"
  "simulate-n-bool simulate --config sim_n_bool.json"
  "simulate-n-string simulate --config sim_n_string.json"
  "simulate-beta0-inf simulate --config sim_beta0_inf.json"
  "simulate-beta0-nan simulate --config sim_beta0_nan.json"
  "simulate-width-overflow simulate --config sim_width_overflow.json"
  "simulate-log-overflow simulate --config sim_log_overflow.json"
  "simulate-rho-string simulate --config sim_rho_string.json"
  "simulate-grid simulate --config sim_grid.json"
  "simulate-categorical simulate --config sim_categorical.json"
  "simulate-ar1 simulate --config sim_ar1.json"
  "simulate-custom simulate --config sim_custom.json"
  "simulate-R-bar simulate --config sim_R_bar.json"
  "simulate-beta0-number simulate --config sim_beta0_number.json"
  "simulate-design-string simulate --config sim_design_string.json"
  "simulate-family-object simulate --config sim_family_object.json"
  "simulate-rho-huge simulate --config sim_rho_huge.json"
  "simulate-n-index simulate --config sim_n_index.json"
  "simulate-huge-design simulate --config sim_huge_design.json"
  "simulate-array simulate --config sim_array.json"
  "simulate-singular-mean simulate --config sim_singular_mean.json --replicates-csv @CSV@"
  "simulate-empty-report simulate --config sim_empty_report.json --replicates-csv @CSV@"
)

run_all() {     # $1: the tree whose src/ runs, $2: the directory for its outputs
  mkdir "$2"
  local line name args code
  for line in "${cases[@]}"; do
    read -ra args <<< "$line"
    name=${args[0]}
    args=("${args[@]:1}")
    args=("${args[@]//@OUT@/$2/$name.out}")
    args=("${args[@]//@CSV@/$2/$name.csv}")
    code=0
    PYTHONPATH="$1/src" python -m plgee.cli "${args[@]}" \
      > "$2/$name.stdout" 2> "$2/$name.stderr" || code=$?
    echo "$code" > "$2/$name.code"
  done
}

run_all "$work/base" base_out
run_all "$repo" head_out
differs=0
for f in $( (ls base_out; ls head_out) | sort -u); do
  if ! cmp -s "base_out/$f" "head_out/$f"; then
    echo "differs: $f"
    differs=1
  fi
done
if [ "$differs" -ne 0 ]; then
  exit 1
fi
echo "same outputs"

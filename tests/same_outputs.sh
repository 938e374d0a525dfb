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
configs = {
    "sim_log.json": {"n": 100, "m": 3, "p": 2, "family": "log", "beta0": [0.5, -0.3],
                     "design": {"kind": "iid_uniform"},
                     "correlation": {"kind": "exchangeable", "rho": 0.4},
                     "replications": 10, "base_seed": 7},
    "sim_identity.json": {"n": 50, "m": 4, "p": 2, "family": "identity", "beta0": [1.0, 0.5],
                          "design": {"kind": "grid"},
                          "correlation": {"kind": "ar1", "rho": 0.5},
                          "subject_dependence": "sign_modulated",
                          "replications": 8, "base_seed": 3},
    "sim_logit.json": {"n": 60, "m": 3, "p": 2, "family": "logit", "beta0": [0.2, -0.4],
                       "design": {"kind": "categorical"},
                       "correlation": {"kind": "exchangeable", "rho": 0.97},
                       "replications": 5, "base_seed": 5},
}
for path, doc in configs.items():
    with open(path, "w") as fh:
        json.dump(doc, fh)
EOF

# One run per line: a name, then the plgee arguments.  @OUT@ and @CSV@ stand
# for the run's --out and --replicates-csv paths.
cases=(
  "fit-log fit --data counts.csv --link log"
  "fit-independence fit --data counts.csv --link log --method independence --ci-level 0.9 --out @OUT@"
  "fit-logit fit --data binary.csv --link logit"
  "fit-probit-shuffled fit --data binary.csv --link probit --shuffle-subjects 3"
  "fit-fallback fit --data short.csv --link identity"
  "fit-missing fit --data missing.csv --link identity"
  "diagnose-grid diagnose --data gauss.csv --link identity --grid 20,40,60 --out @OUT@"
  "diagnose-beta diagnose --data gauss.csv --link identity --beta 1,-0.5,0.3 --grid 10,30"
  "diagnose-log diagnose --data counts.csv --link log --grid 30,60"
  "diagnose-short diagnose --data short.csv --link identity"
  "simulate-log simulate --config sim_log.json --replicates-csv @CSV@ --out @OUT@"
  "simulate-identity simulate --config sim_identity.json --replicates-csv @CSV@"
  "simulate-logit simulate --config sim_logit.json --replicates-csv @CSV@"
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

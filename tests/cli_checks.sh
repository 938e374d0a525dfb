#!/usr/bin/env bash
# End-to-end checks of the plgee command line, run in a fresh scratch directory:
# byte comparisons across the three CSV parse paths, exit codes and JSON
# error lines, and numpy oracles for the diagnostics on 3,000-subject CSVs
# that span two subject blocks.  The arguments are the command that runs
# plgee, e.g.
#     tests/cli_checks.sh plgee                                    (installed)
#     PYTHONPATH=src tests/cli_checks.sh python -m plgee.cli       (source tree)
# `python` must have numpy.  Exits nonzero at the first failing check.
set -euo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND [ARG...]  (the command that runs plgee)" >&2
  exit 2
fi
plgee_command=("$@")
plgee() { "${plgee_command[@]}" "$@"; }
if [ -n "${PYTHONPATH:-}" ]; then   # entries relative to the caller's directory
  PYTHONPATH=$(python -c 'import os, sys; print(os.pathsep.join(map(os.path.abspath, sys.argv[1].split(os.pathsep))))' "$PYTHONPATH")
  export PYTHONPATH
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
cat > sim.json <<'EOF'
{"n": 40, "m": 3, "p": 2, "family": "identity", "beta0": [1.0, -0.5],
 "design": {"kind": "iid_uniform"},
 "correlation": {"kind": "exchangeable", "rho": 0.3},
 "replications": 3, "base_seed": 1}
EOF
plgee simulate --config sim.json --out out.json
python -c "import json; assert json.load(open('out.json'))['replications'] == 3"
# a process pool gives the bytes of the in-process run
plgee simulate --config sim.json --workers 1 --replicates-csv reps1.csv --out sim1.json
plgee simulate --config sim.json --workers 2 --replicates-csv reps2.csv --out sim2.json
cmp sim1.json sim2.json
cmp reps1.csv reps2.csv
# fewer than one worker is an error (exit 1), with nothing on stdout
rc=0
plgee simulate --config sim.json --workers 0 > zero.out 2> zero.err || rc=$?
test "$rc" -eq 1
test ! -s zero.out
python -c "import json; assert json.load(open('zero.err'))['error'] == 'invalid-input'"
# a misspelled config key is a config error (exit 1), not a default
sed 's/"rho"/"rh0"/' sim.json > typo.json
rc=0
plgee simulate --config typo.json --out typo_out.json 2> typo.err || rc=$?
test "$rc" -eq 1
grep -q '"error":"config"' typo.err
# one dataset written three times: plain (parsed by the loadtxt fast
# pass), quoted with CRLF line ends (parsed by the csv module), and
# plain with each subject's times reversed (records out of cell
# order, so they are gathered rather than viewed)
python - <<'EOF'
import numpy as np
rng = np.random.default_rng(1)
lines = ["subject,time,y,x1,x2"]
for i in range(1, 41):
    for j in range(1, 4):
        x1, x2 = rng.uniform(-1, 1, 2)
        y = x1 - 0.5 * x2 + rng.normal()
        lines.append(f"{i},{j},{y:.6f},{x1:.6f},{x2:.6f}")
with open("plain.csv", "w", newline="") as fh:
    fh.write("\n".join(lines) + "\n")
with open("quoted.csv", "w", newline="") as fh:
    fh.write("".join('"' + line.replace(",", '","') + '"\r\n' for line in lines))
body = lines[1:]
with open("reversed.csv", "w", newline="") as fh:
    fh.write("\n".join(lines[:1] + [r for k in range(0, len(body), 3)
                                     for r in body[k:k + 3][::-1]]) + "\n")
EOF
plgee fit --data plain.csv --link identity --out plain.json
plgee fit --data quoted.csv --link identity --out quoted.json
cmp plain.json quoted.json
plgee fit --data reversed.csv --link identity --out reversed.json
cmp plain.json reversed.json
plgee diagnose --data plain.csv --link identity --out diagnose.json
python -c "import json; assert json.load(open('diagnose.json'))['report']['n_used'] == 40"
# c_n is computed from the residuals at beta; the oracle-only keys are gone
python -c "import json, math; r = json.load(open('diagnose.json'))['report']; assert isinstance(r['c_n'], float) and math.isfinite(r['c_n']) and r['c_n'] > 0, r['c_n']; assert 'tau_oracle' not in r"
plgee diagnose --data quoted.csv --link identity --out diagnose_quoted.json
cmp diagnose.json diagnose_quoted.json
plgee diagnose --data reversed.csv --link identity --out diagnose_reversed.json
cmp diagnose.json diagnose_reversed.json
# 3,000 subjects (m=10, p=8) span two subject blocks, a size the
# tier-1 tests never reach: gamma_D, which solves only the subjects
# its norm bound cannot rule out, against a per-subject loop, and
# c_n, whose sandwich meat is summed over the blocks, against numpy
python - <<'EOF'
import numpy as np
rng = np.random.default_rng(2)
n, m, p = 3000, 10, 8
X = rng.uniform(-1, 1, size=(n, m, p))
X[:, :, 0] = 1.0
L = np.linalg.cholesky(0.6 * np.eye(m) + 0.4)
y = X @ np.linspace(1.0, -0.4, p) + rng.normal(size=(n, m)) @ L.T
with open("big.csv", "w", newline="") as fh:
    fh.write("subject,time,y," + ",".join(f"x{k}" for k in range(1, p + 1)) + "\n")
    for i in range(n):
        for j in range(m):
            cells = ",".join(f"{v:.6f}" for v in X[i, j])
            fh.write(f"{i + 1},{j + 1},{y[i, j]:.6f},{cells}\n")
EOF
plgee diagnose --data big.csv --link identity --grid 1000,3000 --out big_diagnose.json
python - <<'EOF'
import json
import numpy as np
cells = np.loadtxt("big.csv", delimiter=",", skiprows=1).reshape(3000, 10, -1)
y, X = cells[:, :, 2], cells[:, :, 3:]
out = json.load(open("big_diagnose.json"))
beta = np.asarray(out["beta"])
assert [row["n_used"] for row in out["trend"]] == [1000, 3000]
for row in out["trend"]:
    n = row["n_used"]
    r = y[:n] - X[:n] @ beta              # identity link: unit variance
    Q = np.linalg.inv(r.T @ r / n)       # the prefix's average correlation
    G = [X[i].T @ Q @ X[i] for i in range(n)]
    H = sum(G)
    w, V = np.linalg.eigh(H)
    root = (V / np.sqrt(w)) @ V.T
    want = max(np.linalg.eigvalsh(root @ g @ root)[-1] for g in G)
    assert abs(row["gamma_D"] - want) <= 1e-12 * want, (n, row["gamma_D"], want)
    scores = np.stack([X[i].T @ Q @ r[i] for i in range(n)])   # V_i = X_i' Q r_i
    w, V = np.linalg.eigh(scores.T @ scores)
    root = (V / np.sqrt(w)) @ V.T
    want = np.linalg.eigvalsh(root @ H @ root)[-1]
    assert abs(row["c_n"] - want) <= 1e-10 * want, (n, row["c_n"], want)
EOF
# a logit fit on 3,000 subjects (m=10, p=8), two subject blocks:
# each row's k2 and k3 are maxima over the prefix's cells at beta,
# and lambda_min_R and det_R those of the prefix's average
# correlation of the standardized residuals, against numpy
python - <<'EOF'
import numpy as np
rng = np.random.default_rng(3)
n, m, p = 3000, 10, 8
X = rng.uniform(-1, 1, size=(n, m, p))
X[:, :, 0] = 1.0
y = rng.uniform(size=(n, m)) < 1.0 / (1.0 + np.exp(-(X @ np.linspace(0.4, -0.4, p))))
with open("logit.csv", "w", newline="") as fh:
    fh.write("subject,time,y," + ",".join(f"x{k}" for k in range(1, p + 1)) + "\n")
    for i in range(n):
        for j in range(m):
            cells = ",".join(f"{v:.6f}" for v in X[i, j])
            fh.write(f"{i + 1},{j + 1},{y[i, j]:d},{cells}\n")
EOF
plgee diagnose --data logit.csv --link logit --grid 1000,3000 --out logit_diagnose.json
python - <<'EOF'
import json
import numpy as np
cells = np.loadtxt("logit.csv", delimiter=",", skiprows=1).reshape(3000, 10, -1)
y, X = cells[:, :, 2], cells[:, :, 3:]
out = json.load(open("logit_diagnose.json"))
beta = np.asarray(out["beta"])
assert [row["n_used"] for row in out["trend"]] == [1000, 3000]
for row in out["trend"]:
    n = row["n_used"]
    mu = 1.0 / (1.0 + np.exp(-(X[:n] @ beta)))
    k2, k3 = np.max(np.abs(1 - 2 * mu)), np.max(np.abs(1 - 6 * mu + 6 * mu * mu))
    assert abs(row["k2"] - k2) <= 1e-12 and abs(row["k3"] - k3) <= 1e-12, (n, row, k2, k3)
    s = (y[:n] - mu) / np.sqrt(mu * (1 - mu))
    w = np.linalg.eigvalsh(s.T @ s / n)   # the prefix's average correlation
    assert abs(row["lambda_min_R"] - w[0]) <= 1e-10 * w[0], (n, row["lambda_min_R"], w[0])
    assert abs(row["det_R"] - np.prod(w)) <= 1e-10 * np.prod(w), (n, row["det_R"], np.prod(w))
EOF
# one subject and two covariates: the intervals are degenerate (exit 2)
head -n 4 plain.csv > one_subject.csv
rc=0
plgee fit --data one_subject.csv --link identity --out one.json 2> one.err || rc=$?
test "$rc" -eq 2
grep -q '"warning":"fewer-subjects-than-covariates"' one.err

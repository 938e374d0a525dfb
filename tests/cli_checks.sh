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
# a usage error is one invalid-input JSON line (exit 1), not argparse's usage text
rc=0
plgee fit --link identity > usage.out 2> usage.err || rc=$?
test "$rc" -eq 1
test ! -s usage.out
test "$(wc -l < usage.err)" -eq 1
grep -q '"error":"invalid-input"' usage.err
# subjects are fitted in their stored order: --shuffle-subjects is a usage
# error too (exit 1, one invalid-input line)
rc=0
plgee fit --data sim.json --link identity --shuffle-subjects 3 > shuffle.out 2> shuffle.err || rc=$?
test "$rc" -eq 1
test ! -s shuffle.out
test "$(wc -l < shuffle.err)" -eq 1
grep -q '"error":"invalid-input"' shuffle.err
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
# one outlying count makes the log-link line search try a candidate whose
# estimating function overflows: it is rejected, with nothing on stderr
python - <<'EOF'
import numpy as np
x = np.random.default_rng(0).uniform(-1, 1, (50, 3))
y = np.round(np.exp(3.0 * x))
y[0, 0] = 1e5
with open("overflow.csv", "w") as fh:
    fh.write("subject,time,y,x1,x2\n")
    for i in range(50):
        for j in range(3):
            fh.write(f"{i + 1},{j + 1},{float(y[i, j])!r},1,{float(x[i, j])!r}\n")
EOF
plgee fit --data overflow.csv --link log --method independence --out overflow.json 2> overflow.err
test ! -s overflow.err
python -c "import json; assert json.load(open('overflow.json'))['iterations'] == 7"
# two subjects, three times: R-tilde is singular, so the two-step fit falls
# back to independence, which exactly one warning line says (exit 2)
head -n 7 plain.csv > two_subjects.csv
rc=0
plgee fit --data two_subjects.csv --link identity --out two.json 2> two.err || rc=$?
test "$rc" -eq 2
test "$(wc -l < two.err)" -eq 1
test "$(grep -c '"warning":"fallback-to-independence"' two.err)" -eq 1
python -c "import json; assert json.load(open('two.json'))['fallback_flag'] is True"
# a binary config whose latent rho its marginals cannot attain completes
# with exactly one JSON warning line (exit 2), also when Python warnings
# are errors: the config carries the cause, it does not raise a warning
cat > frechet.json <<'JSON'
{"n": 60, "m": 3, "p": 2, "family": "logit", "beta0": [0.2, -0.3],
 "design": {"kind": "iid_uniform"},
 "correlation": {"kind": "exchangeable", "rho": 0.97},
 "replications": 3, "base_seed": 4}
JSON
rc=0
PYTHONWARNINGS=error plgee simulate --config frechet.json --out frechet_out.json 2> frechet.err || rc=$?
test "$rc" -eq 2
test "$(wc -l < frechet.err)" -eq 1
grep -q '"warning":"latent-correlation-above-frechet-bound"' frechet.err
# separated logit data (y = 1[x1 < 0]): one replicate of three passes, and
# the mean R-tilde of that one is singular, so the report is written with a
# null tau_oracle and two warning lines (exit 2)
sed -e 's/"n": 40/"n": 30/' -e 's/"identity"/"logit"/' -e 's/\[1.0, -0.5\]/[-800.0, 0.0]/' \
  sim.json > separated.json
rc=0
PYTHONWARNINGS=error plgee simulate --config separated.json > separated.out 2> separated.err || rc=$?
test "$rc" -eq 2
grep -q '"tau_oracle":null' separated.out
test "$(wc -l < separated.err)" -eq 2
grep -q '"warning":"replicates-failed"' separated.err
grep -q '"warning":"tau-oracle-undefined"' separated.err
# four subjects, six times: every R-tilde is singular and all 20 replicates
# fall back to independence, so there is no report (exit 1); the replicates
# CSV is still written, and the error detail counts the failures by kind
sed -e 's/"n": 40, "m": 3/"n": 4, "m": 6/' -e 's/"replications": 3/"replications": 20/' \
  sim.json > empty.json
rc=0
PYTHONWARNINGS=error plgee simulate --config empty.json --replicates-csv empty.csv \
  > empty.out 2> empty.err || rc=$?
test "$rc" -eq 1
test ! -s empty.out
test "$(wc -l < empty.err)" -eq 1
grep -q '"error":"empty-report"' empty.err
grep -q '(20 fallback-to-independence)' empty.err
test "$(tail -n +2 empty.csv | wc -l)" -eq 20
test "$(cut -d, -f2 empty.csv | tail -n +2 | sort -u)" = 0
# an R-bar below the SPD floor of the generators, a design or correlation
# kind the config format does not have (grid, categorical, ar1, custom), the
# key R_bar, a value of the wrong JSON shape, a number past double range and
# a size numpy cannot index are one config line each (exit 1) that names its
# key, written before any replicate runs
sed -e 's/"m": 3/"m": 4/' -e 's/"rho": 0.3/"rho": -0.3333333333333/' sim.json > singular.json
sed 's/"iid_uniform"/"grid"/' sim.json > grid.json
sed 's/"iid_uniform"/"categorical"/' sim.json > categorical.json
sed 's/"exchangeable"/"ar1"/' sim.json > ar1.json
sed 's/"exchangeable", "rho": 0.3/"custom"/' sim.json > custom.json
sed 's/"rho": 0.3/"R_bar": [[1, 0.3, 0.3], [0.3, 1, 0.3], [0.3, 0.3, 1]]/' sim.json > R_bar.json
sed 's/\[1.0, -0.5\]/3/' sim.json > beta0_number.json
sed 's/{"kind": "iid_uniform"}/"iid_uniform"/' sim.json > design_string.json
sed 's/"identity"/{"kind": "log"}/' sim.json > family_object.json
sed "s/\"rho\": 0.3/\"rho\": $(python -c 'print(10 ** 400)')/" sim.json > rho_huge.json
sed 's/"n": 40/"n": 100000000000000000000/' sim.json > n_index.json
{ echo "["; cat sim.json; echo "]"; } > array.json
while IFS='|' read -r config detail; do
  rc=0
  PYTHONWARNINGS=error plgee simulate --config "$config.json" > "$config.out" \
    2> "$config.err" || rc=$?
  test "$rc" -eq 1
  test ! -s "$config.out"
  test "$(wc -l < "$config.err")" -eq 1
  grep -q '"error":"config"' "$config.err"
  grep -qF "$detail" "$config.err"
done <<'CASES'
singular|exchangeable correlation is not positive definite (lambda_min=9.99478e-14
grid|"unknown design kind 'grid'"
categorical|"unknown design kind 'categorical'"
ar1|"unknown correlation kind 'ar1'"
custom|"unknown correlation kind 'custom'"
R_bar|"unknown key(s) in correlation: R_bar"
beta0_number|"beta0 takes a JSON array of numbers, got 3"
design_string|"design must be a JSON object, got 'iid_uniform'"
family_object|"family must be one of ('identity', 'log', 'logit', 'probit'), got {'kind': 'log'}"
rho_huge|"rho is an integer beyond double range"
n_index|"n, m, p = (100000000000000000000, 3, 2) need an array larger than numpy can index
array|"config must be a JSON object, got [{
CASES
# 2**59 subjects (m = p = 1) load, but no host can allocate the design's
# 4 EiB: numpy's MemoryError is one out-of-memory line (exit 1)
sed -e 's/"n": 40, "m": 3, "p": 2/"n": 576460752303423488, "m": 1, "p": 1/' \
  -e 's/\[1.0, -0.5\]/[1.0]/' sim.json > huge_design.json
rc=0
PYTHONWARNINGS=error plgee simulate --config huge_design.json > huge_design.out \
  2> huge_design.err || rc=$?
test "$rc" -eq 1
test ! -s huge_design.out
test "$(wc -l < huge_design.err)" -eq 1
grep -q '"error":"out-of-memory"' huge_design.err
# responses of order 1e200 overflow the estimating function's norm: either
# method ends in one invalid-input line (exit 1), and no numpy warning,
# which Python warnings as errors would turn into a traceback.  On data of
# unit scale, a --beta whose theta overflows names its cell, and one whose
# R-tilde overflows names that matrix
python - <<'EOF'
import numpy as np
rng = np.random.default_rng(0)
X = np.ones((30, 3, 2))
X[:, :, 1] = rng.uniform(-1, 1, (30, 3))
for path, y in (("huge_y.csv", 1e200 * rng.standard_normal((30, 3))),
                ("unit_y.csv", X @ [1.0, 0.5] + rng.standard_normal((30, 3)))):
    with open(path, "w") as fh:
        fh.write("subject,time,y,x1,x2\n")
        for i in range(30):
            for j in range(3):
                fh.write(f"{i + 1},{j + 1},{float(y[i, j])!r},1,{float(X[i, j, 1])!r}\n")
EOF
for method in independence two-step; do
  rc=0
  PYTHONWARNINGS=error plgee fit --data huge_y.csv --link identity --method "$method" \
    > huge.out 2> huge.err || rc=$?
  test "$rc" -eq 1
  test ! -s huge.out
  test "$(wc -l < huge.err)" -eq 1
  grep -q '"error":"invalid-input"' huge.err
  grep -q 'convergence scale' huge.err
done
for case in '1e308,1e308 link-overflow identity link overflow at subject' \
            '1e200,1e200 invalid-input R-tilde is not finite'; do
  read -r beta kind detail <<< "$case"
  rc=0
  PYTHONWARNINGS=error plgee diagnose --data unit_y.csv --link identity --beta "$beta" \
    > beta.out 2> beta.err || rc=$?
  test "$rc" -eq 1
  test ! -s beta.out
  test "$(wc -l < beta.err)" -eq 1
  grep -q "\"error\":\"$kind\"" beta.err
  grep -q "$detail" beta.err
done
# the theta overflow names its cell as the CSV does: the time value of the
# first record whose theta = 1e308 + 1e308 x2 overflows, and the position
# of its subject in first-appearance order
rc=0
plgee diagnose --data unit_y.csv --link identity --beta 1e308,1e308 2> beta.err || rc=$?
test "$rc" -eq 1
python - <<'EOF'
import json
import math
with open("unit_y.csv") as fh:
    records = [line.split(",") for line in fh.read().splitlines()[1:]]
subjects = list(dict.fromkeys(r[0] for r in records))
subject, time = next((s, t) for s, t, _, _, x in records if math.isinf(1e308 + 1e308 * float(x)))
assert (subject, time) == ("2", "3"), (subject, time)
want = (f"identity link overflow at subject position {subjects.index(subject) + 1} "
        f"(first-appearance order), time {time}")
assert json.load(open("beta.err"))["detail"] == want, want
EOF
# the intervals are 95 %: --ci-level is a usage error, and a config key
# ci_level a config error (exit 1, one JSON line each)
rc=0
plgee fit --data plain.csv --link identity --ci-level 0.9 > level.out 2> level.err || rc=$?
test "$rc" -eq 1
test ! -s level.out
test "$(wc -l < level.err)" -eq 1
grep -q '"error":"invalid-input"' level.err
sed 's/"base_seed": 1/"base_seed": 1, "ci_level": 0.9/' sim.json > level.json
rc=0
plgee simulate --config level.json > level.out 2> level.err || rc=$?
test "$rc" -eq 1
test ! -s level.out
test "$(wc -l < level.err)" -eq 1
grep -q '"error":"config"' level.err

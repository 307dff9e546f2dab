#!/usr/bin/env bash
# The checks of the CI job `runtime-only`: the package installed without its
# test extra (numpy is the only runtime dependency) runs every mode, and each
# CLI promise below holds.  Run it where `twoatom-cbs` is on PATH and scipy
# is not importable:
#
#     bash scripts/ci_runtime_only.sh [WORKDIR]
#
# WORKDIR (default: a new temporary directory) receives the outputs.  Every
# check is its own command, so that `set -e` stops at the first that fails:
# only the last command of an && list can stop a `set -e` script.
set -euo pipefail

work="${1:-$(mktemp -d)}"
mkdir -p "$work"
cd "$work"

echo "== no scipy installed"
python -c 'import importlib.util, sys; sys.exit(importlib.util.find_spec("scipy") is not None)'

echo "== the CLI does not load the test-only closed forms"
# their exact rational weights need fractions, which nothing at run time uses
python -c 'import sys, twoatom_cbs.cli; sys.exit("fractions" in sys.modules)'

echo "== one small run of each mode, stderr empty"
# a warning on stderr breaks the one-line promise
twoatom-cbs spectrum --points 81 --output spectrum.csv 2> spectrum.err
# normalization is the CLI's own output step
twoatom-cbs spectrum --points 81 --normalize --output spectrum-normalized.csv 2> spectrum-normalized.err
twoatom-cbs intensity-sweep --sweep-points 3 --output sweep.csv 2> sweep.err
twoatom-cbs compare-oracles --s-values 0.5,2 --output oracles.csv 2> oracles.err
twoatom-cbs cone --theta-points 5 --mc-samples 100 --output cone.csv 2> cone.err
# k_ell = 8: the estimate draws no separations, so nothing warns of a dense medium
twoatom-cbs cone --k-ell 8 --theta-max 0.01 --mc-samples 100 --output cone-short.csv 2> cone-short.err
for err in spectrum.err spectrum-normalized.err sweep.err oracles.err cone.err cone-short.err; do
  [ ! -s "$err" ] || { cat "$err"; exit 1; }
done

echo "== python -m twoatom_cbs is twoatom-cbs"
python -m twoatom_cbs intensity-sweep --sweep-points 3 --output sweep-module.csv
cmp sweep.csv sweep-module.csv

# `expect_one_line_error CODE FILE ARGS...`: twoatom-cbs ARGS exits with
# CODE (1 configuration error, 2 numerical failure) and writes exactly one
# line, to FILE
expect_one_line_error() {
  local code="$1" err="$2" status=0
  shift 2
  twoatom-cbs "$@" 2> "$err" || status=$?
  cat "$err"
  [ "$status" -eq "$code" ]
  [ "$(wc -l < "$err")" -eq 1 ]
}

echo "== a drive that overflows the generator is one configuration error"
expect_one_line_error 1 overflow.err spectrum --detuning 1e308

echo "== a drive at which A is singular is one configuration error"
# the resolvent's singularity check, for one configuration and for a stack
expect_one_line_error 1 singular.err spectrum --rabi 1e14 --points 5
expect_one_line_error 1 singular.err intensity-sweep --detuning 1e20 --sweep-points 2

echo "== a usage error is one configuration error"
# a mistyped value and an unknown flag: one stderr line, no usage block
expect_one_line_error 1 usage.err spectrum --points abc
expect_one_line_error 1 usage.err spectrum --bogus 1

echo "== an inelastic fraction below what double resolves is one numerical failure"
expect_one_line_error 2 inelastic.err intensity-sweep --sweep-min 1e-9 --sweep-max 1e-8 --sweep-points 3

echo "== a negative value with an exponent is a flag value"
twoatom-cbs spectrum --nu-min -1e1 --nu-max 1e1 --points 81 --output exponent.csv
twoatom-cbs spectrum --nu-min -10 --nu-max 10 --points 81 --output plain.csv
cmp exponent.csv plain.csv

echo "== a cone profile that overflows is one configuration error"
expect_one_line_error 1 cone.err cone --k-ell 1e200 --theta-points 3

echo "== a grid that does not run from nu < 0 to nu > 0 is one configuration error"
expect_one_line_error 1 grid.err spectrum --nu-min 0 --nu-max 10 --points 81

echo "== a single Monte Carlo sample is one configuration error"
expect_one_line_error 1 samples.err cone --mc-samples 1

echo "== a negative seed is one configuration error, sampling or not"
expect_one_line_error 1 seed.err cone --mc-samples 10 --seed -1
expect_one_line_error 1 seed.err cone --seed -1

echo "== replay a run from its own header"
# the README's replay: the '#' header of a CSV output is a config file
twoatom-cbs spectrum --rabi 0.1 --detuning 5 --nu-min -22.502499750049985 \
  --nu-max 22.502499750049985 --points 181 --normalize --output run.csv
grep '^# ' run.csv | sed 's/^# //' > run.cfg
twoatom-cbs spectrum --config run.cfg --output rerun.csv
cmp run.csv rerun.csv

echo "runtime-only checks passed"

#!/bin/sh
# Golden output of the explorer: the summary line of every sweep the CI
# smoke jobs run, at their CI budgets, and the planted skip-undo bug's
# shrunk counterexample with its violations.  Usage: explore.sh XREPL
# (run with QUICK=1 JOBS=2, as CI does; the output does not depend on
# JOBS).  Any exit code other than the expected one fails the rule.
set -e
xrepl="$1"

sweep() {
  out=$("$xrepl" explore "$@")
  printf '%s\n' "$out" | grep '^scenario='
}

sweep --strategy all --trials 300 --noise 0.25:150:10000
sweep --strategy net --loss 0.2 --dup 0.1 --seeds 500
sweep --strategy batch --batch 16 --pipeline 4 --seeds 10
sweep --strategy xshard --seeds 10
sweep --strategy lease-edge --seeds 7

out=$("$xrepl" explore --strategy walk --trials 64 --mutation skip-undo \
  --noise 0.25:150:10000 --expect-violation)
printf '%s\n' "$out" | sed -n '/^scenario=/p; /^shrunk/,$p'

#!/bin/sh
# Golden output of the explorer: the summary line of every sweep the CI
# smoke jobs run, at their CI budgets, and one hunt per (strategy, seeded
# mutant) with its shrunk counterexample and violations.  Usage:
# explore.sh XREPL (run with QUICK=1 JOBS=2, as CI does; the output does
# not depend on JOBS).  Any exit code other than the expected one fails
# the rule.
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

# A hunt stops at the first wave holding a violation, so its summary
# line pins where the explore loop stops.  A strategy that misses the
# mutant sweeps its whole budget and prints "no violating schedule
# found" (exit 1 under --expect-violation); any other exit fails.
hunt() {
  set +e
  out=$("$xrepl" explore --expect-violation "$@")
  code=$?
  set -e
  case "$code" in 0 | 1) ;; *) exit "$code" ;; esac
  printf '%s\n' "$out" | sed -n '/^scenario=/p; /^no violating/p; /^shrunk/,$p'
}

for m in skip-undo dup-exec early-reply; do
  hunt --mutation "$m" --strategy walk --trials 64 --noise 0.25:150:10000
  hunt --mutation "$m" --strategy dfs --noise 0.25:150:10000
  hunt --mutation "$m" --strategy faults --noise 0.25:150:10000
  hunt --mutation "$m" --strategy net --loss 0.2 --dup 0.1 --seeds 500
  hunt --mutation "$m" --strategy batch --batch 16 --pipeline 4 --seeds 10
  hunt --mutation "$m" --strategy xshard --seeds 10
  hunt --mutation "$m" --strategy lease-edge --seeds 7
done

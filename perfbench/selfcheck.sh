#!/usr/bin/env bash
# Shows that the benchmark's correctness check can fail.  Runs three
# workloads against corrupted copies of perfbench/expected and requires
# each to report "correct": false with ok_ratio below 1.
#
#   bash perfbench/selfcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."
work=_perfbench_selfcheck
rm -rf "$work"
trap 'rm -rf "$work"' EXIT

expect_failure() { # workload, corrupted expected dir
  local last
  last=$(bash perfbench/run.sh --workload "$1" --seed 0 --seconds 1 --trace 0 \
           --expected "$2" 2>/dev/null | tail -n 1)
  if [[ "$last" == *'"correct": false'* && "$last" != *'"ok_ratio": {"value": 1,'* ]]; then
    echo "selfcheck: $1 rejects a corrupted $3: ok"
  else
    echo "selfcheck: $1 accepted a corrupted $3: $last" >&2
    exit 1
  fi
}

corrupt() { # name, sed expression applied to one file of a fresh copy
  mkdir -p "$work/$1"
  cp perfbench/expected/* "$work/$1/"
  sed -i "$3" "$work/$1/$2"
}

corrupt top10 sweep_atax_K20_n64.txt '0,/time=/s//time=9/'
expect_failure sweep_warm "$work/top10" "top-10 report"
corrupt digest sweep_atax_K20_full.md5 '/^128 /s/ ./ 0/'
expect_failure sweep_cold "$work/digest" "full-report digest"
corrupt fig4 fig4.txt '/kernel=ex14fj arch=Kepler/,+3s/quartiles: /quartiles: 1/'
expect_failure fig4_cold "$work/fig4" "Fig. 4 panel"

#!/usr/bin/env bash
# A/B host-time comparison of two revisions on the hostbench workloads.
#
#   bash bench/ab.sh [-n PAIRS] [--seconds S] PARENT_REV [CHANGE_REV]
#
# Checks PARENT_REV and CHANGE_REV (default HEAD) out into two git
# worktrees whose paths have the same length (peak RSS depends on it),
# then runs each tree's own `hostbench/run.sh` in alternating pairs: PAIRS
# pairs (default 10) on each workload of BENCHMARK.json at S seconds a run
# (default 50), pair i with seed i, the parent first on odd seeds and the
# change first on even ones. For each end-to-end metric it prints the median
# and quartiles of each side and how many pairs the change won, then the
# runs that read `correct` and the failed ops of each side. Raw results go
# to stdout as they come; the worktrees are removed on exit. Needs git,
# dune and POSIX tools only.
set -euo pipefail

pairs=10
seconds=50
while [ $# -gt 0 ]; do
  case $1 in
    -n) pairs=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    -h | --help) sed -n '/^[^#]/q; 2,$s/^# \{0,1\}//p' "$0"; exit 0 ;;
    -*) echo "ab.sh: unknown option $1" >&2; exit 2 ;;
    *) break ;;
  esac
done
[ $# -ge 1 ] && [ $# -le 2 ] || { echo "usage: bench/ab.sh [-n PAIRS] [--seconds S] PARENT_REV [CHANGE_REV]" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
parent_rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
change_rev=$(git -C "$root" rev-parse --verify "${2:-HEAD}^{commit}")

# Both trees live under one fresh directory as `a` and `b`: equal path lengths.
base=${TMPDIR:-/tmp}/axmemo-ab.$$
mkdir "$base"
results=$base/results
cleanup() {
  for side in a b; do
    [ -d "$base/$side" ] && git -C "$root" worktree remove --force "$base/$side" 2>/dev/null || true
  done
  git -C "$root" worktree prune
  rm -rf "$base"
}
trap cleanup EXIT INT TERM
git -C "$root" worktree add --quiet --detach "$base/a" "$parent_rev"
git -C "$root" worktree add --quiet --detach "$base/b" "$change_rev"
tree_of() { if [ "$1" = parent ]; then echo "$base/a"; else echo "$base/b"; fi; }

# Workload names, and end-to-end metric names and directions, in
# BENCHMARK.json order.
workloads=$(sed -n '/"workloads"/,/"end_to_end"/p' "$root/BENCHMARK.json" |
  grep '"name":' | sed 's/.*: *"\([^"]*\)".*/\1/')
metrics=$(sed -n '/"end_to_end"/,/"per_layer"/p' "$root/BENCHMARK.json" |
  grep -E '"(name|better)":' | sed 's/.*: *"\([^"]*\)".*/\1/' | paste -d' ' - -)

echo "# parent $parent_rev" >&2
echo "# change $change_rev" >&2
for side in parent change; do
  echo "# building $side" >&2
  (cd "$(tree_of $side)" && bash hostbench/run.sh --help >/dev/null)
done

# One run: appends "workload side seed key value" lines to $results.
run_one() {
  local w=$1 side=$2 seed=$3 line key
  line=$(cd "$(tree_of "$side")" &&
    bash hostbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null |
    tail -n 1) || line=
  echo "$w $side $seed $line"
  case $line in *'"correct":true'*) echo "$w $side $seed correct 1" ;; *) echo "$w $side $seed correct 0" ;; esac >>"$results"
  key=$(printf '%s' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
  echo "$w $side $seed failed ${key:-0}" >>"$results"
  while read -r name _; do
    key=$(printf '%s' "$line" | sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p")
    [ -n "$key" ] && echo "$w $side $seed $name $key" >>"$results"
  done <<<"$metrics"
}

: >"$results"
for w in $workloads; do
  seed=1
  while [ "$seed" -le "$pairs" ]; do
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do run_one "$w" "$side" "$seed"; done
    seed=$((seed + 1))
  done
done

# Summary: per workload and metric, median [q1, q3] of each side and the
# pairs the change won (strictly better in the metric's direction).
echo
for w in $workloads; do
  echo "== $w ($pairs pairs, ${seconds}s runs)"
  printf '%-18s %-32s %-32s %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" "change won"
  while read -r name better; do
    awk -v w="$w" -v m="$name" -v better="$better" '
      function q(a, n, p,   x, i) { x = (n - 1) * p; i = int(x); return (i + 1 < n) ? a[i] + (x - i) * (a[i + 1] - a[i]) : a[i] }
      function sort(a, n,   i, j, v) { for (i = 1; i < n; i++) { v = a[i]; for (j = i - 1; j >= 0 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v } }
      $1 == w && $4 == m { v[$2, $3] = $5; seen[$3] = 1 }
      END {
        np = nc = won = paired = 0
        for (s in seen) {
          if ((("parent", s) in v)) p[np++] = v["parent", s]
          if ((("change", s) in v)) c[nc++] = v["change", s]
          if ((("parent", s) in v) && (("change", s) in v)) {
            paired++
            d = v["change", s] - v["parent", s]
            if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) won++
          }
        }
        if (np == 0 || nc == 0) { printf "%-18s (no data)\n", m; exit }
        sort(p, np); sort(c, nc)
        printf "%-18s %-32s %-32s %d/%d\n", m,
          sprintf("%.4g [%.4g, %.4g]", q(p, np, 0.5), q(p, np, 0.25), q(p, np, 0.75)),
          sprintf("%.4g [%.4g, %.4g]", q(c, nc, 0.5), q(c, nc, 0.25), q(c, nc, 0.75)), won, paired
      }' "$results"
  done <<<"$metrics"
  for side in parent change; do
    awk -v w="$w" -v s="$side" '$1 == w && $2 == s && $4 == "correct" { n++; ok += $5 }
      $1 == w && $2 == s && $4 == "failed" { f += $5 }
      END { printf "%-7s correct %d/%d runs, failed ops %d\n", s, ok, n, f }' "$results"
  done
done

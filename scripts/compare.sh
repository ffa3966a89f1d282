#!/usr/bin/env bash
# Parent-vs-change pairs of one benchmark workload: what a PR quotes when
# it claims a gain, or that nothing got worse.
#
# Usage: scripts/compare.sh <ref> <workload> [pairs=10] [first-seed=9001] [seconds=20]
#
# Checks <ref> out as a detached worktree in a temp dir (removed on exit,
# with both build directories), builds the harness of each tree into its own
# CARGO_TARGET_DIR, then runs `benchmark/run.sh --workload W --seed S
# --seconds T --trace 0` in both, pair by pair, alternating which side goes
# first; pair i uses seed first-seed + i on both sides. "change" is this
# checkout as it stands, uncommitted edits included. Per end-to-end metric of
# BENCHMARK.json it prints median [q1, q3] of each side, the pairs the change
# won in the direction the file calls better (a tie counts for neither), the
# change of the median, and a verdict against the metric's bound:
#   within bound   the change's median is no worse than the parent's by more than the bound
#   worse          it is
#   unresolved     the parent's own quartiles are further apart than the bound
# A gain needs >= 10 pairs, >= 9/10 of them won, and medians further apart
# than the parent's [q1, q3]; a no-gain claim needs every row `within bound`.
# Writes nothing in either tree.

set -euo pipefail
[ $# -ge 2 ] || { sed -n '5p' "$0" | cut -c3- >&2; exit 2; }
ref="$1" workload="$2" pairs="${3:-10}" seed0="${4:-9001}" seconds="${5:-20}"
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d -t dls_compare_XXXXXX)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/parent" 2>/dev/null || true
  rm -rf "$tmp"
  git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/parent" "$ref"
echo "# parent $(git -C "$root" rev-parse --short "$ref") vs change $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD || echo +uncommitted), $workload, $pairs pairs x $seconds s, seeds $seed0.."

tree_of() { if [ "$1" = parent ]; then echo "$tmp/parent"; else echo "$root"; fi; }
bench() { (cd "$(tree_of "$1")" && CARGO_TARGET_DIR="$tmp/target-$1" benchmark/run.sh "${@:2}"); }
run() { # side seed: appends the run's result object to $tmp/<side>.jsonl
  local out
  out="$(bench "$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0)" \
    || echo "compare: $1 run with seed $2 exited non-zero" >&2
  out="$(tail -n 1 <<<"$out")"
  case "$out" in '{"correct":'*) echo "$out" >>"$tmp/$1.jsonl" ;;
    *) echo "compare: $1 run with seed $2 printed no result object" >&2; exit 1 ;; esac
}

for side in parent change; do bench "$side" --list >/dev/null; done # builds both harnesses
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
  for side in $order; do run "$side" $((seed0 + i)); done
done

awk -v parent="$tmp/parent.jsonl" -v change="$tmp/change.jsonl" '
function field(line, re,    s) { # the number after the first match of re (which ends in a colon)
  if (!match(line, re "[-+0-9.eE]+")) return "nan"
  s = substr(line, RSTART, RLENGTH); sub(re, "", s); return s + 0
}
function load(file, side,    line, n, m) {
  while ((getline line < file) > 0) {
    n++
    for (m = 1; m <= nm; m++) v[side, name[m], n] = field(line, "\"" name[m] "\":\\{\"value\":")
    failed[side] += field(line, "\"failed\":"); attempted[side] += field(line, "\"attempted\":")
    wrong[side] += (line ~ /^\{"correct":false/)
  }
  return n
}
function quartiles(side, metric, n,    a, i, j, t) { # sets q[1..3]
  for (i = 1; i <= n; i++) a[i] = v[side, metric, i]
  for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
  for (i = 1; i <= 3; i++) { t = 1 + (n - 1) * i / 4; j = int(t); q[i] = a[j] + (t - j) * ((j < n ? a[j + 1] : a[j]) - a[j]) }
}
/"end_to_end"/ { inside = 1 }
inside && /\]/ { inside = 0 }
inside && /"name"/ { nm++; name[nm] = $2; gsub(/[",]/, "", name[nm]) }
inside && /"better"/ { lower[nm] = ($2 ~ /lower/) }
inside && /"bound"/ { bound[nm] = $2 + 0 }
END {
  n = load(parent, "p"); if (load(change, "c") != n || n == 0) { print "compare: unequal or empty runs" > "/dev/stderr"; exit 1 }
  printf "%-13s %-34s %-34s %6s %8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "delta", "bound", "verdict"
  for (m = 1; m <= nm; m++) {
    wins = 0
    for (i = 1; i <= n; i++) { d = v["c", name[m], i] - v["p", name[m], i]; wins += lower[m] ? d < 0 : d > 0 }
    quartiles("p", name[m], n); p1 = q[1]; p2 = q[2]; p3 = q[3]; quartiles("c", name[m], n)
    delta = p2 ? (q[2] - p2) / p2 : 0; worse = lower[m] ? delta : -delta
    verdict = (p2 && (p3 - p1) / p2 > bound[m]) ? "unresolved" : (worse > bound[m] ? "worse" : "within bound")
    printf "%-13s %-34s %-34s %3d/%-2d %+7.1f%% %5.0f%%  %s\n", name[m], sprintf("%.4g [%.4g, %.4g]", p2, p1, p3), sprintf("%.4g [%.4g, %.4g]", q[2], q[1], q[3]), wins, n, delta * 100, bound[m] * 100, verdict
  }
  printf "failed/attempted: parent %d/%d, change %d/%d; runs with a wrong answer or failed check: parent %d, change %d\n", failed["p"], attempted["p"], failed["c"], attempted["c"], wrong["p"], wrong["c"]
}' "$root/BENCHMARK.json"

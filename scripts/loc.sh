#!/usr/bin/env bash
# Line counts per crate, for the before/after table ROADMAP asks every PR
# to record in CHANGES.md.
#
# Usage: scripts/loc.sh [checkout]     (default: this repository)
#
#   src       lines of src/**/*.rs before each file's first #[cfg(test)]
#   src-test  lines from that #[cfg(test)] to the end of the file
#   tests/    lines of tests/**/*.rs
#
# Plain lines (wc -l semantics): comments and blanks count, so a reduction
# here is deleted text, whatever it was.

set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

printf '%-12s %8s %9s %8s %8s\n' crate src src-test tests/ total
sum_src=0 sum_in=0 sum_tests=0
for dir in crates/*/ ./; do
  [ -d "${dir}src" ] || continue
  name="$(basename "$dir")"
  [ "$dir" = ./ ] && name="dls (root)"
  read -r src in_test < <(find "${dir}src" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_test = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    { if (in_test) b++; else a++ }
    END { print a + 0, b + 0 }')
  tests=0
  if [ -d "${dir}tests" ]; then
    tests="$(find "${dir}tests" -name '*.rs' -print0 | xargs -0 cat | wc -l)"
  fi
  printf '%-12s %8d %9d %8d %8d\n' "$name" "$src" "$in_test" "$tests" $((src + in_test + tests))
  sum_src=$((sum_src + src)) sum_in=$((sum_in + in_test)) sum_tests=$((sum_tests + tests))
done
printf '%-12s %8d %9d %8d %8d\n' total "$sum_src" "$sum_in" "$sum_tests" $((sum_src + sum_in + sum_tests))

#!/usr/bin/env bash
# The repository's benchmark: builds the harness from source and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is its result object
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--quick]
#       every workload untraced, then traced; results in benchmark/out/
#   benchmark/run.sh --aa        the untraced set twice, compared against the bounds
#   benchmark/run.sh --list      every metric with unit, bound and prediction
#
# Run it from the root of a checkout. It needs the repository's crates
# beside it (../crates, ../vendor): in a directory without them the build
# fails and this script exits non-zero without printing a result.

set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The driver points CARGO_TARGET_DIR at its own build directory; on its own
# the harness builds into benchmark/target.
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: standard output is the benchmark's alone.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/dls-benchmark" "$@"

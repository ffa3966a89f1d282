#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
#
# Usage: scripts/ci.sh
# Runs from the repository root regardless of the caller's cwd.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> benchmark wiring (benchmark/run.sh --quick: the harness builds against the product API; five workloads, untraced then traced, answers and stage sums checked)"
# An API the harness calls that no longer compiles, a wrong answer or a
# failed stage-sum check fails here instead of in the driver's run. The
# numbers of a 1 s phase mean nothing; only the verdicts are read.
bench_out="$(benchmark/run.sh --quick)"
bench_ok="$(grep -c '"correct":true' <<<"$bench_out" || true)"
if [ "$bench_ok" -ne 10 ] || grep -q '"correct":false' <<<"$bench_out"; then
  grep -E ' check FAILED |"correct":false' <<<"$bench_out" | cut -c1-300 >&2 || true
  echo "benchmark --quick: want 10 correct result objects (5 workloads, untraced + traced), got $bench_ok" >&2
  exit 1
fi
echo "benchmark --quick: 10/10 result objects correct"

echo "==> learned-selector smoke (train + inspect + schedule with it)"
model="$(mktemp -t dls_selector_XXXXXX.json)"
trap 'rm -f "$model"' EXIT
cargo run --release -q --bin dls -- train-selector "$model" --quick --analytic
cargo run --release -q --bin dls -- selector-info "$model"
# A document the parent build wrote must still load: the committed fixture
# is the parent's, minus the block trees of the three formats since retired
# (a document that still names one is refused, `blocks.<name>: unknown format`).
cargo run --release -q --bin dls -- selector-info crates/learn/tests/fixtures/quick_analytic.json
cargo run --release -q --bin dls -- schedule @trefethen "learned:$model"

echo "==> blocked-kernel smoke (block-size sweep; geomean floors 0.95x, COO 1.0x; CSR, ELL and COO B=2 per product <= B=1)"
bench_json="$(mktemp -t dls_bench_XXXXXX.json)"
trap 'rm -f "$model" "$bench_json"' EXIT
cargo run --release -q -p dls-bench --bin repro_smsv_block -- 5 "$bench_json" --check

echo "==> cross-machine selector table (repro_selector_cross regenerates BENCH_selector.json)"
selector_json="$(mktemp -t dls_selector_bench_XXXXXX.json)"
trap 'rm -f "$model" "$bench_json" "$selector_json"' EXIT
# The run is deterministic (analytic oracles, seeded grid): the committed
# numbers must regenerate byte for byte.
cargo run --release -q -p dls-bench --bin repro_selector_cross -- "$selector_json" >/dev/null
cmp "$selector_json" BENCH_selector.json \
  || { echo "BENCH_selector.json no longer regenerates byte-identically" >&2; exit 1; }
echo "BENCH_selector.json regenerates byte-identically"

echo "==> chaos smoke (seeded fault injection, watchdog-guarded)"
# The harness itself exits 2 on any hang and non-zero on any corrupted
# response, untyped failure, or failed clean probe.
out="$(cargo run --release -q -p dls-bench --bin repro_chaos -- --smoke --seeds 8)"
echo "$out"
echo "$out" | grep -q "zero hangs, zero corrupted responses" \
  || { echo "chaos smoke: missing clean-run summary" >&2; exit 1; }

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> line counts (scripts/loc.sh; paste into the PR's CHANGES.md entry beside the parent's)"
scripts/loc.sh
# Deleted in ISSUE 21, not switched off ([x] keeps this line from matching itself).
if grep -rnE 'Bcs[r]|Hy[b]|Jd[s]|include_derive[d]|with_derive[d]|has_blocked_kerne[l]' crates/*/src src examples; then echo "a retired name is back" >&2; exit 1; fi
# Deleted in ISSUE 23 (one measurement system; five serve knobs became constants).
if grep -rnE 'vendor/criterio[n]|criterio[n]:[:]|cargo benc[h]|repro_serv[e]|BENCH_serv[e]|bench\.s[h]|class_sl[o]|gather_diviso[r]|enter_violation_rat[e]|exit_violation_rat[e]|ring_capacit[y]' crates src examples scripts Cargo.toml README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# Deleted in ISSUE 25 (SMO is Algorithm 1: five SmoParams fields, the SMSV pool and multiclass gone).
if grep -rnE 'WorkingSetSelectio[n]|SecondOrde[r]|SmsvPoo[l]|par_smsv[_]|dls_sparse::paralle[l]|positive_weigh[t]|shrinkin[g]|block_siz[e]|Multiclas[s]' crates src examples scripts Cargo.toml README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# Deleted with the move to one serving policy (the queue disciplines, the latency tree and its analytic fallback, the brown-out knobs).
if grep -rnE 'QueueDisciplin[e]|StrictPriorit[y]|parse_disciplin[e]|TreeLatencyEstimato[r]|AnalyticLatencyEstimato[r]|estimator_analyti[c]|BrownoutConfi[g]|predictive_admissio[n]|--disciplin[e]' crates src examples scripts Cargo.toml README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# Deleted with the move to one decision layer in dls-core (selector knobs became constants; one analytic-score and one probe-timing loop).
if grep -rnE 'RuleThreshold[s]|MachineProfil[e]|with_block_hint[s]|effective_bloc[k]|observations_from_reactiv[e]|record_observation[s]|fn analytic_score[s]|fn time_forma[t]' crates src examples scripts Cargo.toml README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# Deleted with the move to one SMSV sweep per format (the per-format view kernels and runtime-width lane loops).
if grep -rnE 'smsv_wit[h]|smsv_view_wit[h]|blocked_slab_swee[p]|blocked_band_sweep_an[y]' crates src examples; then echo "a retired name is back" >&2; exit 1; fi
# Deleted with the work-conserving drain (the gather window, its brown-out divisor and the drain rule's hold).
if grep -rnE 'GATHER_DIVISO[R]|effective_gathe[r]|DisciplineCt[x]|Decision::Wai[t]' crates src examples scripts README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# Deleted with the one interleave rule (CSR's own pairing width).
if grep -rnE 'PAIRED_WIDT[H]' crates src examples scripts README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# Deleted with the move to one front end (the epoll reactor, its switch and its completion hook).
if grep -rnE 'Fronten[d]|ReactorCounter[s]|--fronten[d]|serve_reacto[r]|set_completion_hoo[k]|WakeF[d]|epoll_creat[e]|dispatch_asyn[c]' crates src examples scripts README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# No product library may hold `unsafe`: each crate root forbids it (the bench crate's counting allocator is measurement tooling).
for lib in src/lib.rs crates/*/src/lib.rs; do
  [ "$lib" = crates/bench/src/lib.rs ] || grep -q '^#!\[forbid(unsafe_code)\]' "$lib" \
    || { echo "$lib does not forbid unsafe_code" >&2; exit 1; }
done
# Deleted with online retraining (the feedback hub, the swappable selector, the confidence gate, the forest, the serve flags) and with SpMV.
if grep -rnE 'FeedbackHu[b]|FeedbackConfi[g]|SwappableSelecto[r]|retrain_onlin[e]|ObservationRin[g]|LabeledObservatio[n]|with_gat[e]|DEFAULT_MIN_CONFIDENC[E]|--onlin[e]|--retrain-m[s]|repro_selector_onlin[e]|fn spm[v]' crates src examples scripts README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# Deleted with mid-training re-scheduling (the reactive loop, its mispredict detector, the kernel monitor and its snapshot type, the CLI flag and the repro bin).
if grep -rnE 'ReactiveSchedule[r]|ReactiveConfi[g]|MispredictDetecto[r]|KernelMonito[r]|TelemetrySnapsho[t]|WindowRecor[d]|SwitchEven[t]|--reactiv[e]|repro_reactiv[e]' crates src examples scripts README.md DESIGN.md EXPERIMENTS.md; then echo "a retired name is back" >&2; exit 1; fi
# Crate direction: sparse <- svm <- core <- learn, and serve depends on core, not on the trainer.
if grep -n 'dls-lear[n]' crates/serve/Cargo.toml; then echo "dls-serve depends on dls-learn again" >&2; exit 1; fi
# Every FormatSelector lives in dls-core; dls-learn only builds training data and trains.
if grep -rn 'impl FormatSelector' crates/learn/src; then echo "a selector is back in dls-learn" >&2; exit 1; fi

echo "==> ci OK"

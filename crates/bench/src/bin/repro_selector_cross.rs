//! Cross-machine selector evaluation: a selector trained on one `dls-hw`
//! machine profile is deployed under another.
//!
//! Each platform's [`dls_hw::Platform::format_bandwidth`] profile induces a
//! different labelling oracle over the same synthetic grid — CPUs stream
//! CSR/COO near peak while wide-SIMD/SIMT machines favour the regular
//! formats — so a CART frozen at training time carries the *training*
//! machine's format ranking to the test machine. The frozen CART and the
//! paper's rules are graded on held-out grid matrices under the test
//! machine's oracle: agreement with its winner and regret (how much slower
//! the pick is than that winner).
//!
//! Usage: `repro_selector_cross [--quick] [--seed N] [out.json]`
//! (default out: `BENCH_selector.json`).

use dls_core::json::JsonValue;
use dls_core::{LayoutScheduler, SelectionStrategy};
use dls_hw::{Platform, PLATFORMS};
use dls_learn::{
    evaluate, train_selector, training_grid, EvalSummary, GridConfig, LabelMode, TrainConfig,
    HOLDOUT_STRIDE,
};
use dls_sparse::Format;

/// Machine the frozen model is trained on (the paper's measurement host).
const TRAIN_PLATFORM: &str = "8-core CPU";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| GridConfig::default().seed);
    let out_path = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--seed"))
        .map(|(_, a)| a)
        .find(|a| a.ends_with(".json"))
        .cloned()
        .unwrap_or_else(|| "BENCH_selector.json".into());

    let train_platform =
        Platform::by_name(TRAIN_PLATFORM).expect("train platform exists in dls-hw");
    println!("# Selector — cross-machine regret (train on {TRAIN_PLATFORM})");
    println!("# grid={} seed={seed}\n", if quick { "quick" } else { "full" });

    // One grid, labelled per platform: the matrices are shared, only the
    // bandwidth profile (and hence the winning format) changes.
    let grid_cfg = GridConfig { seed, quick, ..Default::default() };
    let cases = training_grid(&grid_cfg);
    let oracle_of = |p: &Platform| LabelMode::Analytic { bandwidth: p.format_bandwidth() };
    let is_holdout = |i: usize| i % HOLDOUT_STRIDE == HOLDOUT_STRIDE - 1;
    let holdout_cases: Vec<_> =
        cases.iter().enumerate().filter(|(i, _)| is_holdout(*i)).map(|(_, c)| c).collect();

    // Frozen CART: the offline trainer, run once on the training machine's
    // oracle (it holds out the same every-fifth slice).
    let frozen =
        train_selector(&TrainConfig { seed, quick, mode: oracle_of(train_platform) }).model.tree;
    let rules = LayoutScheduler::with_strategy(SelectionStrategy::RuleBased);

    let mut pairs: Vec<(&'static str, Vec<EvalSummary>)> = Vec::new();
    for test_platform in &PLATFORMS {
        let mode = oracle_of(test_platform);
        let holdout: Vec<_> =
            holdout_cases.iter().map(|c| dls_learn::label_case(&c.desc, &c.matrix, mode)).collect();
        let grade = |name: &str, picks: Vec<Format>| evaluate(name, &holdout, &picks);
        let rows = vec![
            grade("oracle", holdout.iter().map(|s| s.label).collect()),
            grade(
                "rule(paper)",
                holdout_cases.iter().map(|c| rules.select_only(&c.matrix).chosen).collect(),
            ),
            grade("frozen", holdout.iter().map(|s| frozen.predict(&s.x)).collect()),
        ];

        println!("## test machine: {}", test_platform.name);
        println!(
            "{:<12} {:>5}  {:>10}  {:>12}  {:>11}",
            "selector", "n", "agreement", "mean regret", "max regret"
        );
        for row in &rows {
            println!("{}", row.render_row());
        }
        println!();
        pairs.push((test_platform.name, rows));
    }

    let summary_json = |e: &EvalSummary| {
        JsonValue::obj([
            ("selector", JsonValue::from(e.name.as_str())),
            ("n", JsonValue::from(e.n as u64)),
            ("agreement", JsonValue::from(e.agreement)),
            ("mean_regret", JsonValue::from(e.mean_regret)),
            ("max_regret", JsonValue::from(e.max_regret)),
        ])
    };
    let doc = JsonValue::obj([
        ("bench", JsonValue::from("selector_cross")),
        ("grid", JsonValue::from(if quick { "quick" } else { "full" })),
        ("seed", JsonValue::from(seed)),
        ("train_platform", JsonValue::from(TRAIN_PLATFORM)),
        (
            "pairs",
            JsonValue::Arr(
                pairs
                    .iter()
                    .map(|(name, rows)| {
                        JsonValue::obj([
                            ("test_platform", JsonValue::from(*name)),
                            ("selectors", JsonValue::Arr(rows.iter().map(summary_json).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, doc.to_json_pretty()).expect("write json");
    println!("# wrote {out_path}");
}

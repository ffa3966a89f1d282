//! Demonstrates **mid-training re-scheduling**: an SVM run deliberately
//! mis-seeded with a wrong fixed format recovers to the oracle's choice
//! while training, and finishes within a small factor of a run that
//! started on the oracle format.
//!
//! Usage: `repro_reactive [dataset] [iterations]` (defaults: adult, 6000).
//! With `DLS_CSV_DIR` set, dumps the telemetry snapshot as
//! `reactive_telemetry.csv` and `reactive_telemetry.json`.

use dls_bench::{csv_dir_from_env, workload, CsvWriter};
use dls_core::{LayoutScheduler, ReactiveConfig, ReactiveScheduler, SelectionStrategy};
use dls_svm::SmoParams;
use std::time::Instant;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "adult".to_string());
    let iters: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(6_000);
    let w = workload(&name, 42);

    let params = SmoParams {
        c: 1.0,
        kernel: dls_svm::KernelKind::Linear,
        tolerance: 1e-12, // run the full budget so the two times compare
        max_iterations: iters,
        cache_bytes: 0, // every iteration pays its two SMSVs
    };

    // Oracle: the cost model's up-front choice, trained statically.
    let oracle_sched = LayoutScheduler::with_strategy(SelectionStrategy::CostModel);
    let oracle_report = oracle_sched.select_only(&w.matrix);
    let oracle_fmt = oracle_report.chosen;
    let start = Instant::now();
    let scheduled = oracle_sched.schedule(&w.matrix);
    let _ =
        dls_svm::train_with_stats(scheduled.matrix(), &w.labels, &params).expect("oracle training");
    let oracle_time = start.elapsed().as_secs_f64();

    // Mis-seeded run: fixed on the *worst-scored* format, with the
    // reactive loop free to correct it.
    let wrong = oracle_report.worst();
    let reactive =
        ReactiveScheduler::new(LayoutScheduler::with_strategy(SelectionStrategy::Fixed(wrong)))
            .with_config(ReactiveConfig { segment_iters: 8, ..ReactiveConfig::default() });
    let start = Instant::now();
    let (_, report) = reactive.train(&w.matrix, &w.labels, &params).expect("reactive training");
    let reactive_time = start.elapsed().as_secs_f64();

    println!("# Reactive re-scheduling — {name} ({iters} SMO iterations)");
    println!("oracle start:    {:<4} {:.3}s", oracle_fmt.name(), oracle_time);
    println!(
        "mis-seeded start: {:<4} {:.3}s  -> finished on {}",
        wrong.name(),
        reactive_time,
        report.final_format.name()
    );
    for s in &report.switches {
        println!(
            "  switch @ iter {:>6}: {} -> {} (measured {:.3e} s/call, target est {:.3e})",
            s.at_iteration,
            s.from.name(),
            s.to.name(),
            s.measured_secs_per_call,
            s.estimated_target_secs_per_call
        );
    }
    let ratio = reactive_time / oracle_time;
    println!(
        "recovery ratio:  {ratio:.2}x of oracle (target <= 1.2x){}",
        if report.switches.is_empty() { "  [no switch fired]" } else { "" }
    );
    println!("\n# telemetry\n{}", report.telemetry.to_json());

    if let Some(dir) = csv_dir_from_env() {
        let header: Vec<&str> = dls_core::TelemetrySnapshot::csv_header().split(',').collect();
        let mut csv =
            CsvWriter::create(&dir, "reactive_telemetry", &header).expect("create telemetry csv");
        for row in report.telemetry.to_csv_rows() {
            let cells: Vec<&str> = row.split(',').collect();
            csv.row(&cells).expect("write telemetry row");
        }
        let path = csv.finish().expect("flush telemetry csv");
        let json_path = dir.join("reactive_telemetry.json");
        std::fs::write(&json_path, report.telemetry.to_json()).expect("write telemetry json");
        eprintln!("# wrote {} and {}", path.display(), json_path.display());
    }
}

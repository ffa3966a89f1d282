//! Reproduces **Figure 7**: speedup of the adaptive system ("HPC-SVM")
//! over the parallel-LIBSVM-style fixed-CSR baseline on the real-world
//! datasets, plus the paper's §V-B secondary comparison: adaptive vs our
//! *own* fixed-CSR implementation.
//!
//! Paper: 1.2–16.5× over parallel LIBSVM (4× average); 1.3× average over
//! the own-CSR fixed version.

use dls_baseline::{train_libsvm_like, LibsvmLikeParams};
use dls_bench::{
    csv_dir_from_env, table6_workloads, time_smo_iterations, time_smo_iterations_telemetry,
    CsvWriter,
};
use dls_core::telemetry::{active, csv_rows, CSV_HEADER};
use dls_core::LayoutScheduler;
use dls_sparse::{Format, SmsvCounters, SmsvSnapshot};
use dls_svm::KernelKind;
use std::time::Instant;

fn main() {
    let iters: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    println!("# Figure 7 — adaptive system vs LIBSVM-style fixed-CSR baseline");
    println!("# fixed {iters} SMO iterations each; same arithmetic, different layout/kernels\n");
    println!(
        "{:<14} {:>10} {:>14} {:>14} {:>12} {:>12}",
        "dataset", "selection", "baseline s", "adaptive s", "vs libsvm", "vs own-CSR"
    );

    let scheduler = LayoutScheduler::new();
    let mut speedups = Vec::new();
    let mut own_csr_speedups = Vec::new();
    // Telemetry for the adaptive runs only: what the scheduled format
    // actually delivered, per dataset.
    let mut telemetry: Vec<(&str, SmsvSnapshot)> = Vec::new();
    for w in table6_workloads(42) {
        let selection = scheduler.select_only(&w.matrix).chosen;

        // Baseline: LIBSVM-like merge-join CSR solver, same iteration count.
        let params = LibsvmLikeParams {
            kernel: KernelKind::Linear,
            tolerance: 1e-12,
            max_iterations: iters,
            ..Default::default()
        };
        let start = Instant::now();
        let _ = train_libsvm_like(&w.matrix, &w.labels, &params).expect("valid inputs");
        let baseline_secs = start.elapsed().as_secs_f64();

        // Adaptive: scheduled format through the tuned solver, with SMSV
        // telemetry recorded behind the timing.
        let counters = SmsvCounters::shared();
        let adaptive_secs =
            time_smo_iterations_telemetry(&w.matrix, &w.labels, selection, iters, &counters);
        telemetry.push((w.name, counters.snapshot()));
        // Own fixed-CSR: tuned solver, CSR regardless of the data.
        let own_csr_secs = time_smo_iterations(&w.matrix, &w.labels, Format::Csr, iters);

        let speedup = baseline_secs / adaptive_secs;
        let own = own_csr_secs / adaptive_secs;
        speedups.push(speedup);
        own_csr_speedups.push(own);
        println!(
            "{:<14} {:>10} {:>14.3e} {:>14.3e} {:>11.1}x {:>11.2}x",
            w.name,
            selection.name(),
            baseline_secs,
            adaptive_secs,
            speedup,
            own
        );
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let avg_own = own_csr_speedups.iter().sum::<f64>() / own_csr_speedups.len() as f64;
    let (lo, hi) = speedups.iter().fold((f64::INFINITY, 0.0f64), |(l, h), &s| (l.min(s), h.max(s)));
    println!("\n# adaptive vs parallel-LIBSVM-style: {lo:.1}x - {hi:.1}x (avg {avg:.1}x); paper: 1.2x - 16.5x (avg 4x)");
    println!("# adaptive vs own fixed-CSR: avg {avg_own:.2}x; paper: avg 1.3x");

    println!("\n# adaptive-run SMSV telemetry (format, calls, s/call)");
    for (name, snap) in &telemetry {
        for (f, s) in active(snap) {
            println!(
                "{name:<14} {:<4} {:>8} calls {:>10.2e} s/call",
                f.name(),
                s.calls,
                s.nanos as f64 * 1e-9 / s.calls as f64
            );
        }
    }
    if let Some(dir) = csv_dir_from_env() {
        let mut header = vec!["dataset"];
        header.extend(CSV_HEADER.split(','));
        let mut csv =
            CsvWriter::create(&dir, "fig7_telemetry", &header).expect("create telemetry csv");
        for (name, snap) in &telemetry {
            for row in csv_rows(snap) {
                let mut cells = vec![*name];
                cells.extend(row.split(','));
                csv.row(&cells).expect("write telemetry row");
            }
        }
        let path = csv.finish().expect("flush telemetry csv");
        eprintln!("# wrote {}", path.display());
    }
}

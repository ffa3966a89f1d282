//! Reproduces **Table VI**: effects of the adaptive system on nine
//! datasets — the worst format, the scheduler's selection, and the average
//! and maximum speedups of the selection over the other formats.
//!
//! Paper reference (Table VI):
//!
//! | dataset       | worst | selection | avg & max speedup |
//! |---------------|-------|-----------|-------------------|
//! | adult         | DIA   | ELL       | 3.8× & 14.3×      |
//! | breast_cancer | ELL   | CSR       | 16.2× & 35.7×     |
//! | aloi          | COO   | CSR       | 3.1× & 6.6×       |
//! | gisette       | DIA   | DEN       | 2.4× & 3.7×       |
//! | mnist         | ELL   | COO       | 3.0× & 5.1×       |
//! | sector        | DEN   | COO       | 14.3× & 39.6×     |
//! | leukemia      | ELL   | DEN       | 13.3× & 29.0×     |
//! | connect-4     | COO   | DEN       | 3.3× & 6.4×       |
//! | trefethen     | DEN   | DIA       | 1.7× & 4.1×       |

use dls_bench::{csv_dir_from_env, table6_workloads, time_smo_iterations_telemetry, CsvWriter};
use dls_core::telemetry::{active, csv_rows, CSV_HEADER};
use dls_core::{LayoutScheduler, SelectionStrategy};
use dls_sparse::{Format, SmsvCounters, SmsvSnapshot};

const PAPER_TABLE6: [(&str, &str, &str, f64, f64); 9] = [
    ("adult", "DIA", "ELL", 3.8, 14.3),
    ("breast_cancer", "ELL", "CSR", 16.2, 35.7),
    ("aloi", "COO", "CSR", 3.1, 6.6),
    ("gisette", "DIA", "DEN", 2.4, 3.7),
    ("mnist", "ELL", "COO", 3.0, 5.1),
    ("sector", "DEN", "COO", 14.3, 39.6),
    ("leukemia", "ELL", "DEN", 13.3, 29.0),
    ("connect-4", "COO", "DEN", 3.3, 6.4),
    ("trefethen", "DEN", "DIA", 1.7, 4.1),
];

fn main() {
    let iters: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(30);
    let strategy = match std::env::args().nth(2).as_deref() {
        Some("empirical") => SelectionStrategy::Empirical,
        Some("cost") => SelectionStrategy::CostModel,
        _ => SelectionStrategy::RuleBased,
    };
    let scheduler = LayoutScheduler::with_strategy(strategy);

    println!("# Table VI — effects of the adaptive system ({iters} SMO iterations)");
    println!("# strategy: {strategy:?}\n");
    println!(
        "{:<14} {:>6} {:>10} {:>12} {:>12}   paper: worst sel avg max",
        "dataset", "worst", "selection", "avg speedup", "max speedup"
    );

    let mut avg_speedups = Vec::new();
    let mut max_speedups = Vec::new();
    let mut telemetry: Vec<(&str, SmsvSnapshot)> = Vec::new();
    for w in table6_workloads(42) {
        let selection = scheduler.select_only(&w.matrix).chosen;
        // Per-dataset counters: every format's timed run contributes its
        // SMSV telemetry, so the snapshot compares layouts directly.
        let counters = SmsvCounters::shared();
        let times: Vec<(Format, f64)> = Format::BASIC
            .iter()
            .map(|&f| (f, time_smo_iterations_telemetry(&w.matrix, &w.labels, f, iters, &counters)))
            .collect();
        telemetry.push((w.name, counters.snapshot()));
        let sel_time = times.iter().find(|(f, _)| *f == selection).unwrap().1;
        let worst = times.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        let others: Vec<f64> =
            times.iter().filter(|(f, _)| *f != selection).map(|(_, t)| t / sel_time).collect();
        let avg = others.iter().sum::<f64>() / others.len() as f64;
        let max = worst.1 / sel_time;
        avg_speedups.push(avg);
        max_speedups.push(max);
        let paper = PAPER_TABLE6.iter().find(|p| p.0 == w.name).unwrap();
        println!(
            "{:<14} {:>6} {:>10} {:>11.1}x {:>11.1}x   paper: {} {} {:.1} {:.1}",
            w.name,
            worst.0.name(),
            selection.name(),
            avg,
            max,
            paper.1,
            paper.2,
            paper.3,
            paper.4
        );
    }
    let overall_avg = avg_speedups.iter().sum::<f64>() / avg_speedups.len() as f64;
    let overall_max = max_speedups.iter().fold(0.0f64, |a, &b| a.max(b));
    let overall_min = max_speedups.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    println!(
        "\n# adaptive vs worst-format: {overall_min:.1}x - {overall_max:.1}x (avg of avgs {overall_avg:.1}x)"
    );
    println!("# paper: 1.7x - 16.2x average speedups, 6.8x overall average");

    println!("\n# measured SMSV seconds/call (telemetry)");
    for (name, snap) in &telemetry {
        let cells: Vec<String> = active(snap)
            .map(|(f, s)| format!("{f} {:.2e}", s.nanos as f64 * 1e-9 / s.calls as f64))
            .collect();
        println!("{name:<14} {}", cells.join("  "));
    }
    if let Some(dir) = csv_dir_from_env() {
        let mut header = vec!["dataset"];
        header.extend(CSV_HEADER.split(','));
        let mut csv =
            CsvWriter::create(&dir, "table6_telemetry", &header).expect("create telemetry csv");
        for (name, snap) in &telemetry {
            for row in csv_rows(snap) {
                let mut cells = vec![*name];
                let rest: Vec<&str> = row.split(',').collect();
                cells.extend(rest);
                csv.row(&cells).expect("write telemetry row");
            }
        }
        let path = csv.finish().expect("flush telemetry csv");
        eprintln!("# wrote {}", path.display());
    }
}

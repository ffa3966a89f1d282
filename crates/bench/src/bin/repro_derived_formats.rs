//! Admission report for derived formats (ROADMAP item 8): every format in
//! `Format::ALL` but not in `Format::BASIC` is timed in an end-to-end SMO
//! run (`time_smo_iterations`: cache off, so each iteration pays its two
//! SMSVs *and* its row extractions) and printed as time ÷ the best basic
//! format's, over the Table V twins at two seeds and three stress matrices
//! on the derived formats' home turf. Admission needs a ≥ 10% win on ≥ 5%
//! of cells; raw SMSV timing flatters formats whose row extraction is slow.

use dls_bench::{time_smo_iterations, workload};
use dls_data::controlled::{mdim_matrix, vdim_matrix};
use dls_data::labels::linear_teacher_labels;
use dls_data::specs::PAPER_DATASETS;
use dls_sparse::{Format, Scalar, TripletMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ITERATIONS: usize = 40;

/// Min-of-5 seconds for [`ITERATIONS`] SMO iterations in `format`.
fn smo_secs(t: &TripletMatrix, y: &[Scalar], format: Format) -> f64 {
    (0..5).map(|_| time_smo_iterations(t, y, format, ITERATIONS)).fold(f64::INFINITY, f64::min)
}

fn blocky_matrix(m: usize, n: usize, blocks: usize, seed: u64) -> TripletMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TripletMatrix::new(m, n);
    for _ in 0..blocks {
        let bi = rng.gen_range(0..m / 4) * 4;
        let bj = rng.gen_range(0..n / 4) * 4;
        for di in 0..4 {
            for dj in 0..4 {
                t.push(bi + di, bj + dj, 1.0 - rng.gen::<f64>());
            }
        }
    }
    t.compact()
}

fn main() {
    let size: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2048);
    let derived: Vec<Format> =
        Format::ALL.into_iter().filter(|f| !Format::BASIC.contains(f)).collect();
    let mut cells: Vec<(String, TripletMatrix, Vec<Scalar>)> = Vec::new();
    for seed in [42, 7] {
        for spec in &PAPER_DATASETS {
            let w = workload(spec.name, seed);
            cells.push((format!("{}/{seed}", w.name), w.matrix, w.labels));
        }
    }
    for (label, t) in [
        ("skewed (mdim = M)", mdim_matrix(size, size, 2 * size, size, 3)),
        ("imbalanced (vdim 1024)", vdim_matrix(size, 2 * size, size * 16, 1024.0, 5)),
        ("4x4 blocky", blocky_matrix(size, size, size / 8, 7)),
    ] {
        let y = linear_teacher_labels(&t, 0.05, 11);
        cells.push((label.to_string(), t, y));
    }
    println!("# Admission: SMO time / best basic format's ({ITERATIONS} iterations, min of 5)");
    print!("{:<24} {:>10}", "cell", "best basic");
    derived.iter().for_each(|f| print!(" {:>8}", f.name()));
    println!();
    let mut wins = vec![0usize; derived.len()];
    for (label, t, y) in &cells {
        let (best, best_secs) = Format::BASIC
            .iter()
            .map(|&f| (f, smo_secs(t, y, f)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("five basic formats");
        print!("{label:<24} {:>10}", best.name());
        for (k, &f) in derived.iter().enumerate() {
            let ratio = smo_secs(t, y, f) / best_secs;
            wins[k] += usize::from(ratio <= 0.9);
            print!(" {ratio:>7.2}x");
        }
        println!();
    }
    let (n, need) = (cells.len(), cells.len().div_ceil(20));
    for (f, won) in derived.iter().zip(&wins) {
        let verdict = if *won >= need { "passes" } else { "fails" };
        println!("# {f}: wins by >= 10% on {won} of {n} cells ({verdict}; needs {need})");
    }
}

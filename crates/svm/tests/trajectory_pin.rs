//! Trajectory pin for the SMO solver.
//!
//! The table below was recorded on the commit *before* the SMO hot loop
//! and the kernel-row cache were rebuilt (one fused update+select pass over
//! status bytes, slot cache), and kept verbatim when the solver's options
//! were deleted down to Algorithm 1 (ISSUE 25). Every row is one training
//! configuration; the loop must reproduce its outcome bit for bit —
//! iteration count, SMSV count, cache hits, the bias and every coefficient
//! — however it is driven (one call, segments of seven iterations, a
//! format switch mid-run), because neither change touched the arithmetic
//! or the tie-breaking.
//!
//! Three problems are generated Table V twins. `margin` is a separable
//! problem with a handful of points near the boundary, whose pair keeps
//! cycling through the same few rows for thousands of iterations. `ties`
//! holds every row twice, with the same label: equal `f` values are real
//! there, and the lowest index has to win each of them.
//!
//! To regenerate after a *deliberate* trajectory change:
//! `cargo test -p dls-svm --test trajectory_pin -- --ignored --nocapture`
//! prints the table in source form.

use dls_data::labels::linear_teacher_labels;
use dls_data::{generate, DatasetSpec};
use dls_sparse::{AnyMatrix, Format, TripletMatrix};
use dls_svm::{KernelKind, SmoParams, SmoState, SmoStats, SvmModel};

/// How the solver is driven to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    /// One `run_segment(usize::MAX)`.
    Mono,
    /// Segments of seven iterations.
    Seg7,
    /// Segments of 50 iterations on COO, then CSR from iteration 150 on.
    Switch,
}
use Drive::{Mono, Seg7, Switch};

/// One pinned problem and the kernel it is trained with.
struct Problem {
    name: &'static str,
    /// Row-count divisor applied to the Table V spec of that name; 0 for
    /// the two problems built here.
    scale: usize,
    kernel: KernelKind,
    c: f64,
}

const PROBLEMS: [Problem; 5] = [
    Problem { name: "adult", scale: 9, kernel: KernelKind::Linear, c: 1.0 },
    Problem { name: "aloi", scale: 5, kernel: KernelKind::Linear, c: 1.0 },
    Problem { name: "trefethen", scale: 10, kernel: KernelKind::Gaussian { gamma: 0.05 }, c: 8.0 },
    Problem { name: "margin", scale: 0, kernel: KernelKind::Linear, c: 1000.0 },
    Problem { name: "ties", scale: 0, kernel: KernelKind::Gaussian { gamma: 0.7 }, c: 10.0 },
];

/// 200 separable points, one in eight within 0.25 of the boundary
/// `x0 + x1/2 = 0` and the rest at least 2 away.
fn margin() -> (TripletMatrix, Vec<f64>) {
    let n = 200;
    let mut t = TripletMatrix::new(n, 2);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let u = (i as f64 * 0.77).sin();
        let dist = if i % 16 < 2 { 0.05 + 0.2 * u.abs() } else { 3.0 + u };
        let x1 = 2.0 * (i as f64 * 1.31).cos();
        t.push(i, 0, sign * dist - 0.5 * x1);
        t.push(i, 1, x1);
        y.push(sign);
    }
    (t.compact(), y)
}

/// 60 overlapping points, each stored twice (rows `i` and `i + 60`) with
/// the same label.
fn ties() -> (TripletMatrix, Vec<f64>) {
    let half = 60;
    let mut t = TripletMatrix::new(2 * half, 2);
    let mut y = vec![0.0; 2 * half];
    for i in 0..half {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let jitter = (i as f64 * 0.77).sin();
        for row in [i, i + half] {
            t.push(row, 0, sign * 0.5 + jitter * 0.9);
            t.push(row, 1, (i as f64 * 0.31).cos());
            y[row] = sign;
        }
    }
    (t.compact(), y)
}

fn problem(p: &Problem) -> (TripletMatrix, Vec<f64>) {
    match p.name {
        "margin" => margin(),
        "ties" => ties(),
        name => {
            let spec = DatasetSpec::by_name(name).expect("Table V name").scaled(p.scale);
            let t = generate(&spec, 0xD15);
            let y = linear_teacher_labels(&t, 0.05, 0x5EED);
            (t, y)
        }
    }
}

/// (problem, cache_bytes).
type Config = (&'static str, usize);

/// (iterations, smsv_count, cache_hits, bias bits, coefficient-bits hash).
type Outcome = (usize, u64, u64, u64, u64);

const DEFAULT_CACHE: usize = 64 << 20;

fn params(p: &Problem, cfg: &Config) -> SmoParams {
    SmoParams {
        c: p.c,
        kernel: p.kernel,
        max_iterations: 6_000,
        cache_bytes: cfg.1,
        ..Default::default()
    }
}

/// FNV-1a over the support-vector count and every coefficient's bits.
fn coefficient_hash(model: &SvmModel) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(model.coefficients().len() as u64);
    for c in model.coefficients() {
        eat(c.to_bits());
    }
    h
}

fn run(t: &TripletMatrix, y: &[f64], params: &SmoParams, drive: Drive) -> (SvmModel, SmoStats) {
    let csr = AnyMatrix::from_triplets(Format::Csr, t);
    match drive {
        Mono | Seg7 => {
            let budget = if drive == Mono { usize::MAX } else { 7 };
            let mut state = SmoState::new(&csr, y, params).unwrap();
            while state.can_continue(params) {
                state.run_segment(&csr, params, budget);
            }
            state.finalize(&csr, params)
        }
        Switch => {
            let coo = AnyMatrix::from_triplets(Format::Coo, t);
            let mut state = SmoState::new(&coo, y, params).unwrap();
            while state.can_continue(params) && state.iterations() < 150 {
                state.run_segment(&coo, params, 50);
            }
            while state.can_continue(params) {
                state.run_segment(&csr, params, 50);
            }
            state.finalize(&csr, params)
        }
    }
}

fn outcome(t: &TripletMatrix, y: &[f64], p: &Problem, cfg: &Config, drive: Drive) -> Outcome {
    let (model, stats) = run(t, y, &params(p, cfg), drive);
    (
        stats.iterations,
        stats.smsv_count,
        stats.cache_hits,
        model.bias().to_bits(),
        coefficient_hash(&model),
    )
}

#[test]
fn every_drive_reproduces_the_recorded_trajectories() {
    for p in &PROBLEMS {
        let (t, y) = problem(p);
        let mut rows = 0;
        for (cfg, want) in PINS.iter().filter(|(cfg, _)| cfg.0 == p.name) {
            for drive in [Mono, Seg7, Switch] {
                assert_eq!(outcome(&t, &y, p, cfg, drive), *want, "{cfg:?} {drive:?}");
            }
            rows += 1;
        }
        assert_eq!(rows, 2, "{}: the cache off and on are both pinned", p.name);
    }
}

#[test]
#[ignore = "prints the table; run on purpose, with --nocapture"]
fn print_the_table() {
    for p in &PROBLEMS {
        let (t, y) = problem(p);
        for cache_bytes in [0, DEFAULT_CACHE] {
            let o = outcome(&t, &y, p, &(p.name, cache_bytes), Mono);
            let cache = if cache_bytes == 0 { "0" } else { "DEFAULT_CACHE" };
            println!(
                "    (({:?}, {cache}), ({}, {}, {}, {:#018x}, {:#018x})),",
                p.name, o.0, o.1, o.2, o.3, o.4
            );
        }
    }
}

#[rustfmt::skip]
const PINS: [(Config, Outcome); 10] = [
    (("adult", 0), (1332, 2660, 4, 0xbfa5035711e6238e, 0xd39fbc4455b32138)),
    (("adult", DEFAULT_CACHE), (1332, 176, 2488, 0xbfa5035711e6238e, 0xd39fbc4455b32138)),
    (("aloi", 0), (1747, 3494, 0, 0xbfdba373113cc39c, 0x3b6117b9459f4cfb)),
    (("aloi", DEFAULT_CACHE), (1747, 130, 3364, 0xbfdba373113cc39c, 0x3b6117b9459f4cfb)),
    (("trefethen", 0), (543, 1083, 3, 0x3ff326baecb4a1bc, 0x23fa0df81ad2f22a)),
    (("trefethen", DEFAULT_CACHE), (543, 166, 920, 0x3ff326baecb4a1bc, 0x23fa0df81ad2f22a)),
    (("margin", 0), (2175, 3513, 837, 0xbfcfea43787bccf7, 0x999e01ec852d1153)),
    (("margin", DEFAULT_CACHE), (2175, 12, 4338, 0xbfcfea43787bccf7, 0x999e01ec852d1153)),
    (("ties", 0), (410, 794, 26, 0x3fd75827f53a62be, 0x81956b89737251fc)),
    (("ties", DEFAULT_CACHE), (410, 72, 748, 0x3fd75827f53a62be, 0x81956b89737251fc)),
];

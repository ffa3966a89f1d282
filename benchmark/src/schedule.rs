//! `schedule_sweep`: `LayoutScheduler::new().schedule()` over a fixed pool.
//!
//! The pool is every Table V twin at four derived seeds, a quarter of them
//! handed over un-compacted. One pass schedules every matrix once; the
//! scheduled matrix is dropped outside the timed call.

use crate::inputs::{schedule_pool, twin};
use crate::probes::min_ns;
use crate::report::{EndToEnd, Report};
use crate::stats::{geomean, max, median, quiet};
use crate::trace::{SpanId, Tracer};
use crate::Workload;
use dls_core::LayoutScheduler;
use dls_learn::{train_selector, LabelMode, LearnedSelector, TrainConfig};
use dls_sparse::ops::smsv_reference;
use dls_sparse::{AnyMatrix, Format, MatrixFeatures, MatrixFormat, SparseVec, TripletMatrix};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The pool.
pub struct Inputs {
    pool: Vec<(String, TripletMatrix)>,
}

/// See the module documentation.
pub struct ScheduleSweep;

impl Workload for ScheduleSweep {
    const NAME: &'static str = "schedule_sweep";
    type Inputs = Inputs;
    type Warm = ();

    fn setup(seed: u64) -> Inputs {
        Inputs { pool: schedule_pool(seed) }
    }

    /// One pass that also checks the answer: a product on the scheduled
    /// matrix must be bit-identical to the reference product on CSR.
    fn warm_up(inputs: &Inputs, _seed: u64, report: &mut Report) {
        let scheduler = LayoutScheduler::new();
        for (name, t) in &inputs.pool {
            let scheduled = scheduler.schedule(t);
            let m = scheduled.matrix();
            let csr = AnyMatrix::from_triplets(Format::Csr, &t.clone().compact());
            let v = csr.row_sparse(csr.rows() / 2);
            let mut out = vec![0.0; m.rows()];
            m.smsv(&v, &mut out);
            let want = smsv_reference(&csr, &v);
            let ok = out.len() == want.len()
                && out.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
            if !ok {
                eprintln!("{name}: smsv on {} differs from the reference", m.format());
            }
            report.count_checked(ok);
        }
    }

    fn measure(
        inputs: &Inputs,
        _seed: u64,
        budget: Duration,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> EndToEnd {
        let scheduler = LayoutScheduler::new();
        let mut per_matrix: Vec<Vec<f64>> = inputs.pool.iter().map(|_| Vec::new()).collect();
        let mut pass_secs = Vec::new();
        let start = Instant::now();
        let mut pass = 1;
        while pass <= 3 || start.elapsed() < budget {
            let span = tracer.begin("pass", SpanId::ROOT, pass);
            let mut total = 0.0;
            for ((_, t), samples) in inputs.pool.iter().zip(&mut per_matrix) {
                let call = tracer.begin("core.schedule", span, pass);
                let t0 = Instant::now();
                let scheduled = black_box(scheduler.schedule(black_box(t)));
                let secs = t0.elapsed().as_secs_f64();
                tracer.end(call);
                drop(scheduled);
                samples.push(secs * 1e6);
                total += secs;
                report.count(true);
            }
            tracer.end(span);
            pass_secs.push(total);
            pass += 1;
        }
        let quiets: Vec<f64> = per_matrix.iter_mut().map(|s| quiet(s)).collect();
        let slowest = max(&quiets);
        // Every matrix weighs the same in the geomean, so a fixed per-call
        // cost shows. The median over matrices the issue asked for reads
        // one matrix, and which one changes with the seed.
        let unit_us = geomean(&quiets);
        let mut medians: Vec<f64> = per_matrix.iter_mut().map(|s| median(s)).collect();
        let schedule_ms = median(&mut medians) / 1e3;
        let nnz: usize = inputs.pool.iter().map(|(_, t)| t.nnz()).sum();
        let rate_per_s = nnz as f64 / quiet(&mut pass_secs);
        let pass_s = median(&mut pass_secs);
        let note = format!("n={} passes x {} matrices", pass_secs.len(), inputs.pool.len());
        report.line("schedule_ms", schedule_ms, "ms", note.clone());
        report.line("schedule_mnnz_per_s", nnz as f64 / pass_s / 1e6, "Mnnz/s", note.clone());
        report.line("pass_ms", pass_s * 1e3, "ms", note);
        EndToEnd { unit_us, tail_us: slowest, rate_per_s }
    }

    fn probe(inputs: &Inputs, _warm: &(), seed: u64, report: &mut Report) {
        stages(inputs, report);
        selection_quality(inputs, report);
        learned(inputs, seed, report);
        libsvm_read(seed, report);
    }
}

/// The three stages `schedule()` is made of, each timed on its own on
/// every pool matrix: median over the pool of the min-of-5 call.
fn stages(inputs: &Inputs, report: &mut Report) {
    let scheduler = LayoutScheduler::new();
    let (mut features, mut select, mut convert) = (Vec::new(), Vec::new(), Vec::new());
    let (mut convert_s, mut nnz) = (0.0, 0usize);
    for (_, t) in &inputs.pool {
        let t = t.clone().compact();
        let f = MatrixFeatures::from_triplets(&t);
        let chosen = scheduler.selector().select(&t, &f).chosen;
        features.push(min_ns(5, || MatrixFeatures::from_triplets(&t)) / 1e3);
        select.push(min_ns(5, || scheduler.selector().select(&t, &f)) / 1e3);
        let c = min_ns(5, || AnyMatrix::from_triplets(chosen, &t));
        convert.push(c / 1e3);
        convert_s += c / 1e9;
        nnz += t.nnz();
    }
    let note = format!("median over {} matrices of min-of-5", inputs.pool.len());
    let [features, select, convert] = [features, select, convert].map(|mut us| median(&mut us));
    report.layer("sparse.features.us", features, note.clone());
    report.layer("core.select.us", select, note.clone());
    report.layer("sparse.convert.us", convert, note);
    report.layer(
        "sparse.convert.mnnz_per_s",
        nnz as f64 / convert_s / 1e6,
        "pool nnz / summed min-of-5",
    );
    report.line(
        "schedule_stage_sum_us",
        features + select + convert,
        "us",
        "features + select + convert medians, compacted input",
    );
}

/// Agreement and regret of the default selector against the measured-best
/// basic format, over the pool.
fn selection_quality(inputs: &Inputs, report: &mut Report) {
    let scheduler = LayoutScheduler::new();
    let (mut agree, mut regret) = (0usize, 0.0);
    for (_, t) in &inputs.pool {
        let t = t.clone().compact();
        let chosen = scheduler.select_only(&t).chosen;
        let times: Vec<(Format, f64)> = Format::BASIC
            .iter()
            .map(|&f| (f, light_smsv_ns(&AnyMatrix::from_triplets(f, &t))))
            .collect();
        let best = times.iter().map(|&(_, ns)| ns).fold(f64::INFINITY, f64::min);
        let picked = times.iter().find(|(f, _)| *f == chosen).map(|&(_, ns)| ns);
        // A pick outside the five basic formats is measured on its own.
        let picked = picked.unwrap_or_else(|| light_smsv_ns(&AnyMatrix::from_triplets(chosen, &t)));
        agree += usize::from(picked <= best);
        regret += picked / best - 1.0;
    }
    let n = inputs.pool.len() as f64;
    report.layer(
        "core.select.agreement_share",
        agree as f64 / n,
        format!("{agree} of {n} picks are the measured-best basic format"),
    );
    report.layer(
        "core.select.regret_mean",
        regret / n,
        "chosen / best SMSV time - 1, min-of-3 on 4 rows per format",
    );
}

/// A cheaper kernel probe than `probes::smsv_ns`: the pool's worst cases
/// (a random sparse matrix forced into DIA) cost tens of ms per product.
fn light_smsv_ns(m: &AnyMatrix) -> f64 {
    let rows = m.rows();
    let rhs: Vec<SparseVec> =
        (0..4.min(rows)).map(|k| m.row_sparse(k * rows / 4.min(rows))).collect();
    let mut out = vec![0.0; rows];
    let mut ws = Vec::new();
    rhs.iter().map(|v| min_ns(3, || m.smsv_view(v.as_view(), &mut out, &mut ws))).sum::<f64>()
        / rhs.len() as f64
}

/// The learned selector, which is off the default path.
fn learned(inputs: &Inputs, seed: u64, report: &mut Report) {
    let cfg = TrainConfig {
        seed,
        quick: true,
        mode: LabelMode::analytic_flat(),
        ..TrainConfig::default()
    };
    let start = Instant::now();
    let outcome = train_selector(&cfg);
    report.layer(
        "learn.train_quick.ms",
        start.elapsed().as_secs_f64() * 1e3,
        "one quick analytic train_selector()",
    );
    let selector = LearnedSelector::new(outcome.model);
    let mut select: Vec<f64> = inputs
        .pool
        .iter()
        .filter(|(_, t)| t.is_compact())
        .map(|(_, t)| {
            let f = MatrixFeatures::from_triplets(t);
            min_ns(5, || dls_core::FormatSelector::select(&selector, t, &f)) / 1e3
        })
        .collect();
    report.layer(
        "learn.select.us",
        median(&mut select),
        "median over the compact pool matrices of min-of-5",
    );
}

/// LIBSVM text I/O on the adult twin, through memory.
fn libsvm_read(seed: u64, report: &mut Report) {
    let t = twin("adult", 1, seed);
    let y = crate::inputs::labels(&t, seed);
    let mut text = Vec::new();
    dls_data::libsvm::write(&mut text, &t, &y).expect("writing to memory cannot fail");
    let ns = min_ns(5, || dls_data::libsvm::read(text.as_slice()).expect("round trip"));
    report.layer(
        "data.libsvm.read.mb_per_s",
        text.len() as f64 / 1e6 / (ns / 1e9),
        format!("{} bytes, min-of-5", text.len()),
    );
}

//! `svm_miss` and `svm_cached`: schedule + SMO on eight Table V twins.
//!
//! One pass schedules and trains every twin once, the way the `dls` command
//! line does: `LayoutScheduler::new()`, and `SmoParams::default()` with the
//! linear kernel (`dls train`, `dls bench`). The problem is the workload's
//! definition — the kernel, and `cache_bytes`, which is all that differs
//! between the two workloads; no other field is set. With the cache off the
//! twins run at half their rows, so that a pass (quadratic in the rows)
//! fits the run eight times.
//!
//! Labels are drawn afresh for every pass (from `--seed` and the pass
//! number): the number of iterations SMO needs swings by a factor of two
//! with the labels, so a twin's time per *iteration* is what it keeps from
//! draw to draw, and that is what both workloads report, as the quiet
//! decile (`stats::quiet`) over passes and so over draws.

use crate::inputs::{derive, labels, twin, SVM_TWINS};
use crate::probes;
use crate::report::{EndToEnd, Report};
use crate::stats::{geomean, max, median, quiet};
use crate::trace::{SpanId, Tracer};
use crate::Workload;
use dls_core::LayoutScheduler;
use dls_sparse::{AnyMatrix, Format, MatrixFormat, TripletMatrix};
use dls_svm::{train_with_stats, KernelKind, SmoParams, SmoStats, SvmModel};
use std::time::{Duration, Instant};

/// One twin of the pass.
pub struct Twin {
    name: &'static str,
    /// The basic format the paper's rules give this twin; the per-format
    /// kernel probes run on it in that format, and the DEN ones are the
    /// issue's "dense group".
    format: Format,
    matrix: TripletMatrix,
}

/// The eight twins.
pub struct Inputs {
    twins: Vec<Twin>,
}

fn setup(seed: u64, extra_scale: usize) -> Inputs {
    let twins = SVM_TWINS
        .iter()
        .enumerate()
        .map(|(i, &(name, format))| Twin {
            name,
            format,
            matrix: twin(name, extra_scale, derive(seed, i as u64)),
        })
        .collect();
    Inputs { twins }
}

/// One schedule + train of one twin.
pub struct Run {
    secs: f64,
    schedule_secs: f64,
    stats: SmoStats,
}

fn train_twin(
    t: &Twin,
    y: &[f64],
    params: &SmoParams,
    tracer: &mut Tracer,
    pass_span: SpanId,
    pass: u64,
) -> (Run, AnyMatrix, SvmModel) {
    let start = Instant::now();
    let span = tracer.begin("core.schedule", pass_span, pass);
    let scheduled = LayoutScheduler::new().schedule(&t.matrix);
    tracer.end(span);
    let schedule_secs = start.elapsed().as_secs_f64();
    let span = tracer.begin("svm.train", pass_span, pass);
    let (model, stats) =
        train_with_stats(scheduled.matrix(), y, params).expect("generated inputs are valid");
    tracer.end(span);
    let secs = start.elapsed().as_secs_f64();
    (Run { secs, schedule_secs, stats }, scheduled.into_matrix(), model)
}

fn label_seed(seed: u64, pass: u64) -> u64 {
    derive(seed, 1_000 + pass)
}

/// What the measured passes produced.
struct Measured {
    /// `[twin][pass]`.
    runs: Vec<Vec<Run>>,
}

fn measure(
    inputs: &Inputs,
    params: &SmoParams,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Measured {
    let mut runs: Vec<Vec<Run>> = inputs.twins.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let mut pass = 1;
    // At least three passes, so that a median exists at `--seconds 1`.
    while pass <= 3 || start.elapsed() < budget {
        let span = tracer.begin("pass", SpanId::ROOT, pass);
        for (t, runs) in inputs.twins.iter().zip(&mut runs) {
            let y = labels(&t.matrix, label_seed(seed, pass));
            let (run, _, _) = train_twin(t, &y, params, tracer, span, pass);
            report.count(run.stats.converged);
            runs.push(run);
        }
        tracer.end(span);
        pass += 1;
    }
    Measured { runs }
}

/// Relative difference, with an absolute floor of one.
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// The warm-up pass, which is also where answers are checked: every twin
/// must converge, take exactly as many iterations on its scheduled layout
/// as on CSR, and give decision values within 1e-9 of CSR's on 64 rows.
fn warm_up(inputs: &Inputs, params: &SmoParams, seed: u64, report: &mut Report) -> Vec<Run> {
    let mut tracer = Tracer::new(false);
    let mut identical = 0;
    let mut probes = 0;
    let mut runs = Vec::new();
    for t in &inputs.twins {
        let y = labels(&t.matrix, label_seed(seed, 0));
        let (run, matrix, model) = train_twin(t, &y, params, &mut tracer, SpanId::ROOT, 0);
        let csr = AnyMatrix::from_triplets(Format::Csr, &t.matrix);
        let (ref_model, ref_stats) =
            train_with_stats(&csr, &y, params).expect("generated inputs are valid");
        let rows = t.matrix.rows();
        let mut close = true;
        for k in 0..64.min(rows) {
            let x = t.matrix.row_sparse(k * rows / 64.min(rows));
            let (got, want) = (model.decision_function(&x), ref_model.decision_function(&x));
            close &= rel_diff(got, want) <= 1e-9;
            identical += u64::from(got.to_bits() == want.to_bits());
            probes += 1;
        }
        let same = run.stats.iterations == ref_stats.iterations && close;
        if !(same && run.stats.converged) {
            eprintln!(
                "{}: {} converged={} iterations {} vs CSR {}, decision values close={close}",
                t.name,
                matrix.format(),
                run.stats.converged,
                run.stats.iterations,
                ref_stats.iterations
            );
        }
        // A layout that changes the answer is a wrong output; a run that
        // stops at the iteration cap is a failed one.
        report.count_checked(same);
        report.failed += u64::from(same && !run.stats.converged);
        runs.push(run);
    }
    report.line(
        "check.decision_values_bit_identical",
        identical as f64,
        "count",
        format!("of {probes} probe rows vs CSR"),
    );
    runs
}

/// Each twin's quiet decile, over passes, of a per-run time.
fn twin_quiet(m: &Measured, f: impl Fn(&Run) -> f64) -> Vec<f64> {
    m.runs.iter().map(|runs| quiet(&mut runs.iter().map(&f).collect::<Vec<_>>())).collect()
}

/// Each twin's median, over passes, of a per-run count.
fn twin_medians(m: &Measured, f: impl Fn(&Run) -> f64) -> Vec<f64> {
    m.runs.iter().map(|runs| median(&mut runs.iter().map(&f).collect::<Vec<_>>())).collect()
}

/// Median over passes of a per-pass sum over the twins `keep` selects.
fn pass_sum_median(inputs: &Inputs, m: &Measured, keep: impl Fn(&Twin) -> bool) -> f64 {
    let passes = m.runs[0].len();
    let mut sums: Vec<f64> = (0..passes)
        .map(|p| {
            inputs.twins.iter().zip(&m.runs).filter(|(t, _)| keep(t)).map(|(_, r)| r[p].secs).sum()
        })
        .collect();
    median(&mut sums)
}

fn end_to_end(inputs: &Inputs, m: &Measured, cached: bool, report: &mut Report) -> EndToEnd {
    let note = format!("n={} passes", m.runs[0].len());
    let per_iter_us = twin_quiet(m, |r| r.secs * 1e6 / r.stats.iterations as f64);
    for (t, us) in inputs.twins.iter().zip(&per_iter_us) {
        report.line(&format!("iter_us.{}", t.name), *us, "us", note.clone());
    }
    // The issue's per-pass totals. They move with the label draw as well as
    // with the code, so they are printed and not bounded.
    if cached {
        report.line("train_s", pass_sum_median(inputs, m, |_| true), "s", note);
    } else {
        report.line(
            "train_sparse_s",
            pass_sum_median(inputs, m, |t| t.format != Format::Den),
            "s",
            note.clone(),
        );
        report.line(
            "train_dense_s",
            pass_sum_median(inputs, m, |t| t.format == Format::Den),
            "s",
            note,
        );
    }
    // Iterations per second over a whole pass: each twin's typical
    // iteration count at its quiet cost per iteration. Where `unit_us`
    // weighs the twins equally, this weighs them by the time they take.
    let iterations = twin_medians(m, |r| r.stats.iterations as f64);
    let pass_us: f64 = iterations.iter().zip(&per_iter_us).map(|(n, us)| n * us).sum();
    EndToEnd {
        unit_us: geomean(&per_iter_us),
        tail_us: max(&per_iter_us),
        rate_per_s: iterations.iter().sum::<f64>() / (pass_us / 1e6),
    }
}

/// Per-layer numbers of the `svm` layer, from the warm-up pass's exact
/// counts and the per-twin SMSV probe.
fn svm_layers(inputs: &Inputs, warm: &[Run], report: &mut Report) {
    let iterations: usize = warm.iter().map(|r| r.stats.iterations).sum();
    let calls: u64 = warm.iter().map(|r| r.stats.smsv_count).sum();
    let hits: u64 = warm.iter().map(|r| r.stats.cache_hits).sum();
    let train_s: f64 = warm.iter().map(|r| r.secs - r.schedule_secs).sum();
    let schedule_s: f64 = warm.iter().map(|r| r.schedule_secs).sum();
    // What the SMSV calls alone cost: each twin's call count times a
    // single product on its scheduled layout, timed outside SMO.
    let smsv_s: f64 = inputs
        .twins
        .iter()
        .zip(warm)
        .map(|(t, r)| {
            let m = LayoutScheduler::new().schedule(&t.matrix).into_matrix();
            r.stats.smsv_count as f64 * probes::smsv_ns(&m) / 1e9
        })
        .sum();
    let share = smsv_s / train_s;
    report.layer("svm.smo.iterations", iterations as f64, "warm-up pass, exact");
    report.layer("svm.smsv.calls", calls as f64, "warm-up pass, exact");
    report.layer("svm.cache.hit_share", hits as f64 / (calls + hits) as f64, "warm-up pass");
    report.layer(
        "svm.smo.us_per_iter",
        train_s * 1e6 / iterations as f64,
        "warm-up pass, all twins",
    );
    report.layer("svm.smsv.share", share, "calls x probed ns / training time");
    report.layer("svm.smo.self_s", train_s - smsv_s, "training time - calls x probed ns");
    report.layer(
        "core.schedule.share_of_train",
        schedule_s / (schedule_s + train_s),
        "warm-up pass",
    );
    report.check(
        "svm.smsv.calls + cache hits = 2 x svm.smo.iterations",
        calls + hits == 2 * iterations as u64,
        format!("{calls} + {hits} vs 2 x {iterations}"),
    );
    // The two shares sum to one by construction; what can go wrong is the
    // probe. With the cache off SMSV is nine tenths of a training run, and
    // a product timed alone runs a little slower than one inside the loop,
    // so a tenth of slack is left before the self time counts as negative.
    report.check(
        "svm.smsv.share + self share = 1, self share not below -0.1",
        (0.0..=1.1).contains(&share),
        format!("smsv {share:.4} + self {:.4}", 1.0 - share),
    );
}

/// The per-format kernel probes and the bandwidth ceiling they are read
/// against; part of `svm_miss`, the workload they should move.
fn sparse_layers(inputs: &Inputs, report: &mut Report) {
    let host = crate::host::Host::read();
    let triad = crate::host::triad_gbps(5);
    report.layer(
        "mem.triad_gbps",
        triad,
        format!(
            "best of 5, three arrays of {} MiB each ({:.2}x the reported LLC; 4x would exceed 1 GiB each)",
            crate::host::TRIAD_ARRAY_BYTES >> 20,
            crate::host::TRIAD_ARRAY_BYTES as f64 / host.llc_bytes.max(1) as f64
        ),
    );
    report.layer("mem.llc_bytes", host.llc_bytes as f64, "sysfs, cpu0");
    let mut b2_over_b1 = Vec::new();
    for format in Format::BASIC {
        let t = inputs
            .twins
            .iter()
            .find(|t| t.format == format)
            .expect("one representative twin per basic format");
        let m = AnyMatrix::from_triplets(format, &t.matrix);
        let ns = probes::smsv_ns(&m);
        let bytes = probes::smsv_bytes(&m);
        let resident = if (m.storage_bytes() as u64) < host.llc_bytes {
            "cache-resident"
        } else {
            "larger than LLC"
        };
        report.layer(
            probes::per_format("sparse.smsv.ns", format),
            ns,
            format!("{} twin, mean over 16 rows of min-of-7", t.name),
        );
        report.layer(
            probes::per_format("sparse.smsv.bytes", format),
            bytes,
            "computed from array sizes",
        );
        report.layer(
            probes::per_format("sparse.smsv.gbps", format),
            bytes / ns,
            format!("computed bytes / ns, {resident}"),
        );
        let block = |b: usize| probes::smsv_block_ns(&m, b);
        report.layer(
            probes::per_format("sparse.smsv_block.ns", format),
            block(32),
            "per product at B=32, min-of-7",
        );
        b2_over_b1.push(block(2) / block(1));
    }
    report.layer(
        "sparse.smsv_block.b2_over_b1",
        geomean(&b2_over_b1),
        "per-product time, geomean over the five formats",
    );
}

/// `svm_cached` when `CACHED`, else `svm_miss`; see the module documentation.
pub struct Svm<const CACHED: bool>;

impl<const CACHED: bool> Svm<CACHED> {
    /// The shipped defaults around the workload's definition: the linear
    /// kernel, and the cache on or off.
    fn params() -> SmoParams {
        let default = SmoParams::default();
        SmoParams {
            kernel: KernelKind::Linear,
            cache_bytes: if CACHED { default.cache_bytes } else { 0 },
            ..default
        }
    }
}

impl<const CACHED: bool> Workload for Svm<CACHED> {
    const NAME: &'static str = if CACHED { "svm_cached" } else { "svm_miss" };
    type Inputs = Inputs;
    type Warm = Vec<Run>;

    fn setup(seed: u64) -> Inputs {
        setup(seed, if CACHED { 1 } else { 2 })
    }

    fn warm_up(inputs: &Inputs, seed: u64, report: &mut Report) -> Vec<Run> {
        warm_up(inputs, &Self::params(), seed, report)
    }

    fn measure(
        inputs: &Inputs,
        seed: u64,
        budget: Duration,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> EndToEnd {
        let m = measure(inputs, &Self::params(), seed, budget, tracer, report);
        end_to_end(inputs, &m, CACHED, report)
    }

    fn probe(inputs: &Inputs, warm: &Vec<Run>, _seed: u64, report: &mut Report) {
        svm_layers(inputs, warm, report);
        if !CACHED {
            sparse_layers(inputs, report);
        }
    }
}

//! The repository's benchmark. See `README.md` beside this crate.
//!
//! One invocation runs one workload in its own process (so that `VmHWM` is
//! the workload's own) and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones.

mod catalog;
mod host;
mod inputs;
mod loadgen;
mod probes;
mod report;
mod schedule;
mod serve;
mod stats;
mod suite;
mod svm;
mod trace;

use dls_core::json::JsonValue;
use report::{metric_json, EndToEnd, Report};
use std::time::{Duration, Instant};
use trace::Tracer;

/// One workload: how its inputs are made, checked, measured and probed.
pub trait Workload {
    /// Name, as in `catalog::WORKLOADS`.
    const NAME: &'static str;
    /// What `setup` builds and everything else borrows.
    type Inputs;
    /// What the warm-up pass hands to the probes.
    type Warm;

    /// Builds the inputs from the seed. Timed (it is `setup_s`), and run
    /// several times; dropping the result must release everything it holds.
    fn setup(seed: u64) -> Self::Inputs;

    /// One untimed pass that lets caches fill and checks the answers.
    fn warm_up(inputs: &Self::Inputs, seed: u64, report: &mut Report) -> Self::Warm;

    /// Measures for about `budget`, recording spans if the tracer is on.
    fn measure(
        inputs: &Self::Inputs,
        seed: u64,
        budget: Duration,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> EndToEnd;

    /// The traced run's per-layer probes and stage-sum checks.
    fn probe(inputs: &Self::Inputs, warm: &Self::Warm, seed: u64, report: &mut Report);
}

/// Command-line arguments of a single run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Runs `W` once and prints its lines and its result object.
fn drive<W: Workload>(args: &Args) -> bool {
    let mut report = Report::default();
    let host = host::Host::read();

    // Set-up, at least three times and up to nine while that stays under
    // 1.5 s in all (a cheap set-up needs more repeats for a steady median);
    // the last one's inputs are the run's.
    let mut setups = Vec::new();
    let mut inputs = None;
    while setups.len() < 3 || (setups.len() < 9 && setups.iter().sum::<f64>() < 1.5) {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(W::setup(args.seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least three set-ups ran");
    let setup_s = stats::median(&mut setups);

    let warm = W::warm_up(&inputs, args.seed, &mut report);
    let budget = Duration::from_secs_f64(args.seconds);

    let metrics = if args.trace {
        // A quarter of the time untraced and half of it traced, on the same
        // inputs: the difference is what tracing costs.
        let mut off = Tracer::new(false);
        let mut scratch = Report::default();
        let plain = W::measure(&inputs, args.seed, budget / 4, &mut off, &mut scratch);
        report.attempted += scratch.attempted;
        report.failed += scratch.failed;
        report.wrong += scratch.wrong;
        let mut tracer = Tracer::new(true);
        let traced = W::measure(&inputs, args.seed, budget / 2, &mut tracer, &mut report);
        W::probe(&inputs, &warm, args.seed, &mut report);
        report.layer(
            "data.generate.ms",
            setup_s * 1e3,
            format!("median of {} set-ups", setups.len()),
        );
        report.layer(
            "trace.overhead_share",
            traced.unit_us / plain.unit_us - 1.0,
            format!("unit_us traced {:.3} vs untraced {:.3}", traced.unit_us, plain.unit_us),
        );
        report.layer("trace.spans", tracer.spans().len() as f64, "");
        report.layer("host.nproc", host.nproc as f64, host.cpu_model.clone());
        for (name, t) in tracer.totals() {
            report.line(
                &format!("span.{name}.self_s"),
                t.self_ns as f64 / 1e9,
                "s",
                format!("n={} total {:.4} s", t.count, t.total_ns as f64 / 1e9),
            );
        }
        write_trace(W::NAME, &tracer, &host);
        catalog::PER_LAYER
            .iter()
            .map(|l| {
                (l.name, metric_json(report.layers.get(l.name).copied().unwrap_or(0.0), l.unit))
            })
            .collect::<Vec<_>>()
    } else {
        let mut off = Tracer::new(false);
        let e2e = W::measure(&inputs, args.seed, budget, &mut off, &mut report);
        // Inputs are still alive here: the peak includes them.
        let values = [e2e.unit_us, e2e.tail_us, e2e.rate_per_s, host::peak_rss_mib(), setup_s];
        for (info, value) in catalog::END_TO_END.iter().zip(values) {
            report.line(info.name, value, info.unit, format!("bound {:+.0}%", info.bound * 100.0));
        }
        catalog::END_TO_END
            .iter()
            .zip(values)
            .map(|(info, value)| (info.name, metric_json(value, info.unit)))
            .collect()
    };
    drop(inputs);

    // Outputs are correct when no answer was wrong and every check held;
    // an honest refusal or time-out is a failed operation, not a wrong one.
    let failed_checks = report.checks.iter().filter(|c| !c.ok).count();
    let correct = report.wrong == 0 && failed_checks == 0;
    report.line(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        format!(
            "{} of {}, {} of them wrong outputs",
            report.failed, report.attempted, report.wrong
        ),
    );
    for l in &report.lines {
        println!(
            "{} {} {} {}  # {}",
            W::NAME,
            l.metric,
            dls_core::json::number(l.value),
            l.unit,
            l.note
        );
    }
    for c in &report.checks {
        println!(
            "{} check {} {}  # {}",
            W::NAME,
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
    let result = JsonValue::obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Num(report.attempted.max(1) as f64)),
        ("failed", JsonValue::Num(report.failed as f64)),
        ("metrics", JsonValue::obj(metrics)),
    ]);
    println!("{}", result.to_json());
    correct
}

/// Writes the span log to `out/trace_<workload>.json` beside this crate's
/// `run.sh`; a failure to write is reported and does not fail the run.
fn write_trace(workload: &str, tracer: &Tracer, host: &host::Host) {
    let dir = suite::out_dir();
    let path = dir.join(format!("trace_{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload, host.to_json())));
    match written {
        Ok(()) => println!("{workload} trace {}  # {} spans", path.display(), tracer.spans().len()),
        Err(e) => eprintln!("{workload}: could not write {}: {e}", path.display()),
    }
}

/// Runs the workload `args` names.
fn run_one(args: &Args) -> Result<bool, String> {
    Ok(match args.workload.as_str() {
        "svm_miss" => drive::<svm::Svm<false>>(args),
        "svm_cached" => drive::<svm::Svm<true>>(args),
        "schedule_sweep" => drive::<schedule::ScheduleSweep>(args),
        "serve_small" => drive::<serve::ServeSmall>(args),
        "serve_mixed" => drive::<serve::ServeMixed>(args),
        other => {
            let names: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                names.join(", ")
            ));
        }
    })
}

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
              [--quick] [--aa] [--list]
  with --workload: one run of that workload; the last line of output is its result object
  without:         every workload untraced, then traced (--traced: only traced); results in out/
  --quick          1 s phases: a wiring check, its numbers mean nothing
  --aa             the untraced set twice on the same code (medians of three alternating
                   rounds); exits non-zero if any end-to-end metric differs by more than its bound
  --list           every metric with unit, bound and the end-to-end metric it should move";

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = None;
    let (mut quick, mut aa, mut list, mut emit) = (false, false, false, false);
    let mut argv = std::env::args().skip(1);
    let fail = |msg: String| -> ! {
        eprintln!("{msg}\n{USAGE}");
        std::process::exit(2);
    };
    while let Some(flag) = argv.next() {
        let mut value =
            |what: &str| argv.next().unwrap_or_else(|| fail(format!("{flag} needs {what}")));
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")),
            "--seed" => {
                seed = value("a number").parse().unwrap_or_else(|e| fail(format!("--seed: {e}")))
            }
            "--seconds" => {
                let s: f64 =
                    value("a number").parse().unwrap_or_else(|e| fail(format!("--seconds: {e}")));
                if !(s > 0.0 && s <= 600.0) {
                    fail(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    other => fail(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--traced" => trace = Some(true),
            "--quick" => quick = true,
            "--aa" => aa = true,
            "--list" => list = true,
            "--benchmark-json" => emit = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail(format!("unknown argument {other}")),
        }
    }
    if list {
        catalog::print_list();
        return;
    }
    if emit {
        print!("{}", suite::benchmark_json());
        return;
    }
    let seconds = seconds.unwrap_or(if quick { 1.0 } else { suite::RUN_SECONDS as f64 });
    let ok = match workload {
        Some(workload) => {
            let args = Args { workload, seed, seconds, trace: trace.unwrap_or(false) };
            run_one(&args).unwrap_or_else(|e| fail(e))
        }
        None if aa => suite::aa(seed, seconds),
        None => suite::all(seed, seconds, trace, quick),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

//! Running the whole set: every workload in a process of its own, the
//! results gathered into `out/results.json`, and the A/A comparison.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use dls_core::json::{parse, JsonValue};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// How long one run measures, unless `--seconds` says otherwise; also
/// `run_seconds` in `/BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// `out/` beside `run.sh`, in the checkout this binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `/BENCHMARK.json`, from the catalogue.
pub fn benchmark_json() -> String {
    let s = |x: &str| JsonValue::Str(x.to_string());
    JsonValue::obj([
        ("command", JsonValue::arr([s("bash"), s("benchmark/run.sh")])),
        ("paths", JsonValue::arr([s("benchmark")])),
        ("run_seconds", JsonValue::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            JsonValue::arr(
                WORKLOADS.iter().map(|w| JsonValue::obj([("name", s(w.name)), ("why", s(w.why))])),
            ),
        ),
        (
            "end_to_end",
            JsonValue::arr(END_TO_END.iter().map(|m| {
                JsonValue::obj([
                    ("name", s(m.name)),
                    ("unit", s(m.unit)),
                    ("better", s(m.better)),
                    ("bound", JsonValue::Num(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            JsonValue::arr(PER_LAYER.iter().map(|l| {
                JsonValue::obj([("name", s(l.name)), ("unit", s(l.unit)), ("better", s(l.better))])
            })),
        ),
    ])
    .to_json_pretty()
}

/// Runs one workload in a child process, echoing its output, and returns
/// its result object (`None` if it printed none or exited non-zero).
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<JsonValue> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawning this binary again");
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last()?;
    let doc = parse(last).ok()?;
    (out.status.success() && doc.get("correct").and_then(JsonValue::as_bool) == Some(true))
        .then_some(doc)
}

/// Every workload untraced, then traced (`trace` narrows it to one of the
/// two); writes `out/results.json` unless `quick`.
pub fn all(seed: u64, seconds: f64, trace: Option<bool>, quick: bool) -> bool {
    let mut ok = true;
    let mut sections = vec![
        ("host", crate::host::Host::read().to_json()),
        ("seed", JsonValue::Num(seed as f64)),
        ("seconds", JsonValue::Num(seconds)),
    ];
    for (key, traced) in [("untraced", false), ("traced", true)] {
        if trace.is_none_or(|t| t == traced) {
            let results: Vec<_> =
                WORKLOADS.iter().map(|w| (w.name, child(w.name, seed, seconds, traced))).collect();
            ok &= results.iter().all(|(_, doc)| doc.is_some());
            let results = results.into_iter().map(|(w, doc)| (w, doc.unwrap_or(JsonValue::Null)));
            sections.push((key, JsonValue::obj(results)));
        }
    }
    if quick {
        println!("# --quick: wiring check only, nothing written");
        return ok;
    }
    let path = out_dir().join("results.json");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, JsonValue::obj(sections).to_json_pretty()));
    match written {
        Ok(()) => println!("# results written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

fn metric(doc: &Option<JsonValue>, name: &str) -> Option<f64> {
    doc.as_ref()?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Rounds of an A/A comparison; each side's number is its median over them.
const AA_ROUNDS: usize = 3;

/// The untraced set twice on the same code, side by side: [`AA_ROUNDS`]
/// rounds, each running every workload once for either side, the side that
/// goes first alternating, so that a slow spell of the host falls on both.
/// Fails if a run fails or the medians of any end-to-end metric differ by
/// more than the metric's own bound.
pub fn aa(seed: u64, seconds: f64) -> bool {
    let mut sides: [Vec<Vec<Option<JsonValue>>>; 2] = [Vec::new(), Vec::new()];
    for round in 0..AA_ROUNDS {
        let mut pair = [Vec::new(), Vec::new()];
        for w in &WORKLOADS {
            for side in [round % 2, 1 - round % 2] {
                pair[side].push(child(w.name, seed, seconds, false));
            }
        }
        let [a, b] = pair;
        sides[0].push(a);
        sides[1].push(b);
    }
    let median_of = |side: &[Vec<Option<JsonValue>>], w: usize, name: &str| {
        let mut values: Vec<f64> =
            side.iter().map(|round| metric(&round[w], name)).collect::<Option<_>>()?;
        Some(crate::stats::median(&mut values))
    };
    let mut ok = true;
    println!("# A/A, medians of {AA_ROUNDS} runs: workload metric A B difference bound verdict");
    for (w, info) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let verdict = match (median_of(&sides[0], w, m.name), median_of(&sides[1], w, m.name)) {
                (Some(va), Some(vb)) => {
                    let diff = (vb - va) / va;
                    let within = diff.abs() <= m.bound;
                    ok &= within;
                    format!(
                        "{va:.6} {vb:.6} {:+.2}% {:.0}% {}",
                        diff * 100.0,
                        m.bound * 100.0,
                        if within { "ok" } else { "OUTSIDE" }
                    )
                }
                _ => {
                    ok = false;
                    "run failed".to_string()
                }
            };
            println!("{} {} {verdict}", info.name, m.name);
        }
    }
    ok
}

//! `dls` — command-line front end for the layout scheduler.
//!
//! ```text
//! dls features  <data.libsvm | @dataset>            nine influencing parameters
//! dls schedule  <data.libsvm | @dataset> [strategy] pick a storage format
//! dls train     <data.libsvm | @dataset> [strategy] schedule + SMO training
//! dls bench     <data.libsvm | @dataset> [iters]    per-format SMO timing
//! dls stats     <data.libsvm | @dataset> [strategy] [iters] [--cache <file>]
//!                                                   SMSV telemetry snapshot;
//!                                                   --cache persists tuning
//!                                                   decisions across runs
//! dls scale     <in.libsvm> <out.libsvm> [01|pm1]   feature scaling
//! dls serve     [addr] [--models a,b]               host quick-trained models,
//!               [--read-timeout-ms N]               one thread per connection
//!               [--write-timeout-ms N]              (at most 256 open); any
//!               [--idle-timeout-ms N]               other --flag is refused;
//!               [--no-brownout] [--chaos-seed N]    --chaos-seed arms the seeded
//!                                                   fault-injection plan (demo)
//! dls stats     --serve <addr> [--health]           live telemetry snapshot (or
//!                                                   health ladder) from a
//!                                                   running server
//! dls train-selector [out.json] [--quick] [--analytic] [--seed N]
//!                    [--reps N] [--passes N] [--margin F]
//!                                                   fit a decision-tree model on
//!                                                   the synthetic grid; the
//!                                                   measured-label gate knobs
//!                                                   tune noise rejection
//! dls selector-info <model.json>                    inspect a model document:
//!                                                   tree and block trees
//! ```
//!
//! `@name` loads the synthetic twin of a paper dataset (e.g. `@adult`).
//! Strategies: `rule`, `rule-host`, `cost`, `empirical`, a fixed format
//! name (`CSR`, …), or `learned[:model.json]` — a decision tree trained by
//! `dls train-selector` (without a path, a quick analytic model is fitted
//! in-memory on the spot).

use dls::prelude::*;
use dls_data::labels::linear_teacher_labels;
use dls_data::preprocess::{FeatureScaler, ScaleRange};
use std::io::BufReader;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("features") => cmd_features(&args[1..]),
        Some("schedule") => cmd_schedule(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("scale") => cmd_scale(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("train-selector") => cmd_train_selector(&args[1..]),
        Some("selector-info") => cmd_selector_info(&args[1..]),
        _ => {
            eprintln!(
                "usage: dls <features|schedule|train|bench|stats|scale|serve|train-selector|selector-info> ..."
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Loads a dataset: `@name` → synthetic twin, anything else → LIBSVM file.
fn load(source: &str) -> Result<(TripletMatrix, Vec<f64>), String> {
    if let Some(name) = source.strip_prefix('@') {
        let spec = DatasetSpec::by_name(name)
            .ok_or_else(|| format!("unknown synthetic dataset: {name}"))?
            .scaled(2);
        let t = generate(&spec, 42);
        let y = linear_teacher_labels(&t, 0.0, 42);
        Ok((t, y))
    } else {
        let file = std::fs::File::open(source).map_err(|e| format!("open {source}: {e}"))?;
        let ds = dls_data::libsvm::read(BufReader::new(file))
            .map_err(|e| format!("parse {source}: {e}"))?;
        // Map arbitrary labels to ±1 by sign for binary training.
        let y = ds.labels.iter().map(|&l| if l > 0.0 { 1.0 } else { -1.0 }).collect();
        Ok((ds.matrix, y))
    }
}

fn parse_strategy(arg: Option<&String>) -> Result<SelectionStrategy, String> {
    match arg.map(String::as_str) {
        None | Some("rule") => Ok(SelectionStrategy::RuleBased),
        Some("rule-host") => Ok(SelectionStrategy::RuleBasedHost),
        Some("cost") => Ok(SelectionStrategy::CostModel),
        Some("empirical") => Ok(SelectionStrategy::Empirical),
        Some(f) => f
            .parse::<Format>()
            .map(SelectionStrategy::Fixed)
            .map_err(|_| format!("unknown strategy or format: {f}")),
    }
}

/// Builds the selector behind a strategy argument. `learned[:model.json]`
/// dispatches to `dls-learn`; everything else goes through the
/// [`SelectionStrategy`] enum.
fn build_selector(arg: Option<&String>) -> Result<Box<dyn FormatSelector>, String> {
    let s = arg.map(String::as_str);
    if s == Some("learned") {
        eprintln!(
            "note: no model path given — fitting a quick analytic model in-memory \
             (run `dls train-selector` to persist one)"
        );
        let cfg =
            TrainConfig { quick: true, mode: LabelMode::analytic_flat(), ..Default::default() };
        return Ok(Box::new(LearnedSelector::new(train_selector(&cfg).model)));
    }
    if let Some(path) = s.and_then(|x| x.strip_prefix("learned:")) {
        return Ok(Box::new(LearnedSelector::from_file(path)?));
    }
    parse_strategy(arg).map(|st| st.selector())
}

fn cmd_features(args: &[String]) -> Result<(), String> {
    let source = args.first().ok_or("features: missing data source")?;
    let (t, _) = load(source)?;
    let f = MatrixFeatures::from_triplets(&t);
    println!("{f}");
    println!("row imbalance: {:.3}", f.row_imbalance());
    println!("ELL padding:   {:.3}", f.ell_padding_ratio());
    println!("DIA padding:   {:.3}", f.dia_padding_ratio());
    Ok(())
}

fn cmd_schedule(args: &[String]) -> Result<(), String> {
    // The report is a static, up-front selection. A flag or an extra
    // argument is a usage error: ignoring it would print the report as if
    // it had been honoured.
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("schedule: unknown flag {flag}"));
    }
    if let Some(extra) = args.get(2) {
        return Err(format!("schedule: unexpected argument {extra}"));
    }
    let source = args.first().ok_or("schedule: missing data source")?;
    let selector = build_selector(args.get(1))?;
    let (t, _) = load(source)?;
    println!("{}", LayoutScheduler::with_selector(selector).select_only(&t));
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let source = args.first().ok_or("train: missing data source")?;
    let selector = build_selector(args.get(1))?;
    let (t, y) = load(source)?;
    let scheduled = LayoutScheduler::with_selector(selector).schedule(&t);
    println!("scheduled format: {}", scheduled.format());

    let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
    let start = Instant::now();
    let (model, stats) =
        dls::svm::train_with_stats(scheduled.matrix(), &y, &params).map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();

    let preds: Vec<f64> = (0..t.rows()).map(|i| model.predict_label(&t.row_sparse(i))).collect();
    println!(
        "trained in {secs:.3}s: {} iterations, {} SVs, converged {}, training accuracy {:.3}",
        stats.iterations,
        stats.n_support_vectors,
        stats.converged,
        dls::svm::accuracy(&preds, &y)
    );
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let source = args.first().ok_or("bench: missing data source")?;
    let iters: usize = args.get(1).map(|s| s.parse().unwrap_or(20)).unwrap_or(20);
    let (t, y) = load(source)?;
    println!("{:<6} {:>14} {:>12}", "format", "seconds", "speedup");
    let mut times = Vec::new();
    for fmt in Format::BASIC {
        let m = AnyMatrix::from_triplets(fmt, &t);
        let params = SmoParams {
            kernel: KernelKind::Linear,
            tolerance: 1e-12,
            max_iterations: iters,
            cache_bytes: 0,
            ..Default::default()
        };
        let start = Instant::now();
        let _ = dls::svm::train_with_stats(&m, &y, &params).map_err(|e| e.to_string())?;
        times.push((fmt, start.elapsed().as_secs_f64()));
    }
    let slowest = times.iter().map(|(_, s)| *s).fold(0.0, f64::max);
    for (fmt, secs) in times {
        println!("{:<6} {:>14.3e} {:>11.2}x", fmt.name(), secs, slowest / secs);
    }
    Ok(())
}

/// Quick-trains one model on a synthetic twin for serving: small enough
/// to be ready in seconds, real enough to give the scheduler structure.
fn quick_served_model(
    name: &str,
    scheduler: &LayoutScheduler,
) -> Result<dls::serve::ServedModel, String> {
    let spec = DatasetSpec::by_name(name)
        .ok_or_else(|| format!("unknown synthetic dataset: {name}"))?
        .scaled(16);
    let t = generate(&spec, 42);
    let y = linear_teacher_labels(&t, 0.05, 42);
    let x = CsrMatrix::from_triplets(&t);
    let params = SmoParams {
        kernel: KernelKind::Linear,
        tolerance: 1e-2,
        max_iterations: 2_000,
        ..Default::default()
    };
    let model = dls::svm::train(&x, &y, &params).map_err(|e| e.to_string())?;
    Ok(dls::serve::ServedModel::new(name, model, scheduler))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    // A zero budget closes every connection; `dls_serve::start` refuses it,
    // and the flag says so before any model is trained.
    let millis = |name: &str, value: Option<&String>| {
        value
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(std::time::Duration::from_millis)
            .ok_or_else(|| format!("serve: {name} needs a millisecond count greater than zero"))
    };
    let mut addr = None;
    let mut models = vec!["adult".to_string(), "mnist".to_string()];
    let (mut read_timeout, mut write_timeout, mut idle_timeout) = (None, None, None);
    let (mut no_brownout, mut chaos_seed) = (false, None);
    // One pass over the arguments. A flag this command does not know is a
    // usage error, raised before any model is trained: ignoring it would
    // serve without what it asked for.
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--models" => {
                let list = rest.next().ok_or("serve: --models needs a comma-separated list")?;
                models = list.split(',').map(str::to_string).collect();
            }
            "--read-timeout-ms" => read_timeout = Some(millis(arg, rest.next())?),
            "--write-timeout-ms" => write_timeout = Some(millis(arg, rest.next())?),
            "--idle-timeout-ms" => idle_timeout = Some(millis(arg, rest.next())?),
            "--chaos-seed" => {
                let seed = rest.next().and_then(|v| v.parse::<u64>().ok());
                chaos_seed = Some(seed.ok_or("serve: --chaos-seed needs an integer seed")?);
            }
            "--no-brownout" => no_brownout = true,
            flag if flag.starts_with("--") => return Err(format!("serve: unknown flag {flag}")),
            bind if bind.contains(':') && addr.is_none() => addr = Some(bind.to_string()),
            _ => {}
        }
    }
    let addr = addr.unwrap_or_else(|| "127.0.0.1:0".to_string());

    let scheduler = LayoutScheduler::new();
    let mut registry = dls::serve::ModelRegistry::new();
    for name in &models {
        println!("training {name} ...");
        let served = quick_served_model(name, &scheduler)?;
        println!(
            "  {} support vectors, scheduled format {}",
            served.model().n_support_vectors(),
            served.format().map(|f| f.name()).unwrap_or("-")
        );
        registry.insert(served);
    }

    let fault = match chaos_seed {
        Some(seed) => {
            println!("chaos: fault-injection plan armed from seed {seed}");
            dls::serve::FaultInjector::new(dls::serve::fault::FaultPlan::from_seed(seed))
        }
        None => dls::serve::FaultInjector::none(),
    };
    let executor =
        dls::serve::ExecutorConfig { brownout: !no_brownout, fault, ..Default::default() };
    let defaults = dls::serve::ServerConfig::default();
    let config = dls::serve::ServerConfig {
        addr,
        executor,
        read_timeout: read_timeout.unwrap_or(defaults.read_timeout),
        write_timeout: write_timeout.unwrap_or(defaults.write_timeout),
        idle_timeout: idle_timeout.unwrap_or(defaults.idle_timeout),
    };
    let handle =
        dls::serve::start(registry, scheduler, config).map_err(|e| format!("bind: {e}"))?;
    println!(
        "listening on {} (brown-out {})",
        handle.local_addr(),
        if no_brownout { "off" } else { "on" }
    );
    println!("telemetry: dls stats --serve {}  (add --health for the ladder)", handle.local_addr());
    println!("stop:      a client Shutdown frame (PipelinedClient::shutdown) drains and exits");
    handle.join();
    println!("drained cleanly");
    Ok(())
}

/// `dls stats --serve <addr> [--health]`: fetch and pretty-print a live
/// telemetry snapshot, or the health ladder (degradation state per model).
fn cmd_stats_serve(addr: &str, health: bool) -> Result<(), String> {
    let mut client =
        dls::serve::PipelinedClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let json = if health {
        match client.request(&dls::serve::Request::Health).map_err(|e| format!("health: {e}"))? {
            dls::serve::Response::Health(json) => json,
            other => return Err(format!("health: unexpected response {other:?}")),
        }
    } else {
        client.stats().map_err(|e| format!("stats: {e}"))?
    };
    let doc = dls::core::json::parse(&json)?;
    print!("{}", doc.to_json_pretty());
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    if let Some(i) = args.iter().position(|a| a == "--serve") {
        let addr = args.get(i + 1).ok_or("stats: --serve needs an address")?;
        return cmd_stats_serve(addr, args.iter().any(|a| a == "--health"));
    }
    let cache_path = args
        .iter()
        .position(|a| a == "--cache")
        .map(|i| args.get(i + 1).cloned().ok_or("stats: --cache needs a file path"))
        .transpose()?;
    // As in `schedule`: a flag or argument that would be ignored is an error.
    let mut pos: Vec<&String> = Vec::new();
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--cache" => {
                rest.next();
            }
            flag if flag.starts_with("--") => return Err(format!("stats: unknown flag {flag}")),
            _ => pos.push(a),
        }
    }
    if let Some(extra) = pos.get(3) {
        return Err(format!("stats: unexpected argument {extra}"));
    }
    let source = pos.first().ok_or("stats: missing data source")?;
    let iters: usize = match pos.get(2) {
        Some(s) => s.parse().map_err(|_| format!("stats: bad iteration count {s}"))?,
        None => 200,
    };
    let (t, y) = load(source)?;

    // The tuning cache wraps whatever selector the strategy names: repeated
    // runs against the same data skip selection work entirely, and with
    // --cache the fingerprint -> decision map persists across processes.
    let mut cache = TuningCache::new(build_selector(pos.get(1).copied())?);
    if let Some(path) = &cache_path {
        if std::path::Path::new(path).exists() {
            let n = cache.load_file(path)?;
            println!("tuning cache: loaded {n} entries from {path}");
        }
    }
    let features = MatrixFeatures::from_triplets(&t);
    let report = cache.select(&t, &features);
    println!("scheduled format: {} (block {}) ({})", report.chosen, report.block, report.reason);

    let counters = SmsvCounters::shared();
    let m = InstrumentedMatrix::new(AnyMatrix::from_triplets(report.chosen, &t), counters.clone());
    let params = SmoParams {
        kernel: KernelKind::Linear,
        tolerance: 1e-12,
        max_iterations: iters,
        cache_bytes: 0,
        ..Default::default()
    };
    let (_, stats) = dls::svm::train_with_stats(&m, &y, &params).map_err(|e| e.to_string())?;
    let snap = counters.snapshot();
    println!("{} SMO iterations, {} SMSV calls\n", stats.iterations, stats.smsv_count);
    println!("{}", dls::core::telemetry::CSV_HEADER);
    for row in dls::core::telemetry::csv_rows(&snap) {
        println!("{row}");
    }
    println!("\n{}", dls::core::telemetry::kernel_json(&snap).to_json());
    println!(
        "\ntuning cache: {} entries, {} hits, {} misses this run",
        cache.len(),
        cache.hits(),
        cache.misses()
    );
    if let Some(path) = &cache_path {
        cache.save_file(path).map_err(|e| format!("write {path}: {e}"))?;
        println!("tuning cache: saved to {path}");
    }
    Ok(())
}

fn cmd_train_selector(args: &[String]) -> Result<(), String> {
    let quick = args.iter().any(|a| a == "--quick");
    let analytic = args.iter().any(|a| a == "--analytic");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .map(|i| {
            args.get(i + 1)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or("train-selector: --seed needs an integer")
        })
        .transpose()?;
    // Measured-label gate knobs (see `LabelMode::Measured`): reps per pass,
    // pass count for the majority vote, and the winner-margin threshold.
    let gate_flag = |name: &'static str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| {
                args.get(i + 1)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| *v >= 0.0)
                    .ok_or_else(|| format!("train-selector: {name} needs a non-negative number"))
            })
            .transpose()
    };
    let reps = gate_flag("--reps")?;
    let passes = gate_flag("--passes")?;
    let margin = gate_flag("--margin")?;
    if analytic && (reps.is_some() || passes.is_some() || margin.is_some()) {
        return Err("train-selector: --reps/--passes/--margin tune the measured-label gate; \
             they have no effect with --analytic"
            .into());
    }
    let value_flags = ["--seed", "--reps", "--passes", "--margin"];
    let out_path = {
        let mut skip_next = false;
        args.iter()
            .find(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if value_flags.contains(&a.as_str()) {
                    skip_next = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .cloned()
            .unwrap_or_else(|| "selector_model.json".to_string())
    };

    let mut cfg = TrainConfig { quick, ..Default::default() };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if analytic {
        cfg.mode = LabelMode::analytic_flat();
    } else if let LabelMode::Measured {
        reps: default_reps,
        passes: default_passes,
        min_margin: default_margin,
    } = LabelMode::default()
    {
        cfg.mode = LabelMode::Measured {
            reps: reps.map_or(default_reps, |v| v as usize),
            passes: passes.map_or(default_passes, |v| v as usize),
            min_margin: margin.unwrap_or(default_margin),
        };
    }
    let labels = match cfg.mode {
        LabelMode::Measured { reps, passes, min_margin } => {
            format!("measured (reps {reps}, passes {passes}, margin {:.1}%)", min_margin * 100.0)
        }
        LabelMode::Analytic { .. } => "analytic".to_string(),
    };
    println!(
        "training on the {} grid, {labels} labels, seed {} ...",
        if quick { "quick" } else { "full" },
        cfg.seed
    );
    let start = Instant::now();
    let out = train_selector(&cfg);
    let secs = start.elapsed().as_secs_f64();
    let m = &out.model.meta;
    println!(
        "labelled {} train + {} holdout matrices in {secs:.1}s \
         ({} measured, {} analytic fallback, {} analytic)",
        m.samples,
        out.holdout.len(),
        m.measured,
        m.analytic_fallback,
        m.analytic
    );
    println!(
        "tree: depth {}, {} leaves, predicts {:?}",
        out.model.tree.depth(),
        out.model.tree.n_leaves(),
        out.model.tree.predictable_formats().iter().map(|f| f.name()).collect::<Vec<_>>()
    );

    let grade = |name: &str, samples: &[dls::learn::LabelledSample]| {
        let picks: Vec<Format> = samples.iter().map(|s| out.model.tree.predict(&s.x)).collect();
        dls::learn::evaluate(name, samples, &picks)
    };
    for summary in [grade("train", &out.train), grade("holdout", &out.holdout)] {
        println!(
            "{:<8} agreement {:>5.1}%  mean regret {:>6.2}%  max regret {:>6.2}% (n={})",
            summary.name,
            summary.agreement * 100.0,
            summary.mean_regret * 100.0,
            summary.max_regret * 100.0,
            summary.n
        );
    }
    out.model.save_file(&out_path).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("model written to {out_path}");
    println!("use it with: dls schedule @adult learned:{out_path}");
    Ok(())
}

fn cmd_selector_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("selector-info: missing model path")?;
    let model = TrainedModel::load_file(path)?;
    let m = &model.meta;
    // The raw document carries the format version the loader validated.
    let doc_version = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| dls::core::json::parse(&text).ok())
        .and_then(|doc| doc.get("version").and_then(|v| v.as_u64()))
        .unwrap_or(0);
    println!(
        "model: {path} (document v{doc_version}, this build reads v{}..=v{})",
        dls::core::MIN_MODEL_VERSION,
        dls::core::MODEL_VERSION
    );
    println!(
        "trained on {} samples (grid={}, seed={}): {} measured, {} analytic fallback, {} analytic",
        m.samples, m.grid, m.seed, m.measured, m.analytic_fallback, m.analytic
    );
    let p = model.tree.params();
    println!(
        "tree: depth {} (max {}), {} leaves, min_leaf {}, min_gain {:e}",
        model.tree.depth(),
        p.max_depth,
        model.tree.n_leaves(),
        p.min_leaf,
        p.min_gain
    );
    println!(
        "predictable formats: {}",
        model.tree.predictable_formats().iter().map(|f| f.name()).collect::<Vec<_>>().join(", ")
    );
    match &model.blocks {
        Some(blocks) => {
            println!("\nblock trees (learned tuned block per format):");
            for (fmt, tree) in &blocks.trees {
                println!("  {:<5} depth {}, {} leaves", fmt.name(), tree.depth(), tree.n_leaves());
            }
        }
        None => println!("block trees: none (pre-calibration model; kernels fall back to B=32)"),
    }
    println!("\nsplits per feature:");
    let counts = model.tree.feature_split_counts();
    let mut ranked: Vec<(usize, &str)> =
        counts.iter().copied().zip(dls::core::FEATURE_NAMES).collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    for (count, name) in ranked {
        if count > 0 {
            println!("  {name:<16} {count}");
        }
    }
    Ok(())
}

fn cmd_scale(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("scale: missing input file")?;
    let output = args.get(1).ok_or("scale: missing output file")?;
    let range = match args.get(2).map(String::as_str) {
        None | Some("01") => ScaleRange::ZeroOne,
        Some("pm1") => ScaleRange::SymmetricOne,
        Some(r) => return Err(format!("unknown range: {r} (use 01 or pm1)")),
    };
    let file = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
    let ds = dls_data::libsvm::read(BufReader::new(file)).map_err(|e| e.to_string())?;
    let scaler = FeatureScaler::fit(&ds.matrix, range);
    let scaled = scaler.transform(&ds.matrix);
    let mut out = std::fs::File::create(output).map_err(|e| format!("create {output}: {e}"))?;
    dls_data::libsvm::write(&mut out, &scaled, &ds.labels).map_err(|e| e.to_string())?;
    println!("scaled {} rows x {} cols -> {output}", scaled.rows(), scaled.cols());
    Ok(())
}

//! End-to-end tests of the `dls` command-line binary: every subcommand is
//! exercised against synthetic twins and round-tripped files.

use std::process::Command;

fn dls() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dls"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = dls().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage() {
    let (ok, _, err) = run(&[]);
    assert!(!ok);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn features_reports_the_nine_parameters() {
    let (ok, out, err) = run(&["features", "@trefethen"]);
    assert!(ok, "{err}");
    for key in ["M=", "N=", "nnz=", "ndig=", "vdim="] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
    assert!(out.contains("DIA padding"));
}

#[test]
fn schedule_picks_dia_for_trefethen() {
    let (ok, out, _) = run(&["schedule", "@trefethen"]);
    assert!(ok);
    assert!(out.contains("selected DIA"), "{out}");
    // Strategy variants all run.
    for strat in ["rule", "rule-host", "cost", "empirical", "CSR"] {
        let (ok, out, err) = run(&["schedule", "@trefethen", strat]);
        assert!(ok, "{strat}: {err}");
        assert!(out.contains("selected"), "{strat}: {out}");
    }
}

#[test]
fn schedule_rejects_unknown_strategy() {
    let (ok, _, err) = run(&["schedule", "@adult", "quantum"]);
    assert!(!ok);
    assert!(err.contains("unknown strategy"), "{err}");
}

/// `schedule` prints a static, up-front report. A flag it does not know
/// (here the retired mid-training re-scheduling switch) or an extra
/// argument is a usage error that names it, not a report that ignores it.
#[test]
fn schedule_refuses_unknown_flags_and_extra_arguments() {
    let (ok, out, err) = run(&["schedule", "@adult", "dia", "--reactive"]);
    assert!(!ok, "--reactive must not print a report");
    assert!(err.contains("unknown flag --reactive"), "{err}");
    assert!(!out.contains("selected"), "{out}");
    let (ok, _, err) = run(&["schedule", "@adult", "dia", "extra"]);
    assert!(!ok, "an extra argument must not print a report");
    assert!(err.contains("unexpected argument extra"), "{err}");
}

/// `dls stats` prints one `format,calls,nanos,bytes` row per format from
/// the run's counter snapshot; the rows account for every SMSV call the
/// solver reports.
#[test]
fn stats_csv_rows_sum_to_the_smsv_count() {
    let (ok, out, err) = run(&["stats", "@trefethen", "rule", "50"]);
    assert!(ok, "{err}");
    let smsv: u64 = out
        .lines()
        .find_map(|l| l.strip_suffix(" SMSV calls").and_then(|l| l.rsplit(' ').next()))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no SMSV count in {out}"));
    assert!(smsv > 0, "{out}");
    let rows: Vec<&str> = out
        .lines()
        .skip_while(|l| *l != "format,calls,nanos,bytes")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert_eq!(rows.len(), 6, "one row per format: {out}");
    let calls: u64 =
        rows.iter().map(|r| r.split(',').nth(1).unwrap().parse::<u64>().unwrap()).sum();
    assert_eq!(calls, smsv, "{out}");
    assert!(rows.iter().any(|r| r.starts_with("DIA,")), "{out}");
}

/// Like `schedule`, `stats` names a flag, an extra argument or a bad
/// iteration count instead of printing a run that ignored it.
#[test]
fn stats_refuses_unknown_flags_and_extra_arguments() {
    let (ok, out, err) = run(&["stats", "@adult", "rule", "20", "--reactive"]);
    assert!(!ok, "--reactive must not print a run");
    assert!(err.contains("unknown flag --reactive"), "{err}");
    assert!(!out.contains("SMSV calls"), "{out}");
    let (ok, _, err) = run(&["stats", "@adult", "rule", "20", "extra"]);
    assert!(!ok, "an extra argument must not print a run");
    assert!(err.contains("unexpected argument extra"), "{err}");
    let (ok, _, err) = run(&["stats", "@adult", "rule", "many"]);
    assert!(!ok, "a bad iteration count must not fall back to the default");
    assert!(err.contains("bad iteration count many"), "{err}");
}

#[test]
fn train_reports_convergence() {
    let (ok, out, err) = run(&["train", "@trefethen"]);
    assert!(ok, "{err}");
    assert!(out.contains("scheduled format"), "{out}");
    assert!(out.contains("training accuracy"), "{out}");
}

#[test]
fn bench_lists_all_five_formats() {
    let (ok, out, _) = run(&["bench", "@trefethen", "5"]);
    assert!(ok);
    for fmt in ["ELL", "CSR", "COO", "DEN", "DIA"] {
        assert!(out.contains(fmt), "missing {fmt} in {out}");
    }
}

#[test]
fn scale_round_trips_a_file() {
    let dir = std::env::temp_dir();
    let input = dir.join("dls_cli_scale_in.libsvm");
    let output = dir.join("dls_cli_scale_out.libsvm");
    std::fs::write(&input, "1 1:2 2:10\n-1 1:6 2:0.5\n").unwrap();
    let (ok, out, err) = run(&["scale", input.to_str().unwrap(), output.to_str().unwrap(), "01"]);
    assert!(ok, "{err}");
    assert!(out.contains("scaled 2 rows"), "{out}");
    let scaled = std::fs::read_to_string(&output).unwrap();
    // Column maxima map to 1.
    assert!(scaled.lines().next().unwrap().contains("2:1"), "{scaled}");
    let _ = std::fs::remove_file(input);
    let _ = std::fs::remove_file(output);
}

#[test]
fn unknown_synthetic_dataset_fails_cleanly() {
    let (ok, _, err) = run(&["features", "@nope"]);
    assert!(!ok);
    assert!(err.contains("unknown synthetic dataset"), "{err}");
}

/// A zero time budget would close every connection after its first quiet
/// tick: refused as a usage error, before any model is trained.
#[test]
fn serve_rejects_zero_timeouts() {
    for flag in ["--read-timeout-ms", "--write-timeout-ms", "--idle-timeout-ms"] {
        let (ok, out, err) = run(&["serve", "127.0.0.1:0", flag, "0"]);
        assert!(!ok, "{flag} 0 must not serve");
        assert!(err.contains(flag) && err.contains("greater than zero"), "{err}");
        assert!(!out.contains("training"), "refused before training: {out}");
    }
}

/// A flag `serve` does not know is a usage error that names it, before
/// any model is trained: ignoring it would serve without what it asked
/// for (here, a front end that no longer exists).
#[test]
fn serve_refuses_unknown_flags() {
    let (ok, out, err) = run(&["serve", "127.0.0.1:0", "--frontend", "reactor"]);
    assert!(!ok, "an unknown flag must not serve");
    assert!(err.contains("unknown flag --frontend"), "{err}");
    assert!(!out.contains("training"), "refused before training: {out}");
}

/// `--online` and `--retrain-ms` are refused by name, like any flag
/// `serve` does not know, before any model is trained.
#[test]
fn serve_refuses_the_retired_online_flags() {
    for args in [&["--online"][..], &["--retrain-ms", "500"][..]] {
        let argv: Vec<&str> = ["serve", "127.0.0.1:0"].iter().chain(args).copied().collect();
        let (ok, out, err) = run(&argv);
        assert!(!ok, "{args:?} must not serve");
        assert!(err.contains(&format!("unknown flag {}", args[0])), "{err}");
        assert!(!out.contains("training"), "refused before training: {out}");
    }
}

/// A NaN or ±∞ feature value used to "converge" to a garbage model and
/// exit 0: training refuses the file and names the row (0-based).
#[test]
fn train_refuses_non_finite_features() {
    for bad in ["inf", "nan"] {
        let path = std::env::temp_dir().join(format!("dls_cli_train_{bad}.libsvm"));
        let rows = format!("+1 1:0.5 2:1\n-1 1:-0.5\n-1 1:{bad} 2:0.3\n+1 2:0.8\n-1 1:-1\n");
        std::fs::write(&path, rows).unwrap();
        let (ok, out, err) = run(&["train", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert!(!ok, "{bad}: {out}");
        assert!(err.contains("row 2"), "{bad}: {err}");
    }
}

//! Self-test for the bench regression gate: identical artifacts must
//! pass, an injected 2x slowdown must fail with a delta table, a broken
//! hardened-vs-permissive (or serve backpressure) invariant must fail
//! even when every baseline metric is within tolerance, and `--bless`
//! must record baselines that a subsequent check accepts.

use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::bench_check::{bless, check, CheckOptions, ARTIFACTS};

const BASELINE_SPECTRUM: &str = include_str!("../fixtures/bench/baseline/BENCH_spectrum.json");
const BASELINE_INGEST: &str = include_str!("../fixtures/bench/baseline/BENCH_ingest.json");
const BASELINE_ROBUSTNESS: &str = include_str!("../fixtures/bench/baseline/BENCH_robustness.json");
const BASELINE_OBS: &str = include_str!("../fixtures/bench/baseline/BENCH_obs.json");
const BASELINE_ESTIMATOR: &str = include_str!("../fixtures/bench/baseline/BENCH_estimator.json");
const BASELINE_SERVE: &str = include_str!("../fixtures/bench/baseline/BENCH_serve.json");
const SLOW_SPECTRUM: &str = include_str!("../fixtures/bench/slow/BENCH_spectrum.json");
const INVERTED_ROBUSTNESS: &str = include_str!("../fixtures/bench/inverted/BENCH_robustness.json");
const INVERTED_SERVE: &str = include_str!("../fixtures/bench/inverted/BENCH_serve.json");

/// Stage a directory holding the six artifacts with the given contents
/// (the obs, estimator, and serve artifacts are never the ones under
/// test, so they stay baseline).
fn stage(tag: &str, spectrum: &str, ingest: &str, robustness: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-benchcheck-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create staging dir");
    std::fs::write(dir.join("BENCH_spectrum.json"), spectrum).expect("write spectrum");
    std::fs::write(dir.join("BENCH_ingest.json"), ingest).expect("write ingest");
    std::fs::write(dir.join("BENCH_robustness.json"), robustness).expect("write robustness");
    std::fs::write(dir.join("BENCH_obs.json"), BASELINE_OBS).expect("write obs");
    std::fs::write(dir.join("BENCH_estimator.json"), BASELINE_ESTIMATOR).expect("write estimator");
    std::fs::write(dir.join("BENCH_serve.json"), BASELINE_SERVE).expect("write serve");
    dir
}

fn opts(baselines: &Path, current: &Path) -> CheckOptions {
    CheckOptions {
        baselines: baselines.to_path_buf(),
        current: current.to_path_buf(),
        tolerance: 0.25,
    }
}

#[test]
fn identical_artifacts_pass() {
    let base = stage(
        "idbase",
        BASELINE_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );
    let cur = stage(
        "idcur",
        BASELINE_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );
    let report = check(&opts(&base, &cur)).expect("check runs");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&cur).ok();
    assert!(
        report.passed(),
        "identical artifacts must pass:\n{report:?}"
    );
    // One row per gated metric per case: 2 spectrum + 4 ingest +
    // 2 robustness + 6 obs + 6 estimator + 3 serve.
    assert_eq!(report.rows.len(), 23);
}

#[test]
fn two_x_slowdown_fails_with_delta_table() {
    let base = stage(
        "slowbase",
        BASELINE_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );
    let cur = stage(
        "slowcur",
        SLOW_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );
    let report = check(&opts(&base, &cur)).expect("check runs");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&cur).ok();
    assert!(!report.passed(), "a 2x slowdown must fail");
    let regressed: Vec<_> = report.rows.iter().filter(|r| r.regressed).collect();
    assert_eq!(
        regressed.len(),
        2,
        "both spectrum cases regressed: {report:?}"
    );
    assert!(regressed.iter().all(|r| r.metric == "mean_ns_fast"));
    let md = report.markdown();
    assert!(
        md.contains("REGRESSED"),
        "table flags the regression:\n{md}"
    );
    assert!(md.contains("+100.0%"), "table carries the delta:\n{md}");
}

#[test]
fn broken_invariant_fails_despite_matching_baseline() {
    // The inverted artifact is its own baseline, so every gated metric is
    // within tolerance — only the hardened <= permissive invariant trips.
    let base = stage(
        "invbase",
        BASELINE_SPECTRUM,
        BASELINE_INGEST,
        INVERTED_ROBUSTNESS,
    );
    let cur = stage(
        "invcur",
        BASELINE_SPECTRUM,
        BASELINE_INGEST,
        INVERTED_ROBUSTNESS,
    );
    let report = check(&opts(&base, &cur)).expect("check runs");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&cur).ok();
    assert!(report.rows.iter().all(|r| !r.regressed));
    assert!(!report.passed(), "invariant break must fail the gate");
    assert!(
        report.problems.iter().any(|p| p.contains("invariant")),
        "{report:?}"
    );
}

#[test]
fn broken_serve_invariant_fails_despite_matching_baseline() {
    // Same trick as the robustness test: the inverted serve artifact is
    // its own baseline, so every `shed_rate` row matches — only the hard
    // backpressure invariants (rated must shed nothing, overload_2x must
    // actually shed) can trip the gate.
    let stage_serve = |tag: &str| {
        let dir = stage(tag, BASELINE_SPECTRUM, BASELINE_INGEST, BASELINE_ROBUSTNESS);
        std::fs::write(dir.join("BENCH_serve.json"), INVERTED_SERVE).expect("write serve");
        dir
    };
    let base = stage_serve("srvbase");
    let cur = stage_serve("srvcur");
    let report = check(&opts(&base, &cur)).expect("check runs");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&cur).ok();
    assert!(report.rows.iter().all(|r| !r.regressed));
    assert!(!report.passed(), "serve invariant break must fail the gate");
    assert!(
        report.problems.iter().any(|p| p.contains("`rated` shed")),
        "{report:?}"
    );
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.contains("`overload_2x` shed nothing")),
        "{report:?}"
    );
}

#[test]
fn missing_baseline_suggests_bless_and_bless_fixes_it() {
    let base = std::env::temp_dir().join(format!("xtask-benchcheck-nobase-{}", std::process::id()));
    let cur = stage(
        "blesscur",
        BASELINE_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );
    let o = opts(&base, &cur);
    let err = check(&o).expect_err("missing baseline must error");
    assert!(err.to_string().contains("--bless"), "hint missing: {err}");

    let written = bless(&o).expect("bless records baselines");
    assert_eq!(written.len(), ARTIFACTS.len());
    let report = check(&o).expect("check runs after bless");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&cur).ok();
    assert!(report.passed(), "freshly blessed baselines must pass");
}

#[test]
fn binary_gates_and_reports() {
    let base = stage(
        "binbase",
        BASELINE_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );
    let slow = stage(
        "binslow",
        SLOW_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );

    let run = |current: &Path| {
        Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["bench-check", "--baselines"])
            .arg(&base)
            .arg("--current")
            .arg(current)
            .output()
            .expect("run xtask binary")
    };

    let clean = run(&base);
    assert!(
        clean.status.success(),
        "identical artifacts must exit zero: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let slow_out = run(&slow);
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&slow).ok();
    assert!(!slow_out.status.success(), "2x slowdown must exit non-zero");
    let stdout = String::from_utf8_lossy(&slow_out.stdout);
    assert!(
        stdout.contains("| BENCH_spectrum.json |") && stdout.contains("REGRESSED"),
        "binary must print the markdown delta table, got:\n{stdout}"
    );
}

#[test]
fn wider_tolerance_admits_the_slowdown() {
    let base = stage(
        "tolbase",
        BASELINE_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );
    let slow = stage(
        "tolslow",
        SLOW_SPECTRUM,
        BASELINE_INGEST,
        BASELINE_ROBUSTNESS,
    );
    let mut o = opts(&base, &slow);
    o.tolerance = 1.5;
    let report = check(&o).expect("check runs");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&slow).ok();
    assert!(
        report.passed(),
        "+100% is inside a 150% tolerance: {report:?}"
    );
}

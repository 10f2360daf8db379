//! Entry point for `cargo xtask <command>`.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint [--root <dir>] [--json] [--json-out <file>]");
    eprintln!("       cargo xtask golden [--bless]");
    eprintln!(
        "       cargo xtask bench-check [--baselines <dir>] [--current <dir>] \
         [--tolerance <frac>] [--bless]"
    );
    eprintln!();
    eprintln!("commands:");
    eprintln!("  lint         run the domain-aware static-analysis gate (see docs/LINTS.md)");
    eprintln!("               --json prints a tagspin-lint/v1 report on stdout;");
    eprintln!("               --json-out <file> writes it to a file as well");
    eprintln!("  golden       run the golden-trace suite; --bless rewrites the fixtures");
    eprintln!("               under tests/golden/ that are missing or fail their test");
    eprintln!("  bench-check  compare BENCH_*.json against bench/baselines/; --bless records");
    eprintln!("               the current artifacts as the new baselines");
    ExitCode::from(2)
}

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

/// Run (or re-bless) the golden fixtures by driving the root package's
/// `golden_traces`, `golden_metrics` and `golden_incremental` integration
/// tests with `GOLDEN_BLESS` set. Under `--bless` each test rewrites its
/// fixture only when the fixture is missing or fails the test's own
/// comparison.
fn golden(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut bless = false;
    for arg in args.by_ref() {
        match arg.as_str() {
            "--bless" => bless = true,
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.args([
        "test",
        "-p",
        "tagspin",
        "--test",
        "golden_traces",
        "--test",
        "golden_metrics",
        "--test",
        "golden_incremental",
    ])
    .current_dir(workspace_root())
    .env("GOLDEN_BLESS", if bless { "1" } else { "0" });
    match cmd.status() {
        Ok(status) if status.success() => {
            if bless {
                println!("xtask golden: missing or failing fixtures rewritten under tests/golden/");
            } else {
                println!("xtask golden: fixtures match");
            }
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask golden: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `bench-check` subcommand: benchmark regression gate (see
/// `xtask::bench_check`). Exit 0 = within tolerance, 1 = regression or
/// machinery failure, 2 = bad usage.
fn bench_check_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let root = workspace_root();
    let mut opts = xtask::bench_check::CheckOptions {
        baselines: root.join("bench/baselines"),
        current: root.clone(),
        tolerance: 0.25,
    };
    let mut bless = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baselines" => {
                let Some(dir) = args.next() else {
                    eprintln!("--baselines requires a directory argument");
                    return usage();
                };
                opts.baselines = PathBuf::from(dir);
            }
            "--current" => {
                let Some(dir) = args.next() else {
                    eprintln!("--current requires a directory argument");
                    return usage();
                };
                opts.current = PathBuf::from(dir);
            }
            "--tolerance" => {
                let Some(frac) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--tolerance requires a numeric fraction (e.g. 0.25)");
                    return usage();
                };
                if !(0.0..10.0).contains(&frac) {
                    eprintln!("--tolerance must be in [0, 10)");
                    return usage();
                }
                opts.tolerance = frac;
            }
            "--bless" => bless = true,
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    if bless {
        return match xtask::bench_check::bless(&opts) {
            Ok(written) => {
                for path in written {
                    println!("xtask bench-check: blessed {}", path.display());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("xtask bench-check: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match xtask::bench_check::check(&opts) {
        Ok(report) => {
            print!("{}", report.markdown());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask bench-check: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    match cmd.as_str() {
        "lint" => {}
        "golden" => return golden(args),
        "bench-check" => return bench_check_cmd(args),
        other => {
            eprintln!("unknown command `{other}`");
            return usage();
        }
    }

    let mut root = workspace_root();
    let mut json_stdout = false;
    let mut json_out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("--root requires a directory argument");
                    return usage();
                };
                root = PathBuf::from(dir);
            }
            "--json" => json_stdout = true,
            "--json-out" => {
                let Some(path) = args.next() else {
                    eprintln!("--json-out requires a file argument");
                    return usage();
                };
                json_out = Some(PathBuf::from(path));
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let findings = match xtask::lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "xtask lint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };

    if json_stdout || json_out.is_some() {
        let doc = xtask::json::to_string(&xtask::findings_to_json(&findings));
        if let Some(path) = &json_out {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("xtask lint: failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        if json_stdout {
            print!("{doc}");
        }
    }

    let errors: Vec<_> = findings
        .iter()
        .filter(|f| f.rule.severity() == xtask::Severity::Error)
        .collect();
    let warns: Vec<_> = findings
        .iter()
        .filter(|f| f.rule.severity() == xtask::Severity::Warn)
        .collect();

    if !json_stdout {
        for f in &findings {
            println!("{f}");
        }
    }

    // Warn-level rules (L9) gate against a tracked count baseline: the
    // count may shrink freely but growing it fails the gate. A missing
    // baseline file means warn-only.
    let warn_budget = read_warn_baseline(&root);
    let warn_over = warn_budget.is_some_and(|budget| warns.len() > budget);

    if errors.is_empty() && !warn_over {
        if findings.is_empty() {
            // With --json the document owns stdout; keep it parseable.
            if json_stdout {
                eprintln!("xtask lint: clean (rules L1-L9, root {})", root.display());
            } else {
                println!("xtask lint: clean (rules L1-L9, root {})", root.display());
            }
        } else {
            eprintln!(
                "xtask lint: {} warning(s), within baseline ({})",
                warns.len(),
                warn_budget.map_or("none tracked".to_string(), |b| b.to_string())
            );
        }
        return ExitCode::SUCCESS;
    }

    let mut by_rule: Vec<(&str, usize)> = Vec::new();
    for f in &findings {
        match by_rule.iter_mut().find(|(name, _)| *name == f.rule.name()) {
            Some((_, n)) => *n += 1,
            None => by_rule.push((f.rule.name(), 1)),
        }
    }
    let summary: Vec<String> = by_rule
        .iter()
        .map(|(name, n)| format!("{n} {name}"))
        .collect();
    eprintln!(
        "xtask lint: {} error(s), {} warning(s) ({})",
        errors.len(),
        warns.len(),
        summary.join(", ")
    );
    if warn_over {
        eprintln!(
            "xtask lint: warn count {} exceeds the tracked baseline {} \
             (crates/xtask/lint-baseline.json)",
            warns.len(),
            warn_budget.unwrap_or(0)
        );
    }
    ExitCode::FAILURE
}

/// Read the tracked warn-count baseline (`crates/xtask/lint-baseline.json`,
/// schema `tagspin-lint-baseline/v1`). `None` = no baseline tracked.
fn read_warn_baseline(root: &std::path::Path) -> Option<usize> {
    let text = std::fs::read_to_string(root.join("crates/xtask/lint-baseline.json")).ok()?;
    let doc = xtask::json::parse(&text).ok()?;
    if doc.get("schema").and_then(|s| s.as_str()) != Some("tagspin-lint-baseline/v1") {
        return None;
    }
    let n = doc.get("warn_budget").and_then(|n| n.as_num())?;
    if n.is_finite() && n >= 0.0 {
        Some(n as usize)
    } else {
        None
    }
}

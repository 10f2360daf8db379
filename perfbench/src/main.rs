//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_poll|serve_burst|batch_3d> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the real public surfaces (the `tagspin-serve`
//! daemon over loopback TCP/HTTP, `LocalizationServer` in-process),
//! checks its outputs, and prints every metric by name with its unit. The
//! last line of standard output is the JSON result; a run whose outputs
//! fail a check prints `"correct": false` without numbers and exits 1.
//! See `perfbench/README.md` for the workloads and metrics.

// A benchmark harness reads the clock: the workspace rule that keeps
// `Instant::now` out of the pipeline does not apply here.
#![allow(clippy::disallowed_methods)]

mod batch_3d;
mod layers;
mod report;
mod rig;
mod schedule;
mod serve;
mod serve_burst;
mod serve_poll;
mod stats;
mod trace;

use report::{Outcome, Provenance, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve_poll", "serve_burst", "batch_3d"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// How long one pass measures.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Why a run produced no result.
#[derive(Debug)]
pub enum Failure {
    /// The program's outputs failed a correctness check.
    Check {
        /// Every violation found.
        reasons: Vec<String>,
        /// Operations attempted before the check.
        attempted: u64,
        /// Operations that failed.
        failed: u64,
    },
    /// The harness could not run the workload as specified.
    Setup(String),
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

/// Parse `--workload W --seed N --seconds S --trace 0|1` (all required).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space inside the checkout: the cargo target directory when set
/// (a benchmark runner may point it into the checkout), else
/// `perfbench/target`.
fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-work")
}

fn run(args: &Args) -> Result<Outcome, Failure> {
    let work = work_dir();
    std::fs::create_dir_all(&work)
        .map_err(|e| Failure::Setup(format!("work directory {}: {e}", work.display())))?;
    match args.workload.as_str() {
        "serve_poll" => serve_poll::run(args, &work),
        "serve_burst" => serve_burst::run(args, &work),
        "batch_3d" => batch_3d::run(args, &work),
        other => Err(Failure::Setup(format!("unknown workload {other}"))),
    }
}

/// The process exit code and result line for a run's outcome.
pub fn finish(args: &Args, result: Result<Outcome, Failure>) -> (ExitCode, Vec<String>) {
    let inventory: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result {
        Ok(outcome) => match report::result_line(&outcome, inventory) {
            Ok(line) => {
                let mut lines = outcome.notes.clone();
                lines.push(format!(
                    "{} metrics:",
                    if args.trace {
                        "per-layer"
                    } else {
                        "end-to-end"
                    }
                ));
                lines.extend(report::metric_lines(&outcome, inventory));
                lines.push(line);
                (ExitCode::SUCCESS, lines)
            }
            Err(e) => (ExitCode::from(2), vec![format!("error: {e}")]),
        },
        Err(Failure::Check {
            reasons,
            attempted,
            failed,
        }) => {
            let mut lines: Vec<String> = reasons
                .iter()
                .map(|r| format!("check failed: {r}"))
                .collect();
            lines.push(report::failed_line(attempted, failed));
            (ExitCode::from(1), lines)
        }
        Err(Failure::Setup(e)) => (ExitCode::from(2), vec![format!("error: {e}")]),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        Provenance::collect().line(&args.workload, args.seed, args.seconds, args.trace)
    );
    let (code, lines) = finish(&args, run(&args));
    for line in lines {
        if line.starts_with("error: ") || line.starts_with("check failed: ") {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = parse_args(&argv(
            "--workload serve_poll --seed 7 --seconds 25 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "serve_poll".into(),
                seed: 7,
                seconds: 25,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload batch_3d --seed x --seconds 1 --trace 0",
            "--workload batch_3d --seed 1 --seconds 0 --trace 0",
            "--workload batch_3d --seed 1 --seconds 1 --trace 2",
            "--workload batch_3d --seed 1 --seconds 1",
            "--workload batch_3d --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_miscounted_stream_fails_the_run_without_numbers() {
        // A daemon that decoded one frame fewer than the harness sent, and
        // whose books lose a report, is caught by the serve checks...
        let reasons = serve::accounting_violations(100, 99.0, 0.0, 4_800.0, 4_799.0, 0.0);
        assert_eq!(reasons.len(), 2, "{reasons:?}");
        // ...and a failed check exits non-zero with `correct: false` and no
        // metric values as the last line.
        let args = parse_args(&argv(
            "--workload serve_poll --seed 1 --seconds 25 --trace 0",
        ))
        .expect("valid");
        let (code, lines) = finish(
            &args,
            Err(Failure::Check {
                reasons,
                attempted: 4_800,
                failed: 0,
            }),
        );
        assert_eq!(code, ExitCode::from(1));
        let last = lines.last().expect("a result line");
        assert!(last.starts_with("{\"correct\": false"), "{last}");
        assert!(last.ends_with("\"metrics\": {}}"), "{last}");
    }

    #[test]
    fn a_complete_outcome_prints_its_metrics_last() {
        let args =
            parse_args(&argv("--workload batch_3d --seed 1 --seconds 5 --trace 0")).expect("valid");
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let (code, lines) = finish(&args, Ok(o));
        assert_eq!(code, ExitCode::SUCCESS);
        assert!(lines
            .iter()
            .any(|l| l.contains("err_cm") && l.contains(" cm")));
        assert!(lines
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\": true")));
    }
}

//! Regenerate every figure and table of the paper's evaluation.
//!
//! ```text
//! reproduce               # all experiments at full (paper) fidelity
//! reproduce --quick       # all experiments at CI fidelity
//! reproduce fig10a fig6   # a subset
//! reproduce --csv out/    # also write each report as CSV under out/
//! reproduce --trials 25   # override the per-configuration trial count
//! reproduce --list        # show the registry
//! reproduce --bench <name> [path]   # one artifact bench instead: spectrum,
//!                                   # ingest, robustness, obs, estimator
//!                                   # or serve; JSON to path
//!                                   # (default BENCH_<name>.json)
//! reproduce --metrics-out <path>    # with --bench obs: also export the
//!                                   # metrics arm's registry as
//!                                   # tagspin-metrics/v1 JSON
//! ```
//!
//! Output goes to stdout in the `Report` text format; a copy of each full
//! experiment run is written to `reproduce_csv/reproduce_<fidelity>.log`
//! (run artifacts belong under the output directory, not the repo root).
//! EXPERIMENTS.md records a full run.

// The reproduction driver reports per-experiment wall time; like the bench
// crate proper, its clock reads are the product, not pipeline overhead.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::time::Instant;
use tagspin_sim::experiments::{registry, run, Fidelity};
use xtask::bench_check::BenchDoc;

/// `reproduce --bench <name> [path]`: run one artifact bench, print its
/// report, and write its artifact to `path` (default `BENCH_<name>.json`).
/// Exits 1 on an unknown name, a failed case or a failed write.
fn bench(name: &str, path: Option<PathBuf>, quick: bool, args: &[String]) {
    let Some((bench, spec)) = tagspin_bench::find(name) else {
        let names: Vec<&str> = tagspin_bench::BENCHES.iter().map(|b| b.name).collect();
        eprintln!(
            "error: unknown bench `{name}`; expected one of {}",
            names.join(", ")
        );
        std::process::exit(1);
    };
    let path = path.unwrap_or_else(|| PathBuf::from(spec.file));
    println!("{}:", bench.title);
    let (report, cases) = match (bench.run)(quick) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {name} bench {e}");
            std::process::exit(1);
        }
    };
    println!("{report}");
    let doc = BenchDoc {
        schema: spec.schema.to_string(),
        cases,
    };
    write_or_exit(&path, &doc.to_json());
    if bench.name == "obs" {
        if let Some(metrics_path) = args
            .iter()
            .position(|a| a == "--metrics-out")
            .and_then(|i| args.get(i + 1))
        {
            let registry = tagspin_bench::obs_bench::collect_metrics(quick);
            write_or_exit(&PathBuf::from(metrics_path), &registry.export_json());
        }
    }
}

/// Write `text` to `path` (creating its directory), or exit 1.
fn write_or_exit(path: &std::path::Path, text: &str) {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let written = dir
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let list = args.iter().any(|a| a == "--list");
    if let Some(i) = args.iter().position(|a| a == "--bench") {
        let name = args.get(i + 1).map_or("", String::as_str);
        let path = args.get(i + 2).filter(|a| !a.starts_with("--"));
        bench(name, path.map(PathBuf::from), quick, &args);
        return;
    }
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let trials_override: Option<usize> = args
        .iter()
        .position(|a| a == "--trials")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let mut skip_next = false;
    let ids: Vec<&String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--csv" || *a == "--trials" {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .collect();

    if list {
        println!("available experiments:");
        for (id, _) in registry() {
            println!("  {id}");
        }
        return;
    }

    let mut fidelity = if quick {
        Fidelity::quick()
    } else {
        Fidelity::full()
    };
    if let Some(trials) = trials_override {
        fidelity.trials = trials;
    }
    // Accumulate a copy of everything printed; the run log lands under the
    // CSV output directory instead of polluting the repo root.
    let mut log = String::new();
    let header = format!(
        "# Tagspin reproduction — fidelity: {} ({} trials/config, seed {:#x})\n",
        if quick { "quick" } else { "full" },
        fidelity.trials,
        fidelity.seed
    );
    println!("{header}");
    log.push_str(&header);
    log.push('\n');

    let selected: Vec<&'static str> = if ids.is_empty() {
        registry().iter().map(|(id, _)| *id).collect()
    } else {
        registry()
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| ids.iter().any(|want| want == id))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no matching experiments; try --list");
        std::process::exit(1);
    }

    let total = Instant::now();
    for id in selected {
        let t0 = Instant::now();
        let Some(report) = run(id, &fidelity) else {
            // Unreachable for ids filtered through the registry above, but
            // a skipped experiment beats a panic mid-run.
            eprintln!("warning: experiment {id} vanished from the registry; skipping");
            continue;
        };
        println!("{report}");
        log.push_str(&report.to_string());
        log.push('\n');
        if let Some(dir) = &csv_dir {
            if let Err(e) = report.write_csv(dir) {
                eprintln!("warning: csv export for {id} failed: {e}");
            }
        }
        let timing = format!("  [{} took {:.1} s]\n", id, t0.elapsed().as_secs_f64());
        println!("{timing}");
        log.push_str(&timing);
    }
    let footer = format!("total: {:.1} s", total.elapsed().as_secs_f64());
    println!("{footer}");
    log.push_str(&footer);
    log.push('\n');

    let log_dir = csv_dir.unwrap_or_else(|| PathBuf::from("reproduce_csv"));
    let log_path = log_dir.join(format!(
        "reproduce_{}.log",
        if quick { "quick" } else { "full" }
    ));
    if let Err(e) = std::fs::create_dir_all(&log_dir).and_then(|()| std::fs::write(&log_path, log))
    {
        eprintln!("warning: could not write {}: {e}", log_path.display());
    } else {
        println!("log written to {}", log_path.display());
    }
}

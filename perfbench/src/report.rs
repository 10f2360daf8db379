//! The result line, the metric inventory and run provenance.
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. An untraced run
//! carries every end-to-end metric of `BENCHMARK.json`; a traced run every
//! per-layer metric. Every line before it is for people.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("fix_p50_ms", "ms"),
    ("fix_p95_ms", "ms"),
    ("catchup_s", "s"),
    ("ingest_reports_per_s", "reports/s"),
    ("locate_s", "s"),
    ("err_cm", "cm"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("frame.decode_ns_per_report", "ns"),
    ("frame.errors", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed", "count"),
    ("serve.http_rtt_ms", "ms"),
    ("session.ingest_ns_per_report", "ns"),
    ("session.rejected.unknown_tag", "count"),
    ("session.rejected.null_epc", "count"),
    ("session.rejected.out_of_order", "count"),
    ("session.rejected.duplicate", "count"),
    ("session.accepted_frac", "ratio"),
    ("session.evicted", "count"),
    ("session.fix_ms_p50", "ms"),
    ("session.fix_ms_p95", "ms"),
    ("session.recompute_ms", "ms"),
    ("incremental.applied", "count"),
    ("incremental.downdated", "count"),
    ("incremental.reanchors", "count"),
    ("incremental.fallbacks", "count"),
    ("incremental.ops_per_reanchor", "count"),
    ("engine.coarse_ms", "ms"),
    ("engine.fine_ms", "ms"),
    ("engine.peak_3d_ms", "ms"),
    ("engine.table_hits", "count"),
    ("engine.table_misses", "count"),
    ("estimator.refine_ms", "ms"),
    ("calib.fit_ms", "ms"),
    ("store.hits", "count"),
    ("store.invalid", "count"),
    ("store.boot_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.e2e_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
];

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: fix attempts, plus reports sent on serve
    /// workloads.
    pub attempted: u64,
    /// Operations that failed: fixes that got no fix, plus reports shed.
    pub failed: u64,
    /// Measured values by metric name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result (sample counts,
    /// lateness, the layer table).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Render the result line for `outcome`, checking that it carries exactly
/// the metrics of `inventory`, each a finite number.
///
/// # Errors
///
/// A missing, extra or non-finite metric.
pub fn result_line(outcome: &Outcome, inventory: &[(&str, &str)]) -> Result<String, String> {
    for name in outcome.metrics.keys() {
        if !inventory.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name} is not in the declared inventory"));
        }
    }
    let mut body = String::new();
    for (i, (name, unit)) in inventory.iter().enumerate() {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    ))
}

/// The result line of a run whose outputs failed a correctness check: no
/// numbers, and the process exits non-zero after printing it.
pub fn failed_line(attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    )
}

/// One `name = value unit` line per metric, in inventory order.
pub fn metric_lines(outcome: &Outcome, inventory: &[(&str, &str)]) -> Vec<String> {
    inventory
        .iter()
        .filter_map(|(name, unit)| {
            outcome
                .metrics
                .get(name)
                .map(|v| format!("  {name:<32} = {v:>14.4} {unit}"))
        })
        .collect()
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// The CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// The compiler that built this binary.
    pub rustc: String,
    /// The source revision, when the checkout is a git repository.
    pub git_rev: String,
    /// A fingerprint of the source files the binary was built from.
    pub sources: String,
}

impl Provenance {
    /// Collect provenance from the running host.
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Only a checkout's own `.git`: never a repository further up.
        let git_rev = std::path::Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "--short=12", "HEAD"])
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev,
            sources: env!("PERFBENCH_SOURCES").to_string(),
        }
    }

    /// One line naming the host, toolchain, revision, seed and run length.
    pub fn line(&self, workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
        format!(
            "provenance: workload={workload} seed={seed} seconds={seconds} trace={} nproc={} cpu=\"{}\" rustc=\"{}\" rev={} sources={}",
            u8::from(traced),
            self.nproc,
            self.cpu,
            self.rustc,
            self.git_rev,
            self.sources
        )
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtask::json::{self, Value};

    fn full(inventory: &[(&'static str, &str)]) -> Outcome {
        let mut o = Outcome {
            attempted: 203,
            failed: 0,
            ..Outcome::default()
        };
        for (i, (name, _)) in inventory.iter().enumerate() {
            o.set(name, 1.0 + i as f64 / 7.0);
        }
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&full(&END_TO_END), &END_TO_END).expect("complete outcome");
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("result line is JSON");
        let Value::Obj(top) = &doc else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Value::as_num), Some(203.0));
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
            assert!(m.get("value").and_then(Value::as_num).is_some());
        }
        // Every digit survives: the value round-trips exactly.
        let v = metrics
            .get("fix_p95_ms")
            .and_then(|m| m.get("value"))
            .and_then(Value::as_num);
        assert_eq!(v, Some(1.0 + 1.0 / 7.0));
    }

    #[test]
    fn incomplete_or_foreign_metrics_are_refused() {
        let mut o = full(&END_TO_END);
        o.metrics.remove("setup_s");
        assert!(result_line(&o, &END_TO_END).is_err());
        let mut o = full(&END_TO_END);
        o.set("frame.errors", 0.0);
        assert!(result_line(&o, &END_TO_END).is_err());
        let mut o = full(&END_TO_END);
        o.set("err_cm", f64::NAN);
        assert!(result_line(&o, &END_TO_END).is_err());
        assert!(result_line(&full(&PER_LAYER), &PER_LAYER).is_ok());
    }

    #[test]
    fn failed_line_carries_no_numbers() {
        let doc = json::parse(&failed_line(10, 2)).expect("JSON");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("metrics").map(|m| m.get("err_cm")), Some(None));
    }

    #[test]
    fn inventories_have_unique_well_formed_names() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric name");
        for name in all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }
}

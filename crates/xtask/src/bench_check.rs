//! `cargo xtask bench-check`: the benchmark regression gate.
//!
//! Compares freshly generated `BENCH_*.json` artifacts against the
//! committed baselines under `bench/baselines/` and fails when a
//! lower-is-better metric regresses past the configured tolerance
//! (default 25%, sized for quick-mode jitter on shared CI runners).
//!
//! Seven artifacts are checked, one per bench schema:
//!
//! | artifact               | schema                        | gated metrics |
//! |------------------------|-------------------------------|---------------|
//! | `BENCH_spectrum.json`  | `tagspin-bench-spectrum/v1`   | `mean_ns_fast` |
//! | `BENCH_ingest.json`    | `tagspin-bench-ingest/v1`     | `mean_ingest_ns`, `mean_fix_refresh_ns` |
//! | `BENCH_robustness.json`| `tagspin-bench-robustness/v1` | `median_err_on_m` |
//! | `BENCH_obs.json`       | `tagspin-bench-obs/v1`        | `mean_ingest_ns`, `min_fix_refresh_ns` |
//! | `BENCH_estimator.json` | `tagspin-bench-estimator/v1`  | `median_err_spectrum_m`, `median_err_ml_m`, `median_err_hybrid_m` |
//! | `BENCH_serve.json`     | `tagspin-bench-serve/v1`      | `shed_rate` |
//! | `BENCH_store.json`     | `tagspin-bench-store/v1`      | `fix_bits_mismatches` |
//!
//! The obs artifact measures the same streaming fixture under three
//! observer arms (disabled `NullObserver`, `MetricsObserver`,
//! `RecordingObserver`). Gating its per-arm means against the baseline
//! keeps both the disabled path *and* the enabled paths from silently
//! growing; the disabled-path-vs-pre-instrumentation claim is separately
//! covered by `BENCH_ingest.json`, whose baseline predates the
//! observability layer and is deliberately not re-blessed.
//!
//! The robustness artifact additionally carries a *hard invariant*,
//! independent of any baseline: at every fault rate of at least 10% the
//! hardened (quarantine-on) arm must not lose to the permissive arm on
//! median 2D error. That is the paper-level claim the fault-injection
//! subsystem exists to defend; a tolerance cannot excuse breaking it.
//!
//! The estimator artifact carries its own hard invariants, defending the
//! claims the ML backend shipped under: on the clean canonical scenario
//! (fault rate 0) the ML and hybrid arms must match or beat the spectrum
//! arm's median 2D error within a small quick-median jitter slack, and at
//! every fault rate of at least 10% they must degrade no worse than the
//! hardened spectrum arm within a slightly wider slack.
//!
//! The serve artifact's hard invariants defend the fleet daemon's
//! backpressure contract: every case must conserve its accounting
//! (`reports_accepted + reports_shed == reports_sent`); the `rated` case
//! (paced below the pinned service capacity) must shed nothing; the
//! `overload_2x` case must actually shed (proof the drive really
//! overloaded the queues instead of blocking) while its p99 fix latency
//! stays under a generous absolute bound — a full shard queue may delay
//! a query, never starve it.
//!
//! The store artifact's hard invariants defend the calibration store's
//! warm-boot contract: both the `cold` and `warm` cases must be present;
//! the warm boot must be *strictly faster* than the cold one (the warm
//! path's work — read, CRC, decode, spot-check — is a strict subset of
//! the cold path's trig build plus persist, so this holds on any
//! machine); the warm case must actually hit the store and the cold case
//! must actually populate it; and `fix_bits_mismatches` must be exactly
//! zero in every case — a store, cold or warm, must never change a fix.
//!
//! `--bless` copies the current artifacts over the baselines instead of
//! comparing, after validating that each parses with the expected schema.
//!
//! Every artifact is a [`BenchDoc`]: the bench crate writes it with
//! [`BenchDoc::to_json`] and the gate reads it back with [`parse_doc`],
//! both through the dependency-free dialect in [`crate::json`] rather than
//! a serde dependency. Each [`ARTIFACTS`] row names its bench, its gated
//! metrics and its hard invariant, if it has one.

use crate::json::{self, Value};
use std::fmt;
use std::path::{Path, PathBuf};

/// A bench's hard invariant: appends one problem per broken claim.
pub type Invariant = fn(&BenchDoc, &mut Vec<String>);

/// A bench artifact the gate knows how to compare.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactSpec {
    /// Bench name: `reproduce --bench <name>` writes this artifact.
    pub name: &'static str,
    /// File name (`BENCH_<name>.json`), identical under the baselines and
    /// current directories.
    pub file: &'static str,
    /// Required value of the document's `schema` field
    /// (`tagspin-bench-<name>/v1`).
    pub schema: &'static str,
    /// Lower-is-better numeric per-case metrics held to the baseline.
    pub metrics: &'static [&'static str],
    /// Checked on the current artifact, independent of any baseline.
    pub invariant: Option<Invariant>,
}

/// One [`ARTIFACTS`] row; the file and schema names follow from the bench
/// name.
macro_rules! artifact {
    ($name:literal, $metrics:expr, $invariant:expr) => {
        ArtifactSpec {
            name: $name,
            file: concat!("BENCH_", $name, ".json"),
            schema: concat!("tagspin-bench-", $name, "/v1"),
            metrics: $metrics,
            invariant: $invariant,
        }
    };
}

/// The seven gated artifacts.
pub const ARTIFACTS: [ArtifactSpec; 7] = [
    artifact!("spectrum", &["mean_ns_fast"], None),
    artifact!("ingest", &["mean_ingest_ns", "mean_fix_refresh_ns"], None),
    artifact!(
        "robustness",
        &["median_err_on_m"],
        Some(robustness_invariant)
    ),
    artifact!("obs", &["mean_ingest_ns", "min_fix_refresh_ns"], None),
    artifact!(
        "estimator",
        &[
            "median_err_spectrum_m",
            "median_err_ml_m",
            "median_err_hybrid_m",
        ],
        Some(estimator_invariant)
    ),
    artifact!("serve", &["shed_rate"], Some(serve_invariant)),
    artifact!("store", &["fix_bits_mismatches"], Some(store_invariant)),
];

/// How the gate runs: where to find files and how much slack to allow.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Directory holding the committed baseline artifacts.
    pub baselines: PathBuf,
    /// Directory holding the freshly generated artifacts.
    pub current: PathBuf,
    /// Relative slack on lower-is-better metrics (0.25 = +25% allowed).
    pub tolerance: f64,
}

/// One compared metric, ready for the delta table.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Artifact file name.
    pub artifact: &'static str,
    /// Case name inside the artifact.
    pub case: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Whether the current value regressed past tolerance.
    pub regressed: bool,
}

impl DeltaRow {
    /// Relative change, `+0.50` meaning 50% slower/worse.
    pub fn delta(&self) -> f64 {
        if self.baseline.abs() < f64::EPSILON {
            if self.current.abs() < f64::EPSILON {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.current / self.baseline - 1.0
        }
    }
}

/// Everything the gate concluded: the per-metric table plus hard failures
/// that are not tied to a single table row (missing files, bad schemas,
/// broken invariants, vanished cases).
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Per-metric comparisons, in artifact/case order.
    pub rows: Vec<DeltaRow>,
    /// Failures not expressible as a table row.
    pub problems: Vec<String>,
}

impl CheckReport {
    /// True when nothing regressed and no structural problem was found.
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| !r.regressed)
    }

    /// Render the delta table (and any problems) as GitHub-flavored
    /// markdown, suitable for `$GITHUB_STEP_SUMMARY`.
    pub fn markdown(&self) -> String {
        let mut out = String::from("### Bench regression gate\n\n");
        out.push_str("| artifact | case | metric | baseline | current | delta | status |\n");
        out.push_str("|---|---|---|---:|---:|---:|---|\n");
        for r in &self.rows {
            let delta = r.delta();
            let delta_str = if delta.is_infinite() {
                "inf".to_string()
            } else {
                format!("{:+.1}%", delta * 100.0)
            };
            out.push_str(&format!(
                "| {} | {} | {} | {:.4} | {:.4} | {} | {} |\n",
                r.artifact,
                r.case,
                r.metric,
                r.baseline,
                r.current,
                delta_str,
                if r.regressed { "REGRESSED" } else { "ok" },
            ));
        }
        if !self.problems.is_empty() {
            out.push_str("\n**Problems:**\n\n");
            for p in &self.problems {
                out.push_str(&format!("- {p}\n"));
            }
        }
        out.push_str(&format!(
            "\n{}\n",
            if self.passed() {
                "All benchmarks within tolerance."
            } else {
                "Benchmark regression detected."
            }
        ));
        out
    }
}

/// A failure of the gate machinery itself (as opposed to a regression,
/// which is a [`CheckReport`] outcome).
#[derive(Debug)]
pub enum BenchCheckError {
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A baseline artifact is missing entirely.
    MissingBaseline {
        /// The absent path.
        path: PathBuf,
    },
    /// An artifact failed to parse or had the wrong schema.
    Malformed {
        /// The offending path.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for BenchCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchCheckError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            BenchCheckError::MissingBaseline { path } => write!(
                f,
                "missing baseline {}; generate the artifacts and run \
                 `cargo xtask bench-check --bless` to record them",
                path.display()
            ),
            BenchCheckError::Malformed { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for BenchCheckError {}

/// One bench case: its name and every numeric field.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// The case's `name` field.
    pub name: String,
    /// All numeric fields, in document order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchCase {
    /// A case from its name and its numeric fields, in document order.
    pub fn new(name: impl Into<String>, metrics: &[(&str, f64)]) -> Self {
        BenchCase {
            name: name.into(),
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Look up a numeric field by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// A bench artifact: schema tag plus flat cases.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// The document's `schema` field.
    pub schema: String,
    /// The document's cases.
    pub cases: Vec<BenchCase>,
}

impl BenchDoc {
    /// Serialize through [`json::to_string`]; [`parse_doc`] reads it back.
    /// Each case is an object holding its `name`, then its metrics in
    /// order. A non-finite metric is written as `null`, so the gate reports
    /// the case as lacking it.
    pub fn to_json(&self) -> String {
        let cases = self
            .cases
            .iter()
            .map(|case| {
                let mut pairs = vec![("name".to_string(), Value::Str(case.name.clone()))];
                pairs.extend(
                    case.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v))),
                );
                Value::Obj(pairs)
            })
            .collect();
        json::to_string(&Value::Obj(vec![
            ("schema".to_string(), Value::Str(self.schema.clone())),
            ("cases".to_string(), Value::Arr(cases)),
        ]))
    }
}

/// Parse a bench artifact from its JSON text: every numeric case field
/// becomes a metric; `null` and non-numeric fields are skipped.
///
/// # Errors
///
/// A description of the first structural problem (bad JSON, a missing
/// `schema` or `cases`, a case that is not an object or has no `name`).
pub fn parse_doc(text: &str) -> Result<BenchDoc, String> {
    let root = json::parse(text)?;
    let schema = root
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing string `schema` field")?
        .to_string();
    let cases_val = root.get("cases").ok_or("missing `cases` field")?;
    let Value::Arr(items) = cases_val else {
        return Err("`cases` is not an array".to_string());
    };
    let mut cases = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let Value::Obj(pairs) = item else {
            return Err(format!("case {i} is not an object"));
        };
        let name = item
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("case {i} has no string `name`"))?
            .to_string();
        let metrics = pairs
            .iter()
            .filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n)))
            .collect();
        cases.push(BenchCase { name, metrics });
    }
    Ok(BenchDoc { schema, cases })
}

fn load_doc(path: &Path, want_schema: &str) -> Result<BenchDoc, BenchCheckError> {
    let text = std::fs::read_to_string(path).map_err(|source| BenchCheckError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let doc = parse_doc(&text).map_err(|detail| BenchCheckError::Malformed {
        path: path.to_path_buf(),
        detail,
    })?;
    if doc.schema != want_schema {
        return Err(BenchCheckError::Malformed {
            path: path.to_path_buf(),
            detail: format!("schema `{}`, expected `{want_schema}`", doc.schema),
        });
    }
    Ok(doc)
}

/// The robustness invariant: at fault rates of at least this, hardened
/// must not lose to permissive on median error.
const INVARIANT_MIN_RATE: f64 = 0.1;

fn robustness_invariant(doc: &BenchDoc, problems: &mut Vec<String>) {
    for case in &doc.cases {
        let (Some(rate), Some(on), Some(off)) = (
            case.metric("fault_rate"),
            case.metric("median_err_on_m"),
            case.metric("median_err_off_m"),
        ) else {
            problems.push(format!(
                "robustness case `{}` lacks fault_rate/median fields",
                case.name
            ));
            continue;
        };
        if rate >= INVARIANT_MIN_RATE && on > off {
            problems.push(format!(
                "robustness invariant broken at fault rate {:.0}%: hardened median \
                 {on:.4} m exceeds permissive {off:.4} m (case `{}`)",
                rate * 100.0,
                case.name
            ));
        }
    }
}

/// Estimator invariant slack on the clean (fault rate 0) scenario:
/// absorbs quick-mode median jitter while still meaning "matches".
const ESTIMATOR_CLEAN_SLACK_M: f64 = 0.002;

/// Estimator invariant slack at fault rates of at least
/// [`INVARIANT_MIN_RATE`]: ML/hybrid must degrade no worse than the
/// hardened spectrum arm within this margin.
const ESTIMATOR_FAULT_SLACK_M: f64 = 0.005;

fn estimator_invariant(doc: &BenchDoc, problems: &mut Vec<String>) {
    for case in &doc.cases {
        let (Some(rate), Some(spectrum), Some(ml), Some(hybrid)) = (
            case.metric("fault_rate"),
            case.metric("median_err_spectrum_m"),
            case.metric("median_err_ml_m"),
            case.metric("median_err_hybrid_m"),
        ) else {
            problems.push(format!(
                "estimator case `{}` lacks fault_rate/median fields",
                case.name
            ));
            continue;
        };
        let (slack, claim) = if rate <= 0.0 {
            (
                ESTIMATOR_CLEAN_SLACK_M,
                "match or beat spectrum on the clean scenario",
            )
        } else if rate >= INVARIANT_MIN_RATE {
            (
                ESTIMATOR_FAULT_SLACK_M,
                "degrade no worse than hardened spectrum",
            )
        } else {
            continue;
        };
        for (arm, err) in [("ml", ml), ("hybrid", hybrid)] {
            if err > spectrum + slack {
                problems.push(format!(
                    "estimator invariant broken at fault rate {:.0}%: {arm} median \
                     {err:.4} m must {claim} ({spectrum:.4} m + {slack:.3} m slack, \
                     case `{}`)",
                    rate * 100.0,
                    case.name
                ));
            }
        }
    }
}

/// Absolute ceiling on the `overload_2x` p99 fix-latency, nanoseconds.
/// Generous (2 s) on purpose: the claim is "bounded, never starved", not
/// a micro-latency target, and it must hold on loaded CI runners.
const SERVE_P99_BOUND_NS: f64 = 2e9;

fn serve_invariant(doc: &BenchDoc, problems: &mut Vec<String>) {
    for case in &doc.cases {
        let (Some(sent), Some(accepted), Some(shed)) = (
            case.metric("reports_sent"),
            case.metric("reports_accepted"),
            case.metric("reports_shed"),
        ) else {
            problems.push(format!(
                "serve case `{}` lacks reports_sent/accepted/shed fields",
                case.name
            ));
            continue;
        };
        if (accepted + shed - sent).abs() > 0.5 {
            problems.push(format!(
                "serve accounting broken in case `{}`: accepted {accepted:.0} + \
                 shed {shed:.0} != sent {sent:.0} — a report went missing untyped",
                case.name
            ));
        }
        match case.name.as_str() {
            "rated" if shed > 0.0 => {
                problems.push(format!(
                    "serve invariant broken: `rated` shed {shed:.0} of {sent:.0} \
                     reports — below rated load the queues must absorb everything"
                ));
            }
            "overload_2x" => {
                if shed <= 0.0 {
                    problems.push(
                        "serve invariant broken: `overload_2x` shed nothing — the \
                         drive did not overload the queues (or the daemon blocked \
                         instead of shedding)"
                            .to_string(),
                    );
                }
                match case.metric("p99_fix_latency_ns") {
                    Some(p99) if p99 > SERVE_P99_BOUND_NS => problems.push(format!(
                        "serve invariant broken: `overload_2x` p99 fix latency \
                         {:.0} ms exceeds the {:.0} ms bound — queries must stay \
                         answerable under overload",
                        p99 / 1e6,
                        SERVE_P99_BOUND_NS / 1e6
                    )),
                    Some(_) => {}
                    None => problems
                        .push("serve case `overload_2x` lacks p99_fix_latency_ns".to_string()),
                }
            }
            _ => {}
        }
    }
    for required in ["rated", "overload_2x"] {
        if !doc.cases.iter().any(|c| c.name == required) {
            problems.push(format!("serve artifact lacks required case `{required}`"));
        }
    }
}

fn store_invariant(doc: &BenchDoc, problems: &mut Vec<String>) {
    for required in ["cold", "warm"] {
        if !doc.cases.iter().any(|c| c.name == required) {
            problems.push(format!("store artifact lacks required case `{required}`"));
        }
    }
    for case in &doc.cases {
        match case.metric("fix_bits_mismatches") {
            Some(m) if m > 0.0 => problems.push(format!(
                "store invariant broken: case `{}` has {m:.0} fix bit-mismatches — \
                 a calibration store must never change a fix",
                case.name
            )),
            Some(_) => {}
            None => problems.push(format!(
                "store case `{}` lacks fix_bits_mismatches",
                case.name
            )),
        }
    }
    let cold = doc.cases.iter().find(|c| c.name == "cold");
    let warm = doc.cases.iter().find(|c| c.name == "warm");
    if let (Some(cold), Some(warm)) = (cold, warm) {
        match (cold.metric("boot_ns"), warm.metric("boot_ns")) {
            (Some(c), Some(w)) if w >= c => problems.push(format!(
                "store invariant broken: warm boot {:.1} ms is not strictly faster \
                 than cold boot {:.1} ms — the store is not paying for itself",
                w / 1e6,
                c / 1e6
            )),
            (Some(_), Some(_)) => {}
            _ => problems.push("store cold/warm cases lack boot_ns".to_string()),
        }
        if cold.metric("store_persisted").is_none_or(|p| p <= 0.0) {
            problems.push(
                "store invariant broken: `cold` persisted nothing — the warm case \
                 would be measuring an empty store"
                    .to_string(),
            );
        }
        if warm.metric("store_hits").is_none_or(|h| h <= 0.0) {
            problems.push(
                "store invariant broken: `warm` hit the store zero times — every \
                 table was rebuilt from scratch"
                    .to_string(),
            );
        }
    }
}

/// Compare the current artifacts against the baselines.
///
/// # Errors
///
/// Fails fast on unreadable or malformed files and on missing baselines
/// (with a `--bless` hint); regressions are reported through the returned
/// [`CheckReport`], not as errors.
pub fn check(opts: &CheckOptions) -> Result<CheckReport, BenchCheckError> {
    let mut report = CheckReport::default();
    for spec in ARTIFACTS {
        let base_path = opts.baselines.join(spec.file);
        if !base_path.is_file() {
            return Err(BenchCheckError::MissingBaseline { path: base_path });
        }
        let base = load_doc(&base_path, spec.schema)?;
        let cur = load_doc(&opts.current.join(spec.file), spec.schema)?;

        for bc in &base.cases {
            let Some(cc) = cur.cases.iter().find(|c| c.name == bc.name) else {
                report.problems.push(format!(
                    "{}: case `{}` present in baseline but missing from current run",
                    spec.file, bc.name
                ));
                continue;
            };
            for &metric in spec.metrics {
                let (Some(b), Some(c)) = (bc.metric(metric), cc.metric(metric)) else {
                    report.problems.push(format!(
                        "{}: case `{}` lacks metric `{metric}`",
                        spec.file, bc.name
                    ));
                    continue;
                };
                // Lower is better; the epsilon absorbs the artifacts'
                // fixed-point formatting of near-zero values.
                let regressed = c > b * (1.0 + opts.tolerance) + 1e-9;
                report.rows.push(DeltaRow {
                    artifact: spec.file,
                    case: bc.name.clone(),
                    metric,
                    baseline: b,
                    current: c,
                    regressed,
                });
            }
        }
        if let Some(invariant) = spec.invariant {
            invariant(&cur, &mut report.problems);
        }
    }
    Ok(report)
}

/// Record the current artifacts as the new baselines (`--bless`).
///
/// Each artifact is parsed and schema-checked before being copied, so a
/// truncated or mis-schemaed file cannot become a baseline. Returns the
/// list of baseline paths written.
///
/// # Errors
///
/// Fails on unreadable/malformed current artifacts or an unwritable
/// baselines directory.
pub fn bless(opts: &CheckOptions) -> Result<Vec<PathBuf>, BenchCheckError> {
    std::fs::create_dir_all(&opts.baselines).map_err(|source| BenchCheckError::Io {
        path: opts.baselines.clone(),
        source,
    })?;
    let mut written = Vec::new();
    for spec in ARTIFACTS {
        let cur_path = opts.current.join(spec.file);
        // Validate before copying.
        load_doc(&cur_path, spec.schema)?;
        let text = std::fs::read_to_string(&cur_path).map_err(|source| BenchCheckError::Io {
            path: cur_path.clone(),
            source,
        })?;
        let dest = opts.baselines.join(spec.file);
        std::fs::write(&dest, text).map_err(|source| BenchCheckError::Io {
            path: dest.clone(),
            source,
        })?;
        written.push(dest);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPECTRUM: &str = r#"{
  "schema": "tagspin-bench-spectrum/v1",
  "cases": [
    {"name": "office", "azimuth_steps": 360, "polar_steps": 1, "snapshots": 200, "mean_ns_exhaustive": 100000, "mean_ns_fast": 12000, "speedup": 8.333}
  ]
}"#;

    #[test]
    fn parses_the_bench_dialect() {
        let doc = parse_doc(SPECTRUM).expect("parse");
        assert_eq!(doc.schema, "tagspin-bench-spectrum/v1");
        assert_eq!(doc.cases.len(), 1);
        assert_eq!(doc.cases[0].name, "office");
        assert_eq!(doc.cases[0].metric("mean_ns_fast"), Some(12000.0));
        assert_eq!(doc.cases[0].metric("missing"), None);
    }

    #[test]
    fn tolerates_null_and_rejects_garbage() {
        let doc =
            parse_doc(r#"{"schema": "s", "cases": [{"name": "w", "max_reports": null, "x": 1}]}"#)
                .expect("null ok");
        assert_eq!(doc.cases[0].metric("max_reports"), None);
        assert!(parse_doc("{\"schema\": \"s\"").is_err());
        assert!(parse_doc("[]").is_err());
        assert!(parse_doc("{\"cases\": []}").is_err());
    }

    #[test]
    fn delta_row_handles_zero_baseline() {
        let row = DeltaRow {
            artifact: "a",
            case: "c".into(),
            metric: "m",
            baseline: 0.0,
            current: 0.0,
            regressed: false,
        };
        assert!(row.delta().abs() < 1e-12);
        let row = DeltaRow {
            baseline: 0.0,
            current: 1.0,
            ..row
        };
        assert!(row.delta().is_infinite());
    }

    #[test]
    fn markdown_lists_rows_and_problems() {
        let report = CheckReport {
            rows: vec![DeltaRow {
                artifact: "BENCH_spectrum.json",
                case: "office".into(),
                metric: "mean_ns_fast",
                baseline: 100.0,
                current: 260.0,
                regressed: true,
            }],
            problems: vec!["something vanished".into()],
        };
        assert!(!report.passed());
        let md = report.markdown();
        assert!(md.contains("| BENCH_spectrum.json | office | mean_ns_fast |"));
        assert!(md.contains("+160.0%"));
        assert!(md.contains("REGRESSED"));
        assert!(md.contains("something vanished"));
    }

    #[test]
    fn invariant_flags_hardened_losing() {
        let doc = parse_doc(
            r#"{"schema": "tagspin-bench-robustness/v1", "cases": [
                {"name": "rate_000", "fault_rate": 0.00, "median_err_on_m": 0.02, "median_err_off_m": 0.02},
                {"name": "rate_020", "fault_rate": 0.20, "median_err_on_m": 5.00, "median_err_off_m": 0.03}
            ]}"#,
        )
        .expect("parse");
        let mut problems = Vec::new();
        robustness_invariant(&doc, &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("rate_020"));
    }

    #[test]
    fn estimator_invariant_flags_ml_losing_clean_row() {
        let doc = parse_doc(
            r#"{"schema": "tagspin-bench-estimator/v1", "cases": [
                {"name": "rate_000", "fault_rate": 0.00, "median_err_spectrum_m": 0.006, "median_err_ml_m": 0.020, "median_err_hybrid_m": 0.007},
                {"name": "rate_030", "fault_rate": 0.30, "median_err_spectrum_m": 0.021, "median_err_ml_m": 0.015, "median_err_hybrid_m": 0.050}
            ]}"#,
        )
        .expect("parse");
        let mut problems = Vec::new();
        estimator_invariant(&doc, &mut problems);
        // Clean-row ml loses by 14 mm; 30%-row hybrid degrades 29 mm worse.
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("rate_000") && problems[0].contains("ml"));
        assert!(problems[1].contains("rate_030") && problems[1].contains("hybrid"));
    }

    #[test]
    fn estimator_invariant_allows_slack_and_skips_low_rates() {
        let doc = parse_doc(
            r#"{"schema": "tagspin-bench-estimator/v1", "cases": [
                {"name": "rate_000", "fault_rate": 0.00, "median_err_spectrum_m": 0.006, "median_err_ml_m": 0.007, "median_err_hybrid_m": 0.007},
                {"name": "rate_005", "fault_rate": 0.05, "median_err_spectrum_m": 0.014, "median_err_ml_m": 0.090, "median_err_hybrid_m": 0.090},
                {"name": "rate_030", "fault_rate": 0.30, "median_err_spectrum_m": 0.021, "median_err_ml_m": 0.025, "median_err_hybrid_m": 0.025}
            ]}"#,
        )
        .expect("parse");
        let mut problems = Vec::new();
        estimator_invariant(&doc, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn estimator_invariant_flags_missing_fields() {
        let doc = parse_doc(
            r#"{"schema": "tagspin-bench-estimator/v1", "cases": [
                {"name": "rate_000", "fault_rate": 0.00, "median_err_spectrum_m": 0.006}
            ]}"#,
        )
        .expect("parse");
        let mut problems = Vec::new();
        estimator_invariant(&doc, &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("lacks"));
    }

    /// A serve artifact satisfying every hard invariant.
    const SERVE_OK: &str = r#"{"schema": "tagspin-bench-serve/v1", "cases": [
        {"name": "peak", "reports_sent": 20000, "reports_accepted": 20000, "reports_shed": 0, "shed_rate": 0.0, "p99_fix_latency_ns": 150000000},
        {"name": "rated", "reports_sent": 20000, "reports_accepted": 20000, "reports_shed": 0, "shed_rate": 0.0, "p99_fix_latency_ns": 250000000},
        {"name": "overload_2x", "reports_sent": 20000, "reports_accepted": 11000, "reports_shed": 9000, "shed_rate": 0.45, "p99_fix_latency_ns": 200000000}
    ]}"#;

    fn serve_problems(json: &str) -> Vec<String> {
        let doc = parse_doc(json).expect("parse");
        let mut problems = Vec::new();
        serve_invariant(&doc, &mut problems);
        problems
    }

    #[test]
    fn serve_invariant_passes_a_conforming_artifact() {
        let problems = serve_problems(SERVE_OK);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn serve_invariant_flags_broken_accounting() {
        // 500 reports vanish untyped from the rated case.
        let problems = serve_problems(&SERVE_OK.replace(
            r#""rated", "reports_sent": 20000, "reports_accepted": 20000, "reports_shed": 0"#,
            r#""rated", "reports_sent": 20000, "reports_accepted": 19500, "reports_shed": 0"#,
        ));
        // The missing 500 both break conservation and (being absorbed
        // silently, not shed) keep `rated` at zero shed, so exactly the
        // accounting problem fires.
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("accounting"), "{problems:?}");
    }

    #[test]
    fn serve_invariant_flags_shedding_below_rated_load() {
        let problems = serve_problems(&SERVE_OK.replace(
            r#""rated", "reports_sent": 20000, "reports_accepted": 20000, "reports_shed": 0"#,
            r#""rated", "reports_sent": 20000, "reports_accepted": 19000, "reports_shed": 1000"#,
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("`rated` shed"), "{problems:?}");
    }

    #[test]
    fn serve_invariant_flags_overload_that_never_shed() {
        let problems = serve_problems(&SERVE_OK.replace(
            r#""overload_2x", "reports_sent": 20000, "reports_accepted": 11000, "reports_shed": 9000"#,
            r#""overload_2x", "reports_sent": 20000, "reports_accepted": 20000, "reports_shed": 0"#,
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("`overload_2x` shed nothing"),
            "{problems:?}"
        );
    }

    #[test]
    fn serve_invariant_bounds_overload_fix_latency() {
        // 3 s p99 breaches the 2 s never-starved bound.
        let problems = serve_problems(&SERVE_OK.replace(
            "\"p99_fix_latency_ns\": 200000000",
            "\"p99_fix_latency_ns\": 3000000000",
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("p99 fix latency"), "{problems:?}");
        // And the field must exist at all on the overload case.
        let problems = serve_problems(&SERVE_OK.replace(
            "\"p99_fix_latency_ns\": 200000000",
            "\"p99_fix_latency_ns\": null",
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("lacks p99_fix_latency_ns"),
            "{problems:?}"
        );
    }

    #[test]
    fn serve_invariant_requires_the_load_cases() {
        let problems = serve_problems(
            r#"{"schema": "tagspin-bench-serve/v1", "cases": [
                {"name": "peak", "reports_sent": 100, "reports_accepted": 100, "reports_shed": 0}
            ]}"#,
        );
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(
            problems.iter().any(|p| p.contains("`rated`")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("`overload_2x`")),
            "{problems:?}"
        );
    }

    #[test]
    fn serve_invariant_flags_missing_accounting_fields() {
        let problems = serve_problems(
            r#"{"schema": "tagspin-bench-serve/v1", "cases": [
                {"name": "rated", "reports_sent": 100},
                {"name": "overload_2x", "reports_sent": 100, "reports_accepted": 80, "reports_shed": 20, "p99_fix_latency_ns": 100}
            ]}"#,
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("lacks reports_sent/accepted/shed"),
            "{problems:?}"
        );
    }

    /// A store artifact satisfying every hard invariant.
    const STORE_OK: &str = r#"{"schema": "tagspin-bench-store/v1", "cases": [
        {"name": "cold", "tables": 6, "boot_ns": 42000000, "ns_per_table": 7000000, "store_hits": 0, "store_persisted": 6, "fix_bits_mismatches": 0},
        {"name": "warm", "tables": 6, "boot_ns": 9000000, "ns_per_table": 1500000, "store_hits": 6, "store_persisted": 0, "fix_bits_mismatches": 0}
    ]}"#;

    fn store_problems(json: &str) -> Vec<String> {
        let doc = parse_doc(json).expect("parse");
        let mut problems = Vec::new();
        store_invariant(&doc, &mut problems);
        problems
    }

    #[test]
    fn store_invariant_passes_a_conforming_artifact() {
        let problems = store_problems(STORE_OK);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn store_invariant_flags_fix_divergence() {
        let problems = store_problems(&STORE_OK.replace(
            r#""store_hits": 6, "store_persisted": 0, "fix_bits_mismatches": 0"#,
            r#""store_hits": 6, "store_persisted": 0, "fix_bits_mismatches": 3"#,
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("never change a fix"), "{problems:?}");
    }

    #[test]
    fn store_invariant_flags_warm_not_faster() {
        // Warm boot exactly as slow as cold: strict inequality required.
        let problems = store_problems(&STORE_OK.replace(
            "\"name\": \"warm\", \"tables\": 6, \"boot_ns\": 9000000",
            "\"name\": \"warm\", \"tables\": 6, \"boot_ns\": 42000000",
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("not strictly faster"), "{problems:?}");
    }

    #[test]
    fn store_invariant_flags_cold_that_persisted_nothing() {
        let problems = store_problems(&STORE_OK.replace(
            r#""store_hits": 0, "store_persisted": 6"#,
            r#""store_hits": 0, "store_persisted": 0"#,
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("`cold` persisted nothing"),
            "{problems:?}"
        );
    }

    #[test]
    fn store_invariant_flags_warm_that_never_hit() {
        let problems = store_problems(&STORE_OK.replace(
            r#""store_hits": 6, "store_persisted": 0"#,
            r#""store_hits": 0, "store_persisted": 0"#,
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("`warm` hit the store zero times"),
            "{problems:?}"
        );
    }

    #[test]
    fn store_invariant_requires_both_cases() {
        let problems = store_problems(
            r#"{"schema": "tagspin-bench-store/v1", "cases": [
                {"name": "cold", "boot_ns": 1, "store_persisted": 1, "fix_bits_mismatches": 0}
            ]}"#,
        );
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("`warm`"), "{problems:?}");
    }

    #[test]
    fn store_invariant_flags_missing_mismatch_field() {
        let problems = store_problems(&STORE_OK.replace(
            r#""store_hits": 6, "store_persisted": 0, "fix_bits_mismatches": 0"#,
            r#""store_hits": 6, "store_persisted": 0, "fix_bits_mismatches": null"#,
        ));
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(
            problems[0].contains("lacks fix_bits_mismatches"),
            "{problems:?}"
        );
    }

    #[test]
    fn invariant_ignores_low_rates() {
        let doc = parse_doc(
            r#"{"schema": "tagspin-bench-robustness/v1", "cases": [
                {"name": "rate_005", "fault_rate": 0.05, "median_err_on_m": 9.0, "median_err_off_m": 0.01}
            ]}"#,
        )
        .expect("parse");
        let mut problems = Vec::new();
        robustness_invariant(&doc, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }
}

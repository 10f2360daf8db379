//! Domain-aware static-analysis gate for the Tagspin workspace.
//!
//! `cargo xtask lint` runs a dependency-free, token-stream analyzer over
//! the workspace sources and enforces nine rules the Rust compiler
//! cannot see (see `docs/LINTS.md` for the catalogue and rationale):
//!
//! * **L1 `no-panic`** — no `.unwrap()` / `.expect(` / `panic!(` in
//!   non-test library *or binary* code.
//! * **L2 `angle-hygiene`** — all phase wrapping goes through
//!   `tagspin_geom::angle`; raw `% TAU`, `rem_euclid(TAU)` or manual ±π
//!   wrap arithmetic outside `crates/geom/src/angle.rs` is an error.
//! * **L3 `float-eq`** — no `==` / `!=` against floating-point values
//!   outside tests.
//! * **L4 `stringly-error`** — no `Result<_, String>` in public APIs.
//! * **L5 `lossy-cast`** — numeric `as` casts in designated hot-path
//!   files must be annotated.
//! * **L6 `lock-discipline`** — no lock guard live across a call into
//!   `Observer::emit` or a spectrum recompute, and a workspace-wide
//!   lock-acquisition-order graph must be acyclic.
//! * **L7 `atomic-ordering`** — every `Ordering::` literal outside
//!   `obs/metrics.rs` carries a `// ordering:` justification; `SeqCst`
//!   is rejected in ingest/recompute hot paths outright.
//! * **L8 `metric-name-hygiene`** — metric names emitted by the metrics
//!   observer and the inventory in `docs/OBSERVABILITY.md` must match in
//!   both directions.
//! * **L9 `doc-coverage`** — public items in the core crates carry doc
//!   comments (warn-level, tracked against a count baseline).
//!
//! Every rule honors a line-level escape hatch — a
//! `// lint:allow(<rule>)` comment on the offending line or the line
//! above — and a file-level `// lint:allow-file(<rule>)`. Markers are
//! only honored inside *comment tokens*: the v1 engine matched them on
//! raw source lines, so a string literal containing a marker silently
//! disabled the rule.
//!
//! The analyzer is built on a hand-rolled lexer (`lexer`), brace/scope
//! analysis (`scopes`) and token-level rules (`rules`); findings export
//! as human text or machine-readable `tagspin-lint/v1` JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_check;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod scopes;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::TokenStream;
use scopes::{Scopes, Trivia};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L1: no `.unwrap()` / `.expect(` / `panic!(` in library/binary code.
    NoPanic,
    /// L2: phase wrapping only via `tagspin_geom::angle`.
    AngleHygiene,
    /// L3: no float `==` / `!=` outside tests.
    FloatEq,
    /// L4: no `Result<_, String>` in public APIs.
    StringlyError,
    /// L5: annotated numeric casts in hot paths.
    LossyCast,
    /// L6: no lock guard live across observer emission or recompute;
    /// acyclic lock-acquisition order.
    LockDiscipline,
    /// L7: justified memory orderings outside the metrics module.
    AtomicOrdering,
    /// L8: emitted metric names equal the documented inventory.
    MetricNameHygiene,
    /// L9: doc comments on public items in the core crates.
    DocCoverage,
}

/// How a finding affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint gate.
    Error,
    /// Reported, and gated only against the tracked count baseline.
    Warn,
}

impl Severity {
    /// Stable lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::NoPanic,
        Rule::AngleHygiene,
        Rule::FloatEq,
        Rule::StringlyError,
        Rule::LossyCast,
        Rule::LockDiscipline,
        Rule::AtomicOrdering,
        Rule::MetricNameHygiene,
        Rule::DocCoverage,
    ];

    /// Stable lowercase name used in reports and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no-panic",
            Rule::AngleHygiene => "angle-hygiene",
            Rule::FloatEq => "float-eq",
            Rule::StringlyError => "stringly-error",
            Rule::LossyCast => "lossy-cast",
            Rule::LockDiscipline => "lock-discipline",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::MetricNameHygiene => "metric-name-hygiene",
            Rule::DocCoverage => "doc-coverage",
        }
    }

    /// Short code (`L1`..`L9`) used in reports.
    pub fn code(self) -> &'static str {
        match self {
            Rule::NoPanic => "L1",
            Rule::AngleHygiene => "L2",
            Rule::FloatEq => "L3",
            Rule::StringlyError => "L4",
            Rule::LossyCast => "L5",
            Rule::LockDiscipline => "L6",
            Rule::AtomicOrdering => "L7",
            Rule::MetricNameHygiene => "L8",
            Rule::DocCoverage => "L9",
        }
    }

    /// Gate severity: L1–L8 fail the build, L9 is tracked-warn.
    pub fn severity(self) -> Severity {
        match self {
            Rule::DocCoverage => Severity::Warn,
            _ => Severity::Error,
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}({}): {}",
            self.file.display(),
            self.line,
            self.rule.code(),
            self.rule.name(),
            self.message
        )
    }
}

/// How a source file participates in the rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A library source file (`crates/*/src/**`, root `src/lib.rs`).
    Library,
    /// A binary source (`src/bin/**`, `crates/*/src/bin/**`).
    Binary,
    /// An example (`examples/**`).
    Example,
    /// A benchmark (`crates/*/benches/**`).
    Bench,
    /// An integration test (`tests/**` at any level).
    Test,
}

impl FileKind {
    /// Whether L1 (`no-panic`) applies to this kind of file. Under v2
    /// this includes binaries: a panicking `src/bin/**` entry point is a
    /// crash in the field, not a shrug — only examples, benches and
    /// tests keep the exemption.
    pub fn checks_panics(self) -> bool {
        matches!(self, FileKind::Library | FileKind::Binary)
    }

    /// Whether L2/L3/L6/L7 apply (everything except test code).
    pub fn checks_expressions(self) -> bool {
        !matches!(self, FileKind::Test)
    }

    /// Whether L4 applies (public API surface lives in libraries).
    pub fn checks_signatures(self) -> bool {
        matches!(self, FileKind::Library)
    }
}

/// Files whose numeric casts must be annotated (L5): the angle-spectrum
/// and DSP kernels where a silent float→int truncation or an index→f64
/// precision loss would corrupt results rather than crash, and the LLRP
/// codec, where a truncating `as u8` once aliased antenna ids.
const HOT_PATHS: &[&str] = &[
    "crates/core/src/spectrum.rs",
    "crates/core/src/spectrum/engine.rs",
    "crates/core/src/locate/plane.rs",
    "crates/core/src/locate/space.rs",
    "crates/dsp/src/fourier.rs",
    "crates/dsp/src/peak.rs",
    "crates/dsp/src/unwrap.rs",
    "crates/epc/src/llrp.rs",
];

/// The one file allowed to contain raw wrap arithmetic (L2).
const ANGLE_MODULE: &str = "crates/geom/src/angle.rs";

/// The one file whose atomics need no per-site justification (L7): the
/// metrics cells are the sanctioned relaxed-atomics nest, documented as
/// a whole in `docs/OBSERVABILITY.md`.
const METRICS_MODULE: &str = "crates/core/src/obs/metrics.rs";

/// The metric-name inventory sources cross-checked by L8.
const METRIC_NAMES_RS: &str = "crates/core/src/obs/names.rs";
const METRICS_RS: &str = "crates/core/src/obs/metrics.rs";
const OBSERVABILITY_MD: &str = "docs/OBSERVABILITY.md";

/// Classify a workspace-relative path, or `None` if it should not be
/// scanned at all.
pub fn classify(rel: &Path) -> Option<FileKind> {
    let s = rel.to_string_lossy().replace('\\', "/");
    if !s.ends_with(".rs") {
        return None;
    }
    // Tooling, vendored stubs and build artifacts are out of scope.
    if s.starts_with("crates/xtask/") || s.starts_with("vendor/") || s.starts_with("target/") {
        return None;
    }
    if s.starts_with("tests/") || s.contains("/tests/") {
        return Some(FileKind::Test);
    }
    if s.starts_with("examples/") || s.contains("/examples/") {
        return Some(FileKind::Example);
    }
    if s.contains("/benches/") {
        return Some(FileKind::Bench);
    }
    if s.contains("/bin/") {
        return Some(FileKind::Binary);
    }
    if s.starts_with("src/") || s.contains("/src/") {
        return Some(FileKind::Library);
    }
    None
}

/// Analyze one file's contents with the per-file rules (L1–L7, L9).
pub fn analyze_file(rel: &Path, source: &str, kind: FileKind) -> Vec<Finding> {
    analyze_file_ext(rel, source, kind).0
}

/// [`analyze_file`] plus the file's lock-acquisition-order edges, which
/// the workspace pass aggregates for L6 cycle detection.
pub fn analyze_file_ext(
    rel: &Path,
    source: &str,
    kind: FileKind,
) -> (Vec<Finding>, Vec<rules::LockEdge>) {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let ts = TokenStream::lex(source);
    let sc = Scopes::analyze(&ts);
    let tv = Trivia::collect(&ts);

    let ctx = rules::FileContext {
        rel: &rel_str,
        kind,
        ts: &ts,
        sc: &sc,
        tv: &tv,
        is_hot_path: HOT_PATHS.contains(&rel_str.as_str()),
        is_angle_module: rel_str == ANGLE_MODULE,
        is_metrics_module: rel_str == METRICS_MODULE,
    };

    let mut findings = Vec::new();
    rules::no_panic(&ctx, &mut findings);
    rules::angle_hygiene(&ctx, &mut findings);
    rules::float_eq(&ctx, &mut findings);
    rules::stringly_error(&ctx, &mut findings);
    rules::lossy_cast(&ctx, &mut findings);
    rules::lock_discipline(&ctx, &mut findings);
    rules::atomic_ordering(&ctx, &mut findings);
    rules::doc_coverage(&ctx, &mut findings);
    let edges = rules::lock_order_edges(&ctx);

    let findings = findings
        .into_iter()
        .map(|(line, rule, message)| Finding {
            file: rel.to_path_buf(),
            line,
            rule,
            message,
        })
        .collect();
    (findings, edges)
}

/// Recursively collect `.rs` files under `dir` (workspace-relative paths).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let abs = root.join(dir);
    if !abs.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(&abs)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" || name == "vendor" {
            continue;
        }
        let rel = dir.join(&*name);
        let ty = entry.file_type()?;
        if ty.is_dir() {
            collect_rs_files(root, &rel, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Run the L8 metric-name cross-check if the workspace carries the
/// inventory sources; a tree without them (fixture stages, early
/// bootstraps) simply has no L8 surface.
fn metric_hygiene_findings(root: &Path) -> Vec<Finding> {
    let names_src = std::fs::read_to_string(root.join(METRIC_NAMES_RS));
    let doc_src = std::fs::read_to_string(root.join(OBSERVABILITY_MD));
    let (Ok(names_src), Ok(doc_src)) = (names_src, doc_src) else {
        return Vec::new();
    };
    let metrics_src = std::fs::read_to_string(root.join(METRICS_RS)).unwrap_or_default();
    rules::metric_name_hygiene(&names_src, &metrics_src, &doc_src)
        .into_iter()
        .map(|(which, line, message)| Finding {
            file: PathBuf::from(match which {
                "doc" => OBSERVABILITY_MD,
                "metrics" => METRICS_RS,
                _ => METRIC_NAMES_RS,
            }),
            line,
            rule: Rule::MetricNameHygiene,
            message,
        })
        .collect()
}

/// Run the full lint pass over a workspace rooted at `root`: per-file
/// rules, the workspace lock-order graph (L6), and the metric-name
/// cross-check (L8).
///
/// Findings come back sorted by file then line.
///
/// # Errors
///
/// Returns `Err` if the workspace cannot be read.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs_files(root, Path::new(top), &mut files)?;
    }
    files.sort();

    let mut findings = Vec::new();
    let mut edges = Vec::new();
    let mut edge_files: Vec<(String, PathBuf)> = Vec::new();
    for rel in &files {
        let Some(kind) = classify(rel) else { continue };
        let source = std::fs::read_to_string(root.join(rel))?;
        let (file_findings, file_edges) = analyze_file_ext(rel, &source, kind);
        findings.extend(file_findings);
        for e in &file_edges {
            edge_files.push((e.module.clone(), rel.clone()));
        }
        edges.extend(file_edges);
    }

    for (module, line, message) in rules::lock_order_cycles(&edges) {
        let file = edge_files
            .iter()
            .find(|(m, _)| *m == module)
            .map(|(_, f)| f.clone())
            .unwrap_or_else(|| PathBuf::from(module));
        findings.push(Finding {
            file,
            line,
            rule: Rule::LockDiscipline,
            message,
        });
    }

    findings.extend(metric_hygiene_findings(root));
    findings.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    Ok(findings)
}

/// Serialize findings as a `tagspin-lint/v1` document.
pub fn findings_to_json(findings: &[Finding]) -> json::Value {
    let errors = findings
        .iter()
        .filter(|f| f.rule.severity() == Severity::Error)
        .count();
    let warns = findings.len() - errors;
    let list = findings
        .iter()
        .map(|f| {
            json::Value::Obj(vec![
                (
                    "file".to_string(),
                    json::Value::Str(f.file.to_string_lossy().replace('\\', "/")),
                ),
                ("line".to_string(), json::Value::Num(f.line as f64)),
                (
                    "code".to_string(),
                    json::Value::Str(f.rule.code().to_string()),
                ),
                (
                    "rule".to_string(),
                    json::Value::Str(f.rule.name().to_string()),
                ),
                (
                    "severity".to_string(),
                    json::Value::Str(f.rule.severity().name().to_string()),
                ),
                ("message".to_string(), json::Value::Str(f.message.clone())),
            ])
        })
        .collect();
    json::Value::Obj(vec![
        (
            "schema".to_string(),
            json::Value::Str("tagspin-lint/v1".to_string()),
        ),
        (
            "rules".to_string(),
            json::Value::Arr(
                Rule::ALL
                    .iter()
                    .map(|r| {
                        json::Value::Obj(vec![
                            ("code".to_string(), json::Value::Str(r.code().to_string())),
                            ("name".to_string(), json::Value::Str(r.name().to_string())),
                            (
                                "severity".to_string(),
                                json::Value::Str(r.severity().name().to_string()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counts".to_string(),
            json::Value::Obj(vec![
                ("error".to_string(), json::Value::Num(errors as f64)),
                ("warn".to_string(), json::Value::Num(warns as f64)),
            ]),
        ),
        ("findings".to_string(), json::Value::Arr(list)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_v2_matrix() {
        use FileKind::*;
        let cases = [
            ("crates/core/src/session.rs", Some(Library)),
            ("src/bin/tagspin.rs", Some(Binary)),
            ("crates/bench/src/bin/reproduce.rs", Some(Binary)),
            ("examples/locate_2d.rs", Some(Example)),
            ("crates/core/examples/demo.rs", Some(Example)),
            ("crates/bench/benches/ingest.rs", Some(Bench)),
            ("tests/golden_traces.rs", Some(Test)),
            ("crates/core/tests/api.rs", Some(Test)),
            ("crates/xtask/src/lib.rs", None),
            ("vendor/proptest/src/lib.rs", None),
            ("README.md", None),
        ];
        for (path, expected) in cases {
            assert_eq!(classify(Path::new(path)), expected, "{path}");
        }
    }

    #[test]
    fn binaries_check_panics_examples_do_not() {
        assert!(FileKind::Library.checks_panics());
        assert!(FileKind::Binary.checks_panics(), "v2: binaries get L1");
        assert!(!FileKind::Example.checks_panics());
        assert!(!FileKind::Bench.checks_panics());
        assert!(!FileKind::Test.checks_panics());
    }

    /// A listed path that no longer exists silently drops its rule.
    #[test]
    fn named_paths_exist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in HOT_PATHS.iter().chain([&ANGLE_MODULE, &METRICS_MODULE]) {
            assert!(root.join(rel).is_file(), "{rel} is not a file");
        }
    }

    #[test]
    fn json_export_shape() {
        let findings = vec![Finding {
            file: PathBuf::from("crates/core/src/a.rs"),
            line: 7,
            rule: Rule::LockDiscipline,
            message: "guard across emit".to_string(),
        }];
        let v = findings_to_json(&findings);
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("tagspin-lint/v1")
        );
        assert_eq!(
            v.get("counts")
                .and_then(|c| c.get("error"))
                .and_then(|n| n.as_num()),
            Some(1.0)
        );
        let text = json::to_string(&v);
        let back = json::parse(&text).expect("round-trips");
        assert_eq!(
            back.get("findings")
                .and_then(|f| f.as_arr())
                .map(|a| a.len()),
            Some(1)
        );
    }
}

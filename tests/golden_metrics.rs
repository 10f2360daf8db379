//! Golden metrics fixture: the `tagspin-metrics/v1` snapshot of the
//! canonical two-spinning-tag 2D trace, pinned so instrumentation-point
//! drift (a metric renamed, an emit site added, dropped or double-counted)
//! fails CI with a reviewable fixture diff.
//!
//! The trace is the deterministic seeded deployment the crate-level
//! example uses: two paper-default disks at (±30 cm, 0), one full rotation
//! observed from (0.4, 1.7), streamed through a 512-report window with two
//! `fix::<TwoD>` refreshes (one fresh, one cached). Every counter, gauge and
//! non-timing histogram field is compared exactly; `stage.*_ns` histograms
//! record wall-clock time, so only their *counts* — which emit sites fired
//! and how often — are pinned.
//!
//! Regenerate after an *intentional* instrumentation change with
//! `cargo xtask golden --bless` (or `GOLDEN_BLESS=1 cargo test --test
//! golden_metrics`), and review the fixture diff like any other code. A
//! bless rewrites the fixture only when it is missing or differs.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::geom::{Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};
use xtask::json::{self, Value};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("metrics_2d.txt")
}

/// Run the canonical trace under a `MetricsObserver` and return the
/// populated registry.
fn canonical_metrics() -> Arc<MetricsRegistry> {
    let mut rng = StdRng::seed_from_u64(7);
    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
    let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
    let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
    let reader = ReaderConfig::at(Pose::facing_toward(Vec3::new(0.4, 1.7, 0.0), Vec3::ZERO));
    let log = run_inventory(
        &Environment::paper_default(),
        &reader,
        &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
        d1.period_s(),
        &mut rng,
    );

    let mut server = LocalizationServer::new(PipelineConfig::default());
    server.register(1, d1).expect("unique EPC");
    server.register(2, d2).expect("unique EPC");
    let registry = Arc::new(MetricsRegistry::new());
    server.set_observer(Arc::new(MetricsObserver::new(Arc::clone(&registry))));

    let mut session = server.session(WindowConfig::last_reports(512));
    for report in log.stream() {
        session.ingest(report);
    }
    // One fresh fix and one cached refresh, so both recompute paths emit.
    session
        .fix::<TwoD>()
        .expect("canonical trace must produce a fix");
    session.fix::<TwoD>().expect("cached refresh must also fix");
    registry
}

/// Render the snapshot in fixture form: everything exact except the
/// wall-clock content of `stage.*_ns` histograms (count pinned, sum and
/// buckets omitted). Floats use shortest-round-trip `Display`, so the
/// comparison is bit-exact.
fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let w = &mut out;
    // lint:allow(no-panic) writing to a String cannot fail
    let ok = "String writes are infallible";
    writeln!(w, "# tagspin golden metrics v1 — canonical 2-tag 2D trace").expect(ok);
    writeln!(
        w,
        "# stage.*_ns histograms are wall-clock: only their counts are pinned."
    )
    .expect(ok);
    for (name, v) in &snap.counters {
        writeln!(w, "counter {name} {v}").expect(ok);
    }
    for (name, v) in &snap.gauges {
        writeln!(w, "gauge {name} {v}").expect(ok);
    }
    for (name, h) in &snap.histograms {
        if name.ends_with("_ns") {
            writeln!(w, "hist {name} count {}", h.count).expect(ok);
        } else {
            write!(w, "hist {name} count {} sum {} buckets", h.count, h.sum).expect(ok);
            for b in &h.buckets {
                write!(w, " {b}").expect(ok);
            }
            writeln!(w).expect(ok);
        }
    }
    out
}

#[test]
fn golden_metrics_2d() {
    let registry = canonical_metrics();
    let rendered = render(&registry.snapshot());
    let path = golden_path();
    let expected = std::fs::read_to_string(&path);
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        // Rewrite only a fixture that is missing or differs.
        if expected.as_deref().ok() != Some(rendered.as_str()) {
            std::fs::create_dir_all(path.parent().expect("golden dir"))
                .expect("create tests/golden");
            std::fs::write(&path, rendered).expect("write fixture");
        }
        return;
    }
    let expected = expected.unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run `cargo xtask golden --bless`",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "metrics snapshot drifted from the blessed fixture; if the \
         instrumentation change is intentional, run `cargo xtask golden \
         --bless` and review the diff"
    );
}

/// The canonical export is a valid `tagspin-metrics/v1` document under the
/// same parser `cargo xtask bench-check` uses, and its counter section
/// agrees name-for-name with the typed snapshot the fixture pins.
#[test]
fn canonical_export_parses_as_metrics_v1() {
    let registry = canonical_metrics();
    let doc = json::parse(&registry.export_json()).expect("export must parse");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("tagspin-metrics/v1")
    );
    let Some(Value::Obj(counters)) = doc.get("counters") else {
        panic!("counters section missing or not an object");
    };
    let snap = registry.snapshot();
    let parsed_names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
    let typed_names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
    assert_eq!(parsed_names, typed_names);
}

//! Golden-trace regression tests for the spectrum reference path.
//!
//! Each fixture under `tests/golden/` is a self-contained trace: the
//! snapshot inputs plus the exhaustive reference path's outputs (spectrum
//! values and/or refined peak) at the time the fixture was blessed. The
//! test recomputes from the stored snapshots and compares:
//!
//! * the **exhaustive** path against the stored numbers at `1e-9` — any
//!   drift in the reference math is a regression;
//! * the **fast** coarse-to-fine path against the stored peak within one
//!   fine-grid step — the engine's conformance contract on fixed inputs.
//!
//! Regenerate after an *intentional* numeric change with
//! `cargo xtask golden --bless` (or `GOLDEN_BLESS=1 cargo test --test
//! golden_traces`), and review the fixture diff like any other code. A
//! bless rewrites only the fixtures that are missing or fail their check.
//!
//! Values are written with Rust's shortest-round-trip float `Display`, so
//! parsing a fixture recovers the exact bits that were blessed.

use std::f64::consts::{FRAC_PI_2, TAU};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tagspin::core::snapshot::{Snapshot, SnapshotSet};
use tagspin::core::spectrum::engine::{SpectrumEngine, SpectrumEngineConfig};
use tagspin::core::spectrum::{ProfileKind, SpectrumConfig};
use tagspin::core::spinning::{DiskConfig, DiskPlane};
use tagspin::geom::{angle, Vec3};
use tagspin::rf::phase::round_trip_phase;

const LAMBDA: f64 = 0.325;
const TOL: f64 = 1e-9;

/// What a golden case records beyond its inputs.
#[derive(Clone, Copy)]
enum Record {
    /// Full 2D spectrum values plus the refined peak.
    Spectrum2D,
    /// 2D refined peak only.
    Peak2D,
    /// Full 3D spectrum values plus the refined peak.
    Spectrum3D,
    /// 3D refined peak only.
    Peak3D,
}

struct GoldenCase {
    name: &'static str,
    disk: DiskConfig,
    reader: Vec3,
    snapshots: usize,
    kind: ProfileKind,
    cfg: SpectrumConfig,
    record: Record,
}

fn cases() -> Vec<GoldenCase> {
    let cfg_2d = SpectrumConfig {
        azimuth_steps: 360,
        polar_steps: 11,
        references: 8,
        ..SpectrumConfig::default()
    };
    let cfg_3d = SpectrumConfig {
        azimuth_steps: 96,
        polar_steps: 17,
        references: 8,
        ..SpectrumConfig::default()
    };
    vec![
        GoldenCase {
            name: "trad_2d",
            disk: DiskConfig::paper_default(Vec3::ZERO),
            reader: Vec3::new(0.4, 1.7, 0.0),
            snapshots: 72,
            kind: ProfileKind::Traditional,
            cfg: cfg_2d,
            record: Record::Spectrum2D,
        },
        GoldenCase {
            name: "enh_2d",
            disk: DiskConfig::paper_default(Vec3::ZERO),
            reader: Vec3::new(-0.8, 2.2, 0.0),
            snapshots: 72,
            kind: ProfileKind::Enhanced,
            cfg: cfg_2d,
            record: Record::Spectrum2D,
        },
        GoldenCase {
            name: "hyb_2d",
            disk: DiskConfig::paper_default(Vec3::ZERO),
            reader: Vec3::new(1.1, 1.3, 0.0),
            snapshots: 64,
            kind: ProfileKind::Hybrid,
            cfg: cfg_2d,
            record: Record::Peak2D,
        },
        GoldenCase {
            name: "enh_3d",
            disk: DiskConfig::paper_default(Vec3::ZERO),
            reader: Vec3::new(0.5, 1.6, 0.9),
            snapshots: 64,
            kind: ProfileKind::Enhanced,
            cfg: cfg_3d,
            record: Record::Spectrum3D,
        },
        GoldenCase {
            name: "hyb_3d_vertical",
            disk: DiskConfig::vertical(Vec3::new(0.0, 0.5, 0.0), FRAC_PI_2),
            reader: Vec3::new(-0.4, 2.0, 1.2),
            snapshots: 64,
            kind: ProfileKind::Hybrid,
            cfg: cfg_3d,
            record: Record::Peak3D,
        },
    ]
}

/// Noise-free snapshots of one full rotation (fixtures must be
/// deterministic; noise robustness is the conformance suite's job).
fn synthesize(disk: &DiskConfig, reader: Vec3, n: usize) -> SnapshotSet {
    SnapshotSet::from_snapshots(
        (0..n)
            .map(|i| {
                let t = i as f64 * disk.period_s() / n as f64;
                let d = disk.tag_position(t).distance(reader);
                Snapshot {
                    t_s: t,
                    phase: round_trip_phase(d, 922.5e6, 0.7),
                    disk_angle: disk.disk_angle(t),
                    lambda: LAMBDA,
                    rssi_dbm: -60.0,
                }
            })
            .collect(),
    )
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn kind_name(kind: ProfileKind) -> &'static str {
    match kind {
        ProfileKind::Traditional => "Traditional",
        ProfileKind::Enhanced => "Enhanced",
        ProfileKind::Hybrid => "Hybrid",
    }
}

/// Render a fixture: inputs, then the exhaustive path's outputs.
fn render(case: &GoldenCase, set: &SnapshotSet) -> String {
    let engine = SpectrumEngine::default();
    let exhaustive = SpectrumEngineConfig { exhaustive: true };
    let mut out = String::new();
    let w = &mut out;
    // lint:allow(no-panic) writing to a String cannot fail
    let ok = "String writes are infallible";
    writeln!(w, "# tagspin golden trace v1").expect(ok);
    writeln!(w, "case {}", case.name).expect(ok);
    match case.disk.plane {
        DiskPlane::Horizontal => writeln!(
            w,
            "disk {} {} {} horizontal",
            case.disk.radius, case.disk.omega, case.disk.initial_angle
        )
        .expect(ok),
        DiskPlane::Vertical { normal_azimuth } => writeln!(
            w,
            "disk {} {} {} vertical {normal_azimuth}",
            case.disk.radius, case.disk.omega, case.disk.initial_angle
        )
        .expect(ok),
    }
    writeln!(
        w,
        "config {} {} {} {} {}",
        case.cfg.azimuth_steps,
        case.cfg.polar_steps,
        case.cfg.sigma,
        case.cfg.references,
        case.cfg.weight_inflation
    )
    .expect(ok);
    writeln!(w, "kind {}", kind_name(case.kind)).expect(ok);
    writeln!(w, "snapshots {}", set.snapshots().len()).expect(ok);
    for s in set.snapshots() {
        writeln!(
            w,
            "{} {} {} {} {}",
            s.t_s, s.phase, s.disk_angle, s.lambda, s.rssi_dbm
        )
        .expect(ok);
    }
    match case.record {
        Record::Spectrum2D | Record::Peak2D => {
            let spec = engine.spectrum_2d(set, case.disk.radius, case.kind, &case.cfg, &exhaustive);
            if matches!(case.record, Record::Spectrum2D) {
                writeln!(w, "spectrum2d {}", spec.values().len()).expect(ok);
                for v in spec.values() {
                    writeln!(w, "{v}").expect(ok);
                }
            }
            let peak = engine
                .peak_2d(set, case.disk.radius, case.kind, &case.cfg, &exhaustive)
                .expect("golden inputs always produce a peak");
            writeln!(w, "peak2d {} {}", peak.position, peak.value).expect(ok);
        }
        Record::Spectrum3D | Record::Peak3D => {
            let spec =
                engine.spectrum_3d_for_disk(set, &case.disk, case.kind, &case.cfg, &exhaustive);
            if matches!(case.record, Record::Spectrum3D) {
                let (az, po) = spec.shape();
                writeln!(w, "spectrum3d {az} {po}").expect(ok);
                for v in spec.values() {
                    writeln!(w, "{v}").expect(ok);
                }
            }
            let (dir, power) = engine
                .peak_3d_for_disk(set, &case.disk, case.kind, &case.cfg, &exhaustive)
                .expect("golden inputs always produce a peak");
            writeln!(w, "peak3d {} {} {power}", dir.azimuth, dir.polar).expect(ok);
        }
    }
    out
}

/// Parsed fixture: stored snapshots and expected outputs.
struct Fixture {
    snapshots: Vec<Snapshot>,
    spectrum: Option<Vec<f64>>,
    peak2d: Option<(f64, f64)>,
    peak3d: Option<(f64, f64, f64)>,
}

fn parse(text: &str, name: &str) -> Fixture {
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let mut fixture = Fixture {
        snapshots: Vec::new(),
        spectrum: None,
        peak2d: None,
        peak3d: None,
    };
    let f = |tok: &str| -> f64 {
        tok.parse()
            .unwrap_or_else(|_| panic!("{name}: bad float {tok:?}"))
    };
    while let Some(line) = lines.next() {
        let mut toks = line.split_whitespace();
        let Some(tag) = toks.next() else { continue };
        let rest: Vec<&str> = toks.collect();
        match tag {
            "case" | "disk" | "config" | "kind" => {}
            "snapshots" => {
                let n: usize = rest[0].parse().expect("snapshot count");
                for _ in 0..n {
                    let l = lines.next().expect("snapshot line");
                    let v: Vec<f64> = l.split_whitespace().map(f).collect();
                    assert_eq!(v.len(), 5, "{name}: snapshot line needs 5 fields");
                    fixture.snapshots.push(Snapshot {
                        t_s: v[0],
                        phase: v[1],
                        disk_angle: v[2],
                        lambda: v[3],
                        rssi_dbm: v[4],
                    });
                }
            }
            "spectrum2d" => {
                let n: usize = rest[0].parse().expect("value count");
                fixture.spectrum = Some(
                    (0..n)
                        .map(|_| f(lines.next().expect("value line")))
                        .collect(),
                );
            }
            "spectrum3d" => {
                let az: usize = rest[0].parse().expect("azimuth steps");
                let po: usize = rest[1].parse().expect("polar steps");
                fixture.spectrum = Some(
                    (0..az * po)
                        .map(|_| f(lines.next().expect("value line")))
                        .collect(),
                );
            }
            "peak2d" => fixture.peak2d = Some((f(rest[0]), f(rest[1]))),
            "peak3d" => fixture.peak3d = Some((f(rest[0]), f(rest[1]), f(rest[2]))),
            other => panic!("{name}: unknown fixture tag {other:?}"),
        }
    }
    fixture
}

/// Check one case against its fixture. Under `GOLDEN_BLESS=1`, rewrite
/// the fixture only when that check fails on it (a missing or unreadable
/// fixture fails too), so blessing a passing tree changes nothing.
fn check(case: &GoldenCase) {
    let path = golden_dir().join(format!("{}.txt", case.name));
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        if std::panic::catch_unwind(|| compare(case, &path)).is_err() {
            let set = synthesize(&case.disk, case.reader, case.snapshots);
            std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
            std::fs::write(&path, render(case, &set)).expect("write fixture");
        }
        return;
    }
    compare(case, &path);
}

/// Recompute a case from its fixture at `path` and assert that it matches.
fn compare(case: &GoldenCase, path: &Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{}: missing fixture {} ({e}); run `cargo xtask golden --bless`",
            case.name,
            path.display()
        )
    });
    let fixture = parse(&text, case.name);
    // Recompute from the *stored* snapshots: the fixture is self-contained,
    // so drift in the synthesis helper cannot mask drift in the spectrum.
    let stored = SnapshotSet::from_snapshots(fixture.snapshots.clone());
    let engine = SpectrumEngine::default();
    let fast = SpectrumEngineConfig::default();
    let exhaustive = SpectrumEngineConfig { exhaustive: true };
    match case.record {
        Record::Spectrum2D | Record::Peak2D => {
            if let Some(expected) = &fixture.spectrum {
                let spec = engine.spectrum_2d(
                    &stored,
                    case.disk.radius,
                    case.kind,
                    &case.cfg,
                    &exhaustive,
                );
                assert_eq!(
                    spec.values().len(),
                    expected.len(),
                    "{}: grid size",
                    case.name
                );
                for (i, (got, want)) in spec.values().iter().zip(expected).enumerate() {
                    assert!(
                        (got - want).abs() <= TOL,
                        "{}: spectrum[{i}] drifted: got {got}, golden {want}",
                        case.name
                    );
                }
            }
            let (want_pos, want_val) = fixture.peak2d.expect("2D fixture stores a peak");
            let got = engine
                .peak_2d(&stored, case.disk.radius, case.kind, &case.cfg, &exhaustive)
                .expect("peak");
            assert!(
                angle::separation(got.position, want_pos) <= TOL
                    && (got.value - want_val).abs() <= TOL,
                "{}: exhaustive peak drifted: got ({}, {}), golden ({want_pos}, {want_val})",
                case.name,
                got.position,
                got.value
            );
            // Fast-path conformance on the golden inputs: within one step.
            let step = TAU / case.cfg.azimuth_steps as f64;
            let quick = engine
                .peak_2d(&stored, case.disk.radius, case.kind, &case.cfg, &fast)
                .expect("fast peak");
            assert!(
                angle::separation(quick.position, want_pos) <= step + TOL,
                "{}: fast peak {} not within one step of golden {want_pos}",
                case.name,
                quick.position
            );
        }
        Record::Spectrum3D | Record::Peak3D => {
            if let Some(expected) = &fixture.spectrum {
                let spec = engine.spectrum_3d_for_disk(
                    &stored,
                    &case.disk,
                    case.kind,
                    &case.cfg,
                    &exhaustive,
                );
                assert_eq!(
                    spec.values().len(),
                    expected.len(),
                    "{}: grid size",
                    case.name
                );
                for (i, (got, want)) in spec.values().iter().zip(expected).enumerate() {
                    assert!(
                        (got - want).abs() <= TOL,
                        "{}: spectrum[{i}] drifted: got {got}, golden {want}",
                        case.name
                    );
                }
            }
            let (want_az, want_po, want_power) = fixture.peak3d.expect("3D fixture stores a peak");
            let (dir, power) = engine
                .peak_3d_for_disk(&stored, &case.disk, case.kind, &case.cfg, &exhaustive)
                .expect("peak");
            assert!(
                angle::separation(dir.azimuth, want_az) <= TOL
                    && (dir.polar - want_po).abs() <= TOL
                    && (power - want_power).abs() <= TOL,
                "{}: exhaustive peak drifted: got ({}, {}, {power}), golden ({want_az}, {want_po}, {want_power})",
                case.name,
                dir.azimuth,
                dir.polar
            );
            let az_step = TAU / case.cfg.azimuth_steps as f64;
            let po_step = std::f64::consts::PI / (case.cfg.polar_steps - 1) as f64;
            let (qdir, _) = engine
                .peak_3d_for_disk(&stored, &case.disk, case.kind, &case.cfg, &fast)
                .expect("fast peak");
            assert!(
                angle::separation(qdir.azimuth, want_az) <= az_step + TOL
                    && (qdir.polar.abs() - want_po.abs()).abs() <= po_step + TOL,
                "{}: fast peak ({}, {}) not within one step of golden ({want_az}, {want_po})",
                case.name,
                qdir.azimuth,
                qdir.polar
            );
        }
    }
}

#[test]
fn golden_trad_2d() {
    check(&cases()[0]);
}

#[test]
fn golden_enh_2d() {
    check(&cases()[1]);
}

#[test]
fn golden_hyb_2d() {
    check(&cases()[2]);
}

#[test]
fn golden_enh_3d() {
    check(&cases()[3]);
}

#[test]
fn golden_hyb_3d_vertical() {
    check(&cases()[4]);
}

//! Shared fixtures for the Tagspin benchmarks and the `reproduce` binary,
//! plus [`BENCHES`]: the six artifact benches `reproduce --bench <name>`
//! runs. Each turns its typed results into [`BenchCase`]s, and `reproduce`
//! writes them as one [`xtask::bench_check::BenchDoc`], the record
//! `cargo xtask bench-check` reads back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Timing is this crate's whole job: wall-clock reads here are the
// measurement, not pipeline overhead, so the workspace-wide
// `Instant::now` ban (clippy disallowed-methods) does not apply.
#![allow(clippy::disallowed_methods)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use tagspin_core::snapshot::{Snapshot, SnapshotSet};
use tagspin_core::spinning::{DiskConfig, SpinningTag};
use tagspin_epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin_epc::InventoryLog;
use tagspin_geom::{Pose, Vec3};
use tagspin_rf::channel::Environment;
use tagspin_rf::phase::round_trip_phase;
use tagspin_rf::{TagInstance, TagModel};
use xtask::bench_check::{ArtifactSpec, BenchCase, ARTIFACTS};

/// A deterministic noise-free snapshot set: one disk rotation observed from
/// `reader`, `n` uniform samples. Used by the spectrum kernels' benches so
/// timings do not depend on the EPC layer.
pub fn synthetic_snapshots(reader: Vec3, n: usize) -> SnapshotSet {
    let disk = DiskConfig::paper_default(Vec3::ZERO);
    SnapshotSet::from_snapshots(
        (0..n)
            .map(|i| {
                let t = i as f64 * disk.period_s() / n as f64;
                let d = disk.tag_position(t).distance(reader);
                Snapshot {
                    t_s: t,
                    phase: round_trip_phase(d, 922.5e6, 1.0),
                    disk_angle: disk.disk_angle(t),
                    lambda: 0.325,
                    rssi_dbm: -60.0,
                }
            })
            .collect(),
    )
}

/// The paper-default disk at the origin (radius 10 cm, ω = 0.5 rad/s).
pub fn bench_disk() -> DiskConfig {
    DiskConfig::paper_default(Vec3::ZERO)
}

/// A realistic inventory log: one spinning tag observed for `rotations`
/// disk turns under the paper-default environment.
pub fn bench_inventory(rotations: f64, seed: u64) -> (InventoryLog, DiskConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let disk = bench_disk();
    let tag = SpinningTag::new(
        disk,
        TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng),
    );
    let reader = ReaderConfig::at(Pose::facing_toward(Vec3::new(0.0, 2.0, 0.0), disk.center));
    let log = run_inventory(
        &Environment::paper_default(),
        &reader,
        &[&tag as &dyn Transponder],
        disk.period_s() * rotations,
        &mut rng,
    );
    (log, disk)
}

pub mod estimator_bench;
pub mod fault_sweep;
pub mod ingest_bench;
pub mod obs_bench;
pub mod robustness_bench;
pub mod serve_bench;
pub mod spectrum_bench;

/// A bench case that produced no measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseFailed {
    /// The failed case's name.
    pub case: String,
    /// Why it failed.
    pub detail: String,
}

impl fmt::Display for CaseFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case `{}` failed: {}", self.case, self.detail)
    }
}

impl std::error::Error for CaseFailed {}

/// What one bench run produced: its human-readable report and its
/// artifact's cases.
pub type BenchRun = (String, Vec<BenchCase>);

/// One artifact bench.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Bench name; equal to the name of the `ARTIFACTS` row it feeds.
    pub name: &'static str,
    /// What the bench measures, printed above its report.
    pub title: &'static str,
    /// Run at quick (`true`, CI) or full fidelity.
    pub run: fn(bool) -> Result<BenchRun, CaseFailed>,
}

/// The artifact benches, in `xtask::bench_check::ARTIFACTS` order.
pub const BENCHES: [Bench; 6] = [
    Bench {
        name: "spectrum",
        title: "spectrum engine (coarse-to-fine vs exhaustive)",
        run: |quick| {
            let results = spectrum_bench::run(quick);
            Ok((
                spectrum_bench::report(&results),
                spectrum_bench::cases(&results),
            ))
        },
    },
    Bench {
        name: "ingest",
        title: "session ingest (throughput and fix refresh vs window)",
        run: |quick| {
            let results = ingest_bench::run(quick)?;
            Ok((
                ingest_bench::report(&results),
                ingest_bench::cases(&results),
            ))
        },
    },
    Bench {
        name: "robustness",
        title: "robustness (2D accuracy vs fault rate, quarantine on/off)",
        run: |quick| {
            let results = robustness_bench::run(quick);
            Ok((
                robustness_bench::report(&results),
                robustness_bench::cases(&results),
            ))
        },
    },
    Bench {
        name: "obs",
        title: "observability overhead (per observer arm)",
        run: |quick| {
            let results = obs_bench::run(quick)?;
            Ok((obs_bench::report(&results), obs_bench::cases(&results)))
        },
    },
    Bench {
        name: "estimator",
        title: "estimator shootout (2D accuracy vs fault rate, spectrum/ml/hybrid)",
        run: |quick| {
            let results = estimator_bench::run(quick);
            Ok((
                estimator_bench::report(&results),
                estimator_bench::cases(&results),
            ))
        },
    },
    Bench {
        name: "serve",
        title: "serve fleet load (closed loop over loopback TCP)",
        run: |quick| {
            let results = serve_bench::run(quick)?;
            Ok((serve_bench::report(&results), serve_bench::cases(&results)))
        },
    },
];

/// The bench called `name`, paired with the `bench-check` row of the same
/// name that its artifact feeds; `None` for an unknown name.
pub fn find(name: &str) -> Option<(Bench, ArtifactSpec)> {
    BENCHES
        .into_iter()
        .zip(ARTIFACTS)
        .find(|(bench, spec)| bench.name == name && spec.name == name)
}

/// The writer-to-gate contract, shared by every bench module's tests:
/// `cases` written as bench `name`'s artifact reads back unchanged, under
/// the schema and with the case names `want`; every case carries every
/// gated metric; and the bench's invariant finds nothing missing.
#[cfg(test)]
fn assert_gate_reads(name: &str, cases: Vec<BenchCase>, want: &[&str]) {
    use xtask::bench_check::{parse_doc, BenchDoc};
    let (_, spec) = find(name).unwrap_or_else(|| panic!("no bench `{name}`"));
    let doc = BenchDoc {
        schema: spec.schema.to_string(),
        cases,
    };
    let read = parse_doc(&doc.to_json()).expect("the gate parses the written artifact");
    assert_eq!(read, doc);
    let names: Vec<&str> = read.cases.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, want);
    for case in &read.cases {
        for metric in spec.metrics {
            assert!(
                case.metric(metric).is_some(),
                "{name} case `{}` lacks gated `{metric}`",
                case.name
            );
        }
    }
    if let Some(invariant) = spec.invariant {
        let mut problems = Vec::new();
        invariant(&read, &mut problems);
        assert!(
            !problems.iter().any(|p| p.contains("lacks")),
            "{problems:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benches_match_the_gated_artifacts_in_order() {
        let benches: Vec<&str> = BENCHES.iter().map(|b| b.name).collect();
        let artifacts: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert_eq!(benches, artifacts);
        assert!(find("nope").is_none());
    }

    #[test]
    fn fixtures_are_usable() {
        let set = synthetic_snapshots(Vec3::new(1.0, 1.0, 0.0), 100);
        assert_eq!(set.len(), 100);
        let (log, _) = bench_inventory(0.2, 1);
        assert!(!log.is_empty());
    }
}

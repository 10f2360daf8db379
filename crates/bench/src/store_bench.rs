//! Cold-vs-warm boot benchmark for the calibration store, emitted by
//! `reproduce --bench store` as `BENCH_store.json` (schema
//! `tagspin-bench-store/v1`).
//!
//! Two cases over one on-disk [`FileStore`]:
//!
//! * `cold` — an empty store: every steering-table prewarm misses, builds
//!   from first principles, and persists the result (`store_persisted`
//!   must cover every table — a `cargo xtask bench-check` invariant).
//! * `warm` — the same directory rebooted: every prewarm loads from disk
//!   (`store_hits` > 0) and the boot must be **strictly faster** than the
//!   cold one. Structurally guaranteed: the warm path's work (read, CRC,
//!   decode, spot-check) is a subset of the cold path's (trig build,
//!   encode, CRC, write), but the invariant pins it.
//!
//! Each case also replays a localization fix with and without the store
//! attached and counts `to_bits` differences across the fix coordinates —
//! required to be exactly zero: a store (cold, warm, or corrupt) must
//! never change a fix.
//!
//! Like the sibling benches timing is `Instant`-based; `quick` shrinks
//! grids and the capture for CI.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tagspin_core::prelude::*;
use tagspin_core::spinning::SpinningTag;
use tagspin_epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin_epc::InventoryLog;
use tagspin_geom::{Pose, Vec3};
use tagspin_rf::channel::Environment;
use tagspin_rf::{TagInstance, TagModel};
use xtask::bench_check::BenchCase;

/// Polar grid size for the prewarmed tables (odd keeps γ = 0 on-grid).
const POLAR_STEPS: usize = 33;

/// One measured boot case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Stable case identifier (`cold`, `warm`).
    pub name: String,
    /// Distinct steering tables prewarmed.
    pub tables: usize,
    /// Azimuth grid size of every prewarmed table.
    pub azimuth_steps: usize,
    /// Polar grid size of every prewarmed table.
    pub polar_steps: usize,
    /// Wall-clock nanoseconds for the full prewarm loop.
    pub boot_ns: u64,
    /// `boot_ns / tables`.
    pub ns_per_table: f64,
    /// Tables served from the store (zero on cold, all on warm).
    pub store_hits: u64,
    /// Tables persisted to the store (all on cold, zero on warm).
    pub store_persisted: u64,
    /// `to_bits` differences between a storeless fix and a store-attached
    /// fix over the same capture. Must be zero.
    pub fix_bits_mismatches: u64,
}

/// Open the store at `dir` (the bench treats failures as fatal).
fn open_store(dir: &Path) -> Arc<FileStore> {
    // lint:allow(no-panic) a temp dir that cannot be created means no bench
    Arc::new(FileStore::open(dir).expect("bench store dir opens"))
}

/// Prewarm `radii` tables through a fresh engine attached to `dir`,
/// returning the wall-clock nanoseconds and the engine's store counters.
fn timed_prewarm(dir: &Path, radii: &[f64], cfg: &SpectrumConfig) -> (u64, StoreStats) {
    let ecfg = SpectrumEngineConfig {
        cache_capacity: radii.len().max(1),
        ..SpectrumEngineConfig::default()
    };
    let mut engine = SpectrumEngine::new(&ecfg);
    engine.set_store(open_store(dir));
    let t0 = Instant::now();
    for &radius in radii {
        engine.prewarm_radius(radius, cfg);
    }
    let boot_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (boot_ns, engine.store_stats())
}

/// A two-tag capture from one reader: two bearings, enough for a 2D fix.
fn fix_fixture(rotations: f64) -> (InventoryLog, [DiskConfig; 2]) {
    let mut rng = StdRng::seed_from_u64(11);
    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
    let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
    let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
    let reader = ReaderConfig::at(Pose::facing_toward(Vec3::new(0.0, 2.0, 0.0), Vec3::ZERO));
    let log = run_inventory(
        &Environment::paper_default(),
        &reader,
        &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
        d1.period_s() * rotations,
        &mut rng,
    );
    (log, [d1, d2])
}

/// Register the fixture's two tags on a fresh server.
fn fix_server(disks: &[DiskConfig; 2]) -> LocalizationServer {
    let mut server = LocalizationServer::new(PipelineConfig::default());
    // lint:allow(no-panic) fixed distinct EPCs cannot collide
    server.register(1, disks[0]).expect("distinct epcs");
    // lint:allow(no-panic) fixed distinct EPCs cannot collide
    server.register(2, disks[1]).expect("distinct epcs");
    server
}

/// Count `to_bits` differences between a storeless 2D fix and one served
/// by a store-attached server over the same capture.
fn fix_bits_mismatches(dir: &Path, log: &InventoryLog, disks: &[DiskConfig; 2]) -> u64 {
    let baseline = fix_server(disks);
    // lint:allow(no-panic) the two-tag capture always yields a fix
    let want = baseline.locate_2d(log).expect("baseline fix");

    let mut stored = fix_server(disks);
    stored.set_store(open_store(dir));
    // lint:allow(no-panic) the two-tag capture always yields a fix
    let got = stored.locate_2d(log).expect("stored fix");

    u64::from(want.position.x.to_bits() != got.position.x.to_bits())
        + u64::from(want.position.y.to_bits() != got.position.y.to_bits())
        + u64::from(want.residual_m.to_bits() != got.residual_m.to_bits())
}

/// Run the cold/warm boot suite. `quick` shrinks the grids and capture
/// for CI; the two cases and their invariants are identical either way.
pub fn run(quick: bool) -> Vec<CaseResult> {
    let (tables, azimuth_steps, rotations) = if quick {
        (6usize, 16_384usize, 1.5)
    } else {
        (8usize, 262_144usize, 3.0)
    };
    let root = std::env::temp_dir().join(format!("tagspin-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let table_dir = root.join("tables");
    let fix_dir = root.join("fixes");
    let radii: Vec<f64> = (0..tables)
        .map(|i| {
            // lint:allow(lossy-cast) table counts are tiny, exact in f64
            0.05 + 0.01 * i as f64
        })
        .collect();
    let cfg = SpectrumConfig {
        azimuth_steps,
        polar_steps: POLAR_STEPS,
        ..SpectrumConfig::default()
    };
    let (log, disks) = fix_fixture(rotations);

    let mut results = Vec::with_capacity(2);
    for name in ["cold", "warm"] {
        // Cold runs against the empty directories; warm reuses both, so
        // its prewarm loads what cold persisted.
        let (boot_ns, stats) = timed_prewarm(&table_dir, &radii, &cfg);
        let mismatches = fix_bits_mismatches(&fix_dir, &log, &disks);
        results.push(CaseResult {
            name: name.to_string(),
            tables,
            azimuth_steps,
            polar_steps: POLAR_STEPS,
            boot_ns,
            // lint:allow(lossy-cast) nanosecond totals are far below 2^53
            ns_per_table: boot_ns as f64 / (tables.max(1)) as f64,
            store_hits: stats.hits,
            store_persisted: stats.persisted,
            fix_bits_mismatches: mismatches,
        });
    }
    let _ = std::fs::remove_dir_all(&root);
    results
}

/// The artifact's cases, `cold` then `warm`.
pub fn cases(results: &[CaseResult]) -> Vec<BenchCase> {
    results
        .iter()
        .map(|r| {
            BenchCase::new(
                &r.name,
                &[
                    ("tables", r.tables as f64),
                    ("azimuth_steps", r.azimuth_steps as f64),
                    ("polar_steps", r.polar_steps as f64),
                    ("boot_ns", r.boot_ns as f64),
                    ("ns_per_table", r.ns_per_table),
                    ("store_hits", r.store_hits as f64),
                    ("store_persisted", r.store_persisted as f64),
                    ("fix_bits_mismatches", r.fix_bits_mismatches as f64),
                ],
            )
        })
        .collect()
}

/// One human-readable line per case.
pub fn report(results: &[CaseResult]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "{:<6} {} tables ({} × {} grid)  boot {:>8.2} ms  \
                 ({:>7.2} ms/table)  {} store hits  {} persisted  \
                 {} fix-bit mismatches",
                r.name,
                r.tables,
                r.azimuth_steps,
                r.polar_steps,
                // lint:allow(lossy-cast) nanosecond totals are far below 2^53
                r.boot_ns as f64 / 1e6,
                r.ns_per_table / 1e6,
                r.store_hits,
                r.store_persisted,
                r.fix_bits_mismatches,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_upholds_the_store_invariants() {
        let results = run(true);
        assert_eq!(results.len(), 2);
        let cold = &results[0];
        let warm = &results[1];
        assert_eq!(cold.name, "cold");
        assert_eq!(warm.name, "warm");
        assert_eq!(cold.store_hits, 0);
        assert_eq!(cold.store_persisted, cold.tables as u64);
        assert_eq!(warm.store_hits, warm.tables as u64);
        assert_eq!(warm.store_persisted, 0);
        assert_eq!(cold.fix_bits_mismatches, 0);
        assert_eq!(warm.fix_bits_mismatches, 0);
        assert!(
            warm.boot_ns < cold.boot_ns,
            "warm boot ({}) must beat cold boot ({})",
            warm.boot_ns,
            cold.boot_ns
        );
        crate::assert_gate_reads("store", cases(&results), &["cold", "warm"]);
    }
}

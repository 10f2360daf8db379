//! Conformance suite: the coarse-to-fine `SpectrumEngine` versus the
//! exhaustive reference path.
//!
//! The engine's contract (see `docs/SPECTRUM_ENGINE.md`) is that its fast
//! peak search lands within **one fine-grid step** of the exhaustive
//! full-grid peak, for every profile kind, in 2D and 3D, under noise. These
//! properties pin that contract with randomized geometry; the fixed-input
//! regression side lives in `tests/golden_traces.rs`.
//!
//! Case count defaults to 256 and is pinned in CI via `PROPTEST_CASES`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::TAU;
use tagspin::core::snapshot::{Snapshot, SnapshotSet};
use tagspin::core::spectrum::engine::{SpectrumEngine, SpectrumEngineConfig};
use tagspin::core::spectrum::{ProfileKind, SpectrumConfig};
use tagspin::core::spinning::DiskConfig;
use tagspin::geom::{angle, Vec3};
use tagspin::rf::phase::round_trip_phase;

const LAMBDA: f64 = 0.325;

fn cfg_2d() -> SpectrumConfig {
    SpectrumConfig {
        azimuth_steps: 180,
        polar_steps: 11,
        references: 4,
        ..SpectrumConfig::default()
    }
}

fn cfg_3d() -> SpectrumConfig {
    SpectrumConfig {
        azimuth_steps: 96,
        polar_steps: 17,
        references: 4,
        ..SpectrumConfig::default()
    }
}

const EXHAUSTIVE: SpectrumEngineConfig = SpectrumEngineConfig { exhaustive: true };

/// Snapshots of a full rotation seen from `reader`, with optional
/// per-snapshot Gaussian phase noise drawn from `seed`.
fn synthesize(disk: &DiskConfig, reader: Vec3, n: usize, noise_rad: f64, seed: u64) -> SnapshotSet {
    let mut rng = StdRng::seed_from_u64(seed);
    SnapshotSet::from_snapshots(
        (0..n)
            .map(|i| {
                let t = i as f64 * disk.period_s() / n as f64;
                let d = disk.tag_position(t).distance(reader);
                Snapshot {
                    t_s: t,
                    phase: round_trip_phase(d, 922.5e6, 0.7)
                        + noise_rad * tagspin::rf::noise::gaussian(&mut rng),
                    disk_angle: disk.disk_angle(t),
                    lambda: LAMBDA,
                    rssi_dbm: -60.0,
                }
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// 2D: for every profile kind, the coarse-to-fine peak sits within one
    /// fine azimuth step of the exhaustive full-grid peak.
    #[test]
    fn prop_fast_2d_peak_within_one_step_of_exhaustive(
        radius in 0.06f64..0.15,
        reader_r in 1.0f64..3.0,
        reader_az in 0.0f64..TAU,
        n in 48usize..96,
        noise_rad in 0.0f64..0.25,
        seed in proptest::num::u64::ANY,
    ) {
        let disk = DiskConfig {
            radius,
            ..DiskConfig::paper_default(Vec3::ZERO)
        };
        let reader = Vec3::new(reader_r * reader_az.cos(), reader_r * reader_az.sin(), 0.0);
        let set = synthesize(&disk, reader, n, noise_rad, seed);
        let cfg = cfg_2d();
        let ecfg = SpectrumEngineConfig::default();
        let engine = SpectrumEngine::new();
        let step = TAU / cfg.azimuth_steps as f64;
        for kind in [ProfileKind::Traditional, ProfileKind::Enhanced, ProfileKind::Hybrid] {
            let fast = engine.peak_2d(&set, disk.radius, kind, &cfg, &ecfg);
            let full = engine.peak_2d(&set, disk.radius, kind, &cfg, &EXHAUSTIVE);
            let (fast, full) = match (fast, full) {
                (Some(a), Some(b)) => (a, b),
                (a, b) => {
                    prop_assert!(a.is_none() && b.is_none(),
                                 "{kind:?}: one path found a peak, the other did not");
                    continue;
                }
            };
            let sep = angle::separation(fast.position, full.position);
            prop_assert!(
                sep <= step + 1e-9,
                "{kind:?}: fast {:.4} vs exhaustive {:.4} rad apart {:.4} (> step {:.4})",
                fast.position, full.position, sep, step
            );
        }
    }

    /// 3D: azimuth within one azimuth step and |polar| within one polar
    /// step (the ±γ mirror is not an error — both signs carry the same
    /// evidence, so the fold is compared).
    #[test]
    fn prop_fast_3d_peak_within_one_step_of_exhaustive(
        radius in 0.06f64..0.15,
        reader_r in 1.0f64..3.0,
        reader_az in 0.0f64..TAU,
        reader_z in -1.0f64..1.5,
        noise_rad in 0.0f64..0.15,
        seed in proptest::num::u64::ANY,
    ) {
        let disk = DiskConfig {
            radius,
            ..DiskConfig::paper_default(Vec3::ZERO)
        };
        let reader = Vec3::new(reader_r * reader_az.cos(), reader_r * reader_az.sin(), reader_z);
        let set = synthesize(&disk, reader, 64, noise_rad, seed);
        let cfg = cfg_3d();
        let ecfg = SpectrumEngineConfig::default();
        let engine = SpectrumEngine::new();
        let az_step = TAU / cfg.azimuth_steps as f64;
        let po_step = std::f64::consts::PI / (cfg.polar_steps - 1) as f64;
        for kind in [ProfileKind::Traditional, ProfileKind::Enhanced, ProfileKind::Hybrid] {
            let fast = engine.peak_3d(&set, disk.radius, kind, &cfg, &ecfg);
            let full = engine.peak_3d(&set, disk.radius, kind, &cfg, &EXHAUSTIVE);
            let ((fd, _), (ed, _)) = match (fast, full) {
                (Some(a), Some(b)) => (a, b),
                (a, b) => {
                    prop_assert!(a.is_none() && b.is_none(),
                                 "{kind:?}: one path found a peak, the other did not");
                    continue;
                }
            };
            let az_sep = angle::separation(fd.azimuth, ed.azimuth);
            let po_sep = (fd.polar.abs() - ed.polar.abs()).abs();
            prop_assert!(
                az_sep <= az_step + 1e-9 && po_sep <= po_step + 1e-9,
                "{kind:?}: fast ({:.4}, {:.4}) vs exhaustive ({:.4}, {:.4})",
                fd.azimuth, fd.polar, ed.azimuth, ed.polar
            );
        }
    }

    /// A global phase offset on every snapshot (a rigid rotation of all
    /// phasors) leaves the spectrum — hence its normalization and
    /// peak-to-sidelobe ratio — unchanged.
    #[test]
    fn prop_spectrum_invariant_under_global_phase_shift(
        radius in 0.06f64..0.15,
        reader_r in 1.0f64..3.0,
        reader_az in 0.0f64..TAU,
        shift in -10.0f64..10.0,
        noise_rad in 0.0f64..0.2,
        seed in proptest::num::u64::ANY,
    ) {
        let disk = DiskConfig {
            radius,
            ..DiskConfig::paper_default(Vec3::ZERO)
        };
        let reader = Vec3::new(reader_r * reader_az.cos(), reader_r * reader_az.sin(), 0.0);
        let set = synthesize(&disk, reader, 64, noise_rad, seed);
        let shifted = SnapshotSet::from_snapshots(
            set.snapshots()
                .iter()
                .map(|s| Snapshot { phase: s.phase + shift, ..*s })
                .collect(),
        );
        let cfg = cfg_2d();
        let ecfg = SpectrumEngineConfig::default();
        let engine = SpectrumEngine::new();
        for kind in [ProfileKind::Traditional, ProfileKind::Enhanced] {
            let a = engine.spectrum_2d(&set, disk.radius, kind, &cfg, &ecfg);
            let b = engine.spectrum_2d(&shifted, disk.radius, kind, &cfg, &ecfg);
            let (na, nb) = (a.normalized(), b.normalized());
            for (x, y) in na.values().iter().zip(nb.values()) {
                prop_assert!((x - y).abs() < 1e-9, "{kind:?}: normalized spectra differ");
            }
            match (a.peak_to_sidelobe(20.0), b.peak_to_sidelobe(20.0)) {
                (Some(p), Some(q)) => prop_assert!(
                    (p - q).abs() < 1e-9,
                    "{kind:?}: peak-to-sidelobe {p} vs {q}"
                ),
                (p, q) => prop_assert!(p.is_none() && q.is_none()),
            }
        }
    }
}

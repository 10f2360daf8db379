//! Conformance suite: the coarse-to-fine `SpectrumEngine` versus the
//! exhaustive reference path.
//!
//! The engine's contract (see `docs/SPECTRUM_ENGINE.md`) is that its fast
//! peak search lands within **one fine-grid step** of the exhaustive
//! full-grid peak, for every profile kind, in 2D and 3D, under noise, and
//! that each cell it evaluates is within `1e-12` of the spectrum maximum
//! of the reference cell. These properties pin that contract with
//! randomized geometry; the fixed-input regression side lives in
//! `tests/golden_traces.rs`.
//!
//! Case count defaults to 256 and is pinned in CI via `PROPTEST_CASES`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::TAU;
use tagspin::core::snapshot::{Snapshot, SnapshotSet};
use tagspin::core::spectrum::engine::{SpectrumEngine, SpectrumEngineConfig};
use tagspin::core::spectrum::{
    spectrum_2d, spectrum_3d, spectrum_3d_for_disk, ProfileKind, SpectrumConfig,
};
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

/// `cfg` at its pinned reference count and at the default one (16).
fn with_default_references(cfg: SpectrumConfig) -> [SpectrumConfig; 2] {
    [
        cfg,
        SpectrumConfig {
            references: SpectrumConfig::default().references,
            ..cfg
        },
    ]
}

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
        let ecfg = SpectrumEngineConfig::default();
        let engine = SpectrumEngine::new();
        for cfg in with_default_references(cfg_2d()) {
            let step = TAU / cfg.azimuth_steps as f64;
            let refs = cfg.references;
            for kind in [ProfileKind::Traditional, ProfileKind::Enhanced, ProfileKind::Hybrid] {
                let fast = engine.peak_2d(&set, disk.radius, kind, &cfg, &ecfg);
                let full = engine.peak_2d(&set, disk.radius, kind, &cfg, &EXHAUSTIVE);
                let (fast, full) = match (fast, full) {
                    (Some(a), Some(b)) => (a, b),
                    (a, b) => {
                        prop_assert!(a.is_none() && b.is_none(),
                                     "{kind:?}/{refs}: one path found a peak, the other did not");
                        continue;
                    }
                };
                let sep = angle::separation(fast.position, full.position);
                prop_assert!(
                    sep <= step + 1e-9,
                    "{kind:?}/{refs}: fast {:.4} vs exhaustive {:.4} rad apart {:.4} (> step {:.4})",
                    fast.position, full.position, sep, step
                );
            }
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
        let ecfg = SpectrumEngineConfig::default();
        let engine = SpectrumEngine::new();
        for cfg in with_default_references(cfg_3d()) {
            let az_step = TAU / cfg.azimuth_steps as f64;
            let po_step = std::f64::consts::PI / (cfg.polar_steps - 1) as f64;
            let refs = cfg.references;
            for kind in [ProfileKind::Traditional, ProfileKind::Enhanced, ProfileKind::Hybrid] {
                let fast = engine.peak_3d(&set, disk.radius, kind, &cfg, &ecfg);
                let full = engine.peak_3d(&set, disk.radius, kind, &cfg, &EXHAUSTIVE);
                let ((fd, _), (ed, _)) = match (fast, full) {
                    (Some(a), Some(b)) => (a, b),
                    (a, b) => {
                        prop_assert!(a.is_none() && b.is_none(),
                                     "{kind:?}/{refs}: one path found a peak, the other did not");
                        continue;
                    }
                };
                let az_sep = angle::separation(fd.azimuth, ed.azimuth);
                let po_sep = (fd.polar.abs() - ed.polar.abs()).abs();
                prop_assert!(
                    az_sep <= az_step + 1e-9 && po_sep <= po_step + 1e-9,
                    "{kind:?}/{refs}: fast ({:.4}, {:.4}) vs exhaustive ({:.4}, {:.4})",
                    fd.azimuth, fd.polar, ed.azimuth, ed.polar
                );
            }
        }
    }

    /// 3D at polar grids fine enough for the coarse pass to step more
    /// than one row, where a horizontal disk's search folds its `±γ`
    /// mirror pairs: `batch_3d`'s 61 rows (stride 2), the default 91
    /// (stride 3), and 60 and 101 rows, whose coarse rows are not
    /// mirror-symmetric (no middle row; a last row off the stride). The
    /// azimuth grid is cheap enough for the exhaustive path. The one-step
    /// agreement above for a horizontal disk (`peak_3d`), and for a
    /// vertical disk (`peak_3d_for_disk`) with the polar angle compared
    /// unfolded, since its aperture resolves the sign. A vertical disk's
    /// spectrum is symmetric under reflection across its own plane, so its
    /// two reflected peaks tie and either path may report either. Each
    /// case draws one grid, profile kind and reference count (4 or 16),
    /// which keeps the exhaustive full grids affordable.
    #[test]
    fn prop_fast_3d_peak_within_one_step_at_fine_polar_grids(
        radius in 0.06f64..0.15,
        reader_r in 1.0f64..3.0,
        reader_az in 0.0f64..TAU,
        reader_z in -1.0f64..1.5,
        noise_rad in 0.0f64..0.15,
        normal_azimuth in 0.0f64..TAU,
        rows_idx in 0usize..4,
        kind_idx in 0usize..3,
        ref_idx in 0usize..2,
        seed in proptest::num::u64::ANY,
    ) {
        let horizontal = DiskConfig {
            radius,
            ..DiskConfig::paper_default(Vec3::ZERO)
        };
        let vertical = DiskConfig {
            radius,
            ..DiskConfig::vertical(Vec3::ZERO, normal_azimuth)
        };
        let reader = Vec3::new(reader_r * reader_az.cos(), reader_r * reader_az.sin(), reader_z);
        let flat = synthesize(&horizontal, reader, 64, noise_rad, seed);
        let upright = synthesize(&vertical, reader, 64, noise_rad, seed);
        let ecfg = SpectrumEngineConfig::default();
        let engine = SpectrumEngine::new();
        let kind = [ProfileKind::Traditional, ProfileKind::Enhanced, ProfileKind::Hybrid][kind_idx];
        let grid = SpectrumConfig {
            azimuth_steps: 72,
            polar_steps: [60, 61, 91, 101][rows_idx],
            ..cfg_3d()
        };
        let cfg = with_default_references(grid)[ref_idx];
        let az_step = TAU / cfg.azimuth_steps as f64;
        let po_step = std::f64::consts::PI / (cfg.polar_steps - 1) as f64;
        let refs = cfg.references;
        for upright_disk in [false, true] {
            let peak = |path: &SpectrumEngineConfig| {
                if upright_disk {
                    engine.peak_3d_for_disk(&upright, &vertical, kind, &cfg, path)
                } else {
                    engine.peak_3d(&flat, radius, kind, &cfg, path)
                }
            };
            let ((fd, _), (ed, _)) = match (peak(&ecfg), peak(&EXHAUSTIVE)) {
                (Some(a), Some(b)) => (a, b),
                (a, b) => {
                    prop_assert!(a.is_none() && b.is_none(),
                                 "{kind:?}/{refs}: one path found a peak, the other did not");
                    continue;
                }
            };
            let (az_sep, po_sep) = if upright_disk {
                let reflected = 2.0 * normal_azimuth + std::f64::consts::PI - ed.azimuth;
                (
                    angle::separation(fd.azimuth, ed.azimuth)
                        .min(angle::separation(fd.azimuth, reflected)),
                    (fd.polar - ed.polar).abs(),
                )
            } else {
                (
                    angle::separation(fd.azimuth, ed.azimuth),
                    (fd.polar.abs() - ed.polar.abs()).abs(),
                )
            };
            prop_assert!(
                az_sep <= az_step + 1e-9 && po_sep <= po_step + 1e-9,
                "{kind:?}/{refs}, {} rows, vertical {upright_disk}: fast ({:.4}, {:.4}) vs exhaustive ({:.4}, {:.4})",
                cfg.polar_steps, fd.azimuth, fd.polar, ed.azimuth, ed.polar
            );
        }
    }

    /// The engine's full-grid enhanced spectra against the free
    /// functions, cell by cell, within `1e-12` of the spectrum maximum. The
    /// engine serves enhanced cells from its harmonic series where that is
    /// exact to rounding and cheaper (σ·`weight_inflation` ≤ 0.259 and
    /// enough references), and from the per-pair kernel elsewhere; the
    /// draws straddle both bounds, cover every lane remainder and more
    /// references than snapshots. A NaN phase poisons every cell and gives
    /// no peak on either path.
    #[test]
    fn prop_engine_spectra_match_free_functions(
        radius in 0.06f64..0.15,
        reader_r in 1.0f64..3.0,
        reader_az in 0.0f64..TAU,
        reader_z in -1.0f64..1.5,
        n in 1usize..=400,
        ref_idx in 0usize..5,
        inflation in 0.5f64..3.0,
        noise_rad in 0.0f64..0.25,
        nan_draw in 0usize..1600,
        normal_azimuth in 0.0f64..TAU,
        seed in proptest::num::u64::ANY,
    ) {
        let cfg = SpectrumConfig {
            azimuth_steps: 64,
            polar_steps: 7,
            references: [2, 4, 8, 16, 32][ref_idx],
            weight_inflation: inflation,
            ..SpectrumConfig::default()
        };
        let horizontal = DiskConfig {
            radius,
            ..DiskConfig::paper_default(Vec3::ZERO)
        };
        let vertical = DiskConfig {
            radius,
            ..DiskConfig::vertical(Vec3::ZERO, normal_azimuth)
        };
        let reader = Vec3::new(reader_r * reader_az.cos(), reader_r * reader_az.sin(), reader_z);
        // A quarter of the cases carry one NaN phase.
        let nan = (nan_draw < 400).then_some(nan_draw % n);
        let poison = |set: SnapshotSet| match nan {
            Some(at) => SnapshotSet::from_snapshots(
                set.snapshots()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| if i == at { Snapshot { phase: f64::NAN, ..*s } } else { *s })
                    .collect(),
            ),
            None => set,
        };
        let flat = poison(synthesize(&horizontal, reader, n, noise_rad, seed));
        let upright = poison(synthesize(&vertical, reader, n, noise_rad, seed));
        let engine = SpectrumEngine::new();
        let ecfg = SpectrumEngineConfig::default();
        let kind = ProfileKind::Enhanced;
        let pairs = [
            (
                "spectrum_2d",
                engine.spectrum_2d(&flat, radius, kind, &cfg, &ecfg).values().to_vec(),
                spectrum_2d(&flat, radius, kind, &cfg).values().to_vec(),
            ),
            (
                "spectrum_3d",
                engine.spectrum_3d(&flat, radius, kind, &cfg, &ecfg).values().to_vec(),
                spectrum_3d(&flat, radius, kind, &cfg).values().to_vec(),
            ),
            (
                "spectrum_3d_for_disk",
                engine.spectrum_3d_for_disk(&upright, &vertical, kind, &cfg, &ecfg).values().to_vec(),
                spectrum_3d_for_disk(&upright, &vertical, kind, &cfg).values().to_vec(),
            ),
        ];
        let refs = cfg.references;
        for (name, fast, exact) in &pairs {
            if nan.is_some() {
                prop_assert!(
                    fast.iter().chain(exact).all(|v| v.is_nan()),
                    "{name}/{refs}: a NaN phase left a cell finite"
                );
                continue;
            }
            let max = exact.iter().copied().fold(0.0, f64::max);
            for (cell, (a, b)) in fast.iter().zip(exact).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-12 * max,
                    "{name}/{refs}, inflation {inflation}, n {n}: cell {cell} {a} vs {b} (max {max})"
                );
            }
        }
        if nan.is_some() {
            for path in [ecfg, EXHAUSTIVE] {
                prop_assert!(engine.peak_2d(&flat, radius, kind, &cfg, &path).is_none());
                prop_assert!(engine.peak_3d(&flat, radius, kind, &cfg, &path).is_none());
                prop_assert!(engine
                    .peak_3d_for_disk(&upright, &vertical, kind, &cfg, &path)
                    .is_none());
            }
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

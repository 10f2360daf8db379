//! Degenerate-geometry conformance for the typed fix confidence.
//!
//! The contract under test: every confidence path — the CRLB-propagated
//! bearing-line fusion and the ML backend's covariance — either returns a
//! finite, positive-semidefinite [`FixConfidence`] or a typed
//! [`ConfidenceError`]/[`ServerError`] refusal. It never panics and never
//! leaks a NaN, across collinear antenna rails, near-zero baselines, and
//! single-tag 3D geometry.
//!
//! Case count defaults to 256 and is pinned in CI via `PROPTEST_CASES`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::TAU;
use tagspin::core::estimator::confidence_from_bearing_lines;
use tagspin::core::prelude::*;
use tagspin::geom::{Vec2, Vec3};
use tagspin::rf::noise::gaussian;

const LAMBDA: f64 = 0.325;

/// A synthesized snapshot window: the round-trip phase model from `truth`
/// with additive Gaussian noise, one full rotation.
fn synth_observation(epc: u128, disk: DiskConfig, truth: Vec3, seed: u64) -> TagObservation {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 240;
    let set = SnapshotSet::from_snapshots(
        (0..n)
            .map(|i| {
                let t = i as f64 * disk.period_s() / n as f64;
                let d = disk.tag_position(t).distance(truth);
                Snapshot {
                    t_s: t,
                    phase: tagspin::geom::angle::wrap_tau(
                        2.0 * TAU / LAMBDA * d + 0.7 + 0.1 * gaussian(&mut rng),
                    ),
                    disk_angle: disk.disk_angle(t),
                    lambda: LAMBDA,
                    rssi_dbm: -60.0,
                }
            })
            .collect(),
    );
    TagObservation { epc, disk, set }
}

/// The invariant every confidence result must satisfy.
fn assert_confidence_sane(res: &Result<FixConfidence, ConfidenceError>) {
    if let Ok(conf) = res {
        assert!(
            conf.is_finite_psd(),
            "non-PSD confidence accepted: {conf:?}"
        );
        assert!(
            conf.sigma_major_m.is_finite() && conf.sigma_minor_m.is_finite(),
            "{conf:?}"
        );
        assert!(conf.sigma_major_m >= conf.sigma_minor_m, "{conf:?}");
    }
}

proptest! {
    /// Collinear antennas with exactly parallel bearings: the information
    /// matrix is rank one, so the fusion must refuse with a typed error
    /// regardless of rail length, spacing, or query position.
    #[test]
    fn prop_parallel_rail_is_refused(
        n in 2usize..6,
        spacing in 1e-6f64..2.0,
        azimuth in 0.0f64..TAU,
        px in -5.0f64..5.0,
        py in -5.0f64..5.0,
        sigma in 1e-4f64..0.5,
    ) {
        let lines: Vec<(Vec2, f64, f64)> = (0..n)
            .map(|i| (Vec2::new(i as f64 * spacing, 0.0), azimuth, sigma))
            .collect();
        let res = confidence_from_bearing_lines(&lines, Vec2::new(px, py), None);
        prop_assert!(res.is_err(), "parallel rail accepted: {res:?}");
        assert_confidence_sane(&res);
    }

    /// Near-zero baselines: all origins collapsed inside an ε-ball. The
    /// fusion may refuse (position inside the ball, near-parallel lines)
    /// or answer — but an answer must be finite and PSD.
    #[test]
    fn prop_zero_baseline_finite_or_refused(
        eps in 0.0f64..1e-6,
        az1 in 0.0f64..TAU,
        az2 in 0.0f64..TAU,
        az3 in 0.0f64..TAU,
        px in -3.0f64..3.0,
        py in -3.0f64..3.0,
        sigma in 1e-4f64..0.5,
    ) {
        let lines = [
            (Vec2::new(0.0, 0.0), az1, sigma),
            (Vec2::new(eps, 0.0), az2, sigma),
            (Vec2::new(0.0, eps), az3, sigma),
        ];
        let res = confidence_from_bearing_lines(&lines, Vec2::new(px, py), None);
        assert_confidence_sane(&res);
    }

    /// Arbitrary line soup, including non-finite azimuths, infinite and
    /// non-positive CRLBs, and positions on top of origins: the result is
    /// always a typed verdict, never a NaN-carrying confidence.
    #[test]
    fn prop_line_soup_never_yields_nan(
        ox in proptest::collection::vec(-4.0f64..4.0, 2..6),
        oy in proptest::collection::vec(-4.0f64..4.0, 2..6),
        az in proptest::collection::vec(-10.0f64..10.0, 2..6),
        sig in proptest::collection::vec(-0.1f64..0.5, 2..6),
        px in -5.0f64..5.0,
        py in -5.0f64..5.0,
        poison_sel in 0u8..4,
    ) {
        let n = ox.len().min(oy.len()).min(az.len()).min(sig.len());
        let mut lines: Vec<(Vec2, f64, f64)> = (0..n)
            .map(|i| (Vec2::new(ox[i], oy[i]), az[i], sig[i]))
            .collect();
        // Poison one entry with the non-finite values the API documents
        // as zero-information or refusals.
        match poison_sel {
            0 => lines[0].2 = f64::INFINITY,
            1 => lines[0].1 = f64::NAN,
            2 => lines[0].0 = Vec2::new(px, py),
            _ => {}
        }
        let res = confidence_from_bearing_lines(&lines, Vec2::new(px, py), None);
        assert_confidence_sane(&res);
        // Non-positive finite sigmas are a hard refusal, checked typed.
        if let Err(e) = res {
            let typed = matches!(
                e,
                ConfidenceError::DegenerateGeometry
                    | ConfidenceError::NonFinite
                    | ConfidenceError::TooFewBearings { got: _ }
            );
            prop_assert!(typed, "unexpected refusal type: {e:?}");
        }
    }

    /// Single-tag 3D through the ML backend: one bearing cannot fix a 3D
    /// position, so the estimate must either refuse with a typed
    /// [`ServerError`] or (if the seed resolves) carry only finite fields
    /// and a sane confidence verdict.
    #[test]
    fn prop_single_tag_3d_refuses_or_stays_finite(
        seed in 0u64..512,
        tx in -1.0f64..1.0,
        ty in 1.0f64..2.5,
        tz in -0.5f64..0.8,
        backend_sel in 0u8..3,
    ) {
        let truth = Vec3::new(tx, ty, tz);
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let obs = synth_observation(1, disk, truth, seed);
        let rel = truth - disk.center;
        let bearing = tagspin::core::locate::space::Bearing3D::new(
            disk.center,
            tagspin::geom::vec3::Direction3::new(rel.azimuth(), rel.polar()),
        );
        let backend = match backend_sel {
            0 => EstimatorBackend::Spectrum,
            1 => EstimatorBackend::Ml,
            _ => EstimatorBackend::Hybrid,
        };
        let cfg = PipelineConfig::default();
        match backend.estimate::<ThreeD>(&[bearing], &[obs], &cfg) {
            Ok(est) => {
                prop_assert!(est.fix.position.is_finite(), "{:?}", est.fix);
                assert_confidence_sane(&est.confidence);
            }
            Err(e) => {
                // A refusal must be the locate layer's typed geometry
                // error, not a panic or a poisoned value.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// Deterministic spot check: two crossing bearings at a right angle give a
/// well-conditioned confidence through the public fusion entry point.
#[test]
fn crossing_bearings_give_finite_confidence() {
    let p = Vec2::new(0.0, 1.0);
    let lines = [
        (Vec2::new(-1.0, 1.0), 0.0, 0.01),
        (Vec2::new(0.0, 0.0), TAU / 4.0, 0.01),
    ];
    let conf = confidence_from_bearing_lines(&lines, p, None).expect("well-conditioned");
    assert!(conf.is_finite_psd());
    assert_eq!(conf.bearings, 2);
}

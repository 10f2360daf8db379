//! End-to-end estimator backend conformance over the simulated pipeline.
//!
//! One clean two-tag inventory log, served through every
//! [`EstimatorBackend`] at both the batch (`LocalizationServer`) and
//! streaming (`ReaderSession`) `fix::<K>` / `estimate::<K>` entry points.
//! The contract:
//!
//! 1. **Default invariance** — the spectrum backend's estimate of every
//!    kind carries exactly the plain `fix::<K>` fix, bit for bit.
//! 2. **Refinement quality** — the ML and hybrid backends deliver finite
//!    fixes within a small radius of the true reader position, with a
//!    finite PSD confidence when one is computed.
//! 3. **Hybrid policy** — on a clean capture the hybrid fix equals the ML
//!    fix; on a corrupted capture it falls back to the spectrum fix, for
//!    every kind.
//! 4. **Plain/estimate parity** — `fix::<TwoD>()` and
//!    `estimate::<TwoD>().fix` agree for every backend (one generic body
//!    serves both).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::sync::OnceLock;
use tagspin::core::prelude::*;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::InventoryLog;
use tagspin::geom::{Pose, Vec2, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

const TRUTH: Vec3 = Vec3::new(0.4, 1.7, 0.0);

fn server_with(backend: EstimatorBackend) -> LocalizationServer {
    let mut server = LocalizationServer::new(PipelineConfig::default());
    server.config.estimator.backend = backend;
    server
        .register(1, DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)))
        .expect("unique EPC");
    server
        .register(2, DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)))
        .expect("unique EPC");
    server
}

/// One clean simulated rotation of the two-tag deployment, built once.
fn clean_log() -> &'static InventoryLog {
    static LOG: OnceLock<InventoryLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(41);
        let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
        let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
        let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
        let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
        let reader = ReaderConfig::at(Pose::facing_toward(TRUTH, Vec3::ZERO));
        run_inventory(
            &Environment::paper_default(),
            &reader,
            &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
            d1.period_s(),
            &mut rng,
        )
    })
}

#[test]
fn spectrum_estimate_is_legacy_fix_verbatim() {
    fn check<K: FixPath>(server: &LocalizationServer)
    where
        K::Fix: PartialEq + Debug,
    {
        let est = server.estimate::<K>(clean_log()).expect("fix");
        let legacy = server.fix::<K>(clean_log()).expect("fix");
        assert_eq!(est.fix, legacy);
        assert_eq!(est.backend, EstimatorBackend::Spectrum);
        assert!(est.ml.is_none());
    }
    let server = server_with(EstimatorBackend::Spectrum);
    check::<TwoD>(&server);
    check::<ThreeD>(&server);
    check::<Aided>(&server);
}

#[test]
fn every_backend_lands_near_truth_2d() {
    for backend in [
        EstimatorBackend::Spectrum,
        EstimatorBackend::Ml,
        EstimatorBackend::Hybrid,
    ] {
        let server = server_with(backend);
        let est = server.estimate::<TwoD>(clean_log()).expect("fix");
        let err = (est.fix.position - TRUTH.xy()).norm();
        assert!(
            err < 0.15,
            "{backend:?} fix {:?} is {err:.3} m from truth",
            est.fix.position
        );
        assert!(est.fix.position.is_finite());
        if let Ok(conf) = est.confidence {
            assert!(conf.is_finite_psd(), "{backend:?}: {conf:?}");
        }
    }
}

#[test]
fn ml_backend_reports_an_accepted_refinement() {
    let server = server_with(EstimatorBackend::Ml);
    let est = server.estimate::<TwoD>(clean_log()).expect("fix");
    let report = est.ml.expect("ml report");
    assert!(report.accepted, "{report:?}");
    assert!(report.final_cost <= report.seed_cost + 1e-12, "{report:?}");
    assert!(report.mean_weight > 0.5, "{report:?}");
    let conf = est.confidence.expect("ml confidence");
    assert!(conf.is_finite_psd());
}

#[test]
fn hybrid_matches_ml_on_clean_capture() {
    let ml = server_with(EstimatorBackend::Ml)
        .estimate::<TwoD>(clean_log())
        .expect("fix");
    let hybrid = server_with(EstimatorBackend::Hybrid)
        .estimate::<TwoD>(clean_log())
        .expect("fix");
    assert!(hybrid.ml.expect("report").accepted);
    assert_eq!(hybrid.fix, ml.fix);
    assert_eq!(hybrid.backend, EstimatorBackend::Hybrid);
}

#[test]
fn hybrid_falls_back_to_spectrum_on_corrupted_phases() {
    // Re-randomize every phase: the bearings stay plausible enough for the
    // spectrum seed but the raw-phase model collapses, so the hybrid
    // weight floor must reject the refinement.
    let mut rng = StdRng::seed_from_u64(99);
    let corrupted: InventoryLog = clean_log()
        .reports()
        .iter()
        .map(|r| {
            let mut r = *r;
            r.phase = tagspin::geom::angle::wrap_tau(8.13 * tagspin::rf::noise::gaussian(&mut rng));
            r
        })
        .collect();
    fn check<K: FixPath>(corrupted: &InventoryLog)
    where
        K::Fix: PartialEq + Debug,
    {
        let (Ok(hybrid), Ok(spectrum)) = (
            server_with(EstimatorBackend::Hybrid).estimate::<K>(corrupted),
            server_with(EstimatorBackend::Spectrum).estimate::<K>(corrupted),
        ) else {
            // Fully scrambled phases may fail the spectrum fix itself; that
            // refusal path is exercised elsewhere.
            return;
        };
        assert_eq!(hybrid.fix, spectrum.fix);
        assert!(!hybrid.ml.expect("report").accepted);
    }
    check::<TwoD>(&corrupted);
    check::<ThreeD>(&corrupted);
    check::<Aided>(&corrupted);
}

#[test]
fn session_wrappers_agree_with_estimate_path() {
    for backend in [
        EstimatorBackend::Spectrum,
        EstimatorBackend::Ml,
        EstimatorBackend::Hybrid,
    ] {
        let server = server_with(backend);
        let mut plain = server.session(WindowConfig::unbounded());
        plain.ingest_log(clean_log());
        let fix = plain.fix::<TwoD>().expect("fix");

        let mut est_session = server.session(WindowConfig::unbounded());
        est_session.ingest_log(clean_log());
        let est = est_session.estimate::<TwoD>().expect("fix");
        assert_eq!(fix, est.fix, "{backend:?} wrapper parity");
        assert_eq!(est.backend, backend);
    }
}

#[test]
fn backends_resolve_3d_and_aided_fixes() {
    for backend in [
        EstimatorBackend::Spectrum,
        EstimatorBackend::Ml,
        EstimatorBackend::Hybrid,
    ] {
        let server = server_with(backend);
        let est = server.estimate::<ThreeD>(clean_log()).expect("3d fix");
        assert!(est.fix.position.is_finite());
        assert!(
            (est.fix.position.xy() - TRUTH.xy()).norm() < 0.3,
            "{backend:?}: {:?}",
            est.fix.position
        );
        let aided = server.estimate::<Aided>(clean_log()).expect("aided fix");
        assert!(aided.fix.position.is_finite());
    }
}

#[test]
fn estimator_metrics_count_served_backend() {
    let mut server = server_with(EstimatorBackend::Ml);
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    server.set_observer(std::sync::Arc::new(MetricsObserver::new(
        std::sync::Arc::clone(&registry),
    )));
    let mut session = server.session(WindowConfig::unbounded());
    session.ingest_log(clean_log());
    session.estimate::<TwoD>().expect("fix");
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("estimator.fix.ml"), 1);
    assert_eq!(counter("estimator.fix.spectrum"), 0);
}

#[test]
fn truth_constant_matches_scenario_geometry() {
    // The reader faces the rig midpoint; sanity-pin the layout the other
    // assertions lean on.
    assert!((TRUTH.xy() - Vec2::new(0.4, 1.7)).norm() < 1e-12);
}

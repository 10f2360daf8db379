//! Estimator-backend A/B trials: the same capture through every backend.
//!
//! The fault A/B harness ([`crate::fault::run_trial_2d_ab`]) isolates what
//! the quarantine layer buys by holding the stream fixed and flipping the
//! ingest posture. This module applies the same discipline one layer up:
//! one simulated observation, one corruption pass, then the *same* hostile
//! stream through three sessions that differ **only** in
//! `EstimatorConfig::backend` — spectrum, ML, hybrid. Every arm runs the
//! hardened ingest posture and the paper-default quality gate, so the
//! curves measure the estimator, not the screens in front of it.
//!
//! [`run_trial_2d_estimators`] is what the `estimator` shootout benchmark
//! sweeps over the fault matrix to produce `BENCH_estimator.json`.

use crate::fault::FaultPlan;
use crate::metrics::TrialError;
use crate::scenario::Scenario;
use crate::trial::{observe, setup_trial, Trial2DOutcome, TrialFailure, TrialSetup};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin_core::prelude::*;
use tagspin_epc::TagReport;

/// One backend's result over the shared corrupted stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendArm {
    /// Which estimator backend served this arm.
    pub backend: EstimatorBackend,
    /// The arm's fix and error, or why it failed.
    pub outcome: Result<Trial2DOutcome, TrialFailure>,
    /// The ML refinement report (`None` on the spectrum backend).
    pub ml: Option<MlReport>,
}

/// All three estimator arms of one A/B trial.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorAbOutcome {
    /// The spectrum-peak baseline.
    pub spectrum: BackendArm,
    /// The maximum-likelihood refinement.
    pub ml: BackendArm,
    /// The trust-gated hybrid.
    pub hybrid: BackendArm,
    /// Reports delivered after corruption (all arms saw this stream).
    pub delivered: usize,
}

impl EstimatorAbOutcome {
    /// The arm for `backend`.
    pub fn arm(&self, backend: EstimatorBackend) -> &BackendArm {
        match backend {
            EstimatorBackend::Spectrum => &self.spectrum,
            EstimatorBackend::Ml => &self.ml,
            EstimatorBackend::Hybrid => &self.hybrid,
        }
    }
}

/// Prepare one estimator A/B trial: manufacture the world, run the
/// observation, corrupt it, and lock every arm to the hardened ingest
/// posture and paper-default quality gate.
///
/// # Errors
///
/// [`TrialFailure::Calibration`] when the shared setup fails.
pub fn prepare_trial(
    scenario: &Scenario,
    plan: &FaultPlan,
    seed: u64,
) -> Result<(TrialSetup, Vec<TagReport>), TrialFailure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut setup = setup_trial(scenario, &mut rng)?;
    let log = observe(scenario, &setup, &mut rng);
    let reports = plan.apply(&log, seed);
    setup.server.config.ingest = IngestPolicy::hardened();
    setup.server.config.quality_gate = QualityGate::paper_default();
    Ok((setup, reports))
}

/// Run one backend arm over a prepared trial: flip only the estimator
/// backend, replay the stream into a fresh session, and score the fix.
pub fn run_backend_arm(
    setup: &mut TrialSetup,
    backend: EstimatorBackend,
    reports: &[TagReport],
    scenario: &Scenario,
) -> BackendArm {
    setup.server.config.estimator.backend = backend;
    let mut session = setup.server.session(WindowConfig::unbounded());
    for report in reports {
        session.ingest(report);
    }
    match session.estimate::<TwoD>() {
        Ok(est) => {
            let error = TrialError::planar(est.fix.position, scenario.reader_truth.position.xy());
            BackendArm {
                backend,
                outcome: Ok(Trial2DOutcome {
                    fix: est.fix,
                    error,
                    reads: reports.len(),
                }),
                ml: est.ml,
            }
        }
        Err(e) => BackendArm {
            backend,
            outcome: Err(TrialFailure::Server(e)),
            ml: None,
        },
    }
}

/// Run one 2D localization trial with the corrupted stream fed through all
/// three estimator backends. Everything upstream — tag manufacture,
/// calibration, the observation, the corruption pass — happens exactly
/// once, so the arms differ *only* in `EstimatorConfig::backend`.
///
/// # Errors
///
/// [`TrialFailure::Calibration`] when the shared setup fails; per-arm
/// pipeline failures are reported inside [`EstimatorAbOutcome`], not here.
pub fn run_trial_2d_estimators(
    scenario: &Scenario,
    plan: &FaultPlan,
    seed: u64,
) -> Result<EstimatorAbOutcome, TrialFailure> {
    let (mut setup, reports) = prepare_trial(scenario, plan, seed)?;
    let spectrum = run_backend_arm(&mut setup, EstimatorBackend::Spectrum, &reports, scenario);
    let ml = run_backend_arm(&mut setup, EstimatorBackend::Ml, &reports, scenario);
    let hybrid = run_backend_arm(&mut setup, EstimatorBackend::Hybrid, &reports, scenario);
    Ok(EstimatorAbOutcome {
        spectrum,
        ml,
        hybrid,
        delivered: reports.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::run_trial_2d_ab;
    use tagspin_geom::Vec2;

    #[test]
    fn trial_is_deterministic_per_seed() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let plan = FaultPlan::at_rate(0.1);
        let a = run_trial_2d_estimators(&scenario, &plan, 5).unwrap();
        let b = run_trial_2d_estimators(&scenario, &plan, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn spectrum_arm_matches_hardened_fault_arm() {
        // The spectrum arm is the hardened fault-A/B arm routed through the
        // estimator dispatch — same stream, same posture, same fix.
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let plan = FaultPlan::at_rate(0.2);
        let est = run_trial_2d_estimators(&scenario, &plan, 42).unwrap();
        let ab = run_trial_2d_ab(&scenario, &plan, 42).unwrap();
        let spectrum = est.spectrum.outcome.as_ref().expect("spectrum arm fixes");
        let hardened = ab.hardened.expect("hardened arm fixes");
        assert_eq!(spectrum.fix, hardened.fix);
        assert!(est.spectrum.ml.is_none());
    }

    #[test]
    fn ml_arm_competitive_on_clean_capture() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let out = run_trial_2d_estimators(&scenario, &FaultPlan::clean(), 42).unwrap();
        let spectrum = out.spectrum.outcome.as_ref().unwrap();
        let ml = out.ml.outcome.as_ref().unwrap();
        assert!(
            ml.error.combined < spectrum.error.combined + 0.05,
            "ml {:.3} m vs spectrum {:.3} m",
            ml.error.combined,
            spectrum.error.combined
        );
        let report = out.ml.ml.expect("ml arm reports");
        assert!(report.accepted, "{report:?}");
    }

    #[test]
    fn hybrid_never_worse_than_both_arms_by_much() {
        let scenario = Scenario::paper_2d(Vec2::new(-0.5, 2.2)).quick();
        for &rate in &[0.0, 0.3] {
            let out = run_trial_2d_estimators(&scenario, &FaultPlan::at_rate(rate), 7).unwrap();
            let spectrum = out.spectrum.outcome.as_ref().unwrap();
            let hybrid = out.hybrid.outcome.as_ref().unwrap();
            let ml = out.ml.outcome.as_ref().unwrap();
            let floor = spectrum.error.combined.max(ml.error.combined);
            assert!(
                hybrid.error.combined <= floor + 1e-9,
                "rate {rate}: hybrid {:.3} m vs worst arm {:.3} m",
                hybrid.error.combined,
                floor
            );
            // A rejected hybrid refinement serves the spectrum fix verbatim.
            if out.hybrid.ml.is_some_and(|r| !r.accepted) {
                assert_eq!(hybrid.fix, spectrum.fix);
            }
        }
    }

    #[test]
    fn arm_lookup_covers_every_backend() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let out = run_trial_2d_estimators(&scenario, &FaultPlan::clean(), 3).unwrap();
        for backend in [
            EstimatorBackend::Spectrum,
            EstimatorBackend::Ml,
            EstimatorBackend::Hybrid,
        ] {
            assert_eq!(out.arm(backend).backend, backend);
        }
    }
}

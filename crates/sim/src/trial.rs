//! End-to-end localization trials.
//!
//! One trial = one full Tagspin run inside the simulated office: the tags
//! are manufactured (hidden per-individual parameters drawn from the seed),
//! optionally orientation-calibrated with a center-spin capture, spun on
//! their disks while the reader inventories them, and the server pipeline
//! produces a fix that is scored against ground truth.
//!
//! [`Trial`] is that run split at the fix: [`Trial::prepare`] does
//! everything up to the delivered report stream once, optionally through a
//! [`FaultPlan`], and [`Trial::replay`] feeds the same stream to a fresh
//! session under one arm's configuration. Every single-arm trial and every
//! A/B study (ingest posture, estimator backend) goes through it, so arms
//! differ only in what the arm changes.

use crate::fault::FaultPlan;
use crate::metrics::TrialError;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use tagspin_core::prelude::*;
use tagspin_core::server::ServerError;
use tagspin_core::snapshot::SnapshotSet;
use tagspin_epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin_epc::{InventoryLog, TagReport};
use tagspin_geom::Vec3;
use tagspin_rf::TagInstance;

/// Why a trial could not produce a fix.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialFailure {
    /// The pipeline failed (usually: a tag was never read).
    Server(ServerError),
    /// Orientation calibration failed.
    Calibration(String),
    /// The 3D ambiguity could not be resolved inside the feasible space.
    AmbiguityUnresolved,
}

impl fmt::Display for TrialFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialFailure::Server(e) => write!(f, "pipeline failed: {e}"),
            TrialFailure::Calibration(e) => write!(f, "orientation calibration failed: {e}"),
            TrialFailure::AmbiguityUnresolved => {
                write!(f, "no z-candidate inside the feasible space")
            }
        }
    }
}

impl std::error::Error for TrialFailure {}

/// Everything a trial produced (2D).
#[derive(Debug, Clone, PartialEq)]
pub struct Trial2DOutcome {
    /// The fix.
    pub fix: Fix2D,
    /// Error versus ground truth.
    pub error: TrialError,
    /// Total reads collected.
    pub reads: usize,
}

/// Everything a trial produced (3D).
#[derive(Debug, Clone, PartialEq)]
pub struct Trial3DOutcome {
    /// The resolved position estimate.
    pub position: tagspin_geom::Vec3,
    /// The full fix (both candidates).
    pub fix: Fix3D,
    /// Error versus ground truth.
    pub error: TrialError,
    /// Total reads collected.
    pub reads: usize,
}

/// The manufactured world of one trial: tags plus the prepared server.
pub struct TrialSetup {
    /// The physical spinning tags (EPCs `1..=n`).
    pub tags: Vec<SpinningTag>,
    /// The server, with disks registered and calibrations attached.
    pub server: LocalizationServer,
    /// Reader configuration used for the inventories.
    pub reader: ReaderConfig,
}

/// Manufacture tags, run the center-spin calibration (when enabled), and
/// prepare the server — everything up to the main observation.
///
/// # Errors
///
/// [`TrialFailure::Calibration`] when the center-spin fit fails.
pub fn setup_trial(scenario: &Scenario, rng: &mut StdRng) -> Result<TrialSetup, TrialFailure> {
    let mut server = LocalizationServer::new(PipelineConfig {
        spectrum: scenario.spectrum,
        engine: scenario.engine,
        orientation_calibration: scenario.orientation_calibration,
        profile: scenario.profile,
        ..PipelineConfig::default()
    });
    let reader = ReaderConfig::at(scenario.reader_truth)
        .with_antenna(scenario.antenna)
        .with_hopping(scenario.hopping);

    let mut tags = Vec::with_capacity(scenario.disks.len());
    for (i, &disk) in scenario.disks.iter().enumerate() {
        let epc = (i + 1) as u128;
        let instance = TagInstance::manufacture(scenario.tag_model, epc, rng);
        server
            .register(epc, disk)
            // lint:allow(no-panic) EPCs are enumerate() indices, unique by construction
            .expect("EPCs are unique by construction");

        if scenario.orientation_calibration {
            // Step 1 (Section III-B): tag at the disk *center*, one-plus
            // revolutions, fit the phase-orientation function.
            let center_tag = CenterSpinTag {
                disk,
                tag: instance.clone(),
            };
            let log = run_inventory(
                &scenario.env,
                &reader,
                &[&center_tag as &dyn Transponder],
                disk.period_s() * 1.3,
                rng,
            );
            let set = SnapshotSet::from_log(&log, epc, &disk)
                .map_err(|e| TrialFailure::Calibration(e.to_string()))?
                .decimate(scenario.decimate);
            let cal = OrientationCalibration::fit(&set)
                .map_err(|e| TrialFailure::Calibration(e.to_string()))?;
            server
                .set_orientation_calibration(epc, cal)
                // lint:allow(no-panic) the same epc was registered a few lines up
                .expect("tag registered above");
        }
        tags.push(SpinningTag::new(disk, instance));
    }
    Ok(TrialSetup {
        tags,
        server,
        reader,
    })
}

/// Run the main observation window and return the log.
pub fn observe(scenario: &Scenario, setup: &TrialSetup, rng: &mut StdRng) -> InventoryLog {
    let transponders: Vec<&dyn Transponder> =
        setup.tags.iter().map(|t| t as &dyn Transponder).collect();
    let log = run_inventory(
        &scenario.env,
        &setup.reader,
        &transponders,
        scenario.observation_s,
        rng,
    );
    if scenario.decimate > 1 {
        // Decimate per-EPC streams uniformly, preserving order.
        let mut kept = InventoryLog::new();
        let mut counters: std::collections::HashMap<u128, usize> = std::collections::HashMap::new();
        for r in log.reports() {
            let c = counters.entry(r.epc).or_insert(0);
            if (*c).is_multiple_of(scenario.decimate) {
                kept.push(*r);
            }
            *c += 1;
        }
        kept
    } else {
        log
    }
}

/// One prepared trial: the world manufactured, observed and corrupted
/// once, ready to be replayed under any number of arms.
#[derive(Debug)]
pub struct Trial {
    /// The server, with disks registered and calibrations attached, under
    /// the scenario's configuration.
    server: LocalizationServer,
    /// The stream the reader delivered, after the fault plan.
    reports: Vec<TagReport>,
    /// Where the reader really is.
    truth: Vec3,
}

impl Trial {
    /// Seed the trial's RNG with `seed`, manufacture and calibrate the
    /// world ([`setup_trial`]), run the observation ([`observe`]) and
    /// corrupt it with `plan` (also seeded by `seed`). A
    /// [`FaultPlan::clean`] plan delivers the log verbatim.
    ///
    /// # Errors
    ///
    /// [`TrialFailure::Calibration`] when the center-spin fit fails.
    pub fn prepare(scenario: &Scenario, plan: &FaultPlan, seed: u64) -> Result<Self, TrialFailure> {
        let mut rng = StdRng::seed_from_u64(seed);
        let setup = setup_trial(scenario, &mut rng)?;
        let log = observe(scenario, &setup, &mut rng);
        Ok(Trial {
            server: setup.server,
            reports: plan.apply(&log, seed),
            truth: scenario.reader_truth.position,
        })
    }

    /// Reports delivered after the fault plan (every arm sees them all).
    pub fn delivered(&self) -> usize {
        self.reports.len()
    }

    /// A one-shot session with an unbounded window, fed every delivered
    /// report in order, under the scenario's configuration as changed by
    /// `arm` — the path [`LocalizationServer::fix`] takes for a log.
    pub fn replay(&self, arm: impl FnOnce(&mut PipelineConfig)) -> ReaderSession {
        let mut server = self.server.clone();
        arm(&mut server.config);
        let mut session = server.session(WindowConfig::unbounded());
        for report in &self.reports {
            session.ingest(report);
        }
        session
    }

    /// Score a 2D fix against the truth.
    pub fn outcome_2d(&self, fix: Fix2D) -> Trial2DOutcome {
        Trial2DOutcome {
            error: TrialError::planar(fix.position, self.truth.xy()),
            fix,
            reads: self.delivered(),
        }
    }
}

/// Run one full 2D trial.
///
/// # Errors
///
/// [`TrialFailure`] when any pipeline stage fails.
pub fn run_trial_2d(scenario: &Scenario, seed: u64) -> Result<Trial2DOutcome, TrialFailure> {
    let trial = Trial::prepare(scenario, &FaultPlan::clean(), seed)?;
    let fix = trial
        .replay(|_| {})
        .fix::<TwoD>()
        .map_err(TrialFailure::Server)?;
    Ok(trial.outcome_2d(fix))
}

/// Run one full 3D trial; the ±z ambiguity is resolved with the scenario's
/// feasible height interval.
///
/// # Errors
///
/// [`TrialFailure`] when any pipeline stage fails or neither candidate is
/// feasible.
pub fn run_trial_3d(scenario: &Scenario, seed: u64) -> Result<Trial3DOutcome, TrialFailure> {
    let trial = Trial::prepare(scenario, &FaultPlan::clean(), seed)?;
    let fix = trial
        .replay(|_| {})
        .fix::<ThreeD>()
        .map_err(TrialFailure::Server)?;
    let (lo, hi) = scenario.z_feasible;
    let position = fix
        .resolve(|p| p.z >= lo && p.z <= hi)
        .ok_or(TrialFailure::AmbiguityUnresolved)?;
    let error = TrialError::spatial(position, trial.truth);
    Ok(Trial3DOutcome {
        position,
        fix,
        error,
        reads: trial.delivered(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{hardened, permissive};
    use tagspin_geom::Vec2;

    #[test]
    fn trial_2d_centimeter_accuracy() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let out = run_trial_2d(&scenario, 42).expect("trial should succeed");
        assert!(out.reads > 100, "only {} reads", out.reads);
        assert!(
            out.error.combined < 0.15,
            "error {:.1} cm",
            out.error.combined * 100.0
        );
    }

    #[test]
    fn trial_2d_deterministic_per_seed() {
        let scenario = Scenario::paper_2d(Vec2::new(-0.5, 2.2)).quick();
        let a = run_trial_2d(&scenario, 7).unwrap();
        let b = run_trial_2d(&scenario, 7).unwrap();
        assert_eq!(a, b);
        let c = run_trial_2d(&scenario, 8).unwrap();
        assert_ne!(a.fix.position, c.fix.position);
    }

    #[test]
    fn observed_trial_is_bit_identical_and_sees_events() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let plain = run_trial_2d(&scenario, 42).unwrap();
        // The same trial by hand, with an observer on the server before
        // any report flows.
        let mut rng = StdRng::seed_from_u64(42);
        let mut setup = setup_trial(&scenario, &mut rng).unwrap();
        let recorder = std::sync::Arc::new(RecordingObserver::new());
        setup
            .server
            .set_observer(std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn Observer>);
        let log = observe(&scenario, &setup, &mut rng);
        let fix = setup.server.fix::<TwoD>(&log).unwrap();
        assert_eq!(plain.fix, fix);
        let events = recorder.take();
        let accepted = events
            .iter()
            .filter(|e| matches!(e, Event::IngestAccepted { .. }))
            .count();
        assert_eq!(accepted, log.len(), "one accept event per read");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::FixAttempt { ok: true, .. })),
            "the successful fix must be observed"
        );
    }

    #[test]
    fn trial_3d_resolves_ambiguity() {
        let scenario = Scenario::paper_3d(Vec3::new(0.3, 1.6, 1.5)).quick();
        let out = run_trial_3d(&scenario, 11).expect("trial should succeed");
        // The resolved candidate must be the one above the desk.
        assert!(out.position.z >= crate::scenario::DESK_HEIGHT);
        assert!(
            out.error.combined < 0.35,
            "error {:.1} cm",
            out.error.combined * 100.0
        );
    }

    #[test]
    fn unreachable_reader_fails_cleanly() {
        let mut scenario = Scenario::paper_2d(Vec2::new(0.0, 2.0)).quick();
        scenario.reader_truth =
            tagspin_geom::Pose::facing_toward(Vec3::new(80.0, 80.0, 0.0), Vec3::ZERO);
        match run_trial_2d(&scenario, 1) {
            Err(TrialFailure::Server(_)) | Err(TrialFailure::Calibration(_)) => {}
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn ab_trial_hardened_survives_hostile_stream() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let clean = run_trial_2d(&scenario, 42).unwrap();
        let trial = Trial::prepare(&scenario, &FaultPlan::at_rate(0.3), 42).unwrap();
        let fix = trial.replay(hardened).fix::<TwoD>();
        let hardened = trial.outcome_2d(fix.expect("hardened arm should fix"));
        // Quarantine keeps the hostile stream near clean accuracy.
        assert!(
            hardened.error.combined < clean.error.combined + 0.15,
            "hardened error {:.3} m vs clean {:.3} m",
            hardened.error.combined,
            clean.error.combined
        );
        // The permissive arm ingested NaN phases; whatever it produced is
        // worse or failed outright.
        if let Ok(fix) = trial.replay(permissive).fix::<TwoD>() {
            assert!(trial.outcome_2d(fix).error.combined >= hardened.error.combined);
        }
    }

    #[test]
    fn ab_trial_equals_plain_trial_when_clean() {
        let scenario = Scenario::paper_2d(Vec2::new(-0.5, 2.2)).quick();
        let plain = run_trial_2d(&scenario, 7).unwrap();
        let trial = Trial::prepare(&scenario, &FaultPlan::clean(), 7).unwrap();
        assert_eq!(trial.delivered(), plain.reads);
        for arm in [hardened, permissive] {
            assert_eq!(trial.replay(arm).fix::<TwoD>().unwrap(), plain.fix);
        }
    }

    /// The hardened posture with estimator backend `backend`: one arm of
    /// the estimator shootout.
    fn estimates(trial: &Trial, backend: EstimatorBackend) -> Estimate<Fix2D> {
        trial
            .replay(|config| {
                hardened(config);
                config.estimator.backend = backend;
            })
            .estimate::<TwoD>()
            .expect("every backend fixes")
    }

    fn error_m(trial: &Trial, estimate: &Estimate<Fix2D>) -> f64 {
        trial.outcome_2d(estimate.fix).error.combined
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let plan = FaultPlan::at_rate(0.1);
        let a = Trial::prepare(&scenario, &plan, 5).unwrap();
        let b = Trial::prepare(&scenario, &plan, 5).unwrap();
        for backend in [
            EstimatorBackend::Spectrum,
            EstimatorBackend::Ml,
            EstimatorBackend::Hybrid,
        ] {
            assert_eq!(estimates(&a, backend), estimates(&b, backend));
            assert_eq!(estimates(&a, backend), estimates(&a, backend));
        }
    }

    #[test]
    fn ml_arm_competitive_on_clean_capture() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let trial = Trial::prepare(&scenario, &FaultPlan::clean(), 42).unwrap();
        let spectrum = estimates(&trial, EstimatorBackend::Spectrum);
        let ml = estimates(&trial, EstimatorBackend::Ml);
        assert!(spectrum.ml.is_none());
        assert!(
            error_m(&trial, &ml) < error_m(&trial, &spectrum) + 0.05,
            "ml {:.3} m vs spectrum {:.3} m",
            error_m(&trial, &ml),
            error_m(&trial, &spectrum)
        );
        let report = ml.ml.expect("ml arm reports");
        assert!(report.accepted, "{report:?}");
    }

    #[test]
    fn hybrid_never_worse_than_both_arms_by_much() {
        let scenario = Scenario::paper_2d(Vec2::new(-0.5, 2.2)).quick();
        for &rate in &[0.0, 0.3] {
            let trial = Trial::prepare(&scenario, &FaultPlan::at_rate(rate), 7).unwrap();
            let spectrum = estimates(&trial, EstimatorBackend::Spectrum);
            let ml = estimates(&trial, EstimatorBackend::Ml);
            let hybrid = estimates(&trial, EstimatorBackend::Hybrid);
            let floor = error_m(&trial, &spectrum).max(error_m(&trial, &ml));
            assert!(
                error_m(&trial, &hybrid) <= floor + 1e-9,
                "rate {rate}: hybrid {:.3} m vs worst arm {floor:.3} m",
                error_m(&trial, &hybrid),
            );
            // A rejected hybrid refinement serves the spectrum fix verbatim.
            if hybrid.ml.is_some_and(|r| !r.accepted) {
                assert_eq!(hybrid.fix, spectrum.fix);
            }
        }
    }

    #[test]
    fn failure_display_nonempty() {
        assert!(!TrialFailure::AmbiguityUnresolved.to_string().is_empty());
        assert!(!TrialFailure::Calibration("x".into()).to_string().is_empty());
    }
}

//! End-to-end localization trials.
//!
//! One trial = one full Tagspin run inside the simulated office: the tags
//! are manufactured (hidden per-individual parameters drawn from the seed),
//! optionally orientation-calibrated with a center-spin capture, spun on
//! their disks while the reader inventories them, and the server pipeline
//! produces a fix that is scored against ground truth.

use crate::metrics::TrialError;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use tagspin_core::prelude::*;
use tagspin_core::server::ServerError;
use tagspin_core::snapshot::SnapshotSet;
use tagspin_epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin_epc::InventoryLog;
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

/// Run one full 2D trial.
///
/// # Errors
///
/// [`TrialFailure`] when any pipeline stage fails.
pub fn run_trial_2d(scenario: &Scenario, seed: u64) -> Result<Trial2DOutcome, TrialFailure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let setup = setup_trial(scenario, &mut rng)?;
    let log = observe(scenario, &setup, &mut rng);
    let reads = log.len();
    let fix = setup
        .server
        .fix::<TwoD>(&log)
        .map_err(TrialFailure::Server)?;
    let error = TrialError::planar(fix.position, scenario.reader_truth.position.xy());
    Ok(Trial2DOutcome { fix, error, reads })
}

/// Run one full 3D trial; the ±z ambiguity is resolved with the scenario's
/// feasible height interval.
///
/// # Errors
///
/// [`TrialFailure`] when any pipeline stage fails or neither candidate is
/// feasible.
pub fn run_trial_3d(scenario: &Scenario, seed: u64) -> Result<Trial3DOutcome, TrialFailure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let setup = setup_trial(scenario, &mut rng)?;
    let log = observe(scenario, &setup, &mut rng);
    let reads = log.len();
    let fix = setup
        .server
        .fix::<ThreeD>(&log)
        .map_err(TrialFailure::Server)?;
    let (lo, hi) = scenario.z_feasible;
    let position = fix
        .resolve(|p| p.z >= lo && p.z <= hi)
        .ok_or(TrialFailure::AmbiguityUnresolved)?;
    let error = TrialError::spatial(position, scenario.reader_truth.position);
    Ok(Trial3DOutcome {
        position,
        fix,
        error,
        reads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagspin_geom::{Vec2, Vec3};

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
    fn failure_display_nonempty() {
        assert!(!TrialFailure::AmbiguityUnresolved.to_string().is_empty());
        assert!(!TrialFailure::Calibration("x".into()).to_string().is_empty());
    }
}

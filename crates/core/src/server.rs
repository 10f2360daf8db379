//! The central localization server (paper Section II).
//!
//! "Tagspin deploys a set of spinning tags in the environment. Its
//! infrastructure also includes a central localization server which stores
//! the spinning tags' locations, moving speeds and other system settings."
//!
//! [`LocalizationServer`] is that component: a [`TagRegistry`] of spinning
//! tags (disk geometry + per-tag orientation calibration) plus the pipeline
//! configuration, with end-to-end entry points that take a raw
//! [`InventoryLog`] and return a reader fix:
//!
//! 1. extract each registered tag's snapshots ([`SnapshotSet`]),
//! 2. apply the orientation calibration (Section III),
//! 3. compute the angle spectrum (Section IV),
//! 4. intersect the bearings (Section V).
//!
//! The batch entry points, [`LocalizationServer::fix`] and
//! [`LocalizationServer::estimate`], are thin wrappers over a one-shot
//! [`ReaderSession`] with an unbounded window: they ingest the log
//! report-by-report and query the fix once, taking exactly the code path a
//! live stream takes. [`LocalizationServer::session`] hands out long-lived
//! streaming sessions sharing this server's registry and steering-table
//! cache; [`LocalizationServer::session_manager`] does the same for many
//! antennas at once.

use crate::calib::orientation::OrientationCalibration;
use crate::estimator::{Estimate, EstimatorConfig};
use crate::locate::space::Fix3D;
use crate::locate::LocateError;
use crate::registry::TagRegistry;
use crate::session::pipeline;
use crate::session::quarantine::{IngestPolicy, QualityGate};
use crate::session::{window::WindowConfig, FixPath, ReaderSession, SessionManager, ThreeD};
use crate::snapshot::{SnapshotError, SnapshotSet};
use crate::spectrum::engine::{SpectrumEngine, SpectrumEngineConfig};
use crate::spectrum::incremental::IncrementalPolicy;
use crate::spectrum::{ProfileKind, SpectrumConfig};
use crate::spinning::DiskConfig;
use std::fmt;
use std::sync::Arc;
use tagspin_epc::InventoryLog;

pub use crate::registry::RegisteredTag;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Which power profile drives bearing estimation. The default is
    /// [`ProfileKind::Hybrid`]: the paper's enhanced `R` detects the lobe
    /// (false-candidate immunity), the traditional `Q` refines the bearing
    /// (matched-filter precision).
    pub profile: ProfileKind,
    /// Spectrum grid/σ settings.
    pub spectrum: SpectrumConfig,
    /// Coarse-to-fine spectrum engine settings (`exhaustive: true` forces
    /// the original full-grid reference path).
    pub engine: SpectrumEngineConfig,
    /// Apply per-tag orientation calibration when available.
    pub orientation_calibration: bool,
    /// Minimum snapshots per tag for a usable spectrum.
    pub min_snapshots: usize,
    /// Which ingest screens quarantine hostile reports before they reach
    /// the snapshot buffers. Hardened by default; clean streams are
    /// unaffected, so the batch/streaming equivalence contract holds.
    pub ingest: IngestPolicy,
    /// Per-tag graceful-degradation gate over windowed captures (disabled
    /// by default).
    pub quality_gate: QualityGate,
    /// Incremental spectrum accumulators for streaming sessions: after a
    /// stream's first fresh recompute, fix refreshes reduce running
    /// per-direction sums in O(grid) instead of re-evaluating the whole
    /// window. One-shot batch paths ([`LocalizationServer::fix`]) never
    /// re-fix a stream, so they stay on the reference path bit-for-bit.
    pub incremental: IncrementalPolicy,
    /// Which fix estimator backend resolves multi-tag fixes (and the ML
    /// refinement knobs). The default spectrum backend keeps the fix path
    /// bit-identical to the historical pipeline.
    pub estimator: EstimatorConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            profile: ProfileKind::Hybrid,
            spectrum: SpectrumConfig::default(),
            engine: SpectrumEngineConfig::default(),
            orientation_calibration: true,
            min_snapshots: 30,
            ingest: IngestPolicy::default(),
            quality_gate: QualityGate::default(),
            incremental: IncrementalPolicy::default(),
            estimator: EstimatorConfig::default(),
        }
    }
}

/// Errors from the server pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The EPC is not registered.
    UnknownTag(u128),
    /// Registering the same EPC twice.
    DuplicateTag(u128),
    /// Fewer than two registered tags produced usable bearings.
    NotEnoughBearings {
        /// Usable bearings obtained.
        usable: usize,
    },
    /// A tag had too few reads in the log.
    TooFewSnapshots {
        /// Which tag.
        epc: u128,
        /// Reads present.
        got: usize,
        /// Configured minimum.
        need: usize,
    },
    /// The angle spectrum came back empty (no samples to search).
    EmptySpectrum {
        /// Which tag's spectrum degenerated.
        epc: u128,
    },
    /// A tag's windowed capture failed the session quality gate: its
    /// bearing is withheld rather than allowed to poison the fix.
    QualityGated {
        /// Which tag was withheld.
        epc: u128,
    },
    /// Snapshot extraction failed.
    Snapshot(SnapshotError),
    /// Geometric localization failed.
    Locate(LocateError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownTag(epc) => write!(f, "unknown tag epc {epc:x}"),
            ServerError::DuplicateTag(epc) => write!(f, "tag epc {epc:x} already registered"),
            ServerError::NotEnoughBearings { usable } => {
                write!(f, "only {usable} usable bearings; need at least 2")
            }
            ServerError::TooFewSnapshots { epc, got, need } => {
                write!(f, "tag {epc:x} produced {got} reads, need {need}")
            }
            ServerError::EmptySpectrum { epc } => {
                write!(f, "tag {epc:x} produced an empty angle spectrum")
            }
            ServerError::QualityGated { epc } => {
                write!(f, "tag {epc:x} withheld by the capture quality gate")
            }
            ServerError::Snapshot(e) => write!(f, "snapshot extraction failed: {e}"),
            ServerError::Locate(e) => write!(f, "localization failed: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<LocateError> for ServerError {
    fn from(e: LocateError) -> Self {
        ServerError::Locate(e)
    }
}

/// The central localization server.
#[derive(Debug, Clone, Default)]
pub struct LocalizationServer {
    registry: Arc<TagRegistry>,
    /// Pipeline settings (public: experiments flip profile/calibration).
    pub config: PipelineConfig,
    /// Spectrum evaluator; clones share its steering-table cache.
    engine: SpectrumEngine,
}

/// Equality is over the registry and configuration only — the engine's
/// cache is a performance artifact, not semantic state.
impl PartialEq for LocalizationServer {
    fn eq(&self, other: &Self) -> bool {
        self.registry == other.registry && self.config == other.config
    }
}

impl LocalizationServer {
    /// An empty server with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        LocalizationServer {
            registry: Arc::new(TagRegistry::new()),
            config,
            engine: SpectrumEngine::new(),
        }
    }

    /// The spectrum engine (for cache diagnostics).
    pub fn engine(&self) -> &SpectrumEngine {
        &self.engine
    }

    /// Attach an observer to the server's engine. Sessions and managers
    /// created *after* this call ([`LocalizationServer::session`],
    /// [`LocalizationServer::session_manager`]) inherit it, as do the
    /// one-shot [`LocalizationServer::fix`] and
    /// [`LocalizationServer::estimate`]; previously created sessions keep
    /// their own handle. The default is [`crate::obs::NullObserver`],
    /// which keeps every pipeline output bit-identical to an
    /// uninstrumented server.
    pub fn set_observer(&mut self, observer: Arc<dyn crate::obs::Observer>) {
        self.engine.set_observer(observer);
    }

    /// Register a spinning tag.
    ///
    /// # Errors
    ///
    /// [`ServerError::DuplicateTag`] when the EPC is already registered.
    pub fn register(&mut self, epc: u128, disk: DiskConfig) -> Result<(), ServerError> {
        Arc::make_mut(&mut self.registry).register(epc, disk)
    }

    /// Attach an orientation calibration (Step 1 output) to a tag.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTag`] when the EPC is not registered.
    pub fn set_orientation_calibration(
        &mut self,
        epc: u128,
        cal: OrientationCalibration,
    ) -> Result<(), ServerError> {
        Arc::make_mut(&mut self.registry).set_orientation_calibration(epc, cal)
    }

    /// The registered tags, in registration order.
    pub fn tags(&self) -> &[RegisteredTag] {
        self.registry.tags()
    }

    /// The tag registry (EPC-indexed lookups).
    pub fn registry(&self) -> &TagRegistry {
        &self.registry
    }

    /// A streaming session for one reader antenna, sharing this server's
    /// registry and steering-table cache. With
    /// [`WindowConfig::unbounded`], feeding the session a log
    /// report-by-report reproduces the batch [`LocalizationServer::fix`]
    /// results bit-for-bit.
    pub fn session(&self, window: WindowConfig) -> ReaderSession {
        ReaderSession::with_engine(
            Arc::clone(&self.registry),
            self.engine.clone(),
            self.config,
            window,
        )
    }

    /// A multi-antenna session manager sharing this server's registry and
    /// steering-table cache.
    pub fn session_manager(&self, window: WindowConfig) -> SessionManager {
        SessionManager::with_shared(
            Arc::clone(&self.registry),
            self.engine.clone(),
            self.config,
            window,
        )
    }

    /// Extract and calibrate the snapshots of one registered tag.
    ///
    /// # Errors
    ///
    /// [`ServerError::Snapshot`] / [`ServerError::TooFewSnapshots`].
    pub fn calibrated_snapshots(
        &self,
        log: &InventoryLog,
        tag: &RegisteredTag,
    ) -> Result<SnapshotSet, ServerError> {
        let set = SnapshotSet::from_log(log, tag.epc, &tag.disk).map_err(ServerError::Snapshot)?;
        Ok(pipeline::checked_calibrated(tag, &set, &self.config)?.into_owned())
    }

    /// End-to-end localization of kind `K` ([`TwoD`](crate::session::TwoD),
    /// [`ThreeD`] or [`Aided`](crate::session::Aided)) of the reader that
    /// produced `log`.
    ///
    /// Tags with degenerate input — missing from the log, too few reads,
    /// or an empty angle spectrum — are skipped; at least two usable
    /// bearings are required. The aided kind resolves the ±z ambiguity from
    /// each disk's own orientation: with at least one non-horizontal disk
    /// registered the per-tag mirror planes disagree and the resolver picks
    /// the consistent candidates; with only horizontal disks the fix's
    /// `runner_up_residual_m` reveals the unresolved ambiguity.
    ///
    /// # Errors
    ///
    /// [`ServerError::NotEnoughBearings`] / [`ServerError::Locate`].
    pub fn fix<K: FixPath>(&self, log: &InventoryLog) -> Result<K::Fix, ServerError> {
        self.one_shot(log, ReaderSession::fix::<K>)
    }

    /// End-to-end localization of kind `K` through the configured
    /// estimator backend, returning the fix together with its typed
    /// [`crate::estimator::FixConfidence`] and backend provenance. With the
    /// default spectrum backend the served fix equals
    /// [`LocalizationServer::fix`] bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same as [`LocalizationServer::fix`].
    pub fn estimate<K: FixPath>(
        &self,
        log: &InventoryLog,
    ) -> Result<Estimate<K::Fix>, ServerError> {
        self.one_shot(log, ReaderSession::estimate::<K>)
    }

    /// `fix::<ThreeD>(log)` under its old name, kept only because the
    /// `perfbench` benchmark package calls it.
    ///
    /// # Errors
    ///
    /// Same as [`LocalizationServer::fix`].
    pub fn locate_3d(&self, log: &InventoryLog) -> Result<Fix3D, ServerError> {
        self.fix::<ThreeD>(log)
    }

    /// Run `fix` on a one-shot session with an unbounded window fed the
    /// whole log report-by-report — exactly the code path a live stream
    /// takes.
    fn one_shot<T>(
        &self,
        log: &InventoryLog,
        fix: impl FnOnce(&mut ReaderSession) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        let mut session = self.session(WindowConfig::unbounded());
        session.ingest_log(log);
        fix(&mut session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TwoD;
    use tagspin_geom::Vec3;

    fn server_with_two_tags() -> LocalizationServer {
        let mut s = LocalizationServer::new(PipelineConfig::default());
        s.register(1, DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)))
            .unwrap();
        s.register(2, DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)))
            .unwrap();
        s
    }

    #[test]
    fn registration_rules() {
        let mut s = server_with_two_tags();
        assert_eq!(s.tags().len(), 2);
        assert_eq!(
            s.register(1, DiskConfig::paper_default(Vec3::ZERO)),
            Err(ServerError::DuplicateTag(1))
        );
    }

    #[test]
    fn unknown_tag_errors() {
        let s = server_with_two_tags();
        assert!(matches!(
            s.session(WindowConfig::unbounded()).tag_bearing_2d(99),
            Err(ServerError::UnknownTag(99))
        ));
    }

    #[test]
    fn empty_log_not_enough_bearings() {
        let s = server_with_two_tags();
        let log = InventoryLog::new();
        assert_eq!(
            s.fix::<TwoD>(&log),
            Err(ServerError::NotEnoughBearings { usable: 0 })
        );
    }

    #[test]
    fn orientation_calibration_requires_known_tag() {
        use crate::snapshot::Snapshot;
        // Build a minimal valid calibration.
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let set = SnapshotSet::from_snapshots(
            (0..100)
                .map(|i| {
                    let t = i as f64 * disk.period_s() * 1.2 / 100.0;
                    Snapshot {
                        t_s: t,
                        phase: 1.0,
                        disk_angle: disk.disk_angle(t),
                        lambda: 0.325,
                        rssi_dbm: -60.0,
                    }
                })
                .collect(),
        );
        let cal = OrientationCalibration::fit(&set).unwrap();
        let mut s = server_with_two_tags();
        assert!(s.set_orientation_calibration(1, cal.clone()).is_ok());
        assert_eq!(
            s.set_orientation_calibration(42, cal),
            Err(ServerError::UnknownTag(42))
        );
        assert!(s.tags()[0].orientation.is_some());
    }

    #[test]
    fn registry_lookup_is_exposed() {
        let s = server_with_two_tags();
        assert!(s.registry().contains(2));
        assert!(!s.registry().contains(3));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            ServerError::UnknownTag(1),
            ServerError::DuplicateTag(1),
            ServerError::NotEnoughBearings { usable: 1 },
            ServerError::TooFewSnapshots {
                epc: 1,
                got: 2,
                need: 30,
            },
            ServerError::EmptySpectrum { epc: 1 },
            ServerError::QualityGated { epc: 1 },
            ServerError::Snapshot(SnapshotError::NoReads),
            ServerError::Locate(LocateError::TooFewBearings { got: 0 }),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}

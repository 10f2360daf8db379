//! # Tagspin core — RFID reader-antenna calibration via spinning tags
//!
//! A faithful reproduction of *"Accurate Spatial Calibration of RFID
//! Antennas via Spinning Tags"* (Duan, Yang, Liu — ICDCS 2016): locate a
//! COTS RFID reader antenna, in 2D or 3D, using only a few infrastructure
//! tags spinning on the edge of slowly rotating disks.
//!
//! ## Pipeline (paper Section II)
//!
//! 1. **Acquire** — the reader interrogates the spinning tags; the EPC
//!    substrate yields an [`InventoryLog`](tagspin_epc::InventoryLog) of
//!    timestamped phase reports. [`snapshot::SnapshotSet`] joins them with
//!    the server-known disk state.
//! 2. **Calibrate** — [`calib::diversity`] removes the hardware offset
//!    `θ_div` via the reference snapshot; [`calib::orientation`] removes the
//!    tag-orientation phase effect ψ(ρ) via a Fourier fit from a center-spin
//!    run (the paper's Observation 3.1, worth ≈ 1.7× accuracy).
//! 3. **Spectrum** — [`spectrum`] computes the power profile over candidate
//!    directions; the enhanced profile `R(φ)` (Definition 4.1) weights each
//!    snapshot by the Gaussian likelihood of its relative phase.
//! 4. **Locate** — [`locate::plane`] intersects 2D bearings (Eqn 9);
//!    [`locate::space`] adds the polar angle and resolves the ±z ambiguity
//!    (Eqns 10–13).
//!
//! [`server::LocalizationServer`] wires the stages into one call.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use tagspin_core::prelude::*;
//! use tagspin_epc::inventory::{run_inventory, ReaderConfig, Transponder};
//! use tagspin_geom::{Pose, Vec3};
//! use tagspin_rf::channel::Environment;
//! use tagspin_rf::tags::{TagInstance, TagModel};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // Infrastructure: two spinning tags at (±30 cm, 0).
//! let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
//! let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
//! let t1 = SpinningTag::new(d1, TagInstance::ideal(TagModel::DEFAULT, 1));
//! let t2 = SpinningTag::new(d2, TagInstance::ideal(TagModel::DEFAULT, 2));
//!
//! // The reader to be located.
//! let truth = Vec3::new(0.4, 1.7, 0.0);
//! let reader = ReaderConfig::at(Pose::facing_toward(truth, Vec3::ZERO));
//!
//! // One disk rotation of observations.
//! let log = run_inventory(&Environment::paper_default(), &reader,
//!                         &[&t1, &t2], d1.period_s(), &mut rng);
//!
//! // Server-side localization.
//! let mut server = LocalizationServer::new(PipelineConfig::default());
//! server.register(1, d1).unwrap();
//! server.register(2, d2).unwrap();
//! let fix = server.fix::<TwoD>(&log).unwrap();
//! assert!((fix.position - truth.xy()).norm() < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod diagnostics;
pub mod estimator;
pub mod locate;
pub mod obs;
pub mod registry;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod spectrum;
pub mod spinning;
pub mod store;

/// One-stop imports for typical users.
pub mod prelude {
    pub use crate::calib::orientation::OrientationCalibration;
    pub use crate::diagnostics::CaptureQuality;
    pub use crate::estimator::{
        ConfidenceError, Estimate, EstimatorBackend, EstimatorConfig, FixConfidence, MlReport,
        TagObservation,
    };
    pub use crate::locate::plane::{Bearing2D, Fix2D};
    pub use crate::locate::space::{Bearing3D, Fix3D};
    pub use crate::obs::{
        Event, FanoutObserver, FixKind, LogObserver, MetricsObserver, MetricsRegistry,
        MetricsSnapshot, NullObserver, ObsHandle, Observer, RecordingObserver, ServeMetrics, Stage,
        StoreMetrics,
    };
    pub use crate::registry::{RegisteredTag, TagRegistry};
    pub use crate::server::{LocalizationServer, PipelineConfig, ServerError};
    pub use crate::session::quarantine::{IngestPolicy, QualityGate, RejectCounts, RejectReason};
    pub use crate::session::stats::{IncrementalCounts, SessionStats, SkipCounts, TagStreamStats};
    pub use crate::session::window::WindowConfig;
    pub use crate::session::{
        Aided, FixPath, IngestOutcome, ReaderSession, SessionManager, ThreeD, TwoD,
    };
    pub use crate::snapshot::{Snapshot, SnapshotSet};
    pub use crate::spectrum::engine::{SpectrumEngine, SpectrumEngineConfig};
    pub use crate::spectrum::incremental::{IncrementalPolicy, SyncOutcome};
    pub use crate::spectrum::{ProfileKind, SpectrumConfig};
    pub use crate::spinning::{CenterSpinTag, DiskConfig, SpinningTag};
    pub use crate::store::{FileStore, StoreError};
}

pub use prelude::*;

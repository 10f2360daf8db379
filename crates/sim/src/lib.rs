//! Scenario, trial and experiment harness for the Tagspin reproduction.
//!
//! * [`scenario`] — the paper's office-room deployments (2D desktop, 3D
//!   desk + elevated reader) as configurable scenario values.
//! * [`trial`] — one end-to-end localization run: manufacture tags,
//!   center-spin calibration, inventory, pipeline, error scoring. A
//!   prepared [`trial::Trial`] replays one delivered stream under each arm
//!   of an A/B study.
//! * [`fault`] — seeded fault injection ([`fault::FaultPlan`]) and the
//!   hardened and permissive ingest postures robustness trials compare.
//! * [`metrics`] — the paper's error-distance metrics, per-axis and CDF.
//! * [`sweep`] — seeded repetition and parameter sweeps (parallelized).
//! * [`baseline_adapters`] — the four comparison systems run in the same
//!   simulated room.
//! * [`experiments`] — one function per paper figure/table, producing the
//!   series the `reproduce` binary prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline_adapters;
pub mod config;
pub mod experiments;
pub mod fault;
pub mod metrics;
pub mod scenario;
pub mod sweep;
pub mod trial;

pub use config::Deployment;
pub use fault::FaultPlan;
pub use metrics::{ErrorStats, TrialError};
pub use scenario::Scenario;
pub use trial::{run_trial_2d, run_trial_3d, Trial, TrialFailure};

//! # Tagspin — reader-antenna calibration via spinning tags
//!
//! Facade crate for the reproduction of *"Accurate Spatial Calibration of
//! RFID Antennas via Spinning Tags"* (Duan, Yang, Liu — ICDCS 2016). It
//! re-exports the workspace crates under one roof:
//!
//! * [`geom`] — vectors, angles, circular statistics, line intersection.
//! * [`dsp`] — phase unwrapping, least squares, Fourier fits, peaks, stats.
//! * [`rf`] — the UHF backscatter channel simulator (the testbed stand-in).
//! * [`epc`] — EPC Gen2 inventory + LLRP-subset reports.
//! * [`core`] — the paper's pipeline: calibration, angle spectra, 2D/3D
//!   localization, the localization server.
//! * [`baselines`] — LandMarc, AntLoc, PinIt, BackPos comparators.
//! * [`sim`] — scenarios, trials, metrics, and every figure/table
//!   experiment.
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use tagspin::core::prelude::*;
//! use tagspin::epc::inventory::{run_inventory, ReaderConfig};
//! use tagspin::epc::inventory::Transponder;
//! use tagspin::geom::{Pose, Vec3};
//! use tagspin::rf::channel::Environment;
//! use tagspin::rf::tags::{TagInstance, TagModel};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
//! let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
//! let t1 = SpinningTag::new(d1, TagInstance::ideal(TagModel::DEFAULT, 1));
//! let t2 = SpinningTag::new(d2, TagInstance::ideal(TagModel::DEFAULT, 2));
//! let truth = Vec3::new(0.4, 1.7, 0.0);
//! let reader = ReaderConfig::at(Pose::facing_toward(truth, Vec3::ZERO));
//! let log = run_inventory(&Environment::paper_default(), &reader,
//!                         &[&t1, &t2], d1.period_s(), &mut rng);
//! let mut server = LocalizationServer::new(PipelineConfig::default());
//! server.register(1, d1).unwrap();
//! server.register(2, d2).unwrap();
//! let fix = server.fix::<TwoD>(&log).unwrap();
//! assert!((fix.position - truth.xy()).norm() < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tagspin_baselines as baselines;
pub use tagspin_core as core;
pub use tagspin_dsp as dsp;
pub use tagspin_epc as epc;
pub use tagspin_geom as geom;
pub use tagspin_rf as rf;
pub use tagspin_serve as serve;
pub use tagspin_sim as sim;

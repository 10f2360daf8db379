//! Signal-processing substrate for the Tagspin reproduction.
//!
//! The paper's pipeline needs a handful of DSP building blocks that have no
//! mature, offline-available Rust equivalents, so this crate owns them:
//!
//! * [`unwrap`] — the paper's Eqn-4 phase smoothing plus a general
//!   unwrapping routine for mod-2π sequences.
//! * [`lstsq`] — small dense linear least squares (QR with Householder
//!   reflections) used by the Fourier fit and the baselines' Gauss-Newton.
//! * [`fourier`] — Fourier-series fitting on angular data, the tool the
//!   paper uses to quantify the tag-orientation phase effect (Observation 3.1).
//! * [`peak`] — grid argmax with parabolic sub-grid refinement for spectrum
//!   peak extraction.
//! * [`stats`] — scalar summary statistics and empirical CDFs used by the
//!   evaluation harness.
//!
//! # Example: recovering a hidden Fourier series
//!
//! ```
//! use tagspin_dsp::fourier::FourierSeries;
//!
//! // A hidden orientation-phase function like the paper's Fig. 11(a).
//! let truth = FourierSeries::from_coefficients(0.1, vec![(0.3, -0.1), (0.05, 0.02)]);
//! let samples: Vec<(f64, f64)> = (0..360)
//!     .map(|d| {
//!         let rho = (d as f64).to_radians();
//!         (rho, truth.eval(rho))
//!     })
//!     .collect();
//! let fitted = FourierSeries::fit(&samples, 2).unwrap();
//! assert!((fitted.eval(1.0) - truth.eval(1.0)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod float;
pub mod fourier;
pub mod lstsq;
pub mod peak;
pub mod stats;
pub mod unwrap;

pub use complex::Complex;
pub use fourier::FourierSeries;
pub use peak::PeakEstimate;
pub use stats::Summary;

//! Fourier-series fitting on angular data.
//!
//! The paper's Observation 3.1: a tag's phase measurement has an inherent,
//! repeatable dependence on its orientation `ρ` relative to the reader, and
//! "this specific correlation can be quantified as a function through data
//! fitting using Fourier series". This module implements exactly that fit —
//! linear least squares on the truncated basis
//! `{1, cos ρ, sin ρ, …, cos Kρ, sin Kρ}` — plus evaluation helpers used by
//! the calibration stage (Section III-B, Steps 1–2).

use crate::lstsq::{self, LstsqError, Matrix};
use std::fmt;

/// A truncated real Fourier series
/// `f(ρ) = a₀ + Σ_{k=1..K} (aₖ·cos kρ + bₖ·sin kρ)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FourierSeries {
    /// Constant (DC) term `a₀`.
    a0: f64,
    /// Harmonic coefficients `(aₖ, bₖ)` for `k = 1..=K`.
    harmonics: Vec<(f64, f64)>,
}

/// Error from [`FourierSeries::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// Not enough samples for the requested order (need ≥ `2K + 1`).
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Minimum required for the order.
        need: usize,
    },
    /// The design matrix was rank-deficient (e.g. all samples at one angle).
    Degenerate,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { got, need } => {
                write!(f, "too few samples for fourier fit: got {got}, need {need}")
            }
            FitError::Degenerate => write!(f, "degenerate sample set for fourier fit"),
        }
    }
}

impl std::error::Error for FitError {}

impl FourierSeries {
    /// Construct directly from coefficients.
    ///
    /// `harmonics[k-1] = (aₖ, bₖ)`.
    pub fn from_coefficients(a0: f64, harmonics: Vec<(f64, f64)>) -> Self {
        FourierSeries { a0, harmonics }
    }

    /// The constant term `a₀`.
    pub fn dc(&self) -> f64 {
        self.a0
    }

    /// The harmonic coefficients `(aₖ, bₖ)`, `k = 1..`.
    pub fn harmonics(&self) -> &[(f64, f64)] {
        &self.harmonics
    }

    /// Series order `K` (number of harmonics).
    pub fn order(&self) -> usize {
        self.harmonics.len()
    }

    /// Evaluate the series at angle `rho` (radians).
    ///
    /// ```
    /// use tagspin_dsp::fourier::FourierSeries;
    /// let s = FourierSeries::from_coefficients(1.0, vec![(2.0, 0.0)]);
    /// assert!((s.eval(0.0) - 3.0).abs() < 1e-12);
    /// ```
    pub fn eval(&self, rho: f64) -> f64 {
        let mut y = self.a0;
        for (k, &(a, b)) in self.harmonics.iter().enumerate() {
            // lint:allow(lossy-cast) harmonic index is tiny (< order), exact in f64
            let kk = (k + 1) as f64;
            let (s, c) = (kk * rho).sin_cos();
            y += a * c + b * s;
        }
        y
    }

    /// Fit a series of the given `order` to `(angle, value)` samples by
    /// linear least squares.
    ///
    /// # Errors
    ///
    /// * [`FitError::TooFewSamples`] — fewer than `2·order + 1` samples.
    /// * [`FitError::Degenerate`] — samples don't span the basis (e.g. all
    ///   at the same angle).
    pub fn fit(samples: &[(f64, f64)], order: usize) -> Result<Self, FitError> {
        Self::fit_design(samples, order).map(|(series, _)| series)
    }

    /// [`FourierSeries::fit`] and the fit's
    /// [`rms_residual`](FourierSeries::rms_residual) over the same samples.
    ///
    /// The residual is bit-identical to calling `rms_residual`, but reads
    /// `cos kρ` and `sin kρ` from the fit's design matrix instead of
    /// computing them again for every sample.
    ///
    /// # Errors
    ///
    /// Same as [`FourierSeries::fit`].
    pub fn fit_with_residual(
        samples: &[(f64, f64)],
        order: usize,
    ) -> Result<(Self, f64), FitError> {
        let (series, a) = Self::fit_design(samples, order)?;
        let ss: f64 = samples
            .iter()
            .enumerate()
            .map(|(r, &(_, v))| {
                // `eval`'s summation order.
                let mut y = series.a0;
                for (k, &(ak, bk)) in series.harmonics.iter().enumerate() {
                    y += ak * a.get(r, 1 + 2 * k) + bk * a.get(r, 2 + 2 * k);
                }
                let e = y - v;
                e * e
            })
            .sum();
        // lint:allow(lossy-cast) sample count is < 2^32, exact in f64
        Ok((series, (ss / samples.len() as f64).sqrt()))
    }

    /// The least-squares fit and its design matrix: row `r` holds
    /// `1, cos ρᵣ, sin ρᵣ, …, cos Kρᵣ, sin Kρᵣ`.
    fn fit_design(samples: &[(f64, f64)], order: usize) -> Result<(Self, Matrix), FitError> {
        let need = 2 * order + 1;
        if samples.len() < need {
            return Err(FitError::TooFewSamples {
                got: samples.len(),
                need,
            });
        }
        let n_cols = 2 * order + 1;
        let a = Matrix::from_fn(samples.len(), n_cols, |r, c| {
            let rho = samples[r].0;
            if c == 0 {
                1.0
            } else {
                // lint:allow(lossy-cast) coefficient index is tiny (< 2*order+1), exact in f64
                let k = ((c - 1) / 2 + 1) as f64;
                if c % 2 == 1 {
                    (k * rho).cos()
                } else {
                    (k * rho).sin()
                }
            }
        });
        let b: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        let x = lstsq::solve(&a, &b).map_err(|e| match e {
            LstsqError::RankDeficient | LstsqError::Underdetermined => FitError::Degenerate,
            LstsqError::DimensionMismatch => unreachable!("b built from samples"),
        })?;
        let mut harmonics = Vec::with_capacity(order);
        for k in 0..order {
            harmonics.push((x[1 + 2 * k], x[2 + 2 * k]));
        }
        let series = FourierSeries {
            a0: x[0],
            harmonics,
        };
        Ok((series, a))
    }

    /// Root-mean-square residual of the fit over a sample set.
    pub fn rms_residual(&self, samples: &[(f64, f64)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let ss: f64 = samples
            .iter()
            .map(|&(rho, v)| {
                let e = self.eval(rho) - v;
                e * e
            })
            .sum();
        // lint:allow(lossy-cast) sample count is < 2^32, exact in f64
        (ss / samples.len() as f64).sqrt()
    }

    /// Peak-to-peak amplitude of the series, estimated on a dense grid.
    ///
    /// Used to report the magnitude of the orientation effect (the paper
    /// observes ≈ 0.7 rad).
    pub fn peak_to_peak(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..720 {
            // lint:allow(lossy-cast) fixed 720-point scan index, exact in f64
            let v = self.eval(i as f64 * std::f64::consts::TAU / 720.0);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    }
}

impl fmt::Display for FourierSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.a0)?;
        for (k, (a, b)) in self.harmonics.iter().enumerate() {
            write!(f, " + {a:.4}·cos({}ρ) + {b:.4}·sin({}ρ)", k + 1, k + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn uniform_samples(s: &FourierSeries, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let rho = i as f64 * TAU / n as f64;
                (rho, s.eval(rho))
            })
            .collect()
    }

    #[test]
    fn exact_recovery() {
        let truth = FourierSeries::from_coefficients(0.2, vec![(0.3, -0.15), (0.0, 0.05)]);
        let fitted = FourierSeries::fit(&uniform_samples(&truth, 64), 2).unwrap();
        assert!((fitted.dc() - truth.dc()).abs() < 1e-10);
        for (f, t) in fitted.harmonics().iter().zip(truth.harmonics()) {
            assert!((f.0 - t.0).abs() < 1e-10);
            assert!((f.1 - t.1).abs() < 1e-10);
        }
        assert!(fitted.rms_residual(&uniform_samples(&truth, 97)) < 1e-10);
    }

    #[test]
    fn overfit_order_still_recovers() {
        // Fitting order 4 to an order-1 signal: extra coefficients ≈ 0.
        let truth = FourierSeries::from_coefficients(0.0, vec![(1.0, 0.5)]);
        let fitted = FourierSeries::fit(&uniform_samples(&truth, 128), 4).unwrap();
        assert!((fitted.harmonics()[0].0 - 1.0).abs() < 1e-9);
        for h in &fitted.harmonics()[1..] {
            assert!(h.0.abs() < 1e-9 && h.1.abs() < 1e-9);
        }
    }

    #[test]
    fn noisy_fit_close() {
        let truth = FourierSeries::from_coefficients(0.1, vec![(0.35, -0.1)]);
        // Deterministic "noise" via a fixed irrational stride.
        let samples: Vec<(f64, f64)> = (0..360)
            .map(|i| {
                let rho = i as f64 * TAU / 360.0;
                let noise = 0.01 * ((i as f64 * 0.754_877).sin());
                (rho, truth.eval(rho) + noise)
            })
            .collect();
        let fitted = FourierSeries::fit(&samples, 1).unwrap();
        assert!((fitted.dc() - truth.dc()).abs() < 0.01);
        assert!((fitted.harmonics()[0].0 - 0.35).abs() < 0.01);
        assert!(fitted.rms_residual(&samples) < 0.02);
    }

    #[test]
    fn too_few_samples() {
        let s = [(0.0, 1.0), (1.0, 2.0)];
        assert_eq!(
            FourierSeries::fit(&s, 2),
            Err(FitError::TooFewSamples { got: 2, need: 5 })
        );
    }

    #[test]
    fn degenerate_samples() {
        // All at the same angle: columns collinear.
        let s: Vec<(f64, f64)> = (0..10).map(|_| (1.0, 2.0)).collect();
        assert_eq!(FourierSeries::fit(&s, 1), Err(FitError::Degenerate));
    }

    #[test]
    fn order_zero_is_mean() {
        let s = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)];
        let f = FourierSeries::fit(&s, 0).unwrap();
        assert!((f.dc() - 2.0).abs() < 1e-12);
        assert_eq!(f.order(), 0);
    }

    #[test]
    fn peak_to_peak_of_cosine() {
        let s = FourierSeries::from_coefficients(5.0, vec![(0.35, 0.0)]);
        assert!((s.peak_to_peak() - 0.7).abs() < 1e-4);
    }

    #[test]
    fn display_nonempty() {
        let s = FourierSeries::from_coefficients(1.0, vec![(0.1, 0.2)]);
        assert!(format!("{s}").contains("cos"));
    }

    #[test]
    fn rms_residual_empty_is_zero() {
        let s = FourierSeries::default();
        assert_eq!(s.rms_residual(&[]), 0.0);
    }
}

//! Tag-orientation calibration (Section III-B, Observation 3.1).
//!
//! The paper's two-step workflow:
//!
//! * **Step 1 — acquire the phase–orientation function.** Attach the tag at
//!   the *center* of the disk and spin it: distance to the reader stays
//!   constant, so any phase variation is the orientation effect ψ. Fit a
//!   Fourier series to phase vs orientation.
//! * **Step 2 — calibrate.** With the tag on the disk *edge*, subtract the
//!   fitted offset at each read's orientation, referenced to ρ = π/2.
//!
//! One practical subtlety the paper glosses over: during Step 1 the reader
//! direction is *unknown* (locating it is the whole point), so the absolute
//! orientation ρ cannot be computed. What the server does know is the disk
//! angle β(t), which differs from ρ only by a constant (the reader bearing)
//! as long as the reader stays put between the two steps. We therefore fit
//! and apply ψ̂ as a function of β. Constant offsets are immaterial — they
//! are absorbed by the reference-snapshot division of Eqn 7 — so only the
//! *variation* of ψ̂ is ever subtracted.

use crate::snapshot::SnapshotSet;
use std::fmt;
use tagspin_dsp::fourier::{FitError, FourierSeries};
use tagspin_dsp::unwrap;
use tagspin_geom::angle;

/// Default Fourier order for the fit. The embedded physical effect is
/// dominated by the first two harmonics; order 3 leaves headroom without
/// overfitting noise.
pub const DEFAULT_FOURIER_ORDER: usize = 3;

/// A fitted phase–orientation function for one tag (+ reader geometry).
#[derive(Debug, Clone, PartialEq)]
pub struct OrientationCalibration {
    series: FourierSeries,
    rms_residual: f64,
}

/// Errors from fitting the orientation calibration.
#[derive(Debug, Clone, PartialEq)]
pub enum OrientationCalibrationError {
    /// The center-spin capture does not cover a full revolution.
    InsufficientCoverage {
        /// Radians of disk rotation actually covered.
        covered: f64,
    },
    /// The Fourier fit itself failed.
    Fit(FitError),
}

impl fmt::Display for OrientationCalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrientationCalibrationError::InsufficientCoverage { covered } => write!(
                f,
                "center-spin capture covers only {covered:.2} rad; need a full revolution"
            ),
            OrientationCalibrationError::Fit(e) => write!(f, "fourier fit failed: {e}"),
        }
    }
}

impl std::error::Error for OrientationCalibrationError {}

impl OrientationCalibration {
    /// Step 1: fit from a center-spin capture.
    ///
    /// `set` must cover at least one full disk revolution so every
    /// orientation is sampled. The phase sequence is unwrapped first; the
    /// fit is over `(β mod 2π, unwrapped phase)`.
    ///
    /// # Errors
    ///
    /// * [`OrientationCalibrationError::InsufficientCoverage`] — less than
    ///   one revolution of disk angle covered.
    /// * [`OrientationCalibrationError::Fit`] — degenerate/insufficient
    ///   samples for the requested order.
    pub fn fit_center_spin(
        set: &SnapshotSet,
        order: usize,
    ) -> Result<Self, OrientationCalibrationError> {
        let covered = match (set.snapshots().first(), set.snapshots().last()) {
            (Some(a), Some(b)) => (b.disk_angle - a.disk_angle).abs(),
            _ => 0.0,
        };
        if covered < std::f64::consts::TAU {
            return Err(OrientationCalibrationError::InsufficientCoverage { covered });
        }
        let phases = unwrap::unwrap(&set.phases());
        let samples: Vec<(f64, f64)> = set
            .snapshots()
            .iter()
            .zip(&phases)
            .map(|(s, &p)| (angle::wrap_tau(s.disk_angle), p))
            .collect();
        let (series, rms_residual) = FourierSeries::fit_with_residual(&samples, order)
            .map_err(OrientationCalibrationError::Fit)?;
        Ok(OrientationCalibration {
            series,
            rms_residual,
        })
    }

    /// Fit with the default order.
    ///
    /// # Errors
    ///
    /// Same as [`OrientationCalibration::fit_center_spin`].
    pub fn fit(set: &SnapshotSet) -> Result<Self, OrientationCalibrationError> {
        Self::fit_center_spin(set, DEFAULT_FOURIER_ORDER)
    }

    /// The orientation-induced phase offset at disk angle `beta`, with the
    /// constant (DC) component removed.
    pub fn offset(&self, beta: f64) -> f64 {
        self.series.eval(angle::wrap_tau(beta)) - self.series.dc()
    }

    /// Step 2: subtract the fitted offset from every snapshot's phase.
    ///
    /// Output phases are re-wrapped to `[0, 2π)`; feed the result to the
    /// spectrum stage exactly like raw data.
    pub fn apply(&self, set: &SnapshotSet) -> SnapshotSet {
        let corrected: Vec<f64> = set
            .snapshots()
            .iter()
            .map(|s| angle::wrap_tau(s.phase - self.offset(s.disk_angle)))
            .collect();
        set.with_phases(&corrected)
    }

    /// Peak-to-peak amplitude of the fitted effect, radians (the paper
    /// observes ≈ 0.7 rad).
    pub fn peak_to_peak(&self) -> f64 {
        self.series.peak_to_peak()
    }

    /// RMS residual of the fit on its training capture, radians.
    pub fn rms_residual(&self) -> f64 {
        self.rms_residual
    }

    /// Access the underlying Fourier series (reporting/diagnostics).
    pub fn series(&self) -> &FourierSeries {
        &self.series
    }

    /// Reassemble a calibration from persisted parts (the
    /// [`crate::store`] load path). No validation: the store's CRC and
    /// probe spot-check vouch for the coefficients before this runs.
    pub fn from_parts(series: FourierSeries, rms_residual: f64) -> Self {
        OrientationCalibration {
            series,
            rms_residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Snapshot;
    use crate::spinning::DiskConfig;
    use tagspin_geom::Vec3;
    use tagspin_rf::OrientationPhase;

    /// Build a synthetic center-spin capture: constant distance phase plus a
    /// hidden ψ evaluated at the tag's orientation, plus optional noise.
    fn center_spin_capture(
        psi: &OrientationPhase,
        reader_bearing: f64,
        revolutions: f64,
        n: usize,
        noise: impl Fn(usize) -> f64,
    ) -> SnapshotSet {
        let disk = DiskConfig::paper_default(Vec3::ZERO);
        let t_max = revolutions * disk.period_s();
        SnapshotSet::from_snapshots(
            (0..n)
                .map(|i| {
                    let t = i as f64 * t_max / n as f64;
                    let beta = disk.disk_angle(t);
                    // Orientation = plane azimuth − reader bearing.
                    let rho = disk.plane_azimuth(t) - reader_bearing;
                    Snapshot {
                        t_s: t,
                        phase: angle::wrap_tau(2.5 + psi.eval(rho) + noise(i)),
                        disk_angle: beta,
                        lambda: 0.325,
                        rssi_dbm: -60.0,
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn recovers_hidden_effect() {
        let psi = OrientationPhase::template(0.7);
        let set = center_spin_capture(&psi, 0.4, 1.2, 400, |_| 0.0);
        let cal = OrientationCalibration::fit(&set).unwrap();
        assert!(
            (cal.peak_to_peak() - 0.7).abs() < 0.02,
            "pp = {}",
            cal.peak_to_peak()
        );
        assert!(cal.rms_residual() < 0.02, "rms = {}", cal.rms_residual());
        // Applying the calibration flattens the capture.
        let corrected = cal.apply(&set);
        let phases = unwrap::unwrap(&corrected.phases());
        let mean = phases.iter().sum::<f64>() / phases.len() as f64;
        let max_dev = phases
            .iter()
            .map(|p| (p - mean).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 0.05, "max_dev = {max_dev}");
    }

    #[test]
    fn noisy_fit_still_close() {
        let psi = OrientationPhase::template(0.7);
        // Deterministic pseudo-noise, σ ≈ 0.1.
        let set = center_spin_capture(&psi, 1.0, 2.0, 800, |i| {
            0.1 * ((i as f64 * 1.618).sin() + (i as f64 * 0.347).cos()) / 1.41
        });
        let cal = OrientationCalibration::fit(&set).unwrap();
        assert!(
            (cal.peak_to_peak() - 0.7).abs() < 0.1,
            "pp = {}",
            cal.peak_to_peak()
        );
    }

    #[test]
    fn insufficient_coverage_rejected() {
        let psi = OrientationPhase::template(0.7);
        let set = center_spin_capture(&psi, 0.0, 0.5, 100, |_| 0.0);
        assert!(matches!(
            OrientationCalibration::fit(&set),
            Err(OrientationCalibrationError::InsufficientCoverage { .. })
        ));
    }

    #[test]
    fn offset_has_zero_mean_component() {
        let psi = OrientationPhase::template(0.5);
        let set = center_spin_capture(&psi, 0.0, 1.5, 300, |_| 0.0);
        let cal = OrientationCalibration::fit(&set).unwrap();
        // Average offset over the circle ≈ 0 (DC removed).
        let n = 720;
        let mean: f64 = (0..n)
            .map(|i| cal.offset(i as f64 * std::f64::consts::TAU / n as f64))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 1e-6, "mean = {mean}");
    }

    #[test]
    fn disabled_effect_fits_flat() {
        let psi = OrientationPhase::disabled();
        let set = center_spin_capture(&psi, 0.0, 1.2, 200, |_| 0.0);
        let cal = OrientationCalibration::fit(&set).unwrap();
        assert!(cal.peak_to_peak() < 1e-9);
    }

    #[test]
    fn error_display() {
        let e = OrientationCalibrationError::InsufficientCoverage { covered: 1.0 };
        assert!(e.to_string().contains("revolution"));
    }
}

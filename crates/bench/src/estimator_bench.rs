//! Machine-readable estimator shootout: 2D accuracy and fix latency of
//! the spectrum, ML, and hybrid backends across the fault matrix, emitted
//! by `reproduce --bench estimator` as `BENCH_estimator.json` (schema
//! `tagspin-bench-estimator/v1`).
//!
//! Each rate point runs the seeded trials of [`crate::fault_sweep`]: one
//! simulated observation corrupted by [`tagspin_sim::FaultPlan::at_rate`],
//! then the *same* hostile stream replayed into three sessions that differ
//! only in `EstimatorConfig::backend`. Every arm runs the hardened ingest
//! posture and paper-default quality gate, so the curves compare
//! estimators, not the screens in front of them. The fix call itself is
//! wall-clocked per arm — the latency half of the shootout.
//!
//! The regression gate (`cargo xtask bench-check`) holds all three median
//! error curves to their committed baselines and enforces the hard
//! shootout invariant: ML matches-or-beats spectrum on the clean row and
//! degrades no worse than hardened-spectrum (within slack) through the 30%
//! fault row.

use crate::fault_sweep::{self, Arm};
use tagspin_core::prelude::*;
use tagspin_sim::fault::hardened;
use xtask::bench_check::BenchCase;

/// The arms, in artifact order: spectrum, ML, hybrid.
const ARMS: [Arm; 3] = [
    |config| hardened_with(config, EstimatorBackend::Spectrum),
    |config| hardened_with(config, EstimatorBackend::Ml),
    |config| hardened_with(config, EstimatorBackend::Hybrid),
];

/// The hardened ingest posture with estimator backend `backend`.
fn hardened_with(config: &mut PipelineConfig, backend: EstimatorBackend) {
    hardened(config);
    config.estimator.backend = backend;
}

/// Per-trial seeds start here (disjoint from the robustness bench's).
const SEED_BLOCK: u64 = 0xE500;

/// One measured fault-rate point of the three-way shootout.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// The fault-mixture knob fed to [`tagspin_sim::FaultPlan::at_rate`].
    pub rate: f64,
    /// Trials run at this rate.
    pub trials: usize,
    /// Median 2D error, spectrum backend, meters.
    pub median_err_spectrum_m: f64,
    /// Median 2D error, ML backend, meters.
    pub median_err_ml_m: f64,
    /// Median 2D error, hybrid backend, meters.
    pub median_err_hybrid_m: f64,
    /// Mean fix wall-clock, spectrum backend, nanoseconds.
    pub mean_fix_ns_spectrum: f64,
    /// Mean fix wall-clock, ML backend, nanoseconds.
    pub mean_fix_ns_ml: f64,
    /// Mean fix wall-clock, hybrid backend, nanoseconds.
    pub mean_fix_ns_hybrid: f64,
    /// Spectrum-arm trials that produced no fix (penalty-scored).
    pub fails_spectrum: usize,
    /// ML-arm trials that produced no fix (penalty-scored).
    pub fails_ml: usize,
    /// Hybrid-arm trials that produced no fix (penalty-scored).
    pub fails_hybrid: usize,
    /// ML refinements accepted (not served from the spectrum seed) across
    /// the ML arm's trials.
    pub ml_accepted: usize,
    /// Hybrid refinements accepted across the hybrid arm's trials.
    pub hybrid_accepted: usize,
}

/// Run the estimator shootout sweep. `quick` shrinks the per-rate trial
/// count for CI; the measured rates are identical either way.
pub fn run(quick: bool) -> Vec<RatePoint> {
    fault_sweep::run(quick, SEED_BLOCK, ARMS)
        .into_iter()
        .map(|point| {
            let [spectrum, ml, hybrid] = &point.arms;
            RatePoint {
                rate: point.rate,
                trials: point.trials,
                median_err_spectrum_m: spectrum.median_err(),
                median_err_ml_m: ml.median_err(),
                median_err_hybrid_m: hybrid.median_err(),
                mean_fix_ns_spectrum: spectrum.mean_fix_ns(),
                mean_fix_ns_ml: ml.mean_fix_ns(),
                mean_fix_ns_hybrid: hybrid.mean_fix_ns(),
                fails_spectrum: spectrum.fails,
                fails_ml: ml.fails,
                fails_hybrid: hybrid.fails,
                ml_accepted: ml.accepted,
                hybrid_accepted: hybrid.accepted,
            }
        })
        .collect()
}

/// The artifact's cases, one per rate point, named `rate_<percent>`.
pub fn cases(results: &[RatePoint]) -> Vec<BenchCase> {
    results
        .iter()
        .map(|r| {
            BenchCase::new(
                format!("rate_{:03}", (r.rate * 100.0).round() as u32),
                &[
                    ("fault_rate", r.rate),
                    ("trials", r.trials as f64),
                    ("median_err_spectrum_m", r.median_err_spectrum_m),
                    ("median_err_ml_m", r.median_err_ml_m),
                    ("median_err_hybrid_m", r.median_err_hybrid_m),
                    ("mean_fix_ns_spectrum", r.mean_fix_ns_spectrum),
                    ("mean_fix_ns_ml", r.mean_fix_ns_ml),
                    ("mean_fix_ns_hybrid", r.mean_fix_ns_hybrid),
                    ("fails_spectrum", r.fails_spectrum as f64),
                    ("fails_ml", r.fails_ml as f64),
                    ("fails_hybrid", r.fails_hybrid as f64),
                    ("ml_accepted", r.ml_accepted as f64),
                    ("hybrid_accepted", r.hybrid_accepted as f64),
                ],
            )
        })
        .collect()
}

/// One human-readable line per rate point.
pub fn report(results: &[RatePoint]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "fault rate {:>4.0}%  spectrum: {:>6.1} cm  ml: {:>6.1} cm \
                 (accepted {}/{})  hybrid: {:>6.1} cm (accepted {}/{})",
                r.rate * 100.0,
                r.median_err_spectrum_m * 100.0,
                r.median_err_ml_m * 100.0,
                r.ml_accepted,
                r.trials,
                r.median_err_hybrid_m * 100.0,
                r.hybrid_accepted,
                r.trials,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(rate: f64) -> RatePoint {
        RatePoint {
            rate,
            trials: 6,
            median_err_spectrum_m: 0.05,
            median_err_ml_m: 0.04,
            median_err_hybrid_m: 0.045,
            mean_fix_ns_spectrum: 1.0e6,
            mean_fix_ns_ml: 2.5e6,
            mean_fix_ns_hybrid: 2.6e6,
            fails_spectrum: 0,
            fails_ml: 0,
            fails_hybrid: 0,
            ml_accepted: 6,
            hybrid_accepted: 5,
        }
    }

    #[test]
    fn record_feeds_the_gate() {
        let results = [point(0.0), point(0.2)];
        crate::assert_gate_reads("estimator", cases(&results), &["rate_000", "rate_020"]);
        assert!(!report(&results).is_empty());
    }
}

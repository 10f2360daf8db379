//! Machine-readable estimator shootout: 2D accuracy and fix latency of
//! the spectrum, ML, and hybrid backends across the fault matrix, emitted
//! by `reproduce --bench estimator` as `BENCH_estimator.json` (schema
//! `tagspin-bench-estimator/v1`).
//!
//! Each rate point runs seeded trials over
//! [`tagspin_sim::estimator_ab::prepare_trial`]: one simulated observation
//! corrupted by [`tagspin_sim::FaultPlan::at_rate`], then the *same*
//! hostile stream replayed into three sessions that differ only in
//! `EstimatorConfig::backend`. Every arm runs the hardened ingest posture
//! and paper-default quality gate, so the curves compare estimators, not
//! the screens in front of them. The fix call itself is wall-clocked per
//! arm — the latency half of the shootout.
//!
//! The regression gate (`cargo xtask bench-check`) holds all three median
//! error curves to their committed baselines and enforces the hard
//! shootout invariant: ML matches-or-beats spectrum on the clean row and
//! degrades no worse than hardened-spectrum (within slack) through the 30%
//! fault row.
//!
//! Trials that produce no fix are scored with the same bounded room-scale
//! penalty the robustness bench uses, so medians stay comparable across
//! arms and every artifact field stays numeric.

use std::time::Instant;
use tagspin_core::prelude::*;
use tagspin_geom::Vec2;
use tagspin_sim::estimator_ab::prepare_trial;
use tagspin_sim::metrics::TrialError;
use tagspin_sim::{FaultPlan, Scenario};
use xtask::bench_check::BenchCase;

/// Error charged to an arm that produced no fix (same bound as the
/// robustness bench).
pub const FAILED_FIX_PENALTY_M: f64 = 10.0;

/// One measured fault-rate point of the three-way shootout.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// The fault-mixture knob fed to [`FaultPlan::at_rate`].
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

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One arm's accumulated trial results at a rate point.
#[derive(Debug, Default)]
struct ArmAccum {
    errs: Vec<f64>,
    fix_ns: f64,
    fails: usize,
    accepted: usize,
}

impl ArmAccum {
    fn penalty(&mut self) {
        self.errs.push(FAILED_FIX_PENALTY_M);
        self.fails += 1;
    }

    fn median_err(&mut self) -> f64 {
        self.errs.sort_by(f64::total_cmp);
        median(&self.errs)
    }

    fn mean_fix_ns(&self, trials: usize) -> f64 {
        self.fix_ns / trials.max(1) as f64
    }
}

/// Run the estimator shootout sweep. `quick` shrinks the per-rate trial
/// count for CI; the measured rates are identical either way.
pub fn run(quick: bool) -> Vec<RatePoint> {
    let trials = if quick { 6 } else { 30 };
    let rates = [0.0, 0.05, 0.1, 0.2, 0.3];
    let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
    let backends = [
        EstimatorBackend::Spectrum,
        EstimatorBackend::Ml,
        EstimatorBackend::Hybrid,
    ];

    rates
        .iter()
        .map(|&rate| {
            let plan = FaultPlan::at_rate(rate);
            let mut arms = [
                ArmAccum::default(),
                ArmAccum::default(),
                ArmAccum::default(),
            ];
            for t in 0..trials {
                // Stable per-trial seeds, disjoint across rates and from the
                // robustness bench's 0xAB00 block.
                let seed = 0xE500 + ((rate * 100.0).round() as u64) * 1000 + t as u64;
                let Ok((mut setup, reports)) = prepare_trial(&scenario, &plan, seed) else {
                    for arm in &mut arms {
                        arm.penalty();
                    }
                    continue;
                };
                for (backend, arm) in backends.iter().zip(&mut arms) {
                    setup.server.config.estimator.backend = *backend;
                    let mut session = setup.server.session(WindowConfig::unbounded());
                    for report in &reports {
                        session.ingest(report);
                    }
                    let t0 = Instant::now();
                    let result = session.fix_2d_estimate();
                    arm.fix_ns += t0.elapsed().as_nanos() as f64;
                    match result {
                        Ok(est) => {
                            let err = TrialError::planar(
                                est.fix.position,
                                scenario.reader_truth.position.xy(),
                            );
                            arm.errs.push(err.combined);
                            if est.ml.is_some_and(|r| r.accepted) {
                                arm.accepted += 1;
                            }
                        }
                        Err(_) => arm.penalty(),
                    }
                }
            }
            let [mut spectrum, mut ml, mut hybrid] = arms;
            RatePoint {
                rate,
                trials,
                median_err_spectrum_m: spectrum.median_err(),
                median_err_ml_m: ml.median_err(),
                median_err_hybrid_m: hybrid.median_err(),
                mean_fix_ns_spectrum: spectrum.mean_fix_ns(trials),
                mean_fix_ns_ml: ml.mean_fix_ns(trials),
                mean_fix_ns_hybrid: hybrid.mean_fix_ns(trials),
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

    #[test]
    fn median_of_even_and_odd() {
        assert!((median(&[1.0, 2.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}

//! The fault-matrix sweep behind the A/B artifact benches (robustness and
//! estimator): one rate × trial loop over the paper's 2D scenario, where
//! each trial is prepared once ([`Trial::prepare`]) and replayed under
//! every arm ([`Trial::replay`]), so the arms differ only in what the arm
//! changes in the configuration.
//!
//! Trials that fail to produce a fix (for the permissive arm under NaN
//! bombardment that is common) are scored as a bounded room-scale penalty
//! rather than dropped, so medians stay comparable across arms and every
//! artifact field stays numeric.

use std::time::Instant;
use tagspin_core::prelude::*;
use tagspin_geom::Vec2;
use tagspin_sim::{FaultPlan, Scenario, Trial};

/// Error charged to an arm that produced no fix: a room-diagonal miss,
/// far beyond any real fix in the paper's office scenario.
pub const FAILED_FIX_PENALTY_M: f64 = 10.0;

/// The mixtures swept, as the knob fed to [`FaultPlan::at_rate`].
const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];

/// One arm: the change it makes to the scenario's configuration.
pub type Arm = fn(&mut PipelineConfig);

/// One arm's results over the trials of one rate.
#[derive(Debug, Clone, Default)]
pub struct ArmTally {
    /// 2D error of each trial (the penalty when it failed), meters,
    /// ascending once the rate is done.
    errs: Vec<f64>,
    /// Summed wall-clock of the arm's `estimate::<TwoD>()` calls, ns.
    fix_ns: f64,
    /// Trials that produced no fix (penalty-scored).
    pub fails: usize,
    /// Trials whose ML refinement was accepted (served instead of the
    /// spectrum seed).
    pub accepted: usize,
}

impl ArmTally {
    fn penalty(&mut self) {
        self.errs.push(FAILED_FIX_PENALTY_M);
        self.fails += 1;
    }

    /// Median 2D error, meters.
    pub fn median_err(&self) -> f64 {
        median(&self.errs)
    }

    /// Mean 2D error, meters, summed in ascending order.
    pub fn mean_err(&self) -> f64 {
        self.errs.iter().sum::<f64>() / self.errs.len() as f64
    }

    /// Mean fix wall-clock per trial, nanoseconds.
    pub fn mean_fix_ns(&self) -> f64 {
        self.fix_ns / self.errs.len().max(1) as f64
    }
}

/// One swept rate: the mixture, the trial count and one tally per arm, in
/// arm order.
#[derive(Debug, Clone)]
pub struct RateTallies<const N: usize> {
    /// The fault-mixture knob fed to [`FaultPlan::at_rate`].
    pub rate: f64,
    /// Trials run at this rate.
    pub trials: usize,
    /// One tally per arm.
    pub arms: [ArmTally; N],
}

/// Sweep every rate: `trials` (quick 6, full 30) trials each, seeded
/// `seed_block + percent·1000 + t`, so blocks 1000 apart stay disjoint
/// across rates and benches. Every arm of a trial replays the same stream
/// and has its `estimate::<TwoD>()` call wall-clocked; a trial whose
/// preparation fails charges the penalty to every arm.
pub fn run<const N: usize>(quick: bool, seed_block: u64, arms: [Arm; N]) -> Vec<RateTallies<N>> {
    let trials = if quick { 6 } else { 30 };
    let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
    RATES
        .iter()
        .map(|&rate| {
            let plan = FaultPlan::at_rate(rate);
            let mut tallies = std::array::from_fn(|_| ArmTally::default());
            for t in 0..trials {
                let seed = seed_block + ((rate * 100.0).round() as u64) * 1000 + t as u64;
                let trial = Trial::prepare(&scenario, &plan, seed);
                for (arm, tally) in arms.iter().zip(&mut tallies) {
                    let Ok(trial) = &trial else {
                        tally.penalty();
                        continue;
                    };
                    let mut session = trial.replay(arm);
                    let t0 = Instant::now();
                    let result = session.estimate::<TwoD>();
                    tally.fix_ns += t0.elapsed().as_nanos() as f64;
                    let Ok(estimate) = result else {
                        tally.penalty();
                        continue;
                    };
                    if estimate.ml.is_some_and(|r| r.accepted) {
                        tally.accepted += 1;
                    }
                    let error = trial.outcome_2d(estimate.fix).error;
                    tally.errs.push(error.combined);
                }
            }
            for tally in &mut tallies {
                tally.errs.sort_by(f64::total_cmp);
            }
            RateTallies {
                rate,
                trials,
                arms: tallies,
            }
        })
        .collect()
}

/// Median of an ascending slice (`NaN` when empty).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert!((median(&[1.0, 2.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}

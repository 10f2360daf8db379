//! Machine-readable robustness benchmark: 2D accuracy versus fault rate,
//! with and without the ingest quarantine, emitted by `reproduce --bench
//! robustness` as `BENCH_robustness.json` (schema
//! `tagspin-bench-robustness/v1`).
//!
//! Each rate point runs seeded [`tagspin_sim::fault::run_trial_2d_ab`]
//! trials: one simulated observation corrupted by
//! [`tagspin_sim::FaultPlan::at_rate`], then the *same* hostile stream
//! through a hardened session (value/duplicate screens + quality gate) and
//! a permissive one. The artifact is the accuracy curve pair — the
//! measured answer to "what does the quarantine layer buy?" — and the CI
//! regression gate (`cargo xtask bench-check`) holds the hardened curve to
//! its committed baseline and requires hardened ≤ permissive at every rate
//! of at least 10%.
//!
//! Trials that fail to produce a fix (for the permissive arm under NaN
//! bombardment that is common) are scored as a bounded room-scale penalty
//! rather than dropped, so medians stay comparable across arms and every
//! artifact field stays numeric.

use tagspin_geom::Vec2;
use tagspin_sim::fault::run_trial_2d_ab;
use tagspin_sim::{FaultPlan, Scenario};
use xtask::bench_check::BenchCase;

/// Error charged to a trial arm that produced no fix: a room-diagonal
/// miss, far beyond any real fix in the paper's office scenario.
pub const FAILED_FIX_PENALTY_M: f64 = 10.0;

/// One measured fault-rate point of the accuracy curve pair.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// The fault-mixture knob fed to [`FaultPlan::at_rate`].
    pub rate: f64,
    /// Trials run at this rate.
    pub trials: usize,
    /// Median 2D error with the quarantine on (hardened arm), meters.
    pub median_err_on_m: f64,
    /// Median 2D error with the quarantine off (permissive arm), meters.
    pub median_err_off_m: f64,
    /// Mean 2D error, hardened arm, meters.
    pub mean_err_on_m: f64,
    /// Mean 2D error, permissive arm, meters.
    pub mean_err_off_m: f64,
    /// Hardened-arm trials that produced no fix (penalty-scored).
    pub fails_on: usize,
    /// Permissive-arm trials that produced no fix (penalty-scored).
    pub fails_off: usize,
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

/// Run the robustness sweep. `quick` shrinks the per-rate trial count for
/// CI; the measured rates are identical either way.
pub fn run(quick: bool) -> Vec<RatePoint> {
    let trials = if quick { 6 } else { 30 };
    let rates = [0.0, 0.05, 0.1, 0.2, 0.3];
    let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();

    rates
        .iter()
        .map(|&rate| {
            let plan = FaultPlan::at_rate(rate);
            let mut errs_on = Vec::with_capacity(trials);
            let mut errs_off = Vec::with_capacity(trials);
            let (mut fails_on, mut fails_off) = (0usize, 0usize);
            for t in 0..trials {
                // Stable per-trial seeds, disjoint across rates.
                let seed = 0xAB00 + ((rate * 100.0).round() as u64) * 1000 + t as u64;
                let Ok(ab) = run_trial_2d_ab(&scenario, &plan, seed) else {
                    // Shared-setup failure hits both arms identically.
                    fails_on += 1;
                    fails_off += 1;
                    errs_on.push(FAILED_FIX_PENALTY_M);
                    errs_off.push(FAILED_FIX_PENALTY_M);
                    continue;
                };
                match ab.hardened {
                    Ok(out) => errs_on.push(out.error.combined),
                    Err(_) => {
                        fails_on += 1;
                        errs_on.push(FAILED_FIX_PENALTY_M);
                    }
                }
                match ab.permissive {
                    Ok(out) => errs_off.push(out.error.combined),
                    Err(_) => {
                        fails_off += 1;
                        errs_off.push(FAILED_FIX_PENALTY_M);
                    }
                }
            }
            errs_on.sort_by(f64::total_cmp);
            errs_off.sort_by(f64::total_cmp);
            RatePoint {
                rate,
                trials,
                median_err_on_m: median(&errs_on),
                median_err_off_m: median(&errs_off),
                mean_err_on_m: errs_on.iter().sum::<f64>() / trials as f64,
                mean_err_off_m: errs_off.iter().sum::<f64>() / trials as f64,
                fails_on,
                fails_off,
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
                    ("median_err_on_m", r.median_err_on_m),
                    ("median_err_off_m", r.median_err_off_m),
                    ("mean_err_on_m", r.mean_err_on_m),
                    ("mean_err_off_m", r.mean_err_off_m),
                    ("fails_on", r.fails_on as f64),
                    ("fails_off", r.fails_off as f64),
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
                "fault rate {:>4.0}%  quarantine on: median {:>6.1} cm (fails {}/{})  \
                 off: median {:>6.1} cm (fails {}/{})",
                r.rate * 100.0,
                r.median_err_on_m * 100.0,
                r.fails_on,
                r.trials,
                r.median_err_off_m * 100.0,
                r.fails_off,
                r.trials,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_feeds_the_gate() {
        let results = [RatePoint {
            rate: 0.2,
            trials: 6,
            median_err_on_m: 0.08,
            median_err_off_m: 4.2,
            mean_err_on_m: 0.09,
            mean_err_off_m: 6.0,
            fails_on: 0,
            fails_off: 3,
        }];
        crate::assert_gate_reads("robustness", cases(&results), &["rate_020"]);
        assert!(!report(&results).is_empty());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert!((median(&[1.0, 2.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((median(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }
}

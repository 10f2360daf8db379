//! Machine-readable robustness benchmark: 2D accuracy versus fault rate,
//! with and without the ingest quarantine, emitted by `reproduce --bench
//! robustness` as `BENCH_robustness.json` (schema
//! `tagspin-bench-robustness/v1`).
//!
//! Each rate point runs the seeded trials of [`crate::fault_sweep`]: one
//! simulated observation corrupted by [`tagspin_sim::FaultPlan::at_rate`],
//! then the *same* hostile stream replayed under the hardened ingest
//! posture (value/duplicate screens + quality gate) and the permissive
//! one. The artifact is the accuracy curve pair — the measured answer to
//! "what does the quarantine layer buy?" — and the CI regression gate
//! (`cargo xtask bench-check`) holds the hardened curve to its committed
//! baseline and requires hardened ≤ permissive at every rate of at least
//! 10%.

use crate::fault_sweep::{self, Arm};
use tagspin_sim::fault::{hardened, permissive};
use xtask::bench_check::BenchCase;

/// The arms, in artifact order: quarantine on, then off.
const ARMS: [Arm; 2] = [hardened, permissive];

/// Per-trial seeds start here (disjoint from the estimator bench's).
const SEED_BLOCK: u64 = 0xAB00;

/// One measured fault-rate point of the accuracy curve pair.
#[derive(Debug, Clone)]
pub struct RatePoint {
    /// The fault-mixture knob fed to [`tagspin_sim::FaultPlan::at_rate`].
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

/// Run the robustness sweep. `quick` shrinks the per-rate trial count for
/// CI; the measured rates are identical either way.
pub fn run(quick: bool) -> Vec<RatePoint> {
    fault_sweep::run(quick, SEED_BLOCK, ARMS)
        .into_iter()
        .map(|point| {
            let [on, off] = &point.arms;
            RatePoint {
                rate: point.rate,
                trials: point.trials,
                median_err_on_m: on.median_err(),
                median_err_off_m: off.median_err(),
                mean_err_on_m: on.mean_err(),
                mean_err_off_m: off.mean_err(),
                fails_on: on.fails,
                fails_off: off.fails,
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
}

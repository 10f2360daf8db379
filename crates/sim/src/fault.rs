//! Composable fault injection for inventory logs, plus A/B robustness
//! trials.
//!
//! The paper's clean simulation is the best case; real COTS captures are
//! not. A [`FaultPlan`] describes, rate by rate, the corruption a deployed
//! reader actually produces — dropped reads, duplicated LLRP deliveries,
//! transport reordering, per-channel phase offsets from frequency hopping,
//! burst phase jitter, bit-flipped ghost EPCs, truncated captures — and
//! applies it to any scenario's log with **seeded determinism**: the same
//! `(plan, log, seed)` always yields the same corrupted stream, so
//! robustness trials are exactly reproducible.
//!
//! [`run_trial_2d_ab`] is the measurement harness built on top: one
//! simulated observation, one corruption pass, then the *same* hostile
//! stream through two sessions — the hardened ingest posture
//! (value/duplicate screens + quality gate) versus the permissive one — so
//! accuracy-vs-fault-rate curves isolate what the quarantine layer buys.

use crate::metrics::TrialError;
use crate::scenario::Scenario;
use crate::trial::{observe, setup_trial, Trial2DOutcome, TrialFailure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tagspin_core::prelude::*;
use tagspin_epc::{InventoryLog, TagReport};
use tagspin_geom::angle::wrap_tau;
use tagspin_rf::noise::gaussian;

/// A burst of excess phase jitter over one contiguous slice of the capture
/// (a person walking through the channel, a motor spinning up nearby).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseBurst {
    /// Burst start, as a fraction of the capture span, `[0, 1]`.
    pub start_frac: f64,
    /// Burst length, as a fraction of the capture span.
    pub len_frac: f64,
    /// Extra phase noise inside the burst, radians (std-dev).
    pub sigma: f64,
}

/// A composable, seeded corruption model for an [`InventoryLog`].
///
/// Each field injects one fault class independently; [`FaultPlan::clean`]
/// injects nothing, [`FaultPlan::at_rate`] scales a hostile mixture by one
/// knob. The output is a plain `Vec<TagReport>` rather than an
/// [`InventoryLog`] on purpose: reordered timestamps violate the log's
/// monotonicity contract, and surviving that is exactly what the session's
/// ingest screens are for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a read is silently dropped (reader misses the slot).
    pub drop_rate: f64,
    /// Probability a delivered read is delivered *again* immediately
    /// (LLRP re-delivery across reconnects).
    pub duplicate_rate: f64,
    /// Probability a read's timestamp is skewed backwards by
    /// [`FaultPlan::reorder_skew_us`], producing out-of-order arrival.
    pub reorder_rate: f64,
    /// Backwards timestamp skew applied to reordered reads, µs.
    pub reorder_skew_us: u64,
    /// Probability a read's phase field is corrupted outright: NaN,
    /// infinite, or arbitrary out-of-contract garbage (firmware glitch).
    pub corrupt_rate: f64,
    /// Probability a read's EPC is bit-flipped (ghost read that passed
    /// CRC); a flipped EPC matches no registered tag, occasionally zero.
    pub ghost_rate: f64,
    /// Magnitude bound of a *per-channel* phase offset (radians) drawn
    /// once per apply — the frequency-hopping effect the paper's single
    /// channel sidesteps. `0` disables.
    pub channel_offset_rad: f64,
    /// Optional burst of excess phase jitter.
    pub burst: Option<PhaseBurst>,
    /// Fraction of the capture *tail* cut off (reader died early), `[0,1)`.
    pub truncate_frac: f64,
}

/// How many reports each fault class touched in one [`FaultPlan::apply`]
/// pass — the ground truth an accounting test compares quarantine counters
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Reports cut by truncation.
    pub truncated: usize,
    /// Reports silently dropped.
    pub dropped: usize,
    /// Extra duplicate deliveries appended.
    pub duplicated: usize,
    /// Reports whose timestamps were skewed backwards.
    pub reordered: usize,
    /// Reports whose phase was corrupted outright.
    pub corrupted: usize,
    /// Reports whose EPC was bit-flipped.
    pub ghosted: usize,
}

impl FaultPlan {
    /// No faults: `apply` returns the log verbatim.
    pub fn clean() -> Self {
        FaultPlan {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            reorder_skew_us: 20_000,
            corrupt_rate: 0.0,
            ghost_rate: 0.0,
            channel_offset_rad: 0.0,
            burst: None,
            truncate_frac: 0.0,
        }
    }

    /// A hostile mixture scaled by one knob `rate` in `[0, 1]`: at
    /// `rate = r`, a fraction ≈ `r` of reads arrive with corrupted phases,
    /// another ≈ `r` are duplicated, `r/2` are dropped or reordered, and
    /// `r/4` are ghost EPCs. This is the mixture the robustness benchmark
    /// sweeps.
    pub fn at_rate(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        FaultPlan {
            drop_rate: rate * 0.5,
            duplicate_rate: rate,
            reorder_rate: rate * 0.5,
            corrupt_rate: rate,
            ghost_rate: rate * 0.25,
            ..FaultPlan::clean()
        }
    }

    /// Apply the plan to a log, returning the corrupted report stream in
    /// delivery order. Deterministic for a given `(plan, log, seed)`.
    pub fn apply(&self, log: &InventoryLog, seed: u64) -> Vec<TagReport> {
        self.apply_counted(log, seed).0
    }

    /// [`FaultPlan::apply`] plus per-class fault counts (for accounting
    /// tests and bench metadata).
    pub fn apply_counted(&self, log: &InventoryLog, seed: u64) -> (Vec<TagReport>, FaultCounts) {
        // Decorrelate from the trial RNG stream without disturbing it.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA_17_1E_C7);
        let mut counts = FaultCounts::default();

        // Per-channel offsets are drawn once per apply: hopping to the same
        // channel reproduces the same offset, as physics does.
        let mut channel_offsets = [0.0f64; 64];
        if self.channel_offset_rad > 0.0 {
            for o in channel_offsets.iter_mut() {
                *o = rng.gen_range(-self.channel_offset_rad..self.channel_offset_rad);
            }
        }

        let reports = log.reports();
        let keep = if self.truncate_frac > 0.0 {
            (reports.len() as f64 * (1.0 - self.truncate_frac)).floor() as usize
        } else {
            reports.len()
        };
        counts.truncated = reports.len() - keep;

        // Burst window in absolute reader time.
        let burst_window = self.burst.and_then(|b| {
            let (first, last) = (reports.first()?, reports.last()?);
            let span = last.time_s() - first.time_s();
            let start = first.time_s() + b.start_frac * span;
            Some((start, start + b.len_frac * span, b.sigma))
        });

        let mut out = Vec::with_capacity(keep);
        for r in &reports[..keep] {
            if self.drop_rate > 0.0 && rng.gen_bool(self.drop_rate) {
                counts.dropped += 1;
                continue;
            }
            let mut rep = *r;
            if self.channel_offset_rad > 0.0 {
                let off = channel_offsets[rep.channel_index as usize % channel_offsets.len()];
                rep.phase = wrap_tau(rep.phase + off);
            }
            if let Some((start, end, sigma)) = burst_window {
                let t = rep.time_s();
                if t >= start && t < end {
                    rep.phase = wrap_tau(rep.phase + sigma * gaussian(&mut rng));
                }
            }
            if self.corrupt_rate > 0.0 && rng.gen_bool(self.corrupt_rate) {
                counts.corrupted += 1;
                rep.phase = match rng.gen_range(0u32..3) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    // Mostly out-of-contract garbage; the sliver that lands
                    // inside [0, 2π) models corruption no screen can see.
                    _ => rng.gen_range(-50.0..50.0),
                };
            }
            if self.ghost_rate > 0.0 && rng.gen_bool(self.ghost_rate) {
                counts.ghosted += 1;
                // One flipped EPC bit usually makes an unknown tag; a
                // sixteenth of ghosts wipe the EPC entirely (null read).
                rep.epc = if rng.gen_range(0u32..16) == 0 {
                    0
                } else {
                    rep.epc ^ (1u128 << rng.gen_range(0u32..96))
                };
            }
            if self.reorder_rate > 0.0 && rng.gen_bool(self.reorder_rate) {
                counts.reordered += 1;
                rep.timestamp_us = rep.timestamp_us.saturating_sub(self.reorder_skew_us);
            }
            let duplicate = self.duplicate_rate > 0.0 && rng.gen_bool(self.duplicate_rate);
            out.push(rep);
            if duplicate {
                counts.duplicated += 1;
                out.push(rep);
            }
        }
        (out, counts)
    }
}

/// Both arms of one robustness A/B trial over the same corrupted stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AbOutcome {
    /// Hardened arm: value/duplicate screens on, quality gate enabled.
    pub hardened: Result<Trial2DOutcome, TrialFailure>,
    /// Permissive arm: screens and gate off (out-of-order rejection only).
    pub permissive: Result<Trial2DOutcome, TrialFailure>,
    /// Reports delivered after corruption (both arms saw this stream).
    pub delivered: usize,
}

/// Run one 2D localization trial with the corrupted stream fed to **two**
/// sessions sharing the same world: the hardened ingest posture and the
/// permissive one. Everything upstream — tag manufacture, calibration, the
/// observation, the corruption pass — happens exactly once, so the arms
/// differ *only* in ingest policy and quality gate.
///
/// # Errors
///
/// [`TrialFailure::Calibration`] when the shared setup fails; per-arm
/// pipeline failures are reported inside [`AbOutcome`], not here.
pub fn run_trial_2d_ab(
    scenario: &Scenario,
    plan: &FaultPlan,
    seed: u64,
) -> Result<AbOutcome, TrialFailure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut setup = setup_trial(scenario, &mut rng)?;
    let log = observe(scenario, &setup, &mut rng);
    let reports = plan.apply(&log, seed);

    setup.server.config.ingest = IngestPolicy::hardened();
    setup.server.config.quality_gate = QualityGate::paper_default();
    let hardened = run_arm(&setup.server, &reports, scenario);

    setup.server.config.ingest = IngestPolicy::permissive();
    setup.server.config.quality_gate = QualityGate::default();
    let permissive = run_arm(&setup.server, &reports, scenario);

    Ok(AbOutcome {
        hardened,
        permissive,
        delivered: reports.len(),
    })
}

fn run_arm(
    server: &LocalizationServer,
    reports: &[TagReport],
    scenario: &Scenario,
) -> Result<Trial2DOutcome, TrialFailure> {
    let mut session = server.session(WindowConfig::unbounded());
    for report in reports {
        session.ingest(report);
    }
    let fix = session.fix::<TwoD>().map_err(TrialFailure::Server)?;
    let error = TrialError::planar(fix.position, scenario.reader_truth.position.xy());
    Ok(Trial2DOutcome {
        fix,
        error,
        reads: reports.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::run_trial_2d;
    use tagspin_geom::Vec2;

    fn small_log() -> InventoryLog {
        (0..200u64)
            .map(|i| TagReport {
                epc: 1 + (i % 2) as u128,
                timestamp_us: i * 10_000,
                phase: wrap_tau((i as f64) * 0.37),
                rssi_dbm: -60.0,
                channel_index: (i % 8) as u8,
                antenna_id: 1,
            })
            .collect()
    }

    #[test]
    fn clean_plan_is_identity() {
        let log = small_log();
        let (out, counts) = FaultPlan::clean().apply_counted(&log, 9);
        assert_eq!(out, log.reports());
        assert_eq!(counts, FaultCounts::default());
    }

    /// Bitwise stream equality — corrupted streams contain NaN phases, so
    /// `PartialEq` (NaN ≠ NaN) cannot certify determinism.
    fn bit_identical(a: &[TagReport], b: &[TagReport]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.epc == y.epc
                    && x.timestamp_us == y.timestamp_us
                    && x.phase.to_bits() == y.phase.to_bits()
                    && x.rssi_dbm.to_bits() == y.rssi_dbm.to_bits()
                    && x.channel_index == y.channel_index
                    && x.antenna_id == y.antenna_id
            })
    }

    #[test]
    fn apply_is_deterministic_per_seed() {
        let log = small_log();
        let plan = FaultPlan::at_rate(0.3);
        assert!(bit_identical(&plan.apply(&log, 5), &plan.apply(&log, 5)));
        assert!(!bit_identical(&plan.apply(&log, 5), &plan.apply(&log, 6)));
    }

    #[test]
    fn fault_classes_hit_their_targets() {
        let log = small_log();
        let plan = FaultPlan {
            drop_rate: 0.2,
            duplicate_rate: 0.2,
            reorder_rate: 0.2,
            corrupt_rate: 0.2,
            ghost_rate: 0.2,
            truncate_frac: 0.1,
            ..FaultPlan::clean()
        };
        let (out, counts) = plan.apply_counted(&log, 3);
        assert_eq!(counts.truncated, 20);
        assert!(counts.dropped > 0 && counts.duplicated > 0);
        assert!(counts.reordered > 0 && counts.corrupted > 0 && counts.ghosted > 0);
        assert_eq!(
            out.len(),
            log.len() - counts.truncated - counts.dropped + counts.duplicated
        );
        // Some phases are now out of contract.
        assert!(out.iter().any(|r| r.validate().is_err()));
    }

    #[test]
    fn channel_offsets_are_per_channel_consistent() {
        let log = small_log();
        let plan = FaultPlan {
            channel_offset_rad: 1.0,
            ..FaultPlan::clean()
        };
        let out = plan.apply(&log, 4);
        // Same channel → same offset: phase deltas match the originals
        // within one channel.
        for ch in 0..8u8 {
            let orig: Vec<f64> = log
                .reports()
                .iter()
                .filter(|r| r.channel_index == ch)
                .map(|r| r.phase)
                .collect();
            let got: Vec<f64> = out
                .iter()
                .filter(|r| r.channel_index == ch)
                .map(|r| r.phase)
                .collect();
            let d0 = wrap_tau(got[0] - orig[0]);
            for (o, g) in orig.iter().zip(&got) {
                assert!((wrap_tau(g - o) - d0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn burst_jitter_confined_to_window() {
        let log = small_log();
        let plan = FaultPlan {
            burst: Some(PhaseBurst {
                start_frac: 0.25,
                len_frac: 0.25,
                sigma: 0.8,
            }),
            ..FaultPlan::clean()
        };
        let out = plan.apply(&log, 8);
        let span = log.span_s();
        let t0 = log.reports()[0].time_s();
        let (b0, b1) = (t0 + 0.25 * span, t0 + 0.5 * span);
        let mut touched = 0usize;
        for (orig, got) in log.reports().iter().zip(&out) {
            let inside = got.time_s() >= b0 && got.time_s() < b1;
            // lint:allow(float-eq) bit-exactness outside the burst is the contract
            if got.phase != orig.phase {
                assert!(inside, "jitter outside the burst window");
                touched += 1;
            }
        }
        assert!(touched > 10, "burst touched only {touched} reads");
    }

    #[test]
    fn ab_trial_hardened_survives_hostile_stream() {
        let scenario = Scenario::paper_2d(Vec2::new(0.4, 1.8)).quick();
        let clean = run_trial_2d(&scenario, 42).unwrap();
        let out = run_trial_2d_ab(&scenario, &FaultPlan::at_rate(0.3), 42).unwrap();
        let hardened = out.hardened.expect("hardened arm should fix");
        // Quarantine keeps the hostile stream near clean accuracy.
        assert!(
            hardened.error.combined < clean.error.combined + 0.15,
            "hardened error {:.3} m vs clean {:.3} m",
            hardened.error.combined,
            clean.error.combined
        );
        // The permissive arm ingested NaN phases; whatever it produced is
        // worse or failed outright.
        if let Ok(p) = out.permissive {
            assert!(p.error.combined >= hardened.error.combined);
        }
    }

    #[test]
    fn ab_trial_equals_plain_trial_when_clean() {
        let scenario = Scenario::paper_2d(Vec2::new(-0.5, 2.2)).quick();
        let plain = run_trial_2d(&scenario, 7).unwrap();
        let out = run_trial_2d_ab(&scenario, &FaultPlan::clean(), 7).unwrap();
        let hardened = out.hardened.unwrap();
        let permissive = out.permissive.unwrap();
        assert_eq!(hardened.fix, plain.fix);
        assert_eq!(permissive.fix, plain.fix);
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn at_rate_rejects_out_of_range() {
        let _ = FaultPlan::at_rate(1.5);
    }
}

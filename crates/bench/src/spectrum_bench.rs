//! Machine-readable spectrum-engine benchmark: coarse-to-fine versus the
//! exhaustive reference path, emitted by `reproduce --bench spectrum` as
//! `BENCH_spectrum.json` (schema `tagspin-bench-spectrum/v1`).
//!
//! The vendored criterion stand-in prints means but does not expose them
//! programmatically, so this module carries its own `Instant`-based timing
//! loop.

use crate::synthetic_snapshots;
use std::time::Instant;
use tagspin_core::spectrum::engine::{SpectrumEngine, SpectrumEngineConfig};
use tagspin_core::spectrum::{ProfileKind, SpectrumConfig};
use tagspin_geom::Vec3;
use xtask::bench_check::BenchCase;

/// One measured configuration: the same peak search on the same inputs,
/// fast path versus exhaustive path.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Stable case identifier (e.g. `peak_2d_hybrid_720`).
    pub name: &'static str,
    /// Azimuth grid size.
    pub azimuth_steps: usize,
    /// Polar grid size (1 for 2D cases).
    pub polar_steps: usize,
    /// Snapshot count of the synthetic aperture.
    pub snapshots: usize,
    /// Mean wall-clock nanoseconds per exhaustive peak search.
    pub mean_ns_exhaustive: f64,
    /// Mean wall-clock nanoseconds per coarse-to-fine peak search.
    pub mean_ns_fast: f64,
}

impl CaseResult {
    /// Exhaustive time over fast time (higher is better for the engine).
    pub fn speedup(&self) -> f64 {
        self.mean_ns_exhaustive / self.mean_ns_fast
    }
}

/// Mean nanoseconds per call of `f` over `iters` timed iterations (after
/// one untimed warm-up call that also warms the engine's table cache).
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
}

/// Run the engine benchmark suite. `quick` shrinks iteration counts for
/// CI; the measured configurations are identical either way.
pub fn run(quick: bool) -> Vec<CaseResult> {
    let (fast_iters, full_iters) = if quick { (6, 2) } else { (20, 5) };
    let reader = Vec3::new(-0.8, 1.5, 0.0);
    let reader_3d = Vec3::new(-0.8, 1.5, 0.6);
    let ecfg = SpectrumEngineConfig::default();
    let exhaustive = SpectrumEngineConfig {
        exhaustive: true,
        ..ecfg
    };
    let mut results = Vec::new();

    for &(name, steps) in &[
        ("peak_2d_hybrid_360", 360usize),
        ("peak_2d_hybrid_720", 720),
        ("peak_2d_hybrid_1440", 1440),
    ] {
        let set = synthetic_snapshots(reader, 400);
        let cfg = SpectrumConfig {
            azimuth_steps: steps,
            ..SpectrumConfig::default()
        };
        let engine = SpectrumEngine::new(&ecfg);
        let mean_ns_fast = time_ns(fast_iters, || {
            engine.peak_2d(&set, 0.1, ProfileKind::Hybrid, &cfg, &ecfg);
        });
        let mean_ns_exhaustive = time_ns(full_iters, || {
            engine.peak_2d(&set, 0.1, ProfileKind::Hybrid, &cfg, &exhaustive);
        });
        results.push(CaseResult {
            name,
            azimuth_steps: steps,
            polar_steps: 1,
            snapshots: 400,
            mean_ns_exhaustive,
            mean_ns_fast,
        });
    }

    {
        let set = synthetic_snapshots(reader_3d, 400);
        let cfg = SpectrumConfig {
            azimuth_steps: 360,
            polar_steps: 61,
            ..SpectrumConfig::default()
        };
        let engine = SpectrumEngine::new(&ecfg);
        let mean_ns_fast = time_ns(fast_iters, || {
            engine.peak_3d(&set, 0.1, ProfileKind::Hybrid, &cfg, &ecfg);
        });
        let mean_ns_exhaustive = time_ns(full_iters.min(3), || {
            engine.peak_3d(&set, 0.1, ProfileKind::Hybrid, &cfg, &exhaustive);
        });
        results.push(CaseResult {
            name: "peak_3d_hybrid_360x61",
            azimuth_steps: 360,
            polar_steps: 61,
            snapshots: 400,
            mean_ns_exhaustive,
            mean_ns_fast,
        });
    }

    results
}

/// The artifact's cases, one per measured configuration.
pub fn cases(results: &[CaseResult]) -> Vec<BenchCase> {
    results
        .iter()
        .map(|r| {
            BenchCase::new(
                r.name,
                &[
                    ("azimuth_steps", r.azimuth_steps as f64),
                    ("polar_steps", r.polar_steps as f64),
                    ("snapshots", r.snapshots as f64),
                    ("mean_ns_exhaustive", r.mean_ns_exhaustive),
                    ("mean_ns_fast", r.mean_ns_fast),
                    ("speedup", r.speedup()),
                ],
            )
        })
        .collect()
}

/// One human-readable line per case.
pub fn report(results: &[CaseResult]) -> String {
    results
        .iter()
        .map(|r| {
            format!(
                "{:<24} grid {:>4}x{:<2}  exhaustive {:>9.2} ms  fast {:>8.3} ms  speedup {:>5.1}x",
                r.name,
                r.azimuth_steps,
                r.polar_steps,
                r.mean_ns_exhaustive / 1e6,
                r.mean_ns_fast / 1e6,
                r.speedup()
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
        let results = [CaseResult {
            name: "peak_2d_hybrid_720",
            azimuth_steps: 720,
            polar_steps: 1,
            snapshots: 400,
            mean_ns_exhaustive: 6e6,
            mean_ns_fast: 1e6,
        }];
        crate::assert_gate_reads("spectrum", cases(&results), &["peak_2d_hybrid_720"]);
    }
}

//! Machine-readable observability-overhead benchmark: the streaming-ingest
//! fixture measured under three observer arms, emitted by `reproduce
//! --bench obs` as `BENCH_obs.json` (schema `tagspin-bench-obs/v1`).
//!
//! The question this artifact answers: what does the observability layer
//! cost? Three arms run the *same* fixture through the *same* session
//! pipeline:
//!
//! * `null` — the default [`NullObserver`]; the disabled path the
//!   instrumentation promises is zero-cost (no clock reads, no event
//!   construction).
//! * `metrics` — a [`MetricsObserver`] folding every event into the
//!   lock-light [`MetricsRegistry`]; the production configuration.
//! * `recording` — a [`RecordingObserver`] buffering every event; the
//!   test-suite configuration and the worst case (allocation per event).
//!
//! Each arm reports two gated metrics (`mean_ingest_ns`, best-of-passes;
//! `min_fix_refresh_ns`, best timed refresh — minima are robust to
//! scheduler noise on shared runners) so `cargo xtask bench-check`
//! holds all three paths to their baselines. The per-arm
//! `ingest_overhead_frac` field (relative to the `null` arm in the same
//! run) is informational: it is what `docs/OBSERVABILITY.md` quotes.
//!
//! The disabled-path-vs-*pre-instrumentation* claim is deliberately left to
//! `BENCH_ingest.json`, whose baseline predates the observability layer.

use crate::ingest_bench::{continuation, streaming_fixture, timed_refreshes, WARMUP_FIXES};
use crate::CaseFailed;
use std::sync::Arc;
use std::time::Instant;
use tagspin_core::prelude::*;
use tagspin_epc::InventoryLog;
use xtask::bench_check::BenchCase;

/// Which observer a case attaches to the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverArm {
    /// The default disabled observer (no events, no clock reads).
    Null,
    /// A `MetricsObserver` over a fresh `MetricsRegistry`.
    Metrics,
    /// A `RecordingObserver` buffering every event.
    Recording,
}

impl ObserverArm {
    /// Stable case name for the artifact.
    pub fn name(self) -> &'static str {
        match self {
            ObserverArm::Null => "null",
            ObserverArm::Metrics => "metrics",
            ObserverArm::Recording => "recording",
        }
    }
}

/// One measured observer arm.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Stable case identifier (`null`, `metrics`, `recording`).
    pub name: String,
    /// Reports ingested during the throughput measurement.
    pub reports: usize,
    /// Mean wall-clock nanoseconds per ingested report, taken from the
    /// best of several full-drain passes (the minimum is robust to
    /// scheduler noise on shared single-core runners).
    pub mean_ingest_ns: f64,
    /// Minimum wall-clock nanoseconds over the timed fix refreshes.
    pub min_fix_refresh_ns: f64,
    /// Events the arm's observer actually received (0 for `null`; for
    /// `metrics` the sum of all counter increments, which undercounts
    /// events carrying no counter, so `recording` is the true event count).
    pub events: u64,
    /// Ingest overhead relative to the `null` arm of the same run
    /// (`mean_ingest_ns / null_mean - 1`; 0 for `null` itself).
    pub ingest_overhead_frac: f64,
}

/// Full-drain passes per arm; the minimum mean survives, so a scheduler
/// stall in one pass cannot fail the regression gate.
const INGEST_PASSES: usize = 3;

/// Reports per `ingest_batch` call in the drain loop: large enough that
/// the metrics arm amortizes its one-atomic-add-per-counter flush, small
/// enough to model a realistic reader burst rather than a whole log.
const INGEST_BATCH: usize = 64;

/// A fresh session for `arm`, with its (possibly unused) observer sinks.
fn arm_session(
    server: &LocalizationServer,
    arm: ObserverArm,
) -> (ReaderSession, Arc<MetricsRegistry>, Arc<RecordingObserver>) {
    let mut session = server.session(WindowConfig::last_reports(512));
    let metrics = Arc::new(MetricsRegistry::new());
    let recording = Arc::new(RecordingObserver::new());
    match arm {
        ObserverArm::Null => {}
        ObserverArm::Metrics => {
            session.set_observer(Arc::new(MetricsObserver::new(Arc::clone(&metrics))))
        }
        ObserverArm::Recording => session.set_observer(Arc::clone(&recording) as Arc<dyn Observer>),
    }
    (session, metrics, recording)
}

/// Measure one arm: several full-drain passes (best mean kept), then a
/// handful of burst-then-fix refreshes on the final pass's session (best
/// refresh kept). Returns (mean_ingest_ns, min_fix_refresh_ns, events);
/// events count only the final pass, i.e. one drain plus the refreshes.
///
/// # Errors
///
/// [`CaseFailed`] when a timed refresh did not sync (see
/// `ingest_bench::timed_refreshes`).
fn measure(
    server: &LocalizationServer,
    log: &InventoryLog,
    arm: ObserverArm,
    refreshes: usize,
) -> Result<(f64, f64, u64), CaseFailed> {
    let mut mean_ingest_ns = f64::INFINITY;
    let mut last_pass = None;
    for _ in 0..INGEST_PASSES {
        let (mut session, metrics, recording) = arm_session(server, arm);
        let t0 = Instant::now();
        for chunk in log.reports().chunks(INGEST_BATCH) {
            session.ingest_batch(chunk);
        }
        let mean = t0.elapsed().as_nanos() as f64 / log.len().max(1) as f64;
        mean_ingest_ns = mean_ingest_ns.min(mean);
        last_pass = Some((session, metrics, recording));
    }
    let Some((mut session, metrics, recording)) = last_pass else {
        return Ok((0.0, 0.0, 0));
    };

    let min_fix_refresh_ns = timed_refreshes(&mut session, log, refreshes, arm.name())?
        .into_iter()
        .reduce(f64::min)
        .unwrap_or(0.0);

    let events = match arm {
        ObserverArm::Null => 0,
        ObserverArm::Metrics => metrics.snapshot().counters.values().sum(),
        ObserverArm::Recording => recording.events().len() as u64,
    };
    Ok((mean_ingest_ns, min_fix_refresh_ns, events))
}

/// Run the observability-overhead suite. `quick` shrinks the observation
/// and refresh counts for CI; the three arms are identical either way.
///
/// # Errors
///
/// [`CaseFailed`] when a timed refresh of some arm did not sync.
pub fn run(quick: bool) -> Result<Vec<CaseResult>, CaseFailed> {
    let (rotations, refreshes) = if quick { (0.5, 3) } else { (2.0, 10) };
    let (server, log) = streaming_fixture(rotations, 7);

    let arms = [
        ObserverArm::Null,
        ObserverArm::Metrics,
        ObserverArm::Recording,
    ];
    let mut null_mean = 0.0_f64;
    arms.into_iter()
        .map(|arm| {
            let (mean_ingest_ns, min_fix_refresh_ns, events) =
                measure(&server, &log, arm, refreshes)?;
            if arm == ObserverArm::Null {
                null_mean = mean_ingest_ns;
            }
            let ingest_overhead_frac = if arm == ObserverArm::Null || null_mean <= 0.0 {
                0.0
            } else {
                mean_ingest_ns / null_mean - 1.0
            };
            Ok(CaseResult {
                name: arm.name().to_string(),
                reports: log.len(),
                mean_ingest_ns,
                min_fix_refresh_ns,
                events,
                ingest_overhead_frac,
            })
        })
        .collect()
}

/// Run only the `metrics` arm's drain and refresh schedule, warm-ups
/// included, and return its populated registry, for `reproduce
/// --metrics-out`: a full `tagspin-metrics/v1` export of what the fixture
/// actually emitted.
pub fn collect_metrics(quick: bool) -> Arc<MetricsRegistry> {
    let (rotations, refreshes) = if quick { (0.5, 3) } else { (2.0, 10) };
    let (server, log) = streaming_fixture(rotations, 7);
    let mut session = server.session(WindowConfig::last_reports(512));
    let registry = Arc::new(MetricsRegistry::new());
    session.set_observer(Arc::new(MetricsObserver::new(Arc::clone(&registry))));
    for report in log.stream() {
        session.ingest(report);
    }
    for chunk in continuation(&log, (WARMUP_FIXES + refreshes) * 2).chunks_exact(2) {
        for r in chunk {
            session.ingest(r);
        }
        let _ = session.fix::<TwoD>();
    }
    registry
}

/// The artifact's cases, one per observer arm.
pub fn cases(results: &[CaseResult]) -> Vec<BenchCase> {
    results
        .iter()
        .map(|r| {
            BenchCase::new(
                &r.name,
                &[
                    ("reports", r.reports as f64),
                    ("mean_ingest_ns", r.mean_ingest_ns),
                    ("min_fix_refresh_ns", r.min_fix_refresh_ns),
                    ("events", r.events as f64),
                    ("ingest_overhead_frac", r.ingest_overhead_frac),
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
                "{:<10} ingest {:>7.0} ns/report ({:+.1}% vs null)  \
                 fix refresh {:>9.2} ms  events {:>7}",
                r.name,
                r.mean_ingest_ns,
                r.ingest_overhead_frac * 100.0,
                r.min_fix_refresh_ns / 1e6,
                r.events
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_observe_what_they_should() {
        let results = run(true).expect("every timed refresh syncs");
        assert_eq!(results.len(), 3);
        let by_name = |n: &str| {
            results
                .iter()
                .find(|r| r.name == n)
                .unwrap_or_else(|| unreachable!("arm {n} always present"))
        };
        assert_eq!(by_name("null").events, 0);
        assert!(by_name("recording").events > 0, "recording saw no events");
        assert!(by_name("metrics").events > 0, "metrics saw no increments");
        // The recording arm sees every event, including zero-counter ones,
        // and both enabled arms see at least one event per ingested report.
        assert!(by_name("recording").events >= by_name("null").reports as u64);
        crate::assert_gate_reads("obs", cases(&results), &["null", "metrics", "recording"]);
    }
}

//! Machine-readable streaming-ingest benchmark: session ingest throughput
//! and fix-refresh latency versus sliding-window size, emitted by
//! `reproduce --bench ingest` as `BENCH_ingest.json` (schema
//! `tagspin-bench-ingest/v1`).
//!
//! The question this artifact answers: how fast can a [`ReaderSession`]
//! drain an LLRP report stream, and how expensive is a fix refresh once the
//! window bounds the per-tag buffers? Smaller windows mean fewer snapshots
//! per spectrum and therefore cheaper refreshes — the artifact quantifies
//! that trade against the unbounded (batch-equivalent) window. Like
//! `spectrum_bench`, the timing loop is `Instant`-based.

use crate::CaseFailed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tagspin_core::prelude::*;
use tagspin_epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin_epc::{InventoryLog, TagReport};
use tagspin_geom::{Pose, Vec3};
use tagspin_rf::channel::Environment;
use tagspin_rf::{TagInstance, TagModel};
use xtask::bench_check::BenchCase;

/// One measured window configuration.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Stable case identifier (e.g. `window_256`).
    pub name: String,
    /// Count bound of the window (`None` = unbounded, the batch-equivalent
    /// configuration).
    pub max_reports: Option<usize>,
    /// Reports ingested during the throughput measurement.
    pub reports: usize,
    /// Mean wall-clock nanoseconds per ingested report.
    pub mean_ingest_ns: f64,
    /// Ingest throughput, reports per second.
    pub reports_per_sec: f64,
    /// Mean wall-clock nanoseconds per fix refresh (a small burst of new
    /// reports dirties every stream, then `fix::<TwoD>` recomputes them).
    pub mean_fix_refresh_ns: f64,
    /// Snapshots buffered across all streams after the full ingest — shows
    /// the window actually bounding memory.
    pub buffered: usize,
}

/// The two-tag streaming fixture: a server with the paper-default disks at
/// (±30 cm, 0) and a simulated inventory log from a reader at 2 m.
pub fn streaming_fixture(rotations: f64, seed: u64) -> (LocalizationServer, InventoryLog) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
    let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
    let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
    let reader = ReaderConfig::at(Pose::facing_toward(Vec3::new(0.4, 2.0, 0.0), Vec3::ZERO));
    let log = run_inventory(
        &Environment::paper_default(),
        &reader,
        &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
        d1.period_s() * rotations,
        &mut rng,
    );
    let mut server = LocalizationServer::new(PipelineConfig::default());
    // lint:allow(no-panic) fixed distinct EPCs cannot collide
    server.register(1, d1).expect("distinct epcs");
    // lint:allow(no-panic) fixed distinct EPCs cannot collide
    server.register(2, d2).expect("distinct epcs");
    (server, log)
}

/// A synthetic continuation of `log`: `n` fresh reports, alternating EPCs,
/// with strictly advancing timestamps. Used to dirty the streams between
/// fix refreshes without exhausting the recorded log.
pub(crate) fn continuation(log: &InventoryLog, n: usize) -> Vec<TagReport> {
    let mut t_us = log.reports().last().map_or(0, |r| r.timestamp_us);
    (0..n)
        .map(|i| {
            t_us += 5_000;
            TagReport {
                epc: (i % 2 + 1) as u128,
                timestamp_us: t_us,
                phase: tagspin_geom::angle::wrap_tau(i as f64 * 0.37),
                rssi_dbm: -60.0,
                channel_index: (i % 16) as u8,
                antenna_id: 1,
            }
        })
        .collect()
}

/// Untimed fixes before the timed refreshes: the first refresh and the
/// first small one search fresh, and the second small one in a row anchors
/// the incremental accumulators, so the refreshes after them sync.
pub(crate) const WARMUP_FIXES: usize = 3;

/// Time `refreshes` fix refreshes of `session` after [`WARMUP_FIXES`]
/// untimed ones, each after a two-report burst of [`continuation`] that
/// dirties both streams. Returns each timed refresh's wall-clock
/// nanoseconds.
///
/// # Errors
///
/// [`CaseFailed`] for `case` unless every timed refresh synced the
/// accumulators: no anchor, and more columns applied plus downdated after
/// it than before.
pub(crate) fn timed_refreshes(
    session: &mut ReaderSession,
    log: &InventoryLog,
    refreshes: usize,
    case: &str,
) -> Result<Vec<f64>, CaseFailed> {
    let burst = continuation(log, (WARMUP_FIXES + refreshes) * 2);
    let mut chunks = burst.chunks_exact(2);
    for warmup in chunks.by_ref().take(WARMUP_FIXES) {
        for r in warmup {
            session.ingest(r);
        }
        let _ = session.fix::<TwoD>();
    }
    let columns = |c: IncrementalCounts| c.applied + c.downdated;
    chunks
        .map(|chunk| {
            for r in chunk {
                session.ingest(r);
            }
            let before = session.stats().incremental;
            let t0 = Instant::now();
            let _ = session.fix::<TwoD>();
            let nanos = t0.elapsed().as_nanos() as f64;
            let after = session.stats().incremental;
            if after.reanchors == before.reanchors && columns(after) > columns(before) {
                Ok(nanos)
            } else {
                Err(CaseFailed {
                    case: case.to_string(),
                    detail: format!("a timed refresh did not sync: {before:?} -> {after:?}"),
                })
            }
        })
        .collect()
}

/// Run the ingest benchmark suite. `quick` shrinks the observation and
/// refresh counts for CI; the measured window configurations are identical
/// either way.
///
/// # Errors
///
/// [`CaseFailed`] when a timed refresh of some window did not sync: no
/// anchor, and more columns applied plus downdated after it than before.
pub fn run(quick: bool) -> Result<Vec<CaseResult>, CaseFailed> {
    let (rotations, refreshes) = if quick { (0.5, 3) } else { (2.0, 10) };
    let (server, log) = streaming_fixture(rotations, 7);
    let windows: [(String, Option<usize>); 4] = [
        ("window_unbounded".into(), None),
        ("window_1024".into(), Some(1024)),
        ("window_256".into(), Some(256)),
        ("window_64".into(), Some(64)),
    ];

    windows
        .into_iter()
        .map(|(name, max_reports)| {
            let window = match max_reports {
                Some(n) => WindowConfig::last_reports(n),
                None => WindowConfig::unbounded(),
            };

            // Throughput: drain the whole recorded log report-by-report.
            let mut session = server.session(window);
            let t0 = Instant::now();
            for report in log.stream() {
                session.ingest(report);
            }
            let ingest_ns = t0.elapsed().as_nanos() as f64;
            let reports = log.len();
            let mean_ingest_ns = ingest_ns / reports.max(1) as f64;
            let reports_per_sec = if ingest_ns > 0.0 {
                reports as f64 / (ingest_ns * 1e-9)
            } else {
                0.0
            };

            // Refresh latency: the steady-state accumulator sync of a fix
            // that refreshes exactly the dirty tags over the current window.
            let fix_ns = timed_refreshes(&mut session, &log, refreshes, &name)?;
            let mean_fix_refresh_ns = fix_ns.iter().sum::<f64>() / fix_ns.len().max(1) as f64;

            Ok(CaseResult {
                name,
                max_reports,
                reports,
                mean_ingest_ns,
                reports_per_sec,
                mean_fix_refresh_ns,
                buffered: session.stats().buffered,
            })
        })
        .collect()
}

/// The artifact's cases, one per window; the unbounded window has no
/// `max_reports` field.
pub fn cases(results: &[CaseResult]) -> Vec<BenchCase> {
    results
        .iter()
        .map(|r| {
            let mut case = BenchCase::new(
                &r.name,
                &[
                    ("reports", r.reports as f64),
                    ("mean_ingest_ns", r.mean_ingest_ns),
                    ("reports_per_sec", r.reports_per_sec),
                    ("mean_fix_refresh_ns", r.mean_fix_refresh_ns),
                    ("buffered", r.buffered as f64),
                ],
            );
            if let Some(n) = r.max_reports {
                case.metrics
                    .insert(0, ("max_reports".to_string(), n as f64));
            }
            case
        })
        .collect()
}

/// One human-readable line per case.
pub fn report(results: &[CaseResult]) -> String {
    results
        .iter()
        .map(|r| {
            let window = match r.max_reports {
                Some(n) => n.to_string(),
                None => "∞".into(),
            };
            format!(
                "{:<18} window {:>5}  ingest {:>7.0} ns/report ({:>9.0} reports/s)  \
                 fix refresh {:>9.2} ms  buffered {:>5}",
                r.name,
                window,
                r.mean_ingest_ns,
                r.reports_per_sec,
                r.mean_fix_refresh_ns / 1e6,
                r.buffered
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_refreshes_fail_unless_they_sync() {
        let (mut server, log) = streaming_fixture(0.5, 7);
        let mut synced = server.session(WindowConfig::last_reports(256));
        for r in log.stream() {
            synced.ingest(r);
        }
        let timed = timed_refreshes(&mut synced, &log, 2, "synced");
        assert_eq!(timed.map(|t| t.len()), Ok(2));

        server.config.incremental = IncrementalPolicy::disabled();
        let mut fresh = server.session(WindowConfig::last_reports(256));
        for r in log.stream() {
            fresh.ingest(r);
        }
        let err = timed_refreshes(&mut fresh, &log, 2, "fresh").expect_err("fresh never syncs");
        assert_eq!(err.case, "fresh");
    }

    #[test]
    fn record_feeds_the_gate() {
        let results = [
            CaseResult {
                name: "window_unbounded".into(),
                max_reports: None,
                reports: 500,
                mean_ingest_ns: 120.0,
                reports_per_sec: 8.3e6,
                mean_fix_refresh_ns: 2.5e6,
                buffered: 500,
            },
            CaseResult {
                name: "window_64".into(),
                max_reports: Some(64),
                reports: 500,
                mean_ingest_ns: 130.0,
                reports_per_sec: 7.7e6,
                mean_fix_refresh_ns: 0.4e6,
                buffered: 128,
            },
        ];
        let records = cases(&results);
        assert_eq!(records[0].metric("max_reports"), None);
        assert_eq!(records[1].metric("max_reports"), Some(64.0));
        crate::assert_gate_reads("ingest", records, &["window_unbounded", "window_64"]);
    }

    #[test]
    fn fixture_and_continuation_are_usable() {
        let (server, log) = streaming_fixture(0.1, 3);
        assert_eq!(server.tags().len(), 2);
        assert!(!log.is_empty());
        let cont = continuation(&log, 4);
        assert_eq!(cont.len(), 4);
        assert!(cont
            .windows(2)
            .all(|w| w[1].timestamp_us > w[0].timestamp_us));
        assert!(cont[0].timestamp_us > log.reports().last().unwrap().timestamp_us);
    }
}

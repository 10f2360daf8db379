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
fn continuation(log: &InventoryLog, n: usize) -> Vec<TagReport> {
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

/// Run the ingest benchmark suite. `quick` shrinks the observation and
/// refresh counts for CI; the measured window configurations are identical
/// either way.
pub fn run(quick: bool) -> Vec<CaseResult> {
    let (rotations, refreshes) = if quick { (0.5, 3u32) } else { (2.0, 10u32) };
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

            // Refresh latency: a small burst dirties both streams, then the
            // fix refreshes exactly the dirty tags over the current window.
            // Two warmup fixes, not one: the first is the legacy fresh
            // recompute that satisfies `engage_after_recomputes`, the second
            // pays the incremental path's one-time anchor rebuild. The timed
            // fixes then measure the steady-state accumulator sync.
            let burst = continuation(&log, (refreshes as usize + 2) * 2);
            let mut chunks = burst.chunks_exact(2);
            for warmup in chunks.by_ref().take(2) {
                for r in warmup {
                    session.ingest(r);
                }
                let _ = session.fix::<TwoD>();
            }
            let mut fix_ns = 0.0;
            let mut timed = 0u32;
            for chunk in chunks.take(refreshes as usize) {
                for r in chunk {
                    session.ingest(r);
                }
                let t0 = Instant::now();
                let _ = session.fix::<TwoD>();
                fix_ns += t0.elapsed().as_nanos() as f64;
                timed += 1;
            }
            let mean_fix_refresh_ns = fix_ns / f64::from(timed.max(1));

            CaseResult {
                name,
                max_reports,
                reports,
                mean_ingest_ns,
                reports_per_sec,
                mean_fix_refresh_ns,
                buffered: session.stats().buffered,
            }
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

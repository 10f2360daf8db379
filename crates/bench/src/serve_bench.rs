//! Closed-loop load benchmark for the `tagspin-serve` fleet daemon,
//! emitted by `reproduce --bench serve` as `BENCH_serve.json` (schema
//! `tagspin-bench-serve/v1`).
//!
//! The loop is closed over the daemon's own wire surfaces: paced reader
//! threads stream framed LLRP reports over real loopback TCP, a query
//! thread measures `GET /fix/2d` latency over HTTP while the load runs,
//! and the drive settles by polling `GET /stats` until every sent frame
//! is on the books. Only `200` answers are fix-latency samples; any other
//! answer (a `409` from a session still below `min_snapshots`) is counted
//! in `fix_errors`. Three cases:
//!
//! * `peak` — unthrottled readers against full-speed shards: the raw
//!   sustained ingest rate of the sharded service.
//! * `rated` — shard service time is pinned with an artificial per-batch
//!   delay ([`tagspin_serve::ServeConfig::shard_delay`]) and the readers
//!   are paced at **half** the resulting capacity. Below rated load the
//!   bounded queues must absorb everything: the shed rate is required to
//!   be exactly zero (a `cargo xtask bench-check` invariant).
//! * `overload_2x` — same pinned service time, readers paced at **2×**
//!   capacity with small queues. Shedding is the designed behavior, and
//!   the p99 fix latency must stay bounded (queries ride the same shard
//!   queues; a full queue may delay a fix but never starve it).
//!
//! Like the sibling benches timing is `Instant`-based; `quick` shrinks
//! readers and capture length for CI.

use crate::CaseFailed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::f64::consts::TAU;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tagspin_core::prelude::*;
use tagspin_epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin_epc::InventoryLog;
use tagspin_geom::{Pose, Vec3};
use tagspin_rf::channel::Environment;
use tagspin_rf::{ReaderAntenna, TagInstance, TagModel};
use tagspin_serve::{http_get, ReaderClient, ServeConfig, ServeDaemon};
use xtask::bench_check::BenchCase;

/// Reports per wire frame in the generated load.
const FRAME_REPORTS: usize = 64;
/// Artificial shard service time per batch for the paced cases; pins the
/// service capacity so "rated" and "2× overload" are well-defined.
const SERVICE_DELAY: Duration = Duration::from_millis(10);
/// Minimum fix-latency samples per case (topped up after the drive if the
/// in-flight query loop came up short on a fast machine).
const MIN_FIXES: usize = 16;
/// Queries the top-up may spend reaching [`MIN_FIXES`]: a daemon that
/// never answers `200` fails the case instead of spinning.
const MAX_TOPUP_QUERIES: usize = 4 * MIN_FIXES;

/// One measured load case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Stable case identifier (`peak`, `rated`, `overload_2x`).
    pub name: String,
    /// Concurrent reader connections driven.
    pub readers: usize,
    /// Shard worker threads in the daemon under test.
    pub shards: usize,
    /// Bounded shard-queue capacity, in batches.
    pub queue_capacity: usize,
    /// Reports offered on the wire across all readers.
    pub reports_sent: u64,
    /// Reports accepted into shard queues.
    pub reports_accepted: u64,
    /// Reports shed as typed `Overload` rejects.
    pub reports_shed: u64,
    /// `reports_shed / reports_sent`.
    pub shed_rate: f64,
    /// Accepted reports per wall-clock second, connection to drained.
    pub sustained_reports_per_sec: f64,
    /// Fix queries answered `200`, during the load or in the top-up.
    pub fixes: usize,
    /// Fix queries answered otherwise, or not answered at all.
    pub fix_errors: usize,
    /// Median `GET /fix/2d` round-trip, nanoseconds.
    pub p50_fix_latency_ns: f64,
    /// 99th-percentile `GET /fix/2d` round-trip, nanoseconds.
    pub p99_fix_latency_ns: f64,
}

/// The fleet fixture: two registered disks and one framed report stream
/// per reader, captured from a ring of antennas around the rig.
pub fn fleet_fixture(readers: u8, rotations: f64) -> (LocalizationServer, Vec<Vec<InventoryLog>>) {
    let mut rng = StdRng::seed_from_u64(7);
    let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
    let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
    let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
    let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
    let mut server = LocalizationServer::new(PipelineConfig::default());
    // lint:allow(no-panic) fixed distinct EPCs cannot collide
    server.register(1, d1).expect("distinct epcs");
    // lint:allow(no-panic) fixed distinct EPCs cannot collide
    server.register(2, d2).expect("distinct epcs");

    let streams = (1..=readers)
        .map(|antenna| {
            let angle = f64::from(antenna) / f64::from(readers) * TAU;
            let pos = Vec3::new(1.7 * angle.cos(), 1.7 * angle.sin(), 0.0);
            let reader = ReaderConfig::at(Pose::facing_toward(pos, Vec3::ZERO))
                .with_antenna(ReaderAntenna::typical(antenna));
            let mut run_rng = StdRng::seed_from_u64(900 + u64::from(antenna));
            let log = run_inventory(
                &Environment::paper_default(),
                &reader,
                &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
                d1.period_s() * rotations,
                &mut run_rng,
            );
            log.reports()
                .chunks(FRAME_REPORTS)
                .map(|chunk| chunk.iter().copied().collect())
                .collect()
        })
        .collect();
    (server, streams)
}

/// Nearest-rank percentile of an unsorted nanosecond sample.
fn percentile_ns(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    // lint:allow(lossy-cast) sample counts are far below 2^53
    let rank = (p / 100.0 * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// One timed `GET /fix/2d`: the round-trip nanoseconds of a `200`
/// answer, or else the status (0 when no HTTP answer came back).
fn query_fix(http_addr: SocketAddr, antenna: u8) -> Result<f64, u16> {
    let q0 = Instant::now();
    match http_get(http_addr, &format!("/fix/2d?antenna={antenna}")) {
        Ok((200, _)) => Ok(q0.elapsed().as_nanos() as f64),
        Ok((status, _)) => Err(status),
        Err(_) => Err(0),
    }
}

/// Drive one case: stream every reader's frames (optionally paced),
/// query fixes concurrently, settle via `/stats`, drain, and account.
///
/// # Errors
///
/// The case fails when fewer than [`MIN_FIXES`] queries are answered `200`
/// within the top-up budget.
fn run_case(
    name: &str,
    server: LocalizationServer,
    streams: &[Vec<InventoryLog>],
    config: &ServeConfig,
    pace: Option<Duration>,
) -> Result<CaseResult, CaseFailed> {
    // lint:allow(no-panic) loopback listeners bind or the bench is moot
    let daemon = ServeDaemon::start(server, config).expect("daemon boots on loopback");
    let frames_sent: u64 = streams.iter().map(|f| f.len() as u64).sum();
    let reports_sent: u64 = streams.iter().flatten().map(|f| f.len() as u64).sum();
    let readers = streams.len();
    let http_addr = daemon.http_addr();
    let ingest_addr = daemon.ingest_addr();

    let t0 = Instant::now();
    let driving = std::sync::atomic::AtomicBool::new(true);
    let (mut latencies, mut errors) = std::thread::scope(|scope| {
        let driving = &driving;
        for frames in streams {
            scope.spawn(move || {
                // lint:allow(no-panic) loopback connects or the bench is moot
                let mut client = ReaderClient::connect(ingest_addr).expect("reader connects");
                for frame in frames {
                    // lint:allow(no-panic) loopback writes or the bench is moot
                    client.send_log(frame).expect("frame sends");
                    if let Some(gap) = pace {
                        std::thread::sleep(gap);
                    }
                }
                let _ = client.finish();
            });
        }
        let fix_latencies = scope.spawn(move || {
            // 200 round-trips, and the other answers counted by status.
            let (mut samples, mut errors) = (Vec::new(), BTreeMap::<u16, usize>::new());
            let mut antenna: u64 = 0;
            // ordering: relaxed — stop flag for a measurement loop; no data published through it
            while driving.load(std::sync::atomic::Ordering::Relaxed) {
                antenna += 1;
                // lint:allow(lossy-cast) modulo keeps the value in 1..=readers
                let target = (antenna % readers as u64 + 1) as u8;
                match query_fix(http_addr, target) {
                    Ok(ns) => samples.push(ns),
                    Err(status) => *errors.entry(status).or_default() += 1,
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            (samples, errors)
        });
        // The readers' scope-joins close the drive; settle the books, then
        // release the query thread.
        let daemon = &daemon;
        scope.spawn(move || {
            // (runs concurrently with readers; waits for frames to land)
            for _ in 0..4000 {
                let done = daemon.stats().frames + daemon.stats().frame_errors >= frames_sent;
                if done {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            daemon.drain();
            // ordering: Relaxed — same stop flag as above.
            driving.store(false, std::sync::atomic::Ordering::Relaxed);
        });
        // lint:allow(no-panic) the sampling thread only fills its tallies
        fix_latencies.join().expect("query thread")
    });
    let elapsed_s = t0.elapsed().as_secs_f64();

    // Top up the latency sample after the drive if the run was too short
    // for the in-flight loop to gather a stable percentile.
    for query in 0..MAX_TOPUP_QUERIES {
        if latencies.len() >= MIN_FIXES {
            break;
        }
        // lint:allow(lossy-cast) modulo keeps the value in 1..=readers
        let target = (query % readers + 1) as u8;
        match query_fix(http_addr, target) {
            Ok(ns) => latencies.push(ns),
            Err(status) => *errors.entry(status).or_default() += 1,
        }
    }

    let stats = daemon.stats();
    daemon.shutdown();
    let fixes = latencies.len();
    if fixes < MIN_FIXES {
        return Err(CaseFailed {
            case: name.to_string(),
            detail: format!(
                "only {fixes} fix queries answered 200 (want {MIN_FIXES}) after \
                 the drive and {MAX_TOPUP_QUERIES} top-up queries; other answers \
                 by status (0 = none): {errors:?}"
            ),
        });
    }
    let p50 = percentile_ns(&mut latencies, 50.0);
    let p99 = percentile_ns(&mut latencies, 99.0);
    Ok(CaseResult {
        name: name.to_string(),
        readers,
        shards: config.shards,
        queue_capacity: config.queue_capacity,
        reports_sent,
        reports_accepted: stats.reports_enqueued,
        reports_shed: stats.reports_shed,
        // lint:allow(lossy-cast) report counts are far below 2^53
        shed_rate: stats.reports_shed as f64 / (reports_sent as f64).max(1.0),
        // lint:allow(lossy-cast) report counts are far below 2^53
        sustained_reports_per_sec: stats.reports_enqueued as f64 / elapsed_s.max(1e-9),
        fixes,
        fix_errors: errors.values().sum(),
        p50_fix_latency_ns: p50,
        p99_fix_latency_ns: p99,
    })
}

/// Run the serve load suite. `quick` shrinks the fleet and the capture
/// for CI; the three cases and their invariants are identical either way.
///
/// # Errors
///
/// The first case that gathers too few `200` fix answers.
pub fn run(quick: bool) -> Result<Vec<CaseResult>, CaseFailed> {
    let (readers, rotations) = if quick { (4u8, 0.25) } else { (8u8, 1.0) };
    let shards = 2;
    // Pinned service capacity for the paced cases, in batches/second
    // across all shards.
    let capacity = shards as f64 / SERVICE_DELAY.as_secs_f64();
    // Per-reader inter-frame gap hitting `fraction × capacity` overall.
    let gap_for =
        |fraction: f64| Duration::from_secs_f64(f64::from(readers) / (fraction * capacity));

    // Bounded windows are the serving configuration: a fix query runs on
    // the shard thread, and an unbounded window would let its recompute
    // cost grow with the capture and eat the pinned service capacity.
    let window = WindowConfig::last_reports(256);
    let peak = {
        let (server, streams) = fleet_fixture(readers, rotations);
        let config = ServeConfig {
            shards,
            queue_capacity: 4096,
            window,
            ..ServeConfig::default()
        };
        run_case("peak", server, &streams, &config, None)?
    };
    let rated = {
        let (server, streams) = fleet_fixture(readers, rotations);
        let config = ServeConfig {
            shards,
            queue_capacity: 16,
            window,
            shard_delay: Some(SERVICE_DELAY),
            ..ServeConfig::default()
        };
        run_case("rated", server, &streams, &config, Some(gap_for(0.5)))?
    };
    let overload = {
        let (server, streams) = fleet_fixture(readers, rotations);
        let config = ServeConfig {
            shards,
            queue_capacity: if quick { 4 } else { 16 },
            window,
            shard_delay: Some(SERVICE_DELAY),
            ..ServeConfig::default()
        };
        run_case("overload_2x", server, &streams, &config, Some(gap_for(2.0)))?
    };
    Ok(vec![peak, rated, overload])
}

/// The artifact's cases, one per load case.
pub fn cases(results: &[CaseResult]) -> Vec<BenchCase> {
    results
        .iter()
        .map(|r| {
            BenchCase::new(
                &r.name,
                &[
                    ("readers", r.readers as f64),
                    ("shards", r.shards as f64),
                    ("queue_capacity", r.queue_capacity as f64),
                    ("reports_sent", r.reports_sent as f64),
                    ("reports_accepted", r.reports_accepted as f64),
                    ("reports_shed", r.reports_shed as f64),
                    ("shed_rate", r.shed_rate),
                    ("sustained_reports_per_sec", r.sustained_reports_per_sec),
                    ("fixes", r.fixes as f64),
                    ("fix_errors", r.fix_errors as f64),
                    ("p50_fix_latency_ns", r.p50_fix_latency_ns),
                    ("p99_fix_latency_ns", r.p99_fix_latency_ns),
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
                "{:<12} {} readers / {} shards (queue {:>4})  \
                 {:>7} sent  {:>7} accepted  {:>6} shed ({:>5.1}%)  \
                 {:>8.0} reports/s  fix p50 {:>7.2} ms  p99 {:>7.2} ms",
                r.name,
                r.readers,
                r.shards,
                r.queue_capacity,
                r.reports_sent,
                r.reports_accepted,
                r.reports_shed,
                r.shed_rate * 100.0,
                r.sustained_reports_per_sec,
                r.p50_fix_latency_ns / 1e6,
                r.p99_fix_latency_ns / 1e6,
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
        let rated = CaseResult {
            name: "rated".into(),
            readers: 8,
            shards: 2,
            queue_capacity: 16,
            reports_sent: 23000,
            reports_accepted: 23000,
            reports_shed: 0,
            shed_rate: 0.0,
            sustained_reports_per_sec: 6200.0,
            fixes: 120,
            fix_errors: 2,
            p50_fix_latency_ns: 9.0e6,
            p99_fix_latency_ns: 4.1e7,
        };
        let overload = CaseResult {
            name: "overload_2x".into(),
            reports_accepted: 12000,
            reports_shed: 11000,
            shed_rate: 0.478,
            ..rated.clone()
        };
        crate::assert_gate_reads(
            "serve",
            cases(&[rated, overload]),
            &["rated", "overload_2x"],
        );
    }

    #[test]
    fn a_daemon_that_never_answers_200_fails_the_case() {
        // No registered tags: every fix query is a 409.
        let (_, streams) = fleet_fixture(2, 0.05);
        let server = LocalizationServer::new(PipelineConfig::default());
        let config = ServeConfig {
            shards: 1,
            window: WindowConfig::last_reports(64),
            ..ServeConfig::default()
        };
        let err = run_case("no_tags", server, &streams, &config, None)
            .expect_err("no query can be answered 200");
        assert_eq!(err.case, "no_tags");
        assert!(err.detail.contains("{409: "), "{err}");
    }

    #[test]
    fn fixture_frames_are_monotonic_and_capped() {
        let (server, streams) = fleet_fixture(3, 0.05);
        assert_eq!(server.tags().len(), 2);
        assert_eq!(streams.len(), 3);
        for frames in &streams {
            assert!(!frames.is_empty());
            for frame in frames {
                assert!(frame.len() <= FRAME_REPORTS);
                assert!(frame
                    .reports()
                    .windows(2)
                    .all(|w| w[1].timestamp_us >= w[0].timestamp_us));
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_ns(&mut s, 50.0), 51.0);
        assert_eq!(percentile_ns(&mut s, 99.0), 99.0);
        assert_eq!(percentile_ns(&mut [], 99.0), 0.0);
    }
}

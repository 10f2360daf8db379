//! End-to-end fleet-service equivalence: N concurrent simulated readers
//! stream framed LLRP reports into a live `tagspin-serve` daemon over
//! real loopback TCP, and every fix answered over HTTP must be
//! **bit-identical** to a single-process `SessionManager` fed the same
//! wire stream — clean captures and fault-injected ones alike (the PR-4
//! adversarial `FaultPlan` supplies the corruption).
//!
//! The local twin ingests the *decoded wire* reports (LLRP quantizes
//! phase to 1/4096 turn and RSSI to centi-dBm), so both sides see the
//! same bytes-on-the-wire truth, the way a second daemon replica would.
//! Accounting is pinned too: at low rate with roomy queues nothing may
//! be shed, every frame and report must be counted, and the `/metrics`
//! scrape must agree with the daemon's own books.
//!
//! The calibration store rides the same streams: a warm boot adopts the
//! orientation fits a cold boot persisted and answers byte-identically,
//! a corrupt record boots its tag uncalibrated and is counted alike in
//! `/stats` and `/metrics`, and the `tagspin store` CLI audits and
//! cleans a store directory an older build left behind.

use std::f64::consts::TAU;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::dsp::fourier::FourierSeries;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::llrp;
use tagspin::epc::{InventoryLog, TagReport};
use tagspin::geom::{Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};
use tagspin::rf::ReaderAntenna;
use tagspin::serve::{http_get, ReaderClient, ServeConfig, ServeDaemon};
use tagspin::sim::fault::FaultPlan;
use xtask::json::{self, Value};

/// Concurrent simulated readers (the ISSUE's N ≥ 8 floor).
const READERS: u8 = 8;
/// Reports per wire frame (before monotonic-run splitting).
const FRAME_REPORTS: usize = 48;

fn disks() -> (DiskConfig, DiskConfig) {
    (
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
    )
}

fn make_server() -> LocalizationServer {
    let (d1, d2) = disks();
    let mut server = LocalizationServer::new(PipelineConfig::default());
    server.register(1, d1).expect("unique EPC");
    server.register(2, d2).expect("unique EPC");
    server
}

/// Fixed orientation fits for tags 1 and 2, shaped like a center-spin
/// fit: enough second-harmonic structure that applying them moves the
/// bearings.
fn calibrations() -> [OrientationCalibration; 2] {
    let fit = |a2: f64| {
        let series =
            FourierSeries::from_coefficients(0.4, vec![(0.12, -0.05), (a2, 0.2), (-0.04, 0.06)]);
        OrientationCalibration::from_parts(series, 0.02)
    };
    [fit(0.3), fit(-0.25)]
}

/// [`make_server`] with both tags' orientation calibrations attached.
fn calibrated_server() -> LocalizationServer {
    let mut server = make_server();
    for (epc, cal) in (1..).zip(calibrations()) {
        server
            .set_orientation_calibration(epc, cal)
            .expect("registered tag");
    }
    server
}

/// A fresh, empty temporary directory for one store.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tagspin-store-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir creatable");
    dir
}

/// One reader's capture: a full rotation observed from a ring position,
/// reported under its own antenna id.
fn reader_log(antenna: u8) -> InventoryLog {
    let mut rng = StdRng::seed_from_u64(7);
    let (d1, d2) = disks();
    let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
    let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
    let angle = f64::from(antenna) / f64::from(READERS) * TAU;
    let pos = Vec3::new(1.7 * angle.cos(), 1.7 * angle.sin(), 0.0);
    let reader = ReaderConfig::at(Pose::facing_toward(pos, Vec3::ZERO))
        .with_antenna(ReaderAntenna::typical(antenna));
    let mut run_rng = StdRng::seed_from_u64(100 + u64::from(antenna));
    run_inventory(
        &Environment::paper_default(),
        &reader,
        &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
        d1.period_s(),
        &mut run_rng,
    )
}

/// Split a (possibly fault-reordered) delivery stream into wire frames:
/// maximal monotonic runs capped at [`FRAME_REPORTS`], preserving
/// delivery order. LLRP messages are time-ordered *within* a frame; the
/// reorder faults survive across frame boundaries, which is exactly
/// where the session's out-of-order screen sees them.
fn wire_frames(stream: &[TagReport]) -> Vec<InventoryLog> {
    let mut frames = Vec::new();
    let mut run: Vec<TagReport> = Vec::new();
    for report in stream {
        let breaks = run.len() >= FRAME_REPORTS
            || run
                .last()
                .is_some_and(|last| report.timestamp_us < last.timestamp_us);
        if breaks {
            frames.push(run.drain(..).collect());
        }
        run.push(*report);
    }
    if !run.is_empty() {
        frames.push(run.into_iter().collect());
    }
    frames
}

/// What the daemon's decoder reconstructs from one frame — the
/// quantized wire truth both sides must ingest.
fn wire_roundtrip(frame: &InventoryLog) -> InventoryLog {
    let bytes = llrp::encode_report(frame, 1);
    llrp::decode_report(bytes).expect("own encoding decodes").0
}

/// Drive all readers' frame sequences concurrently through the daemon,
/// wait for the books to settle, and return (frames_sent, reports_sent).
fn stream_all(daemon: &ServeDaemon, per_reader: &[Vec<InventoryLog>]) -> (u64, u64) {
    let frames_sent: u64 = per_reader.iter().map(|f| f.len() as u64).sum();
    let reports_sent: u64 = per_reader.iter().flatten().map(|f| f.len() as u64).sum();
    let addr = daemon.ingest_addr();
    std::thread::scope(|scope| {
        for frames in per_reader {
            scope.spawn(move || {
                let mut client = ReaderClient::connect(addr).expect("connect reader");
                for frame in frames {
                    client.send_log(frame).expect("send frame");
                }
                client.finish().expect("clean close");
            });
        }
    });
    // The readers have closed, but their daemon-side threads may still be
    // decoding buffered bytes: wait until every frame is on the books,
    // then barrier the shard queues.
    for _ in 0..2000 {
        if daemon.stats().frames + daemon.stats().frame_errors >= frames_sent {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let (status, _body) = http_get(daemon.http_addr(), "/drain").expect("drain");
    assert_eq!(status, 200);
    (frames_sent, reports_sent)
}

/// Every antenna's raw `/fix/2d` answer, antennas `1..=readers`. The
/// fix JSON uses shortest-roundtrip `f64` formatting, so body equality is
/// bit equality.
fn fix_answers(daemon: &ServeDaemon, readers: u8) -> Vec<(u16, String)> {
    (1..=readers)
        .map(|antenna| {
            http_get(daemon.http_addr(), &format!("/fix/2d?antenna={antenna}")).expect("fix query")
        })
        .collect()
}

/// Boot a daemon on `server` over `store_dir` (none when `None`), stream
/// `per_reader` into it, and return every antenna's fix answer.
fn served_answers(
    server: LocalizationServer,
    store_dir: Option<&Path>,
    per_reader: &[Vec<InventoryLog>],
) -> Vec<(u16, String)> {
    let config = ServeConfig {
        queue_capacity: 65_536,
        store_dir: store_dir.map(Path::to_path_buf),
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::start(server, &config).expect("daemon boots");
    stream_all(&daemon, per_reader);
    // lint:allow(lossy-cast) at most READERS streams
    let answers = fix_answers(&daemon, per_reader.len() as u8);
    daemon.shutdown();
    answers
}

/// A numeric field of the daemon's `/stats` body.
fn stats_field(daemon: &ServeDaemon, key: &str) -> f64 {
    let (status, body) = http_get(daemon.http_addr(), "/stats").expect("stats");
    assert_eq!(status, 200);
    json::parse(&body)
        .expect("stats parse")
        .get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("missing numeric {key} in {body}"))
}

/// A counter of the daemon's `/metrics` scrape.
fn scraped_counter(daemon: &ServeDaemon, name: &str) -> f64 {
    let (status, body) = http_get(daemon.http_addr(), "/metrics").expect("scrape");
    assert_eq!(status, 200);
    json::parse(&body)
        .expect("scrape parse")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("missing counter {name} in {body}"))
}

/// Fetch `/fix/2d?antenna=N` and compare bit-for-bit against the local
/// twin's answer for the same antenna.
fn assert_fix_matches(daemon: &ServeDaemon, local: Result<Fix2D, String>, antenna: u8) {
    let (status, body) =
        http_get(daemon.http_addr(), &format!("/fix/2d?antenna={antenna}")).expect("fix query");
    let doc = json::parse(&body).expect("fix body parses as JSON");
    match local {
        Ok(fix) => {
            assert_eq!(status, 200, "antenna {antenna}: {body}");
            let field = |k: &str| {
                doc.get(k)
                    .and_then(Value::as_num)
                    .unwrap_or_else(|| panic!("antenna {antenna}: missing {k} in {body}"))
            };
            assert_eq!(
                field("x").to_bits(),
                fix.position.x.to_bits(),
                "antenna {antenna} x"
            );
            assert_eq!(
                field("y").to_bits(),
                fix.position.y.to_bits(),
                "antenna {antenna} y"
            );
            assert_eq!(
                field("residual_m").to_bits(),
                fix.residual_m.to_bits(),
                "antenna {antenna} residual"
            );
        }
        Err(message) => {
            assert_eq!(status, 409, "antenna {antenna}: {body}");
            assert_eq!(
                doc.get("error").and_then(Value::as_str),
                Some(message.as_str()),
                "antenna {antenna} error text"
            );
        }
    }
}

/// The shared scenario: build per-reader delivery streams (optionally
/// faulted), run them through a live daemon AND a single-process twin,
/// then compare every antenna's fix bit-for-bit.
fn run_equivalence(fault: Option<FaultPlan>) {
    let per_reader: Vec<Vec<InventoryLog>> = (1..=READERS)
        .map(|antenna| {
            let log = reader_log(antenna);
            let stream = match fault {
                Some(plan) => plan.apply(&log, 4000 + u64::from(antenna)),
                None => log.reports().to_vec(),
            };
            wire_frames(&stream)
        })
        .collect();

    // Local twin: same pipeline, same window, fed the decoded wire
    // stream in the same per-antenna order.
    let local_server = make_server();
    let mut local =
        local_server.session_manager(tagspin::core::session::window::WindowConfig::unbounded());
    for frames in &per_reader {
        for frame in frames {
            let decoded = wire_roundtrip(frame);
            local.ingest_batch(decoded.reports());
        }
    }

    let config = ServeConfig {
        shards: 3, // deliberately not a divisor of READERS: shards share antennas
        // Faulted streams fragment into thousands of tiny monotonic-run
        // frames; equivalence needs queues deep enough that nothing sheds.
        queue_capacity: 65_536,
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::start(make_server(), &config).expect("daemon boots");
    let (frames_sent, reports_sent) = stream_all(&daemon, &per_reader);

    let stats = daemon.stats();
    assert_eq!(stats.connections, u64::from(READERS));
    assert_eq!(stats.frames, frames_sent, "every frame decodes");
    assert_eq!(stats.frame_errors, 0, "well-formed wire stream");
    assert_eq!(
        stats.reports_enqueued, reports_sent,
        "roomy queues at low rate must never shed"
    );
    assert_eq!(stats.reports_shed, 0);
    assert_eq!(stats.rejects.overload, 0);
    assert_eq!(stats.queued_batches, 0, "drained");

    // Every streamed antenna, plus one the fleet never used (the typed
    // error must round-trip the HTTP plane too).
    for antenna in 1..=READERS + 1 {
        let local_fix = local.fix::<TwoD>(antenna).map_err(|e| e.to_string());
        assert_fix_matches(&daemon, local_fix, antenna);
    }

    daemon.shutdown();
}

#[test]
fn clean_fleet_matches_single_process_bit_for_bit() {
    run_equivalence(None);
}

#[test]
fn faulted_fleet_matches_single_process_bit_for_bit() {
    run_equivalence(Some(FaultPlan::at_rate(0.3)));
}

#[test]
fn metrics_scrape_agrees_with_daemon_books() {
    let per_reader: Vec<Vec<InventoryLog>> = (1..=4)
        .map(|antenna| wire_frames(reader_log(antenna).reports()))
        .collect();
    let daemon = ServeDaemon::start(make_server(), &ServeConfig::default()).expect("daemon boots");
    let (frames_sent, reports_sent) = stream_all(&daemon, &per_reader);

    let (status, body) = http_get(daemon.http_addr(), "/metrics").expect("scrape");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("scrape parses");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("tagspin-metrics/v1")
    );
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_num)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    // lint:allow(lossy-cast) counters in this test are tiny
    assert_eq!(counter("serve.frames") as u64, frames_sent);
    assert_eq!(counter("serve.reports.enqueued") as u64, reports_sent);
    assert_eq!(counter("serve.reports.shed") as u64, 0);
    assert_eq!(counter("ingest.rejected.overload") as u64, 0);
    // The shards ingested everything that was enqueued.
    assert_eq!(
        counter("ingest.accepted") as u64 + counted_rejects(&doc),
        reports_sent
    );
    // Decode/route stage timers fired under the metrics observer.
    let hist_count = |name: &str| {
        doc.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("count"))
            .and_then(Value::as_num)
            .unwrap_or_else(|| panic!("missing histogram {name}"))
    };
    assert!(hist_count("stage.decode_ns") >= 1.0);
    assert!(hist_count("stage.route_ns") >= 1.0);

    let (status, body) = http_get(daemon.http_addr(), "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = http_get(daemon.http_addr(), "/no-such").expect("404 route");
    assert_eq!(status, 404);

    daemon.shutdown();
}

/// Sum the in-session quarantine counters from a scrape (the wire
/// round-trip itself can legitimately quarantine duplicates at exact
/// timestamp collisions).
fn counted_rejects(doc: &Value) -> u64 {
    [
        "ingest.rejected.unknown_tag",
        "ingest.rejected.out_of_order",
        "ingest.rejected.duplicate",
        "ingest.rejected.non_finite_phase",
        "ingest.rejected.phase_out_of_range",
        "ingest.rejected.bad_rssi",
        "ingest.rejected.null_epc",
    ]
    .iter()
    .map(|name| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_num)
            // lint:allow(lossy-cast) counters in this test are tiny
            .map_or(0, |v| v as u64)
    })
    .sum()
}

/// Warm boot through the calibration store: a cold daemon whose tags are
/// registered with their orientation calibrations persists both fits; a
/// warm reboot of *uncalibrated* tags over the same directory adopts
/// them (`store.orientation.hit` = 2), replays the same 8-reader
/// streams, and must answer every fix **byte-identical** to the cold run.
/// An uncalibrated daemon with no store answers differently, so the
/// adopted fits are really applied.
#[test]
fn warm_boot_replays_bit_identical_fixes() {
    let dir = store_dir("warm");
    let per_reader: Vec<Vec<InventoryLog>> = (1..=READERS)
        .map(|antenna| wire_frames(reader_log(antenna).reports()))
        .collect();
    let config = ServeConfig {
        shards: 3,
        queue_capacity: 65_536,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Cold boot: both calibrations are persisted before any shard exists.
    let cold = ServeDaemon::start(calibrated_server(), &config).expect("cold boot");
    assert_eq!(cold.stats().store_persisted, 2, "{:?}", cold.stats());
    assert_eq!(scraped_counter(&cold, "store.orientation.persisted"), 2.0);
    stream_all(&cold, &per_reader);
    let cold_fixes = fix_answers(&cold, READERS);
    cold.shutdown();

    // Warm boot: uncalibrated tags adopt both stored fits.
    let warm = ServeDaemon::start(make_server(), &config).expect("warm boot");
    assert_eq!(scraped_counter(&warm, "store.orientation.hit"), 2.0);
    assert_eq!(stats_field(&warm, "store_invalid"), 0.0);
    // perfbench reads this key; it stays numeric (and zero: tables are
    // rebuilt, never stored).
    assert_eq!(stats_field(&warm, "store_table_hits"), 0.0);
    stream_all(&warm, &per_reader);
    assert_eq!(
        fix_answers(&warm, READERS),
        cold_fixes,
        "warm fixes diverged from cold"
    );
    warm.shutdown();

    let plain = served_answers(make_server(), None, &per_reader);
    assert!(
        plain.iter().zip(&cold_fixes).any(|(p, c)| p != c),
        "no antenna's fix moved: the adopted calibrations were not applied"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt orientation record at warm boot is counted once, alike in
/// `/stats` (`store_invalid`) and `/metrics` (`store.invalid`), and its
/// tag boots uncalibrated: the daemon answers exactly like one booted
/// without a store.
#[test]
fn corrupt_orientation_record_counts_alike_in_stats_and_metrics() {
    let dir = store_dir("corrupt");
    let store = FileStore::open(&dir).expect("store opens");
    store
        .save_orientation(1, &calibrations()[0])
        .expect("record saves");
    let record = dir.join(format!("orient-{:032x}.tsc", 1));
    let mut bytes = std::fs::read(&record).expect("record readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&record, &bytes).expect("record writable");

    let per_reader: Vec<Vec<InventoryLog>> = (1..=2)
        .map(|antenna| wire_frames(reader_log(antenna).reports()))
        .collect();
    let config = ServeConfig {
        queue_capacity: 65_536,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::start(make_server(), &config).expect("daemon boots");
    assert_eq!(stats_field(&daemon, "store_invalid"), 1.0);
    assert_eq!(scraped_counter(&daemon, "store.invalid"), 1.0);
    assert_eq!(scraped_counter(&daemon, "store.orientation.hit"), 0.0);
    stream_all(&daemon, &per_reader);
    let got = fix_answers(&daemon, 2);
    daemon.shutdown();

    assert_eq!(got, served_answers(make_server(), None, &per_reader));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A steering-table record written by an older build, which stored
/// tables as record kind 1.
const LEGACY_TABLE_FILE: &str = "table-9926eddfdcd635e9.tsc";
const LEGACY_TABLE: &[u8] = include_bytes!("data/store/table-9926eddfdcd635e9.tsc");

/// Run the `tagspin` binary; returns whether it exited zero and its
/// stdout followed by its stderr.
fn tagspin_cli(args: &[&str], store: &Path) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tagspin"))
        .args(args)
        .arg("--store-dir")
        .arg(store)
        .output()
        .expect("tagspin runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// The operator surface over a store an older build used: one valid
/// orientation record, one corrupt one, and one retired steering-table
/// record. `store ls` lists all three; `store verify` fails naming the
/// two bad files; a daemon warm-booted over the directory answers like
/// one booted over only the valid record (the table record is never
/// opened); `store gc` removes exactly the two bad files, after which
/// `verify` passes and the valid record still loads.
#[test]
fn store_cli_audits_and_cleans_a_legacy_directory() {
    let dir = store_dir("legacy");
    let store = FileStore::open(&dir).expect("store opens");
    let [cal1, cal2] = calibrations();
    store.save_orientation(1, &cal1).expect("record saves");
    store.save_orientation(2, &cal2).expect("record saves");
    let valid = format!("orient-{:032x}.tsc", 1);
    let corrupt = format!("orient-{:032x}.tsc", 2);
    let mut bytes = std::fs::read(dir.join(&corrupt)).expect("record readable");
    bytes[40] ^= 0x10;
    std::fs::write(dir.join(&corrupt), &bytes).expect("record writable");
    std::fs::write(dir.join(LEGACY_TABLE_FILE), LEGACY_TABLE).expect("legacy record writable");

    let (ok, out) = tagspin_cli(&["store", "ls"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains("3 record(s)"), "{out}");
    for file in [&valid, &corrupt, LEGACY_TABLE_FILE] {
        assert!(out.contains(file), "ls misses {file}: {out}");
    }

    let (ok, out) = tagspin_cli(&["store", "verify"], &dir);
    assert!(!ok, "verify must fail over bad records: {out}");
    assert!(out.contains(&format!("{valid}  ok")), "{out}");
    assert!(out.contains(&format!("{corrupt}  INVALID")), "{out}");
    assert!(
        out.contains(&format!(
            "{LEGACY_TABLE_FILE}  INVALID: wrong record kind: 1"
        )),
        "{out}"
    );
    assert!(out.contains("3 record(s), 2 invalid"), "{out}");

    // Warm boot before gc: only the valid record is adopted.
    let valid_only = store_dir("legacy-valid-only");
    std::fs::copy(dir.join(&valid), valid_only.join(&valid)).expect("record copies");
    let per_reader: Vec<Vec<InventoryLog>> = (1..=2)
        .map(|antenna| wire_frames(reader_log(antenna).reports()))
        .collect();
    assert_eq!(
        served_answers(make_server(), Some(&dir), &per_reader),
        served_answers(make_server(), Some(&valid_only), &per_reader),
        "the legacy directory's bad records changed a fix"
    );

    let (ok, out) = tagspin_cli(&["store", "gc"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains(&format!("removed {corrupt}")), "{out}");
    assert!(
        out.contains(&format!("removed {LEGACY_TABLE_FILE}")),
        "{out}"
    );
    assert!(out.contains("2 file(s) removed"), "{out}");

    let (ok, out) = tagspin_cli(&["store", "verify"], &dir);
    assert!(ok, "{out}");
    assert!(out.contains("1 record(s), 0 invalid"), "{out}");
    assert_eq!(store.load_orientation(1).expect("valid record loads"), cal1);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&valid_only);
}

/// Overload is typed, accounted, and bounded: with a one-slot queue and
/// an artificially slow shard, sheds must appear, every offered report
/// must be accounted as enqueued or shed, and the serve-tier books must
/// agree with the metrics.
#[test]
fn overload_sheds_are_typed_and_accounted() {
    let per_reader: Vec<Vec<InventoryLog>> = (1..=4)
        .map(|antenna| wire_frames(reader_log(antenna).reports()))
        .collect();
    let config = ServeConfig {
        shards: 1,
        queue_capacity: 1,
        shard_delay: Some(std::time::Duration::from_millis(20)),
        ..ServeConfig::default()
    };
    let daemon = ServeDaemon::start(make_server(), &config).expect("daemon boots");
    let (_frames, reports_sent) = stream_all(&daemon, &per_reader);

    let stats = daemon.stats();
    assert!(stats.reports_shed > 0, "a one-slot queue must shed");
    assert_eq!(stats.reports_enqueued + stats.reports_shed, reports_sent);
    assert_eq!(stats.rejects.overload, stats.reports_shed);
    let registry = Arc::clone(daemon.registry());
    daemon.shutdown();
    let snap = registry.snapshot();
    assert_eq!(snap.counters["serve.reports.shed"], stats.reports_shed);
    assert_eq!(
        snap.counters["ingest.rejected.overload"],
        stats.reports_shed
    );
}

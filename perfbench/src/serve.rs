//! The daemon harness shared by the serve workloads: boot on a warm
//! store, the timed set-up, wire writes, HTTP probes and the end-of-run
//! correctness checks.

use crate::rig::{Books, Rig, ScreenModel, WireFrame};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tagspin_core::prelude::*;
use tagspin_core::spectrum::incremental::IncrementalPolicy;
use tagspin_geom::Vec3;
use tagspin_serve::{http_get, ReaderClient, ServeConfig, ServeDaemon};
use xtask::json::{self, Value};

/// Frames are written in chunks of about this many bytes.
const WRITE_CHUNK: usize = 64 * 1024;

/// One reader antenna of a serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Antenna {
    /// The LLRP antenna id (routes to shard `id % shards`).
    pub id: u8,
    /// Ground-truth position.
    pub truth: Vec3,
}

/// A 2D fix as served over HTTP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedFix {
    /// Position x, meters.
    pub x: f64,
    /// Position y, meters.
    pub y: f64,
    /// Intersection residual, meters.
    pub residual_m: f64,
}

/// `GET path` on the daemon's HTTP plane, parsed as JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Value, String> {
    let (status, body) = http_get(addr, path).map_err(|e| format!("GET {path}: {e}"))?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}: {body}"));
    }
    json::parse(&body).map_err(|e| format!("GET {path}: bad JSON: {e}"))
}

/// `GET /fix/2d?antenna=id`. `Err` for any answer that is not a fix.
pub fn fix(addr: SocketAddr, id: u8) -> Result<ServedFix, String> {
    let doc = get_json(addr, &format!("/fix/2d?antenna={id}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Value::as_num)
            .ok_or_else(|| format!("fix for antenna {id} lacks {k}"))
    };
    Ok(ServedFix {
        x: num("x")?,
        y: num("y")?,
        residual_m: num("residual_m")?,
    })
}

/// A number from a `/stats` body.
pub fn stat(doc: &Value, key: &str) -> f64 {
    doc.get(key).and_then(Value::as_num).unwrap_or(f64::NAN)
}

/// The counters and histogram totals of one `/metrics` scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Counter values by name.
    pub counters: BTreeMap<String, f64>,
    /// Histogram `(count, sum)` by name.
    pub hists: BTreeMap<String, (f64, f64)>,
}

impl Scrape {
    /// Scrape `/metrics`.
    pub fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let doc = get_json(addr, "/metrics")?;
        let mut out = Scrape::default();
        if let Some(Value::Obj(pairs)) = doc.get("counters") {
            for (k, v) in pairs {
                out.counters.insert(k.clone(), v.as_num().unwrap_or(0.0));
            }
        }
        if let Some(Value::Obj(pairs)) = doc.get("histograms") {
            for (k, v) in pairs {
                let f = |f: &str| v.get(f).and_then(Value::as_num).unwrap_or(0.0);
                out.hists.insert(k.clone(), (f("count"), f("sum")));
            }
        }
        Ok(out)
    }

    /// A counter (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's summed value (0 when absent).
    pub fn sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.1)
    }

    /// A histogram's observation count (0 when absent).
    pub fn count(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.0)
    }

    /// `self − earlier`, counter by counter and histogram by histogram.
    pub fn since(&self, earlier: &Scrape) -> Scrape {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - earlier.counter(k)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, &(c, s))| (k.clone(), (c - earlier.count(k), s - earlier.sum(k))))
            .collect();
        Scrape { counters, hists }
    }
}

/// Daemon topology and window for one workload.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Shard worker threads.
    pub shards: usize,
    /// Shard queue capacity, in batches.
    pub queue_capacity: usize,
    /// Per-session sliding window.
    pub window: WindowConfig,
    /// The warm store directory.
    pub store_dir: PathBuf,
}

impl Topology {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            window: self.window,
            store_dir: Some(self.store_dir.clone()),
            ..ServeConfig::default()
        }
    }
}

/// A running daemon, the ingest connection while one is open, and the
/// books of everything written to it.
pub struct Live {
    /// The daemon under test.
    pub daemon: ServeDaemon,
    /// Its HTTP plane.
    pub http: SocketAddr,
    client: Option<ReaderClient>,
    /// Frames written.
    pub frames_sent: u64,
    /// Reports written.
    pub reports_sent: u64,
    /// The independent replay: screen model plus an offline session
    /// manager fed the same decoded reports.
    pub replay: Replay,
    /// Wall time of `ServeDaemon::start`, nanoseconds.
    pub boot_ns: u64,
}

impl Live {
    /// The ingest connection, opened on first use after a hang-up.
    fn client(&mut self) -> Result<&mut ReaderClient, String> {
        if self.client.is_none() {
            let c = ReaderClient::connect(self.daemon.ingest_addr())
                .map_err(|e| format!("connect: {e}"))?;
            self.client = Some(c);
        }
        Ok(self.client.as_mut().expect("connected above"))
    }

    /// Write `frames` back to back on the ingest connection, in chunks.
    /// Returns the instant the last byte was handed to the socket.
    pub fn write(&mut self, frames: &[WireFrame]) -> Result<Instant, String> {
        let mut chunk = Vec::with_capacity(WRITE_CHUNK + 4096);
        for f in frames {
            chunk.extend_from_slice(&f.bytes);
            if chunk.len() >= WRITE_CHUNK {
                self.client()?
                    .send_raw(&chunk)
                    .map_err(|e| format!("ingest write: {e}"))?;
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            self.client()?
                .send_raw(&chunk)
                .map_err(|e| format!("ingest write: {e}"))?;
        }
        let done = Instant::now();
        self.count(frames);
        Ok(done)
    }

    /// Write one frame (the open-loop path).
    pub fn write_one(&mut self, frame: &WireFrame) -> Result<(), String> {
        self.client()?
            .send_raw(&frame.bytes)
            .map_err(|e| format!("ingest write: {e}"))?;
        self.count(std::slice::from_ref(frame));
        Ok(())
    }

    fn count(&mut self, frames: &[WireFrame]) {
        self.frames_sent += frames.len() as u64;
        self.reports_sent += frames.iter().map(|f| f.decoded.len() as u64).sum::<u64>();
    }

    /// Close the ingest connection, wait until the daemon has decoded every
    /// frame written, then run the `/drain` barrier. Returns when the
    /// barrier answered. Closing first keeps the load at two open
    /// connections when fixes then go out on two.
    pub fn settle(&mut self) -> Result<Instant, String> {
        if let Some(c) = self.client.take() {
            c.finish().map_err(|e| format!("ingest close: {e}"))?;
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let s = self.daemon.stats();
            if s.frames + s.frame_errors >= self.frames_sent {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "daemon decoded {} of {} frames after 60 s",
                    s.frames + s.frame_errors,
                    self.frames_sent
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        get_json(self.http, "/drain")?;
        Ok(Instant::now())
    }

    /// Stop the daemon and join its threads.
    pub fn shutdown(self) {
        if let Some(c) = self.client {
            let _ = c.finish();
        }
        self.daemon.shutdown();
    }
}

/// Fix every antenna once, antennas of the two shard classes on two
/// threads (two connections), recording each fix's send-to-answer time.
/// Returns `(antenna id, fix or error, seconds)` in antenna order.
pub fn fix_all(
    http: SocketAddr,
    antennas: &[Antenna],
    tracer: &Tracer,
    request: u64,
) -> Vec<(u8, Result<ServedFix, String>, f64)> {
    let mut out: Vec<(u8, Result<ServedFix, String>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|class| {
                scope.spawn(move || {
                    antennas
                        .iter()
                        .filter(|a| usize::from(a.id) % 2 == class)
                        .map(|a| {
                            let t0 = Instant::now();
                            let r = tracer.span("serve:fix", None, request, |_| fix(http, a.id));
                            (a.id, r, t0.elapsed().as_secs_f64())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fix thread panicked"))
            .collect()
    });
    out.sort_by_key(|(id, _, _)| *id);
    out
}

/// Boot a daemon once with the calibrations attached so the store holds
/// them and every steering table; later boots are warm.
pub fn fill_store(
    rig: &Rig,
    cals: &[OrientationCalibration; 2],
    topo: &Topology,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(&topo.store_dir);
    let daemon = ServeDaemon::start(rig.server(Some(cals)), &topo.config())
        .map_err(|e| format!("cold boot: {e}"))?;
    daemon.shutdown();
    Ok(())
}

/// What the timed set-ups measured.
pub struct SetUps {
    /// The last set-up's daemon, kept for the measured pass.
    pub live: Live,
    /// Each set-up's wall time, seconds.
    pub seconds: Vec<f64>,
    /// Every fresh (first) fix of every set-up: a full coarse-to-fine
    /// recompute of a one-period window, send to answer, seconds.
    pub fresh_fix_s: Vec<f64>,
}

/// Run the timed set-up `n` times, each on a new daemon, keeping the last.
/// One set-up is `ServeDaemon::start` on the warm store, one period of
/// backlog in two parts, and after each part one fix per antenna — the
/// first a fresh recompute, the second the incremental anchor.
pub fn set_up(
    n: usize,
    rig: &Rig,
    cals: &[OrientationCalibration; 2],
    topo: &Topology,
    antennas: &[Antenna],
    backlog: [&[WireFrame]; 2],
) -> Result<SetUps, String> {
    let mut seconds = Vec::new();
    let mut fresh_fix_s = Vec::new();
    let mut kept: Option<Live> = None;
    for _ in 0..n.max(1) {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let daemon = ServeDaemon::start(rig.server(None), &topo.config())
            .map_err(|e| format!("boot: {e}"))?;
        let boot_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut live = Live {
            http: daemon.http_addr(),
            daemon,
            client: None,
            frames_sent: 0,
            reports_sent: 0,
            replay: Replay::new(rig, cals, topo.window),
            boot_ns,
        };
        // The fresh fixes run one at a time, so each is timed without the
        // other shard competing for the cores; the anchors run per shard.
        live.write(backlog[0])?;
        live.settle()?;
        for a in antennas {
            let t = Instant::now();
            fix(live.http, a.id).map_err(|e| format!("set-up fix for antenna {}: {e}", a.id))?;
            fresh_fix_s.push(t.elapsed().as_secs_f64());
        }
        live.write(backlog[1])?;
        live.settle()?;
        for (id, r, _) in fix_all(live.http, antennas, &Tracer::new(false), 0) {
            r.map_err(|e| format!("set-up fix for antenna {id}: {e}"))?;
        }
        seconds.push(t0.elapsed().as_secs_f64());
        kept = Some(live);
    }
    let mut live = kept.expect("at least one set-up ran");
    for part in backlog {
        live.replay.feed(part);
    }
    Ok(SetUps {
        live,
        seconds,
        fresh_fix_s,
    })
}

/// The offline side of the checks: the screen model and a
/// `SessionManager` fed the same decoded reports in the same order.
pub struct Replay {
    model: ScreenModel,
    manager: SessionManager,
    /// Nanoseconds spent in `SessionManager::ingest_batch`.
    pub ingest_ns: u64,
    /// Reports offered to the offline manager.
    pub reports: u64,
}

impl Replay {
    fn new(rig: &Rig, cals: &[OrientationCalibration; 2], window: WindowConfig) -> Replay {
        Replay {
            model: ScreenModel::default(),
            manager: rig.server(Some(cals)).session_manager(window),
            ingest_ns: 0,
            reports: 0,
        }
    }

    /// Feed frames the daemon was sent, in the order it was sent them.
    /// Call outside every timed section.
    pub fn feed(&mut self, frames: &[WireFrame]) {
        for frame in frames {
            for r in frame.decoded.reports() {
                self.model.offer(r);
            }
            let t0 = Instant::now();
            self.manager.ingest_batch(frame.decoded.reports());
            self.ingest_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.reports += frame.decoded.len() as u64;
        }
    }

    /// The expected quarantine books.
    pub fn books(&self) -> Books {
        self.model.books
    }

    /// The offline manager (its final fixes are the expected answers).
    pub fn manager(&mut self) -> &mut SessionManager {
        &mut self.manager
    }
}

/// Everything the end-of-run checks found, plus the numbers they read.
#[derive(Debug, Default)]
pub struct Checked {
    /// Violations; empty when the run's outputs are correct.
    pub violations: Vec<String>,
    /// Median planar error of the final fixes, cm.
    pub err_cm: f64,
    /// Reports shed.
    pub shed: u64,
    /// The final `/stats` body.
    pub stats: Option<Value>,
    /// The final `/metrics` scrape.
    pub scrape: Scrape,
}

/// The wire and queue accounting checks: every frame sent was decoded
/// without error, and every report sent was enqueued or shed — with none
/// shed, since every workload sizes its queues to hold its backlog.
pub fn accounting_violations(
    frames_sent: u64,
    frames: f64,
    frame_errors: f64,
    reports_sent: f64,
    enqueued: f64,
    shed: f64,
) -> Vec<String> {
    let mut v = Vec::new();
    if frames != frames_sent as f64 {
        v.push(format!(
            "daemon decoded {frames} frames, {frames_sent} were sent"
        ));
    }
    if frame_errors != 0.0 {
        v.push(format!(
            "daemon saw {frame_errors} frame errors on a well-formed stream"
        ));
    }
    if enqueued + shed != reports_sent {
        v.push(format!(
            "reports sent {reports_sent} != enqueued {enqueued} + shed {shed}"
        ));
    }
    if shed != 0.0 {
        v.push(format!(
            "{shed} reports shed by queues sized to hold the backlog"
        ));
    }
    v
}

/// The end-of-run checks over a settled daemon and its final fixes.
pub fn check(
    live: &mut Live,
    antennas: &[Antenna],
    finals: &[(u8, Result<ServedFix, String>, f64)],
) -> Checked {
    let mut c = Checked::default();
    let mut v = Vec::new();
    match get_json(live.http, "/stats") {
        Ok(stats) => {
            let shed = stat(&stats, "reports_shed");
            v.extend(accounting_violations(
                live.frames_sent,
                stat(&stats, "frames"),
                stat(&stats, "frame_errors"),
                live.reports_sent as f64,
                stat(&stats, "reports_enqueued"),
                shed,
            ));
            c.shed = shed as u64;
            c.stats = Some(stats);
        }
        Err(e) => v.push(e),
    }
    match Scrape::take(live.http) {
        Ok(scrape) => {
            let want = live.replay.books();
            let got = Books {
                accepted: scrape.counter("ingest.accepted") as u64,
                unknown_tag: scrape.counter("ingest.rejected.unknown_tag") as u64,
                null_epc: scrape.counter("ingest.rejected.null_epc") as u64,
                out_of_order: scrape.counter("ingest.rejected.out_of_order") as u64,
                duplicate: scrape.counter("ingest.rejected.duplicate") as u64,
                malformed: ["non_finite_phase", "phase_out_of_range", "bad_rssi"]
                    .iter()
                    .map(|r| scrape.counter(&format!("ingest.rejected.{r}")) as u64)
                    .sum(),
            };
            if got != want {
                v.push(format!(
                    "quarantine books {got:?} differ from the screen model {want:?}"
                ));
            }
            c.scrape = scrape;
        }
        Err(e) => v.push(e),
    }
    let tol = IncrementalPolicy::default().drift_tol;
    let mut errors = Vec::new();
    for a in antennas {
        let served = finals.iter().find(|(id, _, _)| *id == a.id).map(|f| &f.1);
        let expected = live.replay.manager().fix_2d(a.id);
        match (served, expected) {
            (Some(Ok(s)), Ok(e)) => {
                let dx = (s.x - e.position.x).abs();
                let dy = (s.y - e.position.y).abs();
                let dr = (s.residual_m - e.residual_m).abs();
                if dx.max(dy).max(dr) > tol {
                    v.push(format!(
                        "antenna {}: served fix ({}, {}) differs from the offline replay ({}, {}) by more than {tol:e}",
                        a.id, s.x, s.y, e.position.x, e.position.y
                    ));
                }
                errors.push(((s.x - a.truth.x).powi(2) + (s.y - a.truth.y).powi(2)).sqrt() * 100.0);
            }
            // Failing where the replay fails too is an agreed answer; the
            // caller counts it as a failed fix.
            (Some(Err(_)), Err(_)) => errors.push(f64::INFINITY),
            (Some(Err(e)), Ok(_)) => {
                v.push(format!(
                    "antenna {}: daemon failed where the offline replay answered: {e}",
                    a.id
                ));
            }
            (Some(Ok(_)), Err(e)) => {
                v.push(format!(
                    "antenna {}: offline replay failed where the daemon answered: {e}",
                    a.id
                ));
            }
            (None, _) => v.push(format!("antenna {}: no final fix was asked", a.id)),
        }
    }
    c.err_cm = crate::stats::median(&errors).unwrap_or(f64::NAN);
    c.violations = v;
    c
}

/// The working directory for this run's store, removed by the caller.
pub fn store_dir(work: &Path, workload: &str) -> PathBuf {
    work.join(format!("store-{workload}-{}", std::process::id()))
}

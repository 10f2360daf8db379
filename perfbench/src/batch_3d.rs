//! `batch_3d`: offline 3D localization (paper §V). One desk-height rig
//! with a 360×61 grid, orientation-calibrated once; captures from several
//! reader positions each go through `LocalizationServer::locate_3d`, one
//! after another. The coarse/fine 3D peak search does most of the work,
//! and nothing here touches the daemon or the incremental layer.

use crate::layers::{self, LayerMetrics, Row};
use crate::report::{peak_rss_mb, Outcome};
use crate::rig::{encode, shuffle, wire_frames, Rig, EPCS};
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use crate::{Args, Failure};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tagspin_core::estimator::backend_impl;
use tagspin_core::prelude::*;
use tagspin_epc::InventoryLog;
use tagspin_geom::Vec3;
use tagspin_sim::scenario::{Scenario, DESK_HEIGHT};

/// Reader positions captured.
const POSITIONS: usize = 4;
/// Timed set-ups per untraced run; `setup_s` is their median. A set-up
/// takes milliseconds, so many are cheap and steady the median.
const SETUPS: usize = 11;

struct Inputs {
    rig: Rig,
    /// `(truth, decoded capture)` per reader position.
    captures: Vec<(Vec3, InventoryLog)>,
    /// The seed's order of the captures.
    order: Vec<usize>,
    z_feasible: (f64, f64),
    decode_ns_per_report: f64,
}

fn inputs(seed: u64) -> Inputs {
    let rig = Rig::desk();
    let center = (rig.disks[0].center + rig.disks[1].center) * 0.5;
    let scenario = Scenario::paper_3d(center);
    let mut decode_ns = 0u64;
    let mut reports = 0usize;
    let captures = (0..POSITIONS)
        .map(|i| {
            let az = (55.0 + 70.0 * i as f64 / (POSITIONS - 1) as f64).to_radians();
            let range = if i.is_multiple_of(2) { 1.6 } else { 1.9 };
            let truth =
                center + Vec3::new(range * az.cos(), range * az.sin(), 0.7 + 0.1 * i as f64);
            let log = rig.capture(truth, 1, scenario.observation_s, 500 + i as u64);
            // The capture arrives as LLRP frames; locate what the decoder
            // reconstructs.
            let (wire, ns) = encode(&wire_frames(log.reports()), 1);
            decode_ns += ns;
            reports += log.len();
            let decoded: InventoryLog = wire
                .iter()
                .flat_map(|w| w.decoded.reports().to_vec())
                .collect();
            (truth, decoded)
        })
        .collect();
    let mut order: Vec<usize> = (0..POSITIONS).collect();
    shuffle(&mut order, &mut StdRng::seed_from_u64(seed ^ 0x00BA_7C3D));
    Inputs {
        rig,
        captures,
        order,
        z_feasible: (DESK_HEIGHT, scenario.z_feasible.1),
        decode_ns_per_report: decode_ns as f64 / reports.max(1) as f64,
    }
}

/// The timed set-up: build the server, fit both center spins, prewarm
/// every steering table the fixes use.
fn set_up(rig: &Rig) -> (LocalizationServer, f64, u64) {
    let t0 = Instant::now();
    let (cals, fit_ns) = rig.fit();
    let server = rig.server(Some(&cals));
    for disk in &rig.disks {
        server
            .engine()
            .prewarm_radius(disk.radius, &rig.config.spectrum);
        server.engine().prewarm_disk(disk, &rig.config.spectrum);
    }
    (server, t0.elapsed().as_secs_f64(), fit_ns.iter().sum())
}

/// Pipeline events of a traced pass, delivered through `set_observer`.
#[derive(Debug, Default)]
struct Recorder {
    inner: Mutex<Recorded>,
}

#[derive(Debug, Default, Clone)]
struct Recorded {
    stage_ns: [u64; 8],
    fix_ns: Vec<f64>,
    recomputes: u64,
    cache: [u64; 2],
    accepted: u64,
    rejected: [u64; 4],
    evicted: u64,
    incremental: [u64; 4],
    fixes: [u64; 2],
}

impl Observer for Recorder {
    fn on_event(&self, event: &Event) {
        let mut r = self.inner.lock().expect("recorder lock poisoned");
        match *event {
            Event::StageTime { stage, nanos } => {
                let i = stage as usize;
                r.stage_ns[i] += nanos;
                match stage {
                    Stage::Fix => r.fix_ns.push(nanos as f64),
                    Stage::Recompute => r.recomputes += 1,
                    _ => {}
                }
            }
            Event::CacheLookup { hit } => r.cache[usize::from(!hit)] += 1,
            Event::IngestAccepted { .. } => r.accepted += 1,
            Event::IngestRejected { reason, .. } => {
                let i = match reason {
                    RejectReason::UnknownTag => 0,
                    RejectReason::Malformed(_) => 1,
                    RejectReason::OutOfOrder => 2,
                    _ => 3,
                };
                r.rejected[i] += 1;
            }
            Event::Evicted { count, .. } => r.evicted += count,
            Event::IncrementalSync {
                applied,
                downdated,
                reanchored,
                fallback,
                ..
            } => {
                r.incremental[0] += applied;
                r.incremental[1] += downdated;
                r.incremental[2] += u64::from(reanchored);
                r.incremental[3] += u64::from(fallback);
            }
            Event::FixAttempt { ok, .. } => r.fixes[usize::from(!ok)] += 1,
            _ => {}
        }
    }
}

struct Locate {
    seconds: f64,
    reports: usize,
    err_cm: Option<f64>,
}

struct Pass {
    rounds: Vec<Vec<Locate>>,
    setup_s: Vec<f64>,
    fit_ns: u64,
    failures: Vec<String>,
}

fn pass(
    inp: &Inputs,
    seconds: f64,
    tracer: &Tracer,
    recorder: Option<Arc<Recorder>>,
) -> (Pass, LocalizationServer) {
    let setups = if tracer.on() { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        let (server, s, fit_ns) = set_up(&inp.rig);
        setup_s.push(s);
        built = Some((server, fit_ns));
    }
    let (mut server, fit_ns) = built.expect("at least one set-up ran");
    if let Some(r) = recorder {
        server.set_observer(r);
    }
    let (lo, hi) = inp.z_feasible;
    let mut rounds = Vec::new();
    let mut failures = Vec::new();
    let started = Instant::now();
    let mut request = 0u64;
    loop {
        let mut round = Vec::new();
        for &i in &inp.order {
            request += 1;
            let (truth, log) = &inp.captures[i];
            let t0 = Instant::now();
            let fix = tracer.span("batch:locate_3d", None, request, |_| server.locate_3d(log));
            let seconds = t0.elapsed().as_secs_f64();
            let err_cm = match fix {
                Ok(f) => match f.resolve(|p| p.z >= lo && p.z <= hi) {
                    Some(p) => Some((p - *truth).norm() * 100.0),
                    None => {
                        failures.push(format!(
                            "capture {i}: ±z unresolved inside [{lo}, {hi}] m: {f:?}"
                        ));
                        None
                    }
                },
                Err(e) => {
                    failures.push(format!("capture {i}: locate_3d failed: {e}"));
                    None
                }
            };
            round.push(Locate {
                seconds,
                reports: log.len(),
                err_cm,
            });
        }
        rounds.push(round);
        let spent = started.elapsed().as_secs_f64();
        if spent + spent / rounds.len() as f64 > seconds {
            break;
        }
    }
    (
        Pass {
            rounds,
            setup_s,
            fit_ns,
            failures,
        },
        server,
    )
}

/// `(fix_p50_ms, fix_p95_ms, catchup_s, reports/s, locate_s, err_cm)`.
fn headline(p: &Pass) -> [f64; 6] {
    let all: Vec<&Locate> = p.rounds.iter().flatten().collect();
    let ms: Vec<f64> = all.iter().map(|l| l.seconds * 1e3).collect();
    let secs: Vec<f64> = all.iter().map(|l| l.seconds).collect();
    let round_s: Vec<f64> = p
        .rounds
        .iter()
        .map(|r| r.iter().map(|l| l.seconds).sum())
        .collect();
    let reports: usize = all.iter().map(|l| l.reports).sum();
    let errs: Vec<f64> = all.iter().filter_map(|l| l.err_cm).collect();
    [
        median(&ms).unwrap_or(f64::NAN),
        nearest_rank(&ms, 95.0).unwrap_or(f64::NAN),
        median(&round_s).unwrap_or(f64::NAN),
        reports as f64 / secs.iter().sum::<f64>(),
        median(&secs).unwrap_or(f64::NAN),
        median(&errs).unwrap_or(f64::NAN),
    ]
}

fn verdict(p: &Pass, out: &mut Outcome) -> Result<(), Failure> {
    let attempts = p.rounds.iter().map(Vec::len).sum::<usize>() as u64;
    let failed = p
        .rounds
        .iter()
        .flatten()
        .filter(|l| l.err_cm.is_none())
        .count() as u64;
    out.attempted += attempts;
    out.failed += failed;
    out.notes.push(layers::fail_fracs(failed, attempts, 0, 0));
    if p.failures.is_empty() {
        Ok(())
    } else {
        Err(Failure::Check {
            reasons: p.failures.clone(),
            attempted: out.attempted,
            failed: out.failed,
        })
    }
}

/// Run the workload.
pub fn run(args: &Args, work: &Path) -> Result<Outcome, Failure> {
    let seconds = args.seconds as f64;
    let inp = inputs(args.seed);
    let (plain, _) = pass(&inp, seconds, &Tracer::new(false), None);
    let mut out = Outcome::default();
    verdict(&plain, &mut out)?;
    let h = headline(&plain);
    if !args.trace {
        for (name, v) in [
            "fix_p50_ms",
            "fix_p95_ms",
            "catchup_s",
            "ingest_reports_per_s",
            "locate_s",
            "err_cm",
        ]
        .into_iter()
        .zip(h)
        {
            out.set(name, v);
        }
        out.set("setup_s", median(&plain.setup_s).unwrap_or(f64::NAN));
        out.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(format!(
            "locates: {} rounds of {} captures (fix p95 is the nearest-rank tail of these); per capture {:?} s; set-ups {:?} s",
            plain.rounds.len(),
            POSITIONS,
            plain.rounds.iter().flatten().map(|l| (l.seconds * 1e3).round() / 1e3).collect::<Vec<_>>(),
            plain.setup_s.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>()
        ));
        out.notes.push(format!(
            "errors {:?} cm",
            plain
                .rounds
                .iter()
                .flatten()
                .map(|l| l.err_cm.map(|e| (e * 100.0).round() / 100.0))
                .collect::<Vec<_>>()
        ));
        return Ok(out);
    }
    let tracer = Tracer::new(true);
    let recorder = Arc::new(Recorder::default());
    let (traced, server) = pass(&inp, seconds, &tracer, Some(Arc::clone(&recorder)));
    verdict(&traced, &mut out)?;
    let t = headline(&traced);
    let rec = recorder
        .inner
        .lock()
        .expect("recorder lock poisoned")
        .clone();

    // The engine and estimator layers, driven directly on the first
    // capture: one `SpectrumEngine::peak_3d` per tag over its calibrated
    // snapshots, then the configured backend resolving those bearings.
    let (_, log) = &inp.captures[inp.order[0]];
    let cfg = inp.rig.config;
    let mut peak_ns = Vec::new();
    let mut bearings = Vec::new();
    for (tag, epc) in server.tags().to_vec().iter().zip(EPCS) {
        let set = server
            .calibrated_snapshots(log, tag)
            .map_err(|e| Failure::Setup(format!("calibrated snapshots of {epc:x}: {e}")))?;
        let t0 = Instant::now();
        let peak = tracer.span("engine:peak_3d", None, 0, |_| {
            server.engine().peak_3d(
                &set,
                tag.disk.radius,
                cfg.profile,
                &cfg.spectrum,
                &cfg.engine,
            )
        });
        peak_ns.push(t0.elapsed().as_nanos() as f64);
        if let Some((direction, power)) = peak {
            bearings.push(Bearing3D::from_peak(tag.disk.center, direction, power));
        }
    }
    let t0 = Instant::now();
    let _ =
        std::hint::black_box(backend_impl(cfg.estimator.backend).estimate_3d(&bearings, &[], &cfg));
    let refine_ns = t0.elapsed().as_nanos() as f64;

    let spans = tracer.spans();
    let cache = server.engine().cache_stats();
    let stage = |s: Stage| rec.stage_ns[s as usize] as f64 * 1e-6;
    let l = LayerMetrics {
        frame_decode_ns_per_report: inp.decode_ns_per_report,
        session_ingest_ns_per_report: rec.stage_ns[Stage::Ingest as usize] as f64
            / (rec.accepted + rec.rejected.iter().sum::<u64>()).max(1) as f64,
        rejected: rec.rejected.map(|r| r as f64),
        accepted_frac: rec.accepted as f64
            / (rec.accepted + rec.rejected.iter().sum::<u64>()).max(1) as f64,
        evicted: rec.evicted as f64,
        fix_ms_p50: nearest_rank(&rec.fix_ns, 50.0).unwrap_or(0.0) * 1e-6,
        fix_ms_p95: nearest_rank(&rec.fix_ns, 95.0).unwrap_or(0.0) * 1e-6,
        recompute_ms: stage(Stage::Recompute) / rec.recomputes.max(1) as f64,
        applied: rec.incremental[0] as f64,
        downdated: rec.incremental[1] as f64,
        reanchors: rec.incremental[2] as f64,
        fallbacks: rec.incremental[3] as f64,
        coarse_ms: stage(Stage::Coarse),
        fine_ms: stage(Stage::Fine),
        peak_3d_ms: median(&peak_ns).unwrap_or(0.0) * 1e-6,
        table_hits: cache.hits as f64,
        table_misses: cache.misses as f64,
        refine_ms: stage(Stage::Refine) + refine_ns * 1e-6,
        calib_fit_ms: traced.fit_ns as f64 * 1e-6,
        spans: spans.len() as f64,
        e2e_ms: t[4] * 1e3,
        overhead_ms: (t[4] - h[4]) * 1e3,
        unattributed_ms: t[4] * 1e3 - nearest_rank(&rec.fix_ns, 50.0).unwrap_or(0.0) * 1e-6,
        ..LayerMetrics::default()
    };
    l.emit(&mut out);
    out.notes.push(format!(
        "tracing overhead: locate_s {:.4} traced - {:.4} untraced = {:+.1} ms",
        t[4], h[4], l.overhead_ms
    ));
    let locates = traced.rounds.iter().flatten().count() as f64;
    let locate_ms: f64 = traced
        .rounds
        .iter()
        .flatten()
        .map(|l| l.seconds * 1e3)
        .sum();
    let fix_ms = stage(Stage::Fix);
    let recompute_ms = stage(Stage::Recompute);
    let engine_ms = stage(Stage::Coarse) + stage(Stage::Fine);
    let rows = [
        Row {
            layer: "core::session (ingest)",
            ms: stage(Stage::Ingest),
            count: (rec.accepted + rec.rejected.iter().sum::<u64>()) as f64,
            failures: rec.rejected.iter().sum::<u64>() as f64,
            moves: "locate_s",
        },
        Row {
            layer: "core::session (fix)",
            ms: fix_ms - recompute_ms - stage(Stage::Refine),
            count: rec.fixes[0] as f64,
            failures: rec.fixes[1] as f64,
            moves: "locate_s",
        },
        Row {
            layer: "core::session (recompute)",
            ms: recompute_ms - engine_ms,
            count: rec.recomputes as f64,
            failures: 0.0,
            moves: "locate_s",
        },
        Row {
            layer: "core::spectrum::engine",
            ms: engine_ms,
            count: locates * 2.0,
            failures: 0.0,
            moves: "locate_s",
        },
        Row {
            layer: "core::estimator",
            ms: stage(Stage::Refine),
            count: rec.fixes[0] as f64,
            failures: 0.0,
            moves: "— (spectrum backend)",
        },
    ];
    out.notes.extend(layers::table(
        "summed locate_3d time",
        &rows,
        locate_ms,
        true,
    ));
    out.notes.extend(layers::span_lines(&spans));
    if let Some(path) = layers::write_spans(work, &spans, "batch_3d", args.seed) {
        out.notes.push(format!("spans written to {path}"));
    }
    Ok(out)
}

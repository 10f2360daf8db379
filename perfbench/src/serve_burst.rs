//! `serve_burst`: write-heavy catch-up. Eight antennas, half of them
//! through `FaultPlan::at_rate(0.1)`, replay a backlog of many disk
//! periods as fast as one connection carries it; then `/drain` and one
//! fix per antenna. Frame decode, routing, session ingest and quarantine
//! do most of the work; the catch-up fixes then face window-sized deltas.

use crate::layers::{self, Probe};
use crate::report::{peak_rss_mb, Outcome};
use crate::rig::{arc_position, encode, faulted, shifted, shuffle, wire_frames, Rig, WireFrame};
use crate::serve::{self, fix_all, Antenna, Scrape, ServedFix, Topology};
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use crate::{Args, Failure};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use tagspin_core::prelude::*;
use tagspin_epc::{InventoryLog, TagReport};
use tagspin_geom::Vec3;
use tagspin_sim::fault::{FaultCounts, FaultPlan};

/// Reader antennas; the odd-numbered half stream through the fault plan.
const ANTENNAS: u8 = 8;
/// Fault rate of the faulted half.
const FAULT_RATE: f64 = 0.1;
/// Disk periods of backlog per antenna in one burst.
const BURST_PERIODS: f64 = 32.0;
/// The backlog's second part (before the anchoring fixes), seconds.
const ANCHOR_TAIL_S: f64 = 0.5;
/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Inputs {
    rig: Rig,
    cals: [OrientationCalibration; 2],
    fit_ns: [u64; 2],
    antennas: Vec<Antenna>,
    backlog: [Vec<WireFrame>; 2],
    backlog_faults: FaultCounts,
    /// One burst's capture per antenna, starting at reader time zero.
    template: Vec<InventoryLog>,
    period_s: f64,
    seed: u64,
}

fn is_faulted(id: u8) -> bool {
    id % 2 == 1
}

/// Interleave per-antenna frame sequences on one connection: round by
/// round, each antenna's next frame in a seeded order. Per-antenna order
/// is kept, which is all the daemon's contract needs.
fn interleave(per_antenna: Vec<Vec<InventoryLog>>, rng: &mut StdRng) -> Vec<InventoryLog> {
    let mut queues: Vec<std::collections::VecDeque<InventoryLog>> =
        per_antenna.into_iter().map(Into::into).collect();
    let mut order: Vec<usize> = (0..queues.len()).collect();
    let mut out = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        shuffle(&mut order, rng);
        for &i in &order {
            if let Some(f) = queues[i].pop_front() {
                out.push(f);
            }
        }
    }
    out
}

/// The frames of one antenna's stream, faulted when the antenna is.
fn antenna_frames(
    id: u8,
    reports: &[TagReport],
    stream: u64,
    counts: &mut FaultCounts,
) -> Vec<InventoryLog> {
    if !is_faulted(id) {
        return wire_frames(reports);
    }
    let log: InventoryLog = reports.iter().copied().collect();
    let (faulty, c) = faulted(&log, FaultPlan::at_rate(FAULT_RATE), stream);
    tally(counts, &c);
    wire_frames(&faulty)
}

fn tally(into: &mut FaultCounts, c: &FaultCounts) {
    into.dropped += c.dropped;
    into.duplicated += c.duplicated;
    into.reordered += c.reordered;
    into.corrupted += c.corrupted;
    into.ghosted += c.ghosted;
}

fn inputs(seed: u64) -> Inputs {
    let rig = Rig::plane();
    let (cals, fit_ns) = rig.fit();
    let period_s = rig.period_s();
    let antennas: Vec<Antenna> = (1..=ANTENNAS)
        .map(|id| Antenna {
            id,
            truth: arc_position(usize::from(id - 1), usize::from(ANTENNAS), Vec3::ZERO, 0.0),
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0_257);
    let mut counts = FaultCounts::default();
    let mut parts: [Vec<Vec<InventoryLog>>; 2] = [Vec::new(), Vec::new()];
    let tail_us = ((period_s - ANCHOR_TAIL_S) * 1e6) as u64;
    for a in &antennas {
        let capture = rig.capture(a.truth, a.id, period_s, 100 + u64::from(a.id));
        let (head, tail): (Vec<TagReport>, Vec<TagReport>) = capture
            .reports()
            .iter()
            .partition(|r| r.timestamp_us < tail_us);
        parts[0].push(antenna_frames(
            a.id,
            &head,
            200 + u64::from(a.id),
            &mut counts,
        ));
        parts[1].push(antenna_frames(
            a.id,
            &tail,
            300 + u64::from(a.id),
            &mut counts,
        ));
    }
    let [head, tail] = parts;
    let (first, _) = encode(&interleave(head, &mut rng), 1);
    let (second, _) = encode(&interleave(tail, &mut rng), 1 + first.len() as u32);
    let template = antennas
        .iter()
        .map(|a| {
            rig.capture(
                a.truth,
                a.id,
                period_s * BURST_PERIODS,
                400 + u64::from(a.id),
            )
        })
        .collect();
    Inputs {
        rig,
        cals,
        fit_ns,
        antennas,
        backlog: [first, second],
        backlog_faults: counts,
        template,
        period_s,
        seed,
    }
}

/// Burst `cycle`'s frames: the template shifted to follow the previous
/// burst by whole disk periods, faulted, framed, interleaved and encoded.
/// Every burst carries the same faults, so the final fixes (and
/// `err_cm`) do not depend on how many bursts a run fits.
/// Returns the frames, the fault counts and the harness's decode time.
fn burst(inp: &Inputs, cycle: u64, first_message_id: u32) -> (Vec<WireFrame>, FaultCounts, u64) {
    let periods = 1.0 + cycle as f64 * BURST_PERIODS;
    let offset_us = (periods * inp.period_s * 1e6).round() as u64;
    let mut counts = FaultCounts::default();
    let per_antenna = inp
        .antennas
        .iter()
        .zip(&inp.template)
        .map(|(a, t)| {
            let reports = shifted(t.reports(), offset_us);
            antenna_frames(a.id, &reports, 400 + u64::from(a.id), &mut counts)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(inp.seed ^ (cycle << 20) ^ 0x1E4F);
    let (frames, decode_ns) = encode(&interleave(per_antenna, &mut rng), first_message_id);
    (frames, counts, decode_ns)
}

/// One burst's measurements.
struct Cycle {
    /// Reports the daemon enqueued during the burst.
    enqueued: f64,
    /// First write to `/drain` returning, seconds.
    burst_s: f64,
    catchup_s: f64,
    drain_tail_s: f64,
    fix_s: Vec<f64>,
    failures: u64,
    reports: u64,
}

struct Pass {
    cycles: Vec<Cycle>,
    setup_s: Vec<f64>,
    fresh_fix_s: Vec<f64>,
    boot_ns: u64,
    checked: serve::Checked,
    probe: Probe,
    finals: Vec<(u8, Result<ServedFix, String>, f64)>,
    refine_ns: u64,
    replay_ingest_ns_per_report: f64,
    decode_ns_per_report: f64,
    reports_sent: u64,
    faults: FaultCounts,
}

fn pass(inp: &Inputs, topo: &Topology, seconds: f64, tracer: &Tracer) -> Result<Pass, String> {
    let set = serve::set_up(
        if tracer.on() { 1 } else { SETUPS },
        &inp.rig,
        &inp.cals,
        topo,
        &inp.antennas,
        [&inp.backlog[0], &inp.backlog[1]],
    )?;
    let (mut live, setup_s, fresh_fix_s) = (set.live, set.seconds, set.fresh_fix_s);
    let http = live.http;
    let first_scrape = Scrape::take(http)?;
    let mut probe = Probe::new(first_scrape.clone());
    let mut cycles = Vec::new();
    let mut finals = Vec::new();
    let mut faults = inp.backlog_faults;
    let (mut decode_ns, mut decoded_reports) = (0u64, 0u64);
    let mut message_id = 1 + (inp.backlog[0].len() + inp.backlog[1].len()) as u32;
    let started = Instant::now();
    for cycle in 0.. {
        let (frames, counts, dns) = burst(inp, cycle, message_id);
        message_id += frames.len() as u32;
        tally(&mut faults, &counts);
        let reports: u64 = frames.iter().map(|f| f.decoded.len() as u64).sum();
        decode_ns += dns;
        decoded_reports += reports;
        let enq_before = serve::stat(&serve::get_json(http, "/stats")?, "reports_enqueued");
        let request = cycle + 1;
        let t0 = Instant::now();
        let burst_done = AtomicBool::new(false);
        let (last_write, drained) = std::thread::scope(|scope| {
            let sampler = tracer.on().then(|| {
                let (done, probe) = (&burst_done, &mut probe);
                scope.spawn(move || {
                    // ordering: relaxed — a stop flag; the scope join publishes the samples
                    while !done.load(Ordering::Relaxed) {
                        probe.sample(http, tracer, request);
                    }
                })
            });
            let out = tracer
                .span("burst:write", None, request, |_| live.write(&frames))
                .and_then(|last| {
                    let drained = tracer.span("burst:settle", None, request, |_| live.settle())?;
                    Ok((last, drained))
                });
            // ordering: relaxed — see the sampler loop
            burst_done.store(true, Ordering::Relaxed);
            if let Some(h) = sampler {
                h.join().expect("probe thread panicked");
            }
            out
        })?;
        let answers = fix_all(http, &inp.antennas, tracer, request);
        let caught_up = Instant::now();
        let enq_after = serve::stat(&serve::get_json(http, "/stats")?, "reports_enqueued");
        cycles.push(Cycle {
            enqueued: enq_after - enq_before,
            burst_s: drained.duration_since(t0).as_secs_f64(),
            catchup_s: caught_up.duration_since(last_write).as_secs_f64(),
            drain_tail_s: drained.duration_since(last_write).as_secs_f64(),
            fix_s: answers.iter().map(|a| a.2).collect(),
            failures: answers.iter().filter(|a| a.1.is_err()).count() as u64,
            reports,
        });
        finals = answers;
        live.replay.feed(&frames);
        let spent = started.elapsed().as_secs_f64();
        let per_cycle = spent / (cycle + 1) as f64;
        if spent + per_cycle > seconds {
            break;
        }
    }
    let refine_ns = layers::time_estimator(&mut live.replay, &inp.rig, &inp.antennas);
    let replay_ingest_ns_per_report =
        live.replay.ingest_ns as f64 / live.replay.reports.max(1) as f64;
    let checked = serve::check(&mut live, &inp.antennas, &finals);
    probe.finish(&checked.scrape.since(&first_scrape), checked.stats.as_ref());
    let boot_ns = live.boot_ns;
    let reports_sent = live.reports_sent;
    live.shutdown();
    Ok(Pass {
        cycles,
        setup_s,
        fresh_fix_s,
        boot_ns,
        checked,
        probe,
        finals,
        refine_ns,
        replay_ingest_ns_per_report,
        decode_ns_per_report: decode_ns as f64 / decoded_reports.max(1) as f64,
        reports_sent,
        faults,
    })
}

/// Run the workload.
pub fn run(args: &Args, work: &Path) -> Result<Outcome, Failure> {
    let inp = inputs(args.seed);
    let topo = Topology {
        shards: 2,
        // Sized to hold a whole burst: every frame can split into one batch
        // per shard.
        queue_capacity: 1 << 20,
        window: WindowConfig::last_seconds(inp.period_s),
        store_dir: serve::store_dir(work, "serve_burst"),
    };
    serve::fill_store(&inp.rig, &inp.cals, &topo).map_err(Failure::Setup)?;
    let result = run_passes(args, work, &inp, &topo);
    let _ = std::fs::remove_dir_all(&topo.store_dir);
    result
}

/// `(fix_p50_ms, fix_p95_ms, catchup_s, reports/s, locate_s)`.
fn headline(p: &Pass) -> (f64, f64, f64, f64, f64) {
    let fix_ms: Vec<f64> = p
        .cycles
        .iter()
        .flat_map(|c| c.fix_s.iter().map(|s| s * 1e3))
        .collect();
    let m = |f: &dyn Fn(&Cycle) -> f64| {
        median(&p.cycles.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    (
        median(&fix_ms).unwrap_or(f64::NAN),
        nearest_rank(&fix_ms, 95.0).unwrap_or(f64::NAN),
        m(&|c| c.catchup_s),
        // Over all bursts together: each burst is short.
        p.cycles.iter().map(|c| c.enqueued).sum::<f64>()
            / p.cycles.iter().map(|c| c.burst_s).sum::<f64>(),
        median(&p.fresh_fix_s).unwrap_or(f64::NAN),
    )
}

fn run_passes(args: &Args, work: &Path, inp: &Inputs, topo: &Topology) -> Result<Outcome, Failure> {
    let seconds = args.seconds as f64;
    let plain = pass(inp, topo, seconds, &Tracer::new(false)).map_err(Failure::Setup)?;
    let mut out = Outcome::default();
    verdict(&plain, &mut out)?;
    let (p50, p95, catchup, rate, locate) = headline(&plain);
    if !args.trace {
        out.set("fix_p50_ms", p50);
        out.set("fix_p95_ms", p95);
        out.set("catchup_s", catchup);
        out.set("ingest_reports_per_s", rate);
        out.set("locate_s", locate);
        out.set("err_cm", plain.checked.err_cm);
        out.set("setup_s", median(&plain.setup_s).unwrap_or(f64::NAN));
        out.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(format!(
            "bursts: {} of {} reports each; catch-up fixes: {} (p95 is the nearest-rank tail of these); set-ups {:?} s",
            plain.cycles.len(),
            plain.cycles.first().map_or(0, |c| c.reports),
            plain.cycles.iter().map(|c| c.fix_s.len()).sum::<usize>(),
            plain.setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
        ));
        out.notes.push(format!(
            "per burst: ingest {:?} reports/s, catch-up {:?} s",
            plain
                .cycles
                .iter()
                .map(|c| (c.enqueued / c.burst_s).round())
                .collect::<Vec<_>>(),
            plain
                .cycles
                .iter()
                .map(|c| (c.catchup_s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ));
        return Ok(out);
    }
    let tracer = Tracer::new(true);
    let traced = pass(inp, topo, seconds, &tracer).map_err(Failure::Setup)?;
    verdict(&traced, &mut out)?;
    let (_, _, traced_catchup, _, _) = headline(&traced);
    let spans = tracer.spans();
    let mut l = traced.probe.layer_metrics();
    let rtt = l.http_rtt_ms;
    let shard_fix_ms: Vec<f64> = traced
        .cycles
        .iter()
        .flat_map(|c| c.fix_s.iter().map(move |s| (s * 1e3 - rtt).max(0.0)))
        .collect();
    l.fix_ms_p50 = nearest_rank(&shard_fix_ms, 50.0).unwrap_or(0.0);
    l.fix_ms_p95 = nearest_rank(&shard_fix_ms, 95.0).unwrap_or(0.0);
    l.frame_decode_ns_per_report = traced.decode_ns_per_report;
    l.session_ingest_ns_per_report = traced.replay_ingest_ns_per_report;
    l.refine_ms = traced.refine_ns as f64 * 1e-6;
    l.calib_fit_ms = inp.fit_ns.iter().sum::<u64>() as f64 * 1e-6;
    l.store_boot_ms = traced.boot_ns as f64 * 1e-6;
    l.spans = spans.len() as f64;
    l.e2e_ms = traced_catchup * 1e3;
    l.overhead_ms = (traced_catchup - catchup) * 1e3;
    // The last catch-up is its drain tail plus two shards' fixes in
    // parallel: what the tail and the slower shard's fixes do not cover.
    let last = traced.cycles.last().expect("at least one burst ran");
    let slowest_shard_ms = (0..2)
        .map(|class| {
            traced
                .finals
                .iter()
                .filter(|(id, _, _)| usize::from(*id) % 2 == class)
                .map(|f| f.2 * 1e3)
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    l.unattributed_ms = (last.catchup_s - last.drain_tail_s) * 1e3 - slowest_shard_ms;
    l.emit(&mut out);
    out.notes.push(format!(
        "tracing overhead: catchup {:.3} s traced - {catchup:.3} s untraced = {:+.1} ms",
        traced_catchup, l.overhead_ms
    ));
    out.notes.push(format!(
        "fault plan on antennas 1,3,5,7 at rate {FAULT_RATE}: {:?}",
        traced.faults
    ));
    let catchup_total: f64 = traced.cycles.iter().map(|c| c.catchup_s * 1e3).sum();
    let mut probe = traced.probe.clone();
    let d = &traced.probe.delta;
    let mean_fix_ms = d.sum("stage.fix_ns") / d.count("stage.fix_ns").max(1.0) * 1e-6;
    probe.plane_ms = traced
        .cycles
        .iter()
        .flat_map(|c| c.fix_s.iter().map(|s| s * 1e3 - mean_fix_ms))
        .collect();
    let mut rows = vec![layers::Row {
        layer: "serve (decode + route tail, drain)",
        ms: traced
            .cycles
            .iter()
            .map(|c| c.drain_tail_s * 1e3)
            .sum::<f64>()
            * 2.0,
        count: traced.cycles.len() as f64,
        failures: 0.0,
        moves: "catchup_s",
    }];
    rows.extend(layers::fix_rows(&probe, "catchup_s, fix_p95_ms"));
    out.notes.extend(layers::table(
        "catch-up time (fixes run on two shards at once)",
        &rows,
        catchup_total * 2.0,
        true,
    ));
    let burst_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "burst:write" || s.name == "burst:settle")
        .map(|s| s.ns() as f64 * 1e-6)
        .sum();
    out.notes.extend(layers::table(
        "burst wall time (busy time per layer)",
        &layers::ingest_rows(&traced.probe),
        burst_ms,
        false,
    ));
    out.notes.extend(layers::span_lines(&spans));
    if let Some(path) = layers::write_spans(work, &spans, "serve_burst", args.seed) {
        out.notes.push(format!("spans written to {path}"));
    }
    Ok(out)
}

fn verdict(p: &Pass, out: &mut Outcome) -> Result<(), Failure> {
    let fixes = p.cycles.iter().map(|c| c.fix_s.len() as u64).sum::<u64>();
    let fix_failures = p.cycles.iter().map(|c| c.failures).sum::<u64>();
    out.attempted += fixes + p.reports_sent;
    out.failed += fix_failures + p.checked.shed;
    out.notes.push(layers::fail_fracs(
        fix_failures,
        fixes,
        p.checked.shed,
        p.reports_sent,
    ));
    let mut v = p.checked.violations.clone();
    let books = &p.checked.scrape;
    let ghosts =
        books.counter("ingest.rejected.unknown_tag") + books.counter("ingest.rejected.null_epc");
    if ghosts < p.faults.ghosted as f64 {
        v.push(format!(
            "{} ghost reads were injected but only {ghosts} were quarantined as unknown or null",
            p.faults.ghosted
        ));
    }
    if v.is_empty() {
        Ok(())
    } else {
        Err(Failure::Check {
            reasons: v,
            attempted: out.attempted,
            failed: out.failed,
        })
    }
}

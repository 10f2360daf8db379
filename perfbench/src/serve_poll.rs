//! `serve_poll`: the path users poll. Two antennas stream the rig at
//! capture rate over one ingest connection while `GET /fix/2d` arrives
//! open-loop 8 times a second, alternating antennas. The median is the
//! incremental sync on small deltas; the tail is the re-anchor that
//! `reanchor_after_ops` forces about every 19 s per tag stream.

use crate::layers::{self, Probe};
use crate::report::{peak_rss_mb, Outcome};
use crate::rig::{arc_position, encode, Rig, WireFrame};
use crate::schedule::{frame_timetable, query_timetable, sleep_until, DueBook};
use crate::serve::{self, fix_all, Antenna, Scrape, Topology};
use crate::stats::{median, nearest_rank, tail_percentile};
use crate::trace::Tracer;
use crate::{Args, Failure};
use std::path::Path;
use std::time::{Duration, Instant};
use tagspin_core::prelude::*;
use tagspin_epc::{InventoryLog, TagReport};
use tagspin_geom::Vec3;

/// Fix queries per second, across both antennas.
const QUERY_HZ: f64 = 8.0;
/// Reader time covered by one ingest frame, seconds.
const FRAME_S: f64 = 0.05;
/// The backlog's second part (before the anchoring fixes), seconds.
const ANCHOR_TAIL_S: f64 = 0.5;
/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Catch-ups measured after the timetable: write the next second of
/// frames at once, then wait until every antenna answered a fix that
/// reflects them.
const CATCHUPS: usize = 6;
/// Reader time written by one catch-up, seconds.
const CATCHUP_S: f64 = 1.0;

/// The workload's inputs, all drawn before anything is timed.
struct Inputs {
    rig: Rig,
    cals: [OrientationCalibration; 2],
    fit_ns: [u64; 2],
    antennas: Vec<Antenna>,
    /// Backlog frames in two parts (before the fresh and the anchor fix).
    backlog: [Vec<WireFrame>; 2],
    /// Live frames with their due offsets from the pass start.
    live: Vec<(Duration, WireFrame)>,
    /// The frames after the timetable, [`CATCHUP_S`] of them per catch-up.
    tail: Vec<Vec<WireFrame>>,
    decode_ns_per_report: f64,
}

fn inputs(seed: u64, seconds: f64) -> Inputs {
    let rig = Rig::plane();
    let (cals, fit_ns) = rig.fit();
    let period = rig.period_s();
    let antennas: Vec<Antenna> = [(1u8, 2usize), (2, 5)]
        .iter()
        .map(|&(id, slot)| Antenna {
            id,
            truth: arc_position(slot, 8, Vec3::ZERO, 0.0),
        })
        .collect();
    let span = period + seconds + CATCHUPS as f64 * CATCHUP_S + 1.0;
    let mut merged: Vec<TagReport> = antennas
        .iter()
        .flat_map(|a| {
            rig.capture(a.truth, a.id, span, u64::from(a.id))
                .reports()
                .to_vec()
        })
        .collect();
    merged.sort_by_key(|r| r.timestamp_us);
    let frames = frame_timetable(seed, FRAME_S, &merged);
    let logs: Vec<InventoryLog> = frames.iter().map(|(_, l)| l.clone()).collect();
    let (wire, decode_ns) = encode(&logs, 1);
    let reports: usize = logs.iter().map(InventoryLog::len).sum();
    let mut backlog = [Vec::new(), Vec::new()];
    let mut live = Vec::new();
    let mut tail = Vec::new();
    for ((end, _), w) in frames.iter().zip(wire) {
        if *end <= period - ANCHOR_TAIL_S {
            backlog[0].push(w);
        } else if *end <= period {
            backlog[1].push(w);
        } else if *end - period < seconds {
            live.push((Duration::from_secs_f64(end - period), w));
        } else {
            let k = ((*end - period - seconds) / CATCHUP_S) as usize;
            if k < CATCHUPS {
                tail.resize_with(tail.len().max(k + 1), Vec::new);
                tail[k].push(w);
            }
        }
    }
    Inputs {
        rig,
        cals,
        fit_ns,
        antennas,
        backlog,
        live,
        tail,
        decode_ns_per_report: decode_ns as f64 / reports.max(1) as f64,
    }
}

/// What one measured pass produced.
struct Pass {
    queries: DueBook,
    frames: DueBook,
    catchup_s: Vec<f64>,
    catchup_failures: u64,
    ingest_rate: f64,
    setup_s: Vec<f64>,
    fresh_fix_s: Vec<f64>,
    boot_ns: u64,
    checked: serve::Checked,
    probe: Probe,
    refine_ns: u64,
    replay_ingest_ns_per_report: f64,
    reports_sent: u64,
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
    let timetable = query_timetable(QUERY_HZ, inp.antennas.len(), seconds);
    let before = Scrape::take(http)?;
    let stats_before = serve::get_json(http, "/stats")?;
    let mut probe = Probe::new(before.clone());

    let start = Instant::now() + Duration::from_millis(20);
    let (frames, queries) = std::thread::scope(|scope| {
        let live = &mut live;
        let ingest = scope.spawn(move || -> Result<DueBook, String> {
            let mut book = DueBook::default();
            let mut free = start;
            for (due, frame) in &inp.live {
                let due = start + *due;
                sleep_until(due);
                let sent = Instant::now();
                live.write_one(frame)?;
                let done = Instant::now();
                book.record(due, free, sent, Some(done));
                free = done;
            }
            Ok(book)
        });
        let mut book = DueBook::default();
        let mut free = start;
        for (k, slot) in timetable.iter().enumerate() {
            let due = start + slot.due;
            sleep_until(due);
            let sent = Instant::now();
            let antenna = inp.antennas[slot.antenna].id;
            let request = k as u64 + 1;
            let answer = tracer.span("poll:query", None, request, |root| {
                tracer.span("serve:fix", Some(root), request, |_| {
                    serve::fix(http, antenna)
                })
            });
            let done = Instant::now();
            book.record(due, free, sent, answer.as_ref().ok().map(|_| done));
            free = done;
            if tracer.on() {
                probe.after_query(http, tracer, request, k, done.duration_since(sent));
                free = Instant::now();
            }
        }
        let frames = ingest.join().expect("ingest thread panicked")?;
        Ok::<_, String>((frames, book))
    })?;

    let drained = live.settle()?;
    let stats_after = serve::get_json(http, "/stats")?;
    let enqueued = serve::stat(&stats_after, "reports_enqueued")
        - serve::stat(&stats_before, "reports_enqueued");
    let first = start + inp.live.first().map_or(Duration::ZERO, |(d, _)| *d);
    let ingest_rate = enqueued / drained.duration_since(first).as_secs_f64();
    let mut catchup_s = Vec::new();
    let mut finals = Vec::new();
    let mut catchup_failures = 0u64;
    for (k, frames) in inp.tail.iter().enumerate() {
        let written = tracer.span(
            "poll:catchup",
            None,
            k as u64 + 1,
            |_| -> Result<Instant, String> {
                let written = live.write(frames)?;
                live.settle()?;
                finals = fix_all(http, &inp.antennas, tracer, k as u64 + 1);
                catchup_failures += finals.iter().filter(|f| f.1.is_err()).count() as u64;
                Ok(written)
            },
        )?;
        catchup_s.push(written.elapsed().as_secs_f64());
    }
    let delta = Scrape::take(http)?.since(&before);

    for (_, f) in &inp.live {
        live.replay.feed(std::slice::from_ref(f));
    }
    for frames in &inp.tail {
        live.replay.feed(frames);
    }
    let refine_ns = layers::time_estimator(&mut live.replay, &inp.rig, &inp.antennas);
    let replay_ingest_ns_per_report =
        live.replay.ingest_ns as f64 / live.replay.reports.max(1) as f64;
    let checked = serve::check(&mut live, &inp.antennas, &finals);
    probe.finish(&delta, checked.stats.as_ref());
    let boot_ns = live.boot_ns;
    let reports_sent = live.reports_sent;
    live.shutdown();
    Ok(Pass {
        queries,
        frames,
        catchup_s,
        catchup_failures,
        ingest_rate,
        setup_s,
        fresh_fix_s,
        boot_ns,
        checked,
        probe,
        refine_ns,
        replay_ingest_ns_per_report,
        reports_sent,
    })
}

/// Run the workload.
pub fn run(args: &Args, work: &Path) -> Result<Outcome, Failure> {
    let seconds = args.seconds as f64;
    let inp = inputs(args.seed, seconds);
    let topo = Topology {
        shards: 2,
        queue_capacity: 4096,
        window: WindowConfig::last_seconds(inp.rig.period_s()),
        store_dir: serve::store_dir(work, "serve_poll"),
    };
    serve::fill_store(&inp.rig, &inp.cals, &topo).map_err(Failure::Setup)?;
    let result = run_passes(args, work, &inp, &topo, seconds);
    let _ = std::fs::remove_dir_all(&topo.store_dir);
    result
}

fn run_passes(
    args: &Args,
    work: &Path,
    inp: &Inputs,
    topo: &Topology,
    seconds: f64,
) -> Result<Outcome, Failure> {
    let plain = pass(inp, topo, seconds, &Tracer::new(false)).map_err(Failure::Setup)?;
    let mut out = Outcome::default();
    verdict(&plain, &mut out)?;
    let latency_ms: Vec<f64> = plain.queries.latency_s.iter().map(|s| s * 1e3).collect();
    let p50 = median(&latency_ms).unwrap_or(f64::NAN);
    let p95 = tail_percentile(&latency_ms, 95.0).map_err(Failure::Setup)?;
    if !args.trace {
        out.set("fix_p50_ms", p50);
        out.set("fix_p95_ms", p95);
        out.set("catchup_s", median(&plain.catchup_s).unwrap_or(f64::NAN));
        out.set("ingest_reports_per_s", plain.ingest_rate);
        out.set("locate_s", median(&plain.fresh_fix_s).unwrap_or(f64::NAN));
        out.set("err_cm", plain.checked.err_cm);
        out.set("setup_s", median(&plain.setup_s).unwrap_or(f64::NAN));
        out.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(format!(
            "queries: {} on time-table, {} failed; own lateness max {:.2} ms; blocked by earlier queries p50 {:.1} ms max {:.1} ms",
            plain.queries.len(),
            plain.queries.failures(),
            plain.queries.max_own_lateness_s() * 1e3,
            nearest_rank(&plain.queries.blocked_s, 50.0).unwrap_or(0.0) * 1e3,
            plain.queries.blocked_s.iter().copied().fold(0.0, f64::max) * 1e3,
        ));
        out.notes.push(format!(
            "frames: {} written open-loop, own lateness max {:.2} ms; set-ups {:?} s",
            plain.frames.len(),
            plain.frames.max_own_lateness_s() * 1e3,
            plain
                .setup_s
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ));
        out.notes.push(format!(
            "catch-ups {:?} ms; fresh fixes {:?} ms",
            plain
                .catchup_s
                .iter()
                .map(|s| (s * 1e4).round() / 10.0)
                .collect::<Vec<_>>(),
            plain
                .fresh_fix_s
                .iter()
                .map(|s| (s * 1e4).round() / 10.0)
                .collect::<Vec<_>>()
        ));
        return Ok(out);
    }
    let tracer = Tracer::new(true);
    let traced = pass(inp, topo, seconds, &tracer).map_err(Failure::Setup)?;
    verdict(&traced, &mut out)?;
    let traced_ms: Vec<f64> = traced.queries.latency_s.iter().map(|s| s * 1e3).collect();
    let traced_p50 = median(&traced_ms).unwrap_or(f64::NAN);
    let spans = tracer.spans();
    let mut l = traced.probe.layer_metrics();
    l.frame_decode_ns_per_report = inp.decode_ns_per_report;
    l.session_ingest_ns_per_report = traced.replay_ingest_ns_per_report;
    l.refine_ms = traced.refine_ns as f64 * 1e-6;
    l.calib_fit_ms = inp.fit_ns.iter().sum::<u64>() as f64 * 1e-6;
    l.store_boot_ms = traced.boot_ns as f64 * 1e-6;
    l.spans = spans.len() as f64;
    l.e2e_ms = traced_p50;
    l.overhead_ms = traced_p50 - p50;
    l.unattributed_ms = traced_p50 - (l.fix_ms_p50 + l.http_rtt_ms + l.queue_wait_ms_p50);
    l.emit(&mut out);
    out.notes.push(format!(
        "fix_p50_ms {traced_p50:.3} (traced) = session.fix_ms_p50 {:.3} + serve.http_rtt_ms {:.3} + serve.queue_wait_ms_p50 {:.3} + unattributed {:.3}",
        l.fix_ms_p50, l.http_rtt_ms, l.queue_wait_ms_p50, l.unattributed_ms
    ));
    out.notes.push(format!(
        "tracing overhead: fix_p50_ms {traced_p50:.3} traced - {p50:.3} untraced = {:+.3} ms",
        l.overhead_ms
    ));
    let waited: f64 = traced
        .queries
        .latency_s
        .iter()
        .zip(&traced.queries.blocked_s)
        .zip(&traced.queries.own_lateness_s)
        .filter(|((lat, _), _)| lat.is_finite())
        .map(|((_, b), o)| (b + o) * 1e3)
        .sum();
    let total_ms: f64 = traced_ms.iter().filter(|v| v.is_finite()).sum();
    let mut rows = vec![layers::Row {
        layer: "load generator (due -> send)",
        ms: waited,
        count: traced.queries.len() as f64,
        failures: 0.0,
        moves: "fix_p95_ms",
    }];
    rows.extend(layers::fix_rows(&traced.probe, "fix_p50_ms, fix_p95_ms"));
    out.notes.extend(layers::table(
        "summed fix latency from due time",
        &rows,
        total_ms,
        true,
    ));
    let ingest_ms = seconds * 1e3;
    out.notes.extend(layers::table(
        "the ingest stream (busy time)",
        &layers::ingest_rows(&traced.probe),
        ingest_ms,
        false,
    ));
    out.notes.extend(layers::span_lines(&spans));
    if let Some(path) = layers::write_spans(work, &spans, "serve_poll", args.seed) {
        out.notes.push(format!("spans written to {path}"));
    }
    Ok(out)
}

/// Fold a pass's correctness and load verdicts into the outcome.
fn verdict(p: &Pass, out: &mut Outcome) -> Result<(), Failure> {
    let mut v = p.checked.violations.clone();
    if let Err(e) = p.queries.check_lateness("query") {
        v.push(e);
    }
    if let Err(e) = p.frames.check_lateness("ingest") {
        v.push(e);
    }
    let fixes = (p.queries.len() + 2 * p.catchup_s.len()) as u64;
    let fix_failures = p.queries.failures() as u64 + p.catchup_failures;
    out.attempted += fixes + p.reports_sent;
    out.failed += fix_failures + p.checked.shed;
    out.notes.push(layers::fail_fracs(
        fix_failures,
        fixes,
        p.checked.shed,
        p.reports_sent,
    ));
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

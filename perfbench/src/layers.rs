//! The traced run's per-layer figures and the layer table.
//!
//! Layers are named after this repository's modules. Each figure comes
//! from outside the program: a span around a public call made from this
//! crate, a counter the program already exposes (`/stats`, `/metrics`,
//! `SessionStats`, `cache_stats`, `store_stats`), or a `StageTime` event
//! delivered through the public `set_observer`.

use crate::report::Outcome;
use crate::rig::{Rig, EPCS};
use crate::serve::{self, Antenna, Replay, Scrape};
use crate::stats::nearest_rank;
use crate::trace::{self, Span, Tracer};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tagspin_core::estimator::backend_impl;
use tagspin_serve::http_get;
use xtask::json::Value;

/// A traced serve pass probes the serve plane after every this many
/// queries (and continuously during a burst).
const PROBE_EVERY: usize = 4;

/// Every per-layer metric, zero where a workload bypasses the layer.
#[derive(Debug, Clone, Default)]
pub struct LayerMetrics {
    pub frame_decode_ns_per_report: f64,
    pub frame_errors: f64,
    pub queue_wait_ms_p50: f64,
    pub queue_wait_ms_p95: f64,
    pub queue_depth_max: f64,
    pub shed: f64,
    pub http_rtt_ms: f64,
    pub session_ingest_ns_per_report: f64,
    pub rejected: [f64; 4],
    pub accepted_frac: f64,
    pub evicted: f64,
    pub fix_ms_p50: f64,
    pub fix_ms_p95: f64,
    pub recompute_ms: f64,
    pub applied: f64,
    pub downdated: f64,
    pub reanchors: f64,
    pub fallbacks: f64,
    pub coarse_ms: f64,
    pub fine_ms: f64,
    pub peak_3d_ms: f64,
    pub table_hits: f64,
    pub table_misses: f64,
    pub refine_ms: f64,
    pub calib_fit_ms: f64,
    pub store_hits: f64,
    pub store_invalid: f64,
    pub store_boot_ms: f64,
    pub spans: f64,
    pub e2e_ms: f64,
    pub overhead_ms: f64,
    pub unattributed_ms: f64,
}

impl LayerMetrics {
    /// Set every per-layer metric on `out`.
    pub fn emit(&self, out: &mut Outcome) {
        let ops = self.applied + self.downdated;
        let values = [
            (
                "frame.decode_ns_per_report",
                self.frame_decode_ns_per_report,
            ),
            ("frame.errors", self.frame_errors),
            ("serve.queue_wait_ms_p50", self.queue_wait_ms_p50),
            ("serve.queue_wait_ms_p95", self.queue_wait_ms_p95),
            ("serve.queue_depth_max", self.queue_depth_max),
            ("serve.shed", self.shed),
            ("serve.http_rtt_ms", self.http_rtt_ms),
            (
                "session.ingest_ns_per_report",
                self.session_ingest_ns_per_report,
            ),
            ("session.rejected.unknown_tag", self.rejected[0]),
            ("session.rejected.null_epc", self.rejected[1]),
            ("session.rejected.out_of_order", self.rejected[2]),
            ("session.rejected.duplicate", self.rejected[3]),
            ("session.accepted_frac", self.accepted_frac),
            ("session.evicted", self.evicted),
            ("session.fix_ms_p50", self.fix_ms_p50),
            ("session.fix_ms_p95", self.fix_ms_p95),
            ("session.recompute_ms", self.recompute_ms),
            ("incremental.applied", self.applied),
            ("incremental.downdated", self.downdated),
            ("incremental.reanchors", self.reanchors),
            ("incremental.fallbacks", self.fallbacks),
            (
                "incremental.ops_per_reanchor",
                if self.reanchors > 0.0 {
                    ops / self.reanchors
                } else {
                    ops
                },
            ),
            ("engine.coarse_ms", self.coarse_ms),
            ("engine.fine_ms", self.fine_ms),
            ("engine.peak_3d_ms", self.peak_3d_ms),
            ("engine.table_hits", self.table_hits),
            ("engine.table_misses", self.table_misses),
            ("estimator.refine_ms", self.refine_ms),
            ("calib.fit_ms", self.calib_fit_ms),
            ("store.hits", self.store_hits),
            ("store.invalid", self.store_invalid),
            ("store.boot_ms", self.store_boot_ms),
            ("trace.spans", self.spans),
            ("trace.e2e_ms", self.e2e_ms),
            ("trace.overhead_ms", self.overhead_ms),
            ("trace.unattributed_ms", self.unattributed_ms),
        ];
        for (name, value) in values {
            out.set(name, value);
        }
    }

    /// Fill the session, incremental and engine figures from a `/metrics`
    /// delta over the pass.
    pub fn fill_from_scrape(&mut self, d: &Scrape) {
        let rejected = [
            "ingest.rejected.unknown_tag",
            "ingest.rejected.null_epc",
            "ingest.rejected.out_of_order",
            "ingest.rejected.duplicate",
        ]
        .map(|n| d.counter(n));
        let all_rejects: f64 = d
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("ingest.rejected."))
            .map(|(_, v)| v)
            .sum();
        let accepted = d.counter("ingest.accepted");
        self.rejected = rejected;
        self.accepted_frac = accepted / (accepted + all_rejects).max(1.0);
        self.evicted = d.counter("session.evicted");
        self.recompute_ms =
            d.sum("stage.recompute_ns") / d.count("stage.recompute_ns").max(1.0) * 1e-6;
        self.applied = d.counter("session.incremental.applied");
        self.downdated = d.counter("session.incremental.downdated");
        self.reanchors = d.counter("session.incremental.reanchors");
        self.fallbacks = d.counter("session.incremental.fallbacks");
        self.coarse_ms = d.sum("stage.coarse_ns") * 1e-6;
        self.fine_ms = d.sum("stage.fine_ns") * 1e-6;
        self.table_hits = d.counter("engine.cache.hit");
        self.table_misses = d.counter("engine.cache.miss");
    }
}

/// Serve-plane samples taken by a traced pass between its own requests.
#[derive(Debug, Clone)]
pub struct Probe {
    last: Scrape,
    /// Per fix query: the shard's fix time, from the `stage.fix_ns` delta
    /// between the scrapes around it, ms.
    pub fix_ms: Vec<f64>,
    /// Per fix query: HTTP round trip minus the shard's fix time, ms.
    pub plane_ms: Vec<f64>,
    /// `/healthz` round trips, ms.
    pub http_rtt_ms: Vec<f64>,
    /// `/drain` barrier round trips, ms.
    pub drain_ms: Vec<f64>,
    /// Largest `queued_batches` seen on `/stats`.
    pub depth_max: f64,
    /// Probe requests that failed.
    pub failures: u64,
    /// The pass's `/metrics` delta.
    pub delta: Scrape,
    /// The final `/stats` body.
    pub stats: Option<Value>,
}

impl Probe {
    /// A probe whose first fix delta is taken against `baseline`.
    pub fn new(baseline: Scrape) -> Probe {
        Probe {
            last: baseline,
            fix_ms: Vec::new(),
            plane_ms: Vec::new(),
            http_rtt_ms: Vec::new(),
            drain_ms: Vec::new(),
            depth_max: 0.0,
            failures: 0,
            delta: Scrape::default(),
            stats: None,
        }
    }

    /// After fix query number `k` (answered in `rtt`): scrape the shard's
    /// fix time, and every [`PROBE_EVERY`] queries sample the serve plane.
    pub fn after_query(
        &mut self,
        http: SocketAddr,
        tracer: &Tracer,
        request: u64,
        k: usize,
        rtt: Duration,
    ) {
        match tracer.span("trace:scrape", None, request, |_| Scrape::take(http)) {
            Ok(now) => {
                let fix_ms = now.since(&self.last).sum("stage.fix_ns") * 1e-6;
                self.fix_ms.push(fix_ms);
                self.plane_ms.push(rtt.as_secs_f64() * 1e3 - fix_ms);
                self.last = now;
            }
            Err(_) => self.failures += 1,
        }
        if k.is_multiple_of(PROBE_EVERY) {
            self.sample(http, tracer, request);
        }
    }

    /// One serve-plane sample: `/healthz`, `/stats` and the `/drain`
    /// barrier, each timed.
    pub fn sample(&mut self, http: SocketAddr, tracer: &Tracer, request: u64) {
        let timed = |name: &'static str, path: &str| {
            let t0 = Instant::now();
            let r = tracer.span(name, None, request, |_| serve::get_json(http, path));
            (r, t0.elapsed().as_secs_f64() * 1e3)
        };
        let t0 = Instant::now();
        match tracer.span("serve:healthz", None, request, |_| {
            http_get(http, "/healthz")
        }) {
            Ok((200, _)) => self.http_rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            _ => self.failures += 1,
        }
        match timed("serve:stats", "/stats") {
            (Ok(doc), _) => {
                self.depth_max = self.depth_max.max(serve::stat(&doc, "queued_batches"))
            }
            (Err(_), _) => self.failures += 1,
        }
        match timed("serve:drain", "/drain") {
            (Ok(_), ms) => self.drain_ms.push(ms),
            (Err(_), _) => self.failures += 1,
        }
    }

    /// Record the pass's `/metrics` delta and final `/stats`.
    pub fn finish(&mut self, delta: &Scrape, stats: Option<&Value>) {
        self.delta = delta.clone();
        self.stats = stats.cloned();
    }

    /// The serve, session, incremental and engine figures of the pass.
    pub fn layer_metrics(&self) -> LayerMetrics {
        let mut l = LayerMetrics::default();
        l.fill_from_scrape(&self.delta);
        let rtt = nearest_rank(&self.http_rtt_ms, 50.0).unwrap_or(0.0);
        let waits: Vec<f64> = self.drain_ms.iter().map(|d| (d - rtt).max(0.0)).collect();
        l.http_rtt_ms = rtt;
        l.queue_wait_ms_p50 = nearest_rank(&waits, 50.0).unwrap_or(0.0);
        l.queue_wait_ms_p95 = nearest_rank(&waits, 95.0).unwrap_or(0.0);
        l.queue_depth_max = self.depth_max;
        if !self.fix_ms.is_empty() {
            l.fix_ms_p50 = nearest_rank(&self.fix_ms, 50.0).unwrap_or(0.0);
            l.fix_ms_p95 = nearest_rank(&self.fix_ms, 95.0).unwrap_or(0.0);
        }
        if let Some(s) = &self.stats {
            l.frame_errors = serve::stat(s, "frame_errors");
            l.shed = serve::stat(s, "reports_shed");
            l.store_hits = serve::stat(s, "store_table_hits");
            l.store_invalid = serve::stat(s, "store_invalid");
        }
        l
    }
}

/// Time the configured estimator backend resolving each antenna's final
/// bearings, driven directly through `Estimator::estimate_2d`.
/// Returns the summed nanoseconds.
pub fn time_estimator(replay: &mut Replay, rig: &Rig, antennas: &[Antenna]) -> u64 {
    let estimator = backend_impl(rig.config.estimator.backend);
    let mut nanos = 0u64;
    for a in antennas {
        let Some(session) = replay.manager().session_mut(a.id) else {
            continue;
        };
        let bearings: Vec<_> = EPCS
            .iter()
            .filter_map(|&epc| session.tag_bearing_2d(epc).ok())
            .collect();
        let t0 = Instant::now();
        let _ = std::hint::black_box(estimator.estimate_2d(&bearings, &[], &rig.config));
        nanos += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    nanos
}

/// The fix path's rows from a traced serve pass: the serve plane (HTTP,
/// shard queue, channel hops) and the shard-side split of `stage.fix_ns`.
pub fn fix_rows(probe: &Probe, moves: &'static str) -> Vec<Row> {
    let d = &probe.delta;
    let fix = d.sum("stage.fix_ns") * 1e-6;
    let recompute = d.sum("stage.recompute_ns") * 1e-6;
    let engine = (d.sum("stage.coarse_ns") + d.sum("stage.fine_ns")) * 1e-6;
    let refine = d.sum("stage.refine_ns") * 1e-6;
    vec![
        Row {
            layer: "serve (http, shard queue)",
            ms: probe.plane_ms.iter().sum(),
            count: probe.plane_ms.len() as f64,
            failures: probe.failures as f64,
            moves,
        },
        Row {
            layer: "core::session (fix)",
            ms: fix - recompute - refine,
            count: d.count("stage.fix_ns"),
            failures: d.counter("fix.attempts") - d.counter("fix.ok"),
            moves,
        },
        Row {
            layer: "core::spectrum::incremental",
            ms: recompute - engine,
            count: d.counter("session.incremental.applied")
                + d.counter("session.incremental.downdated"),
            failures: d.counter("session.incremental.fallbacks"),
            moves,
        },
        Row {
            layer: "core::spectrum::engine",
            ms: engine,
            count: d.counter("engine.peak_searches"),
            failures: 0.0,
            moves,
        },
        Row {
            layer: "core::estimator",
            ms: refine,
            count: d.counter("fix.ok"),
            failures: 0.0,
            moves,
        },
    ]
}

/// The ingest path's rows from a traced serve pass. These layers run on
/// the reader and shard threads, beside the fix path, so their busy time
/// is shown against the pass's ingest wall time.
pub fn ingest_rows(probe: &Probe) -> Vec<Row> {
    let d = &probe.delta;
    let rejects: f64 = d
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("ingest.rejected."))
        .map(|(_, v)| v)
        .sum();
    vec![
        Row {
            layer: "epc::frame (decode)",
            ms: d.sum("stage.decode_ns") * 1e-6,
            count: d.count("stage.decode_ns"),
            failures: d.counter("serve.frame_errors"),
            moves: "ingest_reports_per_s",
        },
        Row {
            layer: "serve (route)",
            ms: d.sum("stage.route_ns") * 1e-6,
            count: d.count("stage.route_ns"),
            failures: d.counter("serve.reports.shed"),
            moves: "ingest_reports_per_s, catchup_s",
        },
        Row {
            layer: "core::session (ingest)",
            ms: d.sum("stage.ingest_ns") * 1e-6,
            count: d.counter("ingest.accepted") + rejects,
            failures: rejects,
            moves: "ingest_reports_per_s",
        },
    ]
}

/// One row of the layer table.
pub struct Row {
    /// Module name.
    pub layer: &'static str,
    /// Self time inside the traced pass, ms.
    pub ms: f64,
    /// Operations the layer did.
    pub count: f64,
    /// Operations that failed or were refused.
    pub failures: f64,
    /// The end-to-end metric this layer's time should move.
    pub moves: &'static str,
}

/// The layer table: self time, counts, failures, and each layer's share
/// of `total_ms` (the traced pass's end-to-end time), with the
/// unattributed remainder last when the rows run one after another
/// (`sequential`); rows that run on parallel threads have no remainder.
pub fn table(title: &str, rows: &[Row], total_ms: f64, sequential: bool) -> Vec<String> {
    let mut out = vec![
        format!("layer split of {title} ({total_ms:.1} ms traced):"),
        format!(
            "  {:<30} {:>12} {:>12} {:>9} {:>7}  moves",
            "layer", "self_ms", "count", "failures", "share"
        ),
    ];
    let mut attributed = 0.0;
    for r in rows {
        attributed += r.ms;
        out.push(format!(
            "  {:<30} {:>12.3} {:>12.0} {:>9.0} {:>6.1}%  {}",
            r.layer,
            r.ms,
            r.count,
            r.failures,
            100.0 * r.ms / total_ms.max(1e-9),
            r.moves
        ));
    }
    if !sequential {
        return out;
    }
    let rest = total_ms - attributed;
    out.push(format!(
        "  {:<30} {:>12.3} {:>12} {:>9} {:>6.1}%",
        "unattributed",
        rest,
        "",
        "",
        100.0 * rest / total_ms.max(1e-9)
    ));
    out
}

/// Per-span-name totals as table lines (self time excludes children).
pub fn span_lines(spans: &[Span]) -> Vec<String> {
    let mut out = vec![format!("spans ({} recorded):", spans.len())];
    for (name, t) in trace::totals(spans) {
        out.push(format!(
            "  {name:<30} count {:>7}  total {:>11.3} ms  self {:>11.3} ms",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        ));
    }
    out
}

/// The fix-failure and shed fractions, which are carried in the result
/// line's `failed`/`attempted` rather than as metrics (both are zero on a
/// healthy run).
pub fn fail_fracs(fix_failures: u64, fixes: u64, shed: u64, reports: u64) -> String {
    format!(
        "fix_fail_frac = {:.4} ({fix_failures} of {fixes} fix attempts); shed_frac = {:.4} ({shed} of {reports} reports)",
        fix_failures as f64 / fixes.max(1) as f64,
        shed as f64 / reports.max(1) as f64
    )
}

/// Write the spans of a traced run under the work directory.
pub fn write_spans(
    work: &std::path::Path,
    spans: &[Span],
    workload: &str,
    seed: u64,
) -> Option<String> {
    let path = work.join(format!("spans-{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, trace::to_json_lines(spans)).ok()?;
    Some(path.display().to_string())
}

//! The lock-light metrics registry and the observer that feeds it.
//!
//! This module owns every atomic in the observability layer: counter,
//! gauge and histogram cells, the [`MetricsRegistry`] that names them,
//! and [`MetricsObserver`], which folds the [`Event`] stream into a
//! registry. All orderings here are `Relaxed` by design — metrics are
//! monotonic tallies read via snapshot, never used for synchronization —
//! and `cargo xtask lint` rule L7 blesses this file as the one place
//! atomics may live without per-site justification comments. Metric
//! names come from [`super::names`]; registering through a raw string
//! literal here is an L8 finding.

use super::names;
use super::{Event, Observer, Stage};
use crate::session::quarantine::RejectReason;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The schema tag of the metrics JSON export.
pub const METRICS_SCHEMA: &str = "tagspin-metrics/v1";

/// A monotonically increasing counter handle. Cloning shares the cell;
/// increments are a single relaxed atomic add (no lock).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle storing an `f64` (as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the level.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Lock-free `+=` on an `f64` stored as bits, via a CAS loop.
fn add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A fixed-bucket histogram: finite, strictly increasing upper bounds
/// plus an implicit overflow bucket, so the bucket partition is total and
/// non-overlapping for every float (NaN lands in overflow).
#[derive(Debug)]
pub struct HistogramCell {
    bounds: Vec<f64>,
    /// One count per bound, plus the trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of the *finite* recorded values, as f64 bits.
    sum_bits: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: Vec<f64>) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramCell {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }

    /// Index of the bucket `v` falls in: the first bound `>= v`, else the
    /// overflow bucket. Total by construction (NaN compares false
    /// everywhere and overflows).
    fn bucket_index(&self, v: f64) -> usize {
        self.bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len())
    }
}

/// A histogram handle. Cloning shares the cell; recording is lock-free.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCell>);

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: f64) {
        let cell = &self.0;
        cell.buckets[cell.bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            add_f64(&cell.sum_bits, v);
        }
    }

    /// The bucket upper bounds (sanitized: finite, strictly increasing).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds; the implicit overflow bucket follows.
    pub bounds: Vec<f64>,
    /// Per-bucket counts, one per bound plus the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of the finite observed values.
    pub sum: f64,
}

/// A point-in-time copy of the whole registry, ordered by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Append one JSON string literal (metric names are plain ASCII, but
/// escape the structural characters anyway).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append one JSON number. Non-finite values (never produced by the
/// registry, but defensively handled) serialize as `null`.
fn push_json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

impl MetricsSnapshot {
    /// Serialize as `tagspin-metrics/v1` JSON: the flat hand-rolled
    /// dialect the bench artifacts use, parseable by `xtask`'s
    /// dependency-free reader.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        push_json_str(&mut out, METRICS_SCHEMA);
        out.push_str(",\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, name);
            out.push_str(": ");
            push_json_num(&mut out, *v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_json_str(&mut out, name);
            out.push_str(": {\"bounds\": [");
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_json_num(&mut out, *b);
            }
            out.push_str("], \"buckets\": [");
            for (j, c) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "], \"count\": {}, \"sum\": ", h.count);
            push_json_num(&mut out, h.sum);
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// A lock-light metrics registry.
///
/// Registration (name → handle) takes a mutex; the returned handles then
/// update plain shared atomics, so the hot path never locks. Histogram
/// bounds are sanitized at registration: non-finite bounds are dropped and
/// the rest sorted and deduplicated, which — with the implicit overflow
/// bucket — makes the bucket partition total and non-overlapping.
///
/// [`MetricsRegistry::snapshot_and_reset`] swaps every counter and
/// histogram cell to zero atomically, cell by cell: each increment lands
/// in exactly one snapshot even under contention (gauges are levels and
/// are read without reset).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits()))))
            .clone()
    }

    /// The histogram named `name`. On first use the bucket bounds are
    /// sanitized (finite, sorted, deduplicated) and registered; later
    /// calls return the existing histogram and ignore `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert_with(|| {
                let mut clean: Vec<f64> =
                    bounds.iter().copied().filter(|b| b.is_finite()).collect();
                clean.sort_by(f64::total_cmp);
                clean.dedup_by(|a, b| a == b); // lint:allow(float-eq) exact duplicate bounds after total-order sort
                Histogram(Arc::new(HistogramCell::new(clean)))
            })
            .clone()
    }

    fn snapshot_inner(&self, reset: bool) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, c) in self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let v = if reset {
                c.0.swap(0, Ordering::Relaxed)
            } else {
                c.0.load(Ordering::Relaxed)
            };
            snap.counters.insert(name.clone(), v);
        }
        for (name, g) in self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            let cell = &h.0;
            let buckets: Vec<u64> = cell
                .buckets
                .iter()
                .map(|b| {
                    if reset {
                        b.swap(0, Ordering::Relaxed)
                    } else {
                        b.load(Ordering::Relaxed)
                    }
                })
                .collect();
            let count = if reset {
                cell.count.swap(0, Ordering::Relaxed)
            } else {
                cell.count.load(Ordering::Relaxed)
            };
            let sum_bits = if reset {
                cell.sum_bits.swap(0.0_f64.to_bits(), Ordering::Relaxed)
            } else {
                cell.sum_bits.load(Ordering::Relaxed)
            };
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    bounds: cell.bounds.clone(),
                    buckets,
                    count,
                    sum: f64::from_bits(sum_bits),
                },
            );
        }
        snap
    }

    /// A copy of every metric, without resetting anything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_inner(false)
    }

    /// Snapshot-and-reset: counters and histograms are atomically swapped
    /// to zero cell by cell, so no increment is ever lost — each lands in
    /// exactly one snapshot. Gauges are levels and are read unreset.
    pub fn snapshot_and_reset(&self) -> MetricsSnapshot {
        self.snapshot_inner(true)
    }

    /// The non-resetting snapshot as `tagspin-metrics/v1` JSON.
    pub fn export_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Nanosecond histogram bounds for the stage timers (1 µs … 100 ms).
const NS_BOUNDS: [f64; 6] = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8];

/// Bounds for the peak-to-sidelobe detection margin (profile power units).
const MARGIN_BOUNDS: [f64; 6] = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0];

/// Bounds for Gauss–Newton iteration counts per ML refinement.
const ITERATION_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// An observer that folds every [`Event`] into a shared
/// [`MetricsRegistry`], one metric per decision point (the name inventory
/// is [`super::names`], documented in `docs/OBSERVABILITY.md`). All
/// handles are resolved at construction, so observing stays lock-free.
///
/// The [`Observer::on_batch`] override tallies counter deltas in plain
/// locals and flushes each touched counter with a single atomic add, so
/// batch emitters pay one contended add per counter per batch instead of
/// one per event.
#[derive(Debug)]
pub struct MetricsObserver {
    registry: Arc<MetricsRegistry>,
    cache_hit: Counter,
    cache_miss: Counter,
    peak_searches: Counter,
    coarse_cells: Counter,
    fine_cells: Counter,
    peak_margin: Histogram,
    accepted: Counter,
    rej_unknown: Counter,
    rej_ooo: Counter,
    rej_dup: Counter,
    rej_nan_phase: Counter,
    rej_range_phase: Counter,
    rej_rssi: Counter,
    rej_null_epc: Counter,
    rej_overload: Counter,
    evicted: Counter,
    last_buffered: Gauge,
    recompute_fresh: Counter,
    recompute_cached: Counter,
    gate_withheld: Counter,
    incr_applied: Counter,
    incr_downdated: Counter,
    incr_reanchors: Counter,
    incr_fallbacks: Counter,
    fix_attempts: Counter,
    fix_ok: Counter,
    fix_skipped: Counter,
    est_spectrum: Counter,
    est_ml: Counter,
    est_hybrid: Counter,
    est_converged: Counter,
    est_rejected: Counter,
    est_iterations: Histogram,
    stage_ns: [(Stage, Histogram); 8],
}

/// Per-batch counter deltas for [`MetricsObserver::on_batch`], folded in
/// plain locals and flushed once per touched counter.
#[derive(Debug, Default)]
struct Tally {
    cache_hit: u64,
    cache_miss: u64,
    peak_searches: u64,
    coarse_cells: u64,
    fine_cells: u64,
    accepted: u64,
    rej_unknown: u64,
    rej_ooo: u64,
    rej_dup: u64,
    rej_nan_phase: u64,
    rej_range_phase: u64,
    rej_rssi: u64,
    rej_null_epc: u64,
    rej_overload: u64,
    evicted: u64,
    last_buffered: Option<f64>,
    recompute_fresh: u64,
    recompute_cached: u64,
    gate_withheld: u64,
    incr_applied: u64,
    incr_downdated: u64,
    incr_reanchors: u64,
    incr_fallbacks: u64,
    fix_attempts: u64,
    fix_ok: u64,
    fix_skipped: u64,
    est_spectrum: u64,
    est_ml: u64,
    est_hybrid: u64,
    est_converged: u64,
    est_rejected: u64,
}

impl MetricsObserver {
    /// An observer folding into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let r = &registry;
        let stage_hist = |s: Stage| r.histogram(names::stage_ns_name(s), &NS_BOUNDS);
        MetricsObserver {
            cache_hit: r.counter(names::ENGINE_CACHE_HIT),
            cache_miss: r.counter(names::ENGINE_CACHE_MISS),
            peak_searches: r.counter(names::ENGINE_PEAK_SEARCHES),
            coarse_cells: r.counter(names::ENGINE_COARSE_CELLS),
            fine_cells: r.counter(names::ENGINE_FINE_CELLS),
            peak_margin: r.histogram(names::ENGINE_PEAK_MARGIN, &MARGIN_BOUNDS),
            accepted: r.counter(names::INGEST_ACCEPTED),
            rej_unknown: r.counter(names::INGEST_REJECTED_UNKNOWN_TAG),
            rej_ooo: r.counter(names::INGEST_REJECTED_OUT_OF_ORDER),
            rej_dup: r.counter(names::INGEST_REJECTED_DUPLICATE),
            rej_nan_phase: r.counter(names::INGEST_REJECTED_NON_FINITE_PHASE),
            rej_range_phase: r.counter(names::INGEST_REJECTED_PHASE_OUT_OF_RANGE),
            rej_rssi: r.counter(names::INGEST_REJECTED_BAD_RSSI),
            rej_null_epc: r.counter(names::INGEST_REJECTED_NULL_EPC),
            rej_overload: r.counter(names::INGEST_REJECTED_OVERLOAD),
            evicted: r.counter(names::SESSION_EVICTED),
            last_buffered: r.gauge(names::INGEST_LAST_BUFFERED),
            recompute_fresh: r.counter(names::SESSION_RECOMPUTE_FRESH),
            recompute_cached: r.counter(names::SESSION_RECOMPUTE_CACHED),
            gate_withheld: r.counter(names::SESSION_GATE_WITHHELD),
            incr_applied: r.counter(names::SESSION_INCREMENTAL_APPLIED),
            incr_downdated: r.counter(names::SESSION_INCREMENTAL_DOWNDATED),
            incr_reanchors: r.counter(names::SESSION_INCREMENTAL_REANCHORS),
            incr_fallbacks: r.counter(names::SESSION_INCREMENTAL_FALLBACKS),
            fix_attempts: r.counter(names::FIX_ATTEMPTS),
            fix_ok: r.counter(names::FIX_OK),
            fix_skipped: r.counter(names::FIX_SKIPPED_TAGS),
            est_spectrum: r.counter(names::ESTIMATOR_FIX_SPECTRUM),
            est_ml: r.counter(names::ESTIMATOR_FIX_ML),
            est_hybrid: r.counter(names::ESTIMATOR_FIX_HYBRID),
            est_converged: r.counter(names::ESTIMATOR_ML_CONVERGED),
            est_rejected: r.counter(names::ESTIMATOR_ML_REJECTED),
            est_iterations: r.histogram(names::ESTIMATOR_ML_ITERATIONS, &ITERATION_BOUNDS),
            stage_ns: [
                (Stage::Ingest, stage_hist(Stage::Ingest)),
                (Stage::Coarse, stage_hist(Stage::Coarse)),
                (Stage::Fine, stage_hist(Stage::Fine)),
                (Stage::Recompute, stage_hist(Stage::Recompute)),
                (Stage::Fix, stage_hist(Stage::Fix)),
                (Stage::Refine, stage_hist(Stage::Refine)),
                (Stage::Decode, stage_hist(Stage::Decode)),
                (Stage::Route, stage_hist(Stage::Route)),
            ],
            registry,
        }
    }

    /// The registry this observer folds into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Fold one event into a local tally (histograms record directly —
    /// they are per-event observations, not summable deltas).
    fn fold(&self, event: &Event, t: &mut Tally) {
        match *event {
            Event::CacheLookup { hit } => {
                if hit {
                    t.cache_hit += 1;
                } else {
                    t.cache_miss += 1;
                }
            }
            Event::PeakSearch {
                coarse_cells,
                fine_cells,
                peak,
                sidelobe,
                ..
            } => {
                t.peak_searches += 1;
                t.coarse_cells += coarse_cells as u64;
                t.fine_cells += fine_cells as u64;
                if let Some(side) = sidelobe {
                    self.peak_margin.record(peak - side);
                }
            }
            Event::StageTime { stage, nanos } => {
                if let Some((_, h)) = self.stage_ns.iter().find(|(s, _)| *s == stage) {
                    // lint:allow(lossy-cast) nanoseconds < 2^53 for any realistic span
                    h.record(nanos as f64);
                }
            }
            Event::IngestAccepted { buffered, .. } => {
                t.accepted += 1;
                // lint:allow(lossy-cast) buffer depths are < 2^53
                t.last_buffered = Some(buffered as f64);
            }
            Event::IngestRejected { reason, .. } => match reason {
                RejectReason::UnknownTag => t.rej_unknown += 1,
                RejectReason::OutOfOrder => t.rej_ooo += 1,
                RejectReason::Duplicate => t.rej_dup += 1,
                RejectReason::Malformed(defect) => {
                    use tagspin_epc::ReportDefect;
                    match defect {
                        ReportDefect::NonFinitePhase => t.rej_nan_phase += 1,
                        ReportDefect::PhaseOutOfRange => t.rej_range_phase += 1,
                        ReportDefect::NonFiniteRssi | ReportDefect::RssiOutOfRange => {
                            t.rej_rssi += 1;
                        }
                        ReportDefect::NullEpc => t.rej_null_epc += 1,
                    }
                }
                RejectReason::Overload => t.rej_overload += 1,
            },
            Event::Evicted { count, .. } => t.evicted += count,
            Event::BearingServed { recomputed, .. } => {
                if recomputed {
                    t.recompute_fresh += 1;
                } else {
                    t.recompute_cached += 1;
                }
            }
            Event::GateWithheld { .. } => t.gate_withheld += 1,
            Event::IncrementalSync {
                applied,
                downdated,
                reanchored,
                fallback,
                ..
            } => {
                t.incr_applied += applied;
                t.incr_downdated += downdated;
                if reanchored {
                    t.incr_reanchors += 1;
                }
                if fallback {
                    t.incr_fallbacks += 1;
                }
            }
            Event::FixAttempt { skipped, ok, .. } => {
                t.fix_attempts += 1;
                if ok {
                    t.fix_ok += 1;
                }
                t.fix_skipped += skipped as u64;
            }
            Event::EstimatorFix {
                backend,
                iterations,
                converged,
                accepted,
                ..
            } => {
                use crate::estimator::EstimatorBackend;
                match backend {
                    EstimatorBackend::Spectrum => t.est_spectrum += 1,
                    EstimatorBackend::Ml => t.est_ml += 1,
                    EstimatorBackend::Hybrid => t.est_hybrid += 1,
                }
                if backend != EstimatorBackend::Spectrum {
                    if converged {
                        t.est_converged += 1;
                    }
                    if !accepted {
                        t.est_rejected += 1;
                    }
                    self.est_iterations.record(f64::from(iterations));
                }
            }
        }
    }

    /// Flush every touched counter with one atomic add each.
    fn flush(&self, t: Tally) {
        let adds = [
            (&self.cache_hit, t.cache_hit),
            (&self.cache_miss, t.cache_miss),
            (&self.peak_searches, t.peak_searches),
            (&self.coarse_cells, t.coarse_cells),
            (&self.fine_cells, t.fine_cells),
            (&self.accepted, t.accepted),
            (&self.rej_unknown, t.rej_unknown),
            (&self.rej_ooo, t.rej_ooo),
            (&self.rej_dup, t.rej_dup),
            (&self.rej_nan_phase, t.rej_nan_phase),
            (&self.rej_range_phase, t.rej_range_phase),
            (&self.rej_rssi, t.rej_rssi),
            (&self.rej_null_epc, t.rej_null_epc),
            (&self.rej_overload, t.rej_overload),
            (&self.evicted, t.evicted),
            (&self.recompute_fresh, t.recompute_fresh),
            (&self.recompute_cached, t.recompute_cached),
            (&self.gate_withheld, t.gate_withheld),
            (&self.incr_applied, t.incr_applied),
            (&self.incr_downdated, t.incr_downdated),
            (&self.incr_reanchors, t.incr_reanchors),
            (&self.incr_fallbacks, t.incr_fallbacks),
            (&self.fix_attempts, t.fix_attempts),
            (&self.fix_ok, t.fix_ok),
            (&self.fix_skipped, t.fix_skipped),
            (&self.est_spectrum, t.est_spectrum),
            (&self.est_ml, t.est_ml),
            (&self.est_hybrid, t.est_hybrid),
            (&self.est_converged, t.est_converged),
            (&self.est_rejected, t.est_rejected),
        ];
        for (counter, delta) in adds {
            if delta > 0 {
                counter.add(delta);
            }
        }
        if let Some(level) = t.last_buffered {
            self.last_buffered.set(level);
        }
    }
}

/// Counter and gauge handles for the serve daemon's `serve.*` inventory.
///
/// Lives here rather than in the serve crate so every `serve.*`
/// registration site goes through [`super::names`] consts in this file,
/// keeping the L8 name-hygiene lint a single-file cross-check. Handles
/// are resolved once at daemon start; the hot path is lock-free adds.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Arc<MetricsRegistry>,
    /// TCP reader connections accepted.
    pub connections: Counter,
    /// Wire frames decoded into report batches.
    pub frames: Counter,
    /// Wire frames rejected with a typed protocol error.
    pub frame_errors: Counter,
    /// Reports enqueued onto a shard channel.
    pub reports_enqueued: Counter,
    /// Reports shed at a full shard channel.
    pub reports_shed: Counter,
    /// Fix queries answered over HTTP.
    pub queries: Counter,
    /// Metrics scrapes answered over HTTP.
    pub scrapes: Counter,
}

impl ServeMetrics {
    /// Resolve every serve counter against `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let r = &registry;
        ServeMetrics {
            connections: r.counter(names::SERVE_CONNECTIONS),
            frames: r.counter(names::SERVE_FRAMES),
            frame_errors: r.counter(names::SERVE_FRAME_ERRORS),
            reports_enqueued: r.counter(names::SERVE_REPORTS_ENQUEUED),
            reports_shed: r.counter(names::SERVE_REPORTS_SHED),
            queries: r.counter(names::SERVE_QUERIES),
            scrapes: r.counter(names::SERVE_SCRAPES),
            registry,
        }
    }

    /// The queue-depth gauge for shard `shard`
    /// (`serve.shard_queue_depth.<shard>`).
    pub fn shard_queue_depth(&self, shard: usize) -> Gauge {
        self.registry
            .gauge(&format!("{}.{shard}", names::SERVE_SHARD_QUEUE_DEPTH))
    }

    /// The registry the handles fold into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

/// Counter handles for the calibration store's `store.*` inventory.
///
/// Lives here rather than next to [`crate::store`] so every `store.*`
/// registration site goes through [`super::names`] consts in this file,
/// keeping the L8 name-hygiene lint a single-file cross-check. The serve
/// daemon increments them at warm boot; its `/stats` body reads the same
/// handles, so the two surfaces cannot disagree.
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    /// Store records rejected as corrupt or stale at warm boot.
    pub invalid: Counter,
    /// Orientation calibrations loaded from the store at warm boot.
    pub orientation_hits: Counter,
    /// Orientation calibrations persisted to the store at boot.
    pub orientation_persisted: Counter,
}

impl StoreMetrics {
    /// Resolve every store counter against `registry`.
    pub fn new(registry: &Arc<MetricsRegistry>) -> Self {
        StoreMetrics {
            invalid: registry.counter(names::STORE_INVALID),
            orientation_hits: registry.counter(names::STORE_ORIENTATION_HIT),
            orientation_persisted: registry.counter(names::STORE_ORIENTATION_PERSISTED),
        }
    }
}

impl Observer for MetricsObserver {
    fn on_event(&self, event: &Event) {
        let mut t = Tally::default();
        self.fold(event, &mut t);
        self.flush(t);
    }

    fn on_batch(&self, events: &[Event]) {
        let mut t = Tally::default();
        for event in events {
            self.fold(event, &mut t);
        }
        self.flush(t);
    }
}

#[cfg(test)]
mod tests {
    use super::super::FixKind;
    use super::*;
    use crate::spectrum::ProfileKind;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same cell.
        reg.counter("c").inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("g");
        g.set(2.5);
        assert!((g.get() - 2.5).abs() < 1e-12);
        let h = reg.histogram("h", &[1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(100.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 6);
        let hs = &snap.histograms["h"];
        assert_eq!(hs.buckets, vec![1, 1, 1]);
        assert_eq!(hs.count, 3);
        assert!((hs.sum - 105.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_bounds_are_sanitized_total_and_disjoint() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h", &[10.0, f64::NAN, 1.0, 10.0, f64::INFINITY]);
        assert_eq!(h.bounds(), &[1.0, 10.0]);
        // Every value lands in exactly one bucket (including NaN).
        for v in [f64::NEG_INFINITY, -1.0, 1.0, 5.0, 10.0, 11.0, f64::NAN] {
            h.record(v);
        }
        let hs = &reg.snapshot().histograms["h"];
        assert_eq!(hs.buckets.iter().sum::<u64>(), hs.count);
        assert_eq!(hs.count, 7);
        assert_eq!(hs.buckets, vec![3, 2, 2]);
    }

    #[test]
    fn snapshot_and_reset_drains() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(3);
        reg.histogram("h", &[1.0]).record(0.5);
        let first = reg.snapshot_and_reset();
        assert_eq!(first.counters["c"], 3);
        assert_eq!(first.histograms["h"].count, 1);
        let second = reg.snapshot_and_reset();
        assert_eq!(second.counters["c"], 0);
        assert_eq!(second.histograms["h"].count, 0);
        assert_eq!(second.histograms["h"].sum, 0.0); // lint:allow(float-eq) exact zero after reset
    }

    #[test]
    fn export_names_the_schema() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").inc();
        reg.gauge("g").set(1.5);
        reg.histogram("h", &[2.0]).record(1.0);
        let json = reg.export_json();
        assert!(json.contains("\"schema\": \"tagspin-metrics/v1\""));
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\"g\": 1.5"));
        assert!(json.contains("\"count\": 1"));
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::CacheLookup { hit: true },
            Event::CacheLookup { hit: false },
            Event::PeakSearch {
                three_d: false,
                kind: ProfileKind::Hybrid,
                coarse_cells: 72,
                fine_cells: 30,
                peak: 5.0,
                sidelobe: Some(2.0),
            },
            Event::StageTime {
                stage: Stage::Coarse,
                nanos: 1500,
            },
            Event::IngestAccepted {
                epc: 1,
                antenna_id: 1,
                buffered: 10,
            },
            Event::IngestRejected {
                epc: 0,
                antenna_id: 1,
                reason: RejectReason::Malformed(tagspin_epc::ReportDefect::NullEpc),
            },
            Event::Evicted { epc: 1, count: 4 },
            Event::BearingServed {
                epc: 1,
                kind: FixKind::Fix2D,
                recomputed: true,
            },
            Event::GateWithheld { epc: 1 },
            Event::IncrementalSync {
                epc: 1,
                kind: FixKind::Fix2D,
                applied: 3,
                downdated: 2,
                reanchored: true,
                fallback: true,
            },
            Event::FixAttempt {
                kind: FixKind::Fix2D,
                usable: 2,
                skipped: 1,
                ok: true,
            },
            Event::EstimatorFix {
                kind: FixKind::Fix2D,
                backend: crate::estimator::EstimatorBackend::Ml,
                iterations: 6,
                converged: true,
                accepted: false,
            },
        ]
    }

    #[test]
    fn metrics_observer_folds_every_event_class() {
        let reg = Arc::new(MetricsRegistry::new());
        let mo = MetricsObserver::new(Arc::clone(&reg));
        for event in sample_events() {
            mo.on_event(&event);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["engine.cache.hit"], 1);
        assert_eq!(snap.counters["engine.cache.miss"], 1);
        assert_eq!(snap.counters["engine.peak_searches"], 1);
        assert_eq!(snap.counters["engine.coarse_cells"], 72);
        assert_eq!(snap.counters["engine.fine_cells"], 30);
        assert_eq!(snap.counters["ingest.accepted"], 1);
        assert_eq!(snap.counters["ingest.rejected.null_epc"], 1);
        assert_eq!(snap.counters["session.evicted"], 4);
        assert_eq!(snap.counters["session.recompute.fresh"], 1);
        assert_eq!(snap.counters["session.gate_withheld"], 1);
        assert_eq!(snap.counters["session.incremental.applied"], 3);
        assert_eq!(snap.counters["session.incremental.downdated"], 2);
        assert_eq!(snap.counters["session.incremental.reanchors"], 1);
        assert_eq!(snap.counters["session.incremental.fallbacks"], 1);
        assert_eq!(snap.counters["fix.attempts"], 1);
        assert_eq!(snap.counters["fix.ok"], 1);
        assert_eq!(snap.counters["fix.skipped_tags"], 1);
        assert_eq!(snap.counters["estimator.fix.ml"], 1);
        assert_eq!(snap.counters["estimator.fix.spectrum"], 0);
        assert_eq!(snap.counters["estimator.ml.converged"], 1);
        assert_eq!(snap.counters["estimator.ml.rejected"], 1);
        assert_eq!(snap.histograms["estimator.ml.iterations"].count, 1);
        assert_eq!(snap.histograms["engine.peak_margin"].count, 1);
        assert_eq!(snap.histograms["stage.coarse_ns"].count, 1);
        assert!((snap.gauges["ingest.last_buffered"] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn batched_fold_matches_per_event_fold() {
        let events = sample_events();
        let per_event = Arc::new(MetricsRegistry::new());
        let mo = MetricsObserver::new(Arc::clone(&per_event));
        for event in &events {
            mo.on_event(event);
        }
        let batched = Arc::new(MetricsRegistry::new());
        let mb = MetricsObserver::new(Arc::clone(&batched));
        mb.on_batch(&events);
        assert_eq!(per_event.snapshot(), batched.snapshot());
        // An empty batch is a no-op.
        mb.on_batch(&[]);
        assert_eq!(per_event.snapshot(), batched.snapshot());
    }

    #[test]
    fn default_on_batch_loops_on_event() {
        #[derive(Debug, Default)]
        struct PerEventOnly(Mutex<Vec<Event>>);
        impl Observer for PerEventOnly {
            fn on_event(&self, event: &Event) {
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(event.clone());
            }
        }
        let obs = PerEventOnly::default();
        let events = sample_events();
        Observer::on_batch(&obs, &events);
        assert_eq!(
            *obs.0.lock().unwrap_or_else(PoisonError::into_inner),
            events
        );
    }
}

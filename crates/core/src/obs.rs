//! Zero-cost-when-disabled observability for the localization pipeline.
//!
//! When a fix degrades, the question is *which stage* ate the latency or
//! rejected the reads: ingest, quarantine, the steering-table cache, the
//! coarse pass, the fine refinement, or the intersection. This module is
//! the answer, in three parts:
//!
//! * An [`Observer`] trait plus a structured [`Event`] model. The engine,
//!   the streaming session and the server emit events at every decision
//!   point — cache lookups, coarse/fine cell counts, peak-to-sidelobe
//!   margins, per-[`RejectReason`] quarantines, window evictions,
//!   dirty-flag recomputes, quality-gate withholdings, fix attempts — each
//!   carrying its structured fields (EPC, antenna id, profile kind, …).
//!   Batch emitters hand a whole event slice to [`Observer::on_batch`]
//!   in one call.
//! * A lock-light [`MetricsRegistry`] of counters, gauges and fixed-bucket
//!   histograms with snapshot-and-reset semantics and a hand-rolled
//!   `tagspin-metrics/v1` JSON export, in [`metrics`]. [`MetricsObserver`]
//!   folds the event stream into it; the canonical metric-name inventory
//!   is [`names`], cross-checked against `docs/OBSERVABILITY.md` by
//!   `cargo xtask lint`.
//! * Stage timers ([`Span`]) wrapping the coarse pass, the fine pass and
//!   the per-window recompute, surfaced through
//!   [`crate::session::stats::SessionStats`] and as
//!   [`Event::StageTime`] events.
//!
//! The default observer is [`NullObserver`]: its [`ObsHandle`] caches
//! `enabled = false`, so every instrumentation point collapses to one
//! predictable branch — no event is constructed, no clock is read, and
//! pipeline outputs stay bit-identical to the uninstrumented code
//! (`tests/obs_conformance.rs` pins this property). [`RecordingObserver`]
//! (Vec-backed, for tests) and [`LogObserver`] (stderr, behind the
//! binary's `-v`) ship alongside.

pub mod metrics;
pub mod names;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramCell, HistogramSnapshot, MetricsObserver, MetricsRegistry,
    MetricsSnapshot, ServeMetrics, StoreMetrics, METRICS_SCHEMA,
};

use crate::session::quarantine::RejectReason;
use crate::spectrum::ProfileKind;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A named pipeline stage, for [`Event::StageTime`] spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One [`crate::session::ReaderSession::ingest`] call, screens included.
    Ingest,
    /// The coarse stride pass of a sparse peak search.
    Coarse,
    /// The fine window pass of a sparse peak search (including the hybrid
    /// profile's traditional refinement window).
    Fine,
    /// One fresh per-window bearing computation (a dirty-flag recompute).
    Recompute,
    /// One whole multi-tag fix attempt.
    Fix,
    /// One estimator-backend position refinement (the ml/hybrid damped
    /// Gauss–Newton search) inside a fix attempt.
    Refine,
    /// One wire frame decoded (framing + LLRP parse) by the serve daemon.
    Decode,
    /// One decoded batch routed to its shard queues by the serve daemon.
    Route,
}

impl Stage {
    /// Stable lowercase name used in metric names and logs.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Coarse => "coarse",
            Stage::Fine => "fine",
            Stage::Recompute => "recompute",
            Stage::Fix => "fix",
            Stage::Refine => "refine",
            Stage::Decode => "decode",
            Stage::Route => "route",
        }
    }
}

/// Which fix/bearing family an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixKind {
    /// 2D bearings and fixes ([`crate::session::TwoD`]).
    Fix2D,
    /// 3D bearings and fixes ([`crate::session::ThreeD`]).
    Fix3D,
    /// Orientation-aided 3D bearings and fixes ([`crate::session::Aided`]).
    Fix3DAided,
}

impl FixKind {
    /// Stable lowercase name used in metric names and logs.
    pub fn name(self) -> &'static str {
        match self {
            FixKind::Fix2D => "2d",
            FixKind::Fix3D => "3d",
            FixKind::Fix3DAided => "3d_aided",
        }
    }
}

/// One structured observability event.
///
/// Events carry plain copied fields (no borrows), so observers may retain
/// them. Construction is skipped entirely when the observer is disabled —
/// see [`ObsHandle::emit`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A steering-table cache lookup in the spectrum engine.
    CacheLookup {
        /// Whether the table was already cached.
        hit: bool,
    },
    /// One sparse coarse-to-fine peak search completed in the engine.
    PeakSearch {
        /// `true` for the 3D (azimuth × polar) grid, `false` for 2D.
        three_d: bool,
        /// The profile the search evaluated.
        kind: ProfileKind,
        /// Cells evaluated by the coarse stride pass.
        coarse_cells: usize,
        /// Cells evaluated by the fine window pass(es).
        fine_cells: usize,
        /// The strongest detected lobe's coarse value.
        peak: f64,
        /// The runner-up lobe's coarse value (`None` for a single lobe);
        /// `peak - sidelobe` is the detection margin.
        sidelobe: Option<f64>,
    },
    /// A monotonic stage timer fired (emitted only when an observer is
    /// enabled; the disabled path never reads the clock).
    StageTime {
        /// Which stage was timed.
        stage: Stage,
        /// Wall-clock nanoseconds.
        nanos: u64,
    },
    /// A report passed every ingest screen and was buffered.
    IngestAccepted {
        /// The report's EPC.
        epc: u128,
        /// The reporting antenna.
        antenna_id: u8,
        /// The stream's buffer depth after the push (and any eviction).
        buffered: usize,
    },
    /// A report was quarantined by an ingest screen.
    IngestRejected {
        /// The report's EPC as offered (possibly null or unregistered).
        epc: u128,
        /// The reporting antenna.
        antenna_id: u8,
        /// The typed reason, mirroring
        /// [`crate::session::quarantine::RejectCounts`].
        reason: RejectReason,
    },
    /// The sliding window evicted snapshots from one stream.
    Evicted {
        /// The stream's EPC.
        epc: u128,
        /// How many snapshots aged out in this pass.
        count: u64,
    },
    /// A per-tag bearing was served by the session.
    BearingServed {
        /// The tag.
        epc: u128,
        /// Which bearing family.
        kind: FixKind,
        /// `true` for a fresh dirty-flag recompute, `false` when the
        /// cached result (value or error) was reused.
        recomputed: bool,
    },
    /// A fresh recompute was withheld by the capture quality gate.
    GateWithheld {
        /// The withheld tag.
        epc: u128,
    },
    /// The incremental-accumulator state synchronized with its stream
    /// before serving a fresh bearing (emitted only on the engaged
    /// incremental path).
    IncrementalSync {
        /// The tag.
        epc: u128,
        /// Which bearing family's accumulator grid.
        kind: FixKind,
        /// Snapshot columns applied (rank-1 updates) in this sync.
        applied: u64,
        /// Snapshot columns downdated (evicted) in this sync.
        downdated: u64,
        /// Whether the sync re-anchored with a full recompute.
        reanchored: bool,
        /// Whether the bearing fell back to the reference path because
        /// non-finite columns were resident in the window.
        fallback: bool,
    },
    /// One multi-tag fix attempt completed.
    FixAttempt {
        /// Which fix family.
        kind: FixKind,
        /// Usable bearings that entered the intersection.
        usable: usize,
        /// Tags skipped for degenerate input (no reads, too few
        /// snapshots, empty spectrum, quality-gated).
        skipped: usize,
        /// Whether the fix succeeded.
        ok: bool,
    },
    /// One estimator dispatch served a fix (emitted alongside the
    /// [`Event::FixAttempt`] of every successful fix, tagged with the
    /// backend that produced it).
    EstimatorFix {
        /// Which fix family.
        kind: FixKind,
        /// The backend that served the fix.
        backend: crate::estimator::EstimatorBackend,
        /// Gauss–Newton iterations spent (0 on the spectrum backend).
        iterations: u32,
        /// Whether the ML refinement converged (false on spectrum).
        converged: bool,
        /// Whether the served position is the refined one (spectrum fixes
        /// are trivially "accepted"; an ml/hybrid fix that fell back to
        /// its spectrum seed is not).
        accepted: bool,
    },
}

/// A sink for pipeline [`Event`]s.
///
/// Implementations must be cheap and non-blocking: events are emitted from
/// the hot path. `Send + Sync` because the engine (and its observer) is
/// shared across the scoped worker threads of the parallel evaluator.
pub trait Observer: std::fmt::Debug + Send + Sync {
    /// Whether instrumentation points should emit at all. The default is
    /// `true`; [`NullObserver`] returns `false`, which [`ObsHandle`]
    /// caches so the disabled path is a single branch.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event.
    fn on_event(&self, event: &Event);

    /// Receive a batch of events emitted by one pipeline call. The
    /// default forwards each event to [`Observer::on_event`];
    /// implementations with per-event synchronization costs (atomics,
    /// locks) can override it to pay those costs once per batch —
    /// [`MetricsObserver`] folds counter deltas locally and flushes each
    /// touched counter with a single atomic add.
    fn on_batch(&self, events: &[Event]) {
        for event in events {
            self.on_event(event);
        }
    }
}

/// A shared observer handle with the `enabled` flag cached at
/// construction, so every emission site pays one predictable branch when
/// observability is off.
#[derive(Debug, Clone)]
pub struct ObsHandle {
    observer: Arc<dyn Observer>,
    enabled: bool,
}

impl Default for ObsHandle {
    fn default() -> Self {
        ObsHandle::null()
    }
}

impl ObsHandle {
    /// The disabled handle (a [`NullObserver`]).
    pub fn null() -> Self {
        ObsHandle {
            observer: Arc::new(NullObserver),
            enabled: false,
        }
    }

    /// A handle over any observer; caches [`Observer::enabled`] now.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        let enabled = observer.enabled();
        ObsHandle { observer, enabled }
    }

    /// Whether events are being emitted.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Emit one event. The closure runs only when enabled, so building
    /// the event costs nothing on the disabled path.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if self.enabled {
            self.observer.on_event(&build());
        }
    }

    /// Emit a batch of events through [`Observer::on_batch`]. The closure
    /// runs only when enabled; an empty batch is dropped without a call.
    #[inline]
    pub fn emit_batch(&self, build: impl FnOnce() -> Vec<Event>) {
        if self.enabled {
            let events = build();
            if !events.is_empty() {
                self.observer.on_batch(&events);
            }
        }
    }

    /// Start a stage timer. Disabled handles never read the clock; the
    /// returned [`Span`] then reports `None` elapsed and emits nothing.
    #[inline]
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            obs: self,
            stage,
            start: self.clock_start(),
        }
    }

    /// Read the monotonic clock iff this handle is enabled.
    ///
    /// The one blessed pipeline `Instant::now` call site (clippy's
    /// `disallowed-methods` bans it elsewhere): every stage timer routes
    /// through here, so the disabled-observer path never touches the clock.
    #[inline]
    pub fn clock_start(&self) -> Option<Instant> {
        #[allow(clippy::disallowed_methods)]
        self.enabled.then(Instant::now)
    }
}

/// A monotonic stage timer tied to an [`ObsHandle`].
///
/// On [`Span::finish`] (or drop) an enabled span emits
/// [`Event::StageTime`] with the elapsed nanoseconds; a disabled span
/// does nothing at all.
#[must_use = "a span measures the time until finish() or drop"]
#[derive(Debug)]
pub struct Span<'a> {
    obs: &'a ObsHandle,
    stage: Stage,
    start: Option<Instant>,
}

impl Span<'_> {
    fn close(&mut self) -> Option<u64> {
        let start = self.start.take()?;
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stage = self.stage;
        self.obs.emit(|| Event::StageTime { stage, nanos });
        Some(nanos)
    }

    /// Stop the timer, emit the event, and return the elapsed nanoseconds
    /// (`None` when the handle is disabled).
    pub fn finish(mut self) -> Option<u64> {
        self.close()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// The default observer: reports itself disabled and drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&self, _event: &Event) {}
}

/// A Vec-backed observer that records every event, in order. Intended for
/// tests (the conformance suite reconciles its counts against
/// [`crate::session::stats::SessionStats`]); the mutex makes it safe to
/// share with the engine's worker threads but too heavy for production.
#[derive(Debug, Default)]
pub struct RecordingObserver {
    events: Mutex<Vec<Event>>,
}

impl RecordingObserver {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordingObserver::default()
    }

    /// A copy of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Drain the recording, returning it.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Observer for RecordingObserver {
    fn on_event(&self, event: &Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }

    fn on_batch(&self, events: &[Event]) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(events);
    }
}

/// An observer that prints every event to stderr (the `tagspin` binary's
/// `-v` flag). One line per event, prefixed `[obs]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogObserver;

impl Observer for LogObserver {
    fn on_event(&self, event: &Event) {
        eprintln!("[obs] {event:?}");
    }
}

/// Fan an event stream out to several observers (e.g. metrics + stderr).
/// Enabled when any inner observer is enabled; disabled inner observers
/// still receive nothing.
#[derive(Debug, Default)]
pub struct FanoutObserver {
    sinks: Vec<Arc<dyn Observer>>,
}

impl FanoutObserver {
    /// A fan-out over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn Observer>>) -> Self {
        FanoutObserver { sinks }
    }
}

impl Observer for FanoutObserver {
    fn on_event(&self, event: &Event) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.on_event(event);
            }
        }
    }

    fn on_batch(&self, events: &[Event]) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.on_batch(events);
            }
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_is_disabled_and_inert() {
        let obs = ObsHandle::null();
        assert!(!obs.enabled());
        obs.emit(|| unreachable!("disabled handles must not build events"));
        obs.emit_batch(|| unreachable!("disabled handles must not build batches"));
        assert_eq!(obs.span(Stage::Coarse).finish(), None);
    }

    #[test]
    fn recording_observer_keeps_order() {
        let rec = Arc::new(RecordingObserver::new());
        let obs = ObsHandle::new(Arc::clone(&rec) as Arc<dyn Observer>);
        assert!(obs.enabled());
        obs.emit(|| Event::CacheLookup { hit: false });
        obs.emit(|| Event::CacheLookup { hit: true });
        let events = rec.take();
        assert_eq!(
            events,
            vec![
                Event::CacheLookup { hit: false },
                Event::CacheLookup { hit: true }
            ]
        );
        assert!(rec.events().is_empty());
    }

    #[test]
    fn emit_batch_reaches_on_batch_and_skips_empties() {
        let rec = Arc::new(RecordingObserver::new());
        let obs = ObsHandle::new(Arc::clone(&rec) as Arc<dyn Observer>);
        obs.emit_batch(Vec::new);
        assert!(rec.events().is_empty());
        obs.emit_batch(|| {
            vec![
                Event::CacheLookup { hit: true },
                Event::GateWithheld { epc: 9 },
            ]
        });
        assert_eq!(
            rec.take(),
            vec![
                Event::CacheLookup { hit: true },
                Event::GateWithheld { epc: 9 },
            ]
        );
    }

    #[test]
    fn span_emits_stage_time() {
        let rec = Arc::new(RecordingObserver::new());
        let obs = ObsHandle::new(Arc::clone(&rec) as Arc<dyn Observer>);
        let ns = obs.span(Stage::Fine).finish();
        assert!(ns.is_some());
        let events = rec.events();
        assert!(
            matches!(
                events.as_slice(),
                [Event::StageTime {
                    stage: Stage::Fine,
                    ..
                }]
            ),
            "{events:?}"
        );
        // Dropping unfinished also emits, exactly once.
        {
            let _span = obs.span(Stage::Coarse);
        }
        assert_eq!(rec.events().len(), 2);
    }

    #[test]
    fn fanout_reaches_every_enabled_sink() {
        let a = Arc::new(RecordingObserver::new());
        let b = Arc::new(RecordingObserver::new());
        let fan = FanoutObserver::new(vec![
            Arc::clone(&a) as Arc<dyn Observer>,
            Arc::new(NullObserver),
            Arc::clone(&b) as Arc<dyn Observer>,
        ]);
        assert!(fan.enabled());
        fan.on_event(&Event::GateWithheld { epc: 7 });
        fan.on_batch(&[Event::CacheLookup { hit: true }]);
        assert_eq!(a.events().len(), 2);
        assert_eq!(b.events().len(), 2);
        // All-null fanout is disabled.
        assert!(!FanoutObserver::new(vec![Arc::new(NullObserver)]).enabled());
    }
}

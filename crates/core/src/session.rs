//! Streaming session pipeline: incremental snapshot ingestion and
//! multi-reader session management.
//!
//! The batch entry points on [`crate::server::LocalizationServer`] take a
//! complete [`InventoryLog`] and recompute every tag's spectrum from
//! scratch. A live deployment does not have a complete log — it has an LLRP
//! report stream, per reader antenna, that never ends. [`ReaderSession`] is
//! the pipeline front-end for that shape of input:
//!
//! * reports are ingested one at a time ([`ReaderSession::ingest`]) into
//!   per-tag incremental snapshot buffers,
//! * each buffer is bounded by a sliding [`WindowConfig`] (time and/or
//!   count), so memory stays flat over unbounded streams,
//! * fixes ([`ReaderSession::fix`] and [`ReaderSession::estimate`], generic
//!   over the fix kind [`FixPath`]: [`TwoD`], [`ThreeD`] or [`Aided`])
//!   recompute bearings only for tags whose buffers changed since the last
//!   query — unchanged tags reuse their cached bearing,
//! * [`stats::SessionStats`] / [`stats::TagStreamStats`] expose freshness
//!   and throughput counters without touching the math.
//!
//! [`SessionManager`] multiplexes one session per reader antenna over a
//! single shared [`TagRegistry`] and a single shared spectrum-engine
//! steering cache, which is what the paper's "simultaneously locate even
//! multiple target antennas" claim needs at scale.
//!
//! With an unbounded window, a session fed a log report-by-report produces
//! **bit-identical** fixes to the batch pipeline fed the same log whole:
//! both funnel into the one shared per-tag path in `pipeline`.

pub(crate) mod pipeline;
pub mod quarantine;
pub mod stats;
pub mod window;

use crate::diagnostics::CaptureQuality;
use crate::estimator::{Estimate, EstimatorBackend, MlReport, TagObservation};
use crate::locate::plane::{Bearing2D, Fix2D};
use crate::obs::{Event, FixKind, ObsHandle, Observer, Stage};
use crate::registry::{RegisteredTag, TagRegistry};
use crate::server::{PipelineConfig, ServerError};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotSet};
use crate::spectrum::engine::SpectrumEngine;
use pipeline::Slots;
pub use pipeline::{Aided, FixPath, ThreeD, TwoD};
use quarantine::{RejectCounts, RejectReason};
use stats::{IncrementalCounts, SessionStats, SkipCounts, TagStreamStats};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use tagspin_epc::{InventoryLog, TagReport};
use window::WindowConfig;

/// Elapsed nanoseconds since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What happened to one report offered to [`ReaderSession::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The report was appended to its tag's snapshot buffer.
    Buffered,
    /// Quarantined: the report was screened out for the given typed reason
    /// and never touched a snapshot buffer.
    Rejected(RejectReason),
}

impl IngestOutcome {
    /// True when the report reached its tag's snapshot buffer.
    pub fn is_buffered(&self) -> bool {
        matches!(self, IngestOutcome::Buffered)
    }
}

/// One tag's incremental snapshot buffer plus its per-kind slots.
#[derive(Debug, Clone, Default)]
struct TagStream {
    buf: SnapshotSet,
    ingested: u64,
    evicted: u64,
    out_of_order: u64,
    duplicate: u64,
    /// `(timestamp_us, phase.to_bits())` of the newest buffered report —
    /// the duplicate-screen key (bit comparison, so NaN-free and exact).
    last_key: Option<(u64, u64)>,
    slots: Slots,
    /// Backend-aware slot: the calibrated window view served to
    /// phase-consuming estimator backends (ml/hybrid) and confidence
    /// reporting. Dirty-tracked exactly like the bearing caches, so
    /// repeated fixes on an unchanged window reuse one clone. Never
    /// populated on the default spectrum fast path.
    cached_obs: Option<TagObservation>,
}

impl TagStream {
    fn invalidate(&mut self) {
        self.slots.two_d.cached = None;
        self.slots.three_d.cached = None;
        self.slots.aided.cached = None;
        self.cached_obs = None;
    }

    fn dirty(&self) -> bool {
        let s = &self.slots;
        s.two_d.cached.is_none() && s.three_d.cached.is_none() && s.aided.cached.is_none()
    }
}

/// A streaming localization session for one reader antenna.
///
/// Created from a registered server via
/// [`crate::server::LocalizationServer::session`]: it shares the server's
/// registry, steering-table cache and observer.
#[derive(Debug, Clone)]
pub struct ReaderSession {
    registry: Arc<TagRegistry>,
    engine: SpectrumEngine,
    config: PipelineConfig,
    window: WindowConfig,
    streams: HashMap<u128, TagStream>,
    first_t_us: Option<u64>,
    latest_t_us: Option<u64>,
    ingested: u64,
    rejects: RejectCounts,
    evicted: u64,
    /// Observability sink, inherited from the engine at construction.
    obs: ObsHandle,
    /// Fresh bearing computations (accounting counters below always tick,
    /// observer or not; only the stage timers are observer-gated).
    recomputes: u64,
    gate_withheld: u64,
    fixes: u64,
    skips: SkipCounts,
    incremental: IncrementalCounts,
}

impl ReaderSession {
    /// A session sharing an existing engine (and thus its steering cache).
    pub(crate) fn with_engine(
        registry: Arc<TagRegistry>,
        engine: SpectrumEngine,
        config: PipelineConfig,
        window: WindowConfig,
    ) -> Self {
        let obs = engine.observer().clone();
        ReaderSession {
            registry,
            engine,
            config,
            window,
            streams: HashMap::new(),
            first_t_us: None,
            latest_t_us: None,
            ingested: 0,
            rejects: RejectCounts::default(),
            evicted: 0,
            obs,
            recomputes: 0,
            gate_withheld: 0,
            fixes: 0,
            skips: SkipCounts::default(),
            incremental: IncrementalCounts::default(),
        }
    }

    /// Attach an observer to this session and its engine clone. Events
    /// from ingest, recomputes, fixes and the engine's peak searches flow
    /// to it from now on.
    pub fn set_observer(&mut self, observer: Arc<dyn Observer>) {
        self.engine.set_observer(Arc::clone(&observer));
        self.obs = ObsHandle::new(observer);
    }

    /// The registry this session resolves EPCs against.
    pub fn registry(&self) -> &TagRegistry {
        &self.registry
    }

    /// The pipeline configuration (fixed at construction).
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The sliding-window bounds (fixed at construction).
    pub fn window(&self) -> WindowConfig {
        self.window
    }

    /// Ingest one tag report into its per-tag snapshot buffer, applying the
    /// quarantine screens and the sliding window. Never fails: hostile
    /// input is counted and dropped, and the returned [`IngestOutcome`]
    /// says which way it went.
    ///
    /// Screening order: report values (when
    /// [`quarantine::IngestPolicy::screen_values`] is set), registry
    /// membership, per-stream timestamp monotonicity (always — the
    /// time-ordered buffer is a structural invariant), duplicates (when
    /// [`quarantine::IngestPolicy::reject_duplicates`] is set).
    pub fn ingest(&mut self, report: &TagReport) -> IngestOutcome {
        let t0 = self.obs.clock_start();
        let mut events = Vec::new();
        let outcome = self.ingest_inner(report, &mut events);
        for event in events {
            self.obs.emit(|| event);
        }
        if let Some(t0) = t0 {
            let nanos = elapsed_ns(t0);
            self.obs.emit(|| Event::StageTime {
                stage: Stage::Ingest,
                nanos,
            });
        }
        outcome
    }

    /// Bulk-ingest `reports` in order, coalescing observer traffic: every
    /// per-report event is collected and handed to
    /// [`crate::obs::Observer::on_batch`] in one call, followed by a single
    /// [`Event::StageTime`] covering the whole batch (one clock read).
    /// Buffering, rejection accounting and [`SessionStats`] report counts
    /// are identical to calling [`ReaderSession::ingest`] per report.
    /// Returns how many reports were buffered.
    pub fn ingest_batch(&mut self, reports: &[TagReport]) -> usize {
        let t0 = self.obs.clock_start();
        let mut events = Vec::new();
        let mut buffered = 0usize;
        for report in reports {
            if self.ingest_inner(report, &mut events) == IngestOutcome::Buffered {
                buffered += 1;
            }
        }
        if let Some(t0) = t0 {
            let nanos = elapsed_ns(t0);
            events.push(Event::StageTime {
                stage: Stage::Ingest,
                nanos,
            });
        }
        self.obs.emit_batch(|| events);
        buffered
    }

    /// The ingest pipeline proper. Events are pushed onto `events` (only
    /// while an observer is enabled) instead of being emitted inline, so
    /// [`ReaderSession::ingest`] can replay them one-by-one and
    /// [`ReaderSession::ingest_batch`] can hand the whole batch to the
    /// observer in a single call.
    fn ingest_inner(&mut self, report: &TagReport, events: &mut Vec<Event>) -> IngestOutcome {
        if self.config.ingest.screen_values {
            if let Err(defect) = report.validate() {
                return self.reject(report, RejectReason::Malformed(defect), events);
            }
        }
        let snapshot = match self.registry.get(report.epc) {
            Some(tag) => Snapshot::from_report(report, &tag.disk),
            None => return self.reject(report, RejectReason::UnknownTag, events),
        };
        let key = (report.timestamp_us, report.phase.to_bits());
        let reject_duplicates = self.config.ingest.reject_duplicates;
        let (epc, antenna_id) = (report.epc, report.antenna_id);
        let enabled = self.obs.enabled();
        let stream = self.streams.entry(report.epc).or_default();
        if stream
            .buf
            .last()
            .is_some_and(|last| snapshot.t_s < last.t_s)
        {
            stream.out_of_order += 1;
            self.rejects.record(RejectReason::OutOfOrder);
            if enabled {
                events.push(Event::IngestRejected {
                    epc,
                    antenna_id,
                    reason: RejectReason::OutOfOrder,
                });
            }
            return IngestOutcome::Rejected(RejectReason::OutOfOrder);
        }
        if reject_duplicates && stream.last_key == Some(key) {
            stream.duplicate += 1;
            self.rejects.record(RejectReason::Duplicate);
            if enabled {
                events.push(Event::IngestRejected {
                    epc,
                    antenna_id,
                    reason: RejectReason::Duplicate,
                });
            }
            return IngestOutcome::Rejected(RejectReason::Duplicate);
        }
        stream.buf.push(snapshot);
        stream.last_key = Some(key);
        stream.ingested += 1;
        stream.invalidate();
        self.ingested += 1;
        let t_us = report.timestamp_us;
        self.first_t_us = Some(self.first_t_us.map_or(t_us, |f| f.min(t_us)));
        let latest_us = self.latest_t_us.map_or(t_us, |l| l.max(t_us));
        self.latest_t_us = Some(latest_us);
        // Bound the stream that just grew; silent streams age out lazily at
        // fix time (see `evict_all`).
        let mut evicted = 0usize;
        if let Some(max) = self.window.max_reports {
            evicted += stream.buf.evict_to_len(max);
        }
        if let Some(horizon) = self.window.horizon_s(latest_us as f64 * 1e-6) {
            evicted += stream.buf.evict_before(horizon);
        }
        if evicted > 0 {
            stream.evicted += evicted as u64;
            self.evicted += evicted as u64;
        }
        let buffered = stream.buf.len();
        if enabled {
            if evicted > 0 {
                events.push(Event::Evicted {
                    epc,
                    count: evicted as u64,
                });
            }
            events.push(Event::IngestAccepted {
                epc,
                antenna_id,
                buffered,
            });
        }
        IngestOutcome::Buffered
    }

    /// Count a session-level rejection (no stream attribution).
    fn reject(
        &mut self,
        report: &TagReport,
        reason: RejectReason,
        events: &mut Vec<Event>,
    ) -> IngestOutcome {
        self.rejects.record(reason);
        if self.obs.enabled() {
            events.push(Event::IngestRejected {
                epc: report.epc,
                antenna_id: report.antenna_id,
                reason,
            });
        }
        IngestOutcome::Rejected(reason)
    }

    /// Bulk-ingest a whole log, report-by-report in log order. Returns how
    /// many reports were buffered.
    pub fn ingest_log(&mut self, log: &InventoryLog) -> usize {
        log.reports()
            .iter()
            .filter(|r| self.ingest(r) == IngestOutcome::Buffered)
            .count()
    }

    /// Age every stream against the session-wide newest report, so tags
    /// that went silent do not keep stale snapshots inside a time-bounded
    /// window. Streams that lose snapshots are marked dirty.
    fn evict_all(&mut self) {
        let Some(latest_us) = self.latest_t_us else {
            return;
        };
        let Some(horizon) = self.window.horizon_s(latest_us as f64 * 1e-6) else {
            return;
        };
        for (&epc, stream) in self.streams.iter_mut() {
            let n = stream.buf.evict_before(horizon);
            if n > 0 {
                stream.evicted += n as u64;
                self.evicted += n as u64;
                stream.invalidate();
                self.obs.emit(|| Event::Evicted {
                    epc,
                    count: n as u64,
                });
            }
        }
    }

    /// The 2D bearing of one registered tag from its current window,
    /// recomputed only when the buffer changed since the last query.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTag`] plus the per-tag pipeline errors
    /// (`Snapshot`, `TooFewSnapshots`, `EmptySpectrum`).
    pub fn tag_bearing_2d(&mut self, epc: u128) -> Result<Bearing2D, ServerError> {
        let registry = Arc::clone(&self.registry);
        let tag = registry.get(epc).ok_or(ServerError::UnknownTag(epc))?;
        self.bearing_cached::<TwoD>(tag)
    }

    /// Book-keep one served bearing: the `recomputed` accounting counters
    /// always tick; the recompute stage time is emitted only when an
    /// observer is enabled (`t0` is `Some`). `GateWithheld` fires only on
    /// the *fresh* computation that hit the gate — cached reuses of a gated
    /// result re-emit `BearingServed { recomputed: false }` but not the
    /// gate event, so its count matches `gate_withheld` exactly.
    fn note_bearing(&mut self, epc: u128, kind: FixKind, t0: Option<Instant>, gated: bool) {
        self.recomputes += 1;
        if gated {
            self.gate_withheld += 1;
            self.obs.emit(|| Event::GateWithheld { epc });
        }
        if let Some(t0) = t0 {
            let nanos = elapsed_ns(t0);
            self.obs.emit(|| Event::StageTime {
                stage: Stage::Recompute,
                nanos,
            });
        }
        self.obs.emit(|| Event::BearingServed {
            epc,
            kind,
            recomputed: true,
        });
    }

    /// One registered tag's bearing of kind `K` from its current window.
    /// A clean slot serves its cached result; a dirty one recomputes over
    /// the calibrated window — through the incremental accumulators when
    /// the slot's refresh rule picks them, else (or while non-finite phases
    /// are resident) a fresh peak search. Only attempts that pass the
    /// buffer, gate and snapshot-floor checks count as refreshes.
    fn bearing_cached<K: FixPath>(
        &mut self,
        tag: &RegisteredTag,
    ) -> Result<K::Bearing, ServerError> {
        let Some(stream) = self.streams.get_mut(&tag.epc) else {
            pipeline::check_buffer(tag, &SnapshotSet::default())?;
            return Err(ServerError::Snapshot(SnapshotError::NoReads));
        };
        let slot = K::slot(&mut stream.slots);
        if let Some(cached) = &slot.cached {
            let cached = cached.clone();
            self.obs.emit(|| Event::BearingServed {
                epc: tag.epc,
                kind: K::KIND,
                recomputed: false,
            });
            return cached;
        }
        let t0 = self.obs.clock_start();
        let result = match pipeline::check_buffer(tag, &stream.buf)
            .and_then(|()| pipeline::gate(tag, &self.config, &stream.buf))
            .and_then(|()| pipeline::checked_calibrated(tag, &stream.buf, &self.config))
        {
            Err(e) => Err(e),
            Ok(set) => {
                let synced = slot.engage(
                    K::KIND,
                    tag,
                    &self.config,
                    &set,
                    stream.evicted,
                    stream.ingested,
                );
                let reduce = match synced {
                    None => false,
                    Some((outcome, fallback)) => {
                        self.incremental.applied += outcome.applied;
                        self.incremental.downdated += outcome.downdated;
                        if outcome.reanchored {
                            self.incremental.reanchors += 1;
                        }
                        if fallback {
                            self.incremental.fallbacks += 1;
                        }
                        let epc = tag.epc;
                        self.obs.emit_batch(|| {
                            vec![Event::IncrementalSync {
                                epc,
                                kind: K::KIND,
                                applied: outcome.applied,
                                downdated: outcome.downdated,
                                reanchored: outcome.reanchored,
                                fallback,
                            }]
                        });
                        !fallback
                    }
                };
                let bearing = if reduce {
                    K::reduce(slot, tag)
                } else {
                    K::fresh(&self.engine, tag, &self.config, &set)
                };
                bearing.ok_or(ServerError::EmptySpectrum { epc: tag.epc })
            }
        };
        slot.cached = Some(result.clone());
        let gated = matches!(result, Err(ServerError::QualityGated { .. }));
        self.note_bearing(tag.epc, K::KIND, t0, gated);
        result
    }

    /// Fix of kind `K` ([`TwoD`], [`ThreeD`] or [`Aided`]) of this
    /// session's reader antenna from the current windows.
    ///
    /// Tags with degenerate input (no reads, too few snapshots, empty
    /// spectrum, withheld by the quality gate) are skipped; at least two
    /// usable bearings are required. Only dirty tags are recomputed. With
    /// the default spectrum backend this never builds the per-tag
    /// observations that confidence needs.
    ///
    /// # Errors
    ///
    /// [`ServerError::NotEnoughBearings`] / [`ServerError::Locate`], plus
    /// non-skippable per-tag errors (e.g. a bad disk config).
    pub fn fix<K: FixPath>(&mut self) -> Result<K::Fix, ServerError> {
        self.resolve::<K>(false).map(|e| e.fix)
    }

    /// Like [`ReaderSession::fix`], but returns the full [`Estimate`]: the
    /// fix plus its typed [`crate::estimator::FixConfidence`], backend
    /// provenance, and (on the ml/hybrid backends) the refinement report.
    /// Unlike the plain fix, this always builds the per-tag observations
    /// confidence needs, which costs time on every refresh.
    ///
    /// # Errors
    ///
    /// Same as [`ReaderSession::fix`].
    pub fn estimate<K: FixPath>(&mut self) -> Result<Estimate<K::Fix>, ServerError> {
        self.resolve::<K>(true)
    }

    /// The one multi-tag fix body: age the windows, collect every
    /// registered tag's bearing of kind `K` (skipping degenerate tags,
    /// aborting on any other per-tag error), and resolve at least two of
    /// them through the configured estimator backend.
    fn resolve<K: FixPath>(
        &mut self,
        want_confidence: bool,
    ) -> Result<Estimate<K::Fix>, ServerError> {
        let t0 = self.obs.clock_start();
        self.evict_all();
        let registry = Arc::clone(&self.registry);
        let want_obs = self.want_observations(want_confidence);
        let mut bearings = Vec::new();
        let mut observations = Vec::new();
        let mut skipped = 0usize;
        let mut failure = None;
        for tag in registry.tags() {
            match self.bearing_cached::<K>(tag) {
                Ok(b) => {
                    if want_obs {
                        if let Some(obs) = self.observation_for(tag) {
                            observations.push(obs);
                        }
                    }
                    bearings.push(b);
                }
                Err(e) if pipeline::skippable(&e) => {
                    self.skips.record(&e);
                    skipped += 1;
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let usable = bearings.len();
        let result = match failure {
            Some(e) => Err(e),
            None if usable < 2 => Err(ServerError::NotEnoughBearings { usable }),
            None => {
                let backend = self.config.estimator.backend;
                let refine_t0 = self.refine_start();
                let result = backend.estimate::<K>(&bearings, &observations, &self.config);
                let ml = result.as_ref().ok().and_then(|e| e.ml);
                self.note_estimate(K::KIND, backend, refine_t0, ml, result.is_ok());
                result
            }
        };
        self.note_fix(K::KIND, t0, usable, skipped, result.is_ok());
        result
    }

    /// Book-keep one completed fix attempt: the attempt counter always
    /// ticks; the fix stage time is emitted only when an observer is
    /// enabled.
    fn note_fix(
        &mut self,
        kind: FixKind,
        t0: Option<Instant>,
        usable: usize,
        skipped: usize,
        ok: bool,
    ) {
        self.fixes += 1;
        if let Some(t0) = t0 {
            let nanos = elapsed_ns(t0);
            self.obs.emit(|| Event::StageTime {
                stage: Stage::Fix,
                nanos,
            });
        }
        self.obs.emit(|| Event::FixAttempt {
            kind,
            usable,
            skipped,
            ok,
        });
    }

    /// Whether this fix must materialize per-tag snapshot observations:
    /// always for phase-consuming backends, and on the
    /// [`ReaderSession::estimate`] path for confidence. The default
    /// spectrum fast path ([`ReaderSession::fix`] with
    /// `EstimatorConfig::default()`) never does, keeping it allocation- and
    /// cost-identical to the historical pipeline.
    fn want_observations(&self, want_confidence: bool) -> bool {
        want_confidence || self.config.estimator.backend != EstimatorBackend::Spectrum
    }

    /// The calibrated window view of one tag, through the stream's
    /// backend-aware cache slot (invalidated whenever the bearing caches
    /// are).
    fn observation_for(&mut self, tag: &RegisteredTag) -> Option<TagObservation> {
        let stream = self.streams.get_mut(&tag.epc)?;
        if let Some(obs) = &stream.cached_obs {
            if obs.epc == tag.epc {
                return Some(obs.clone());
            }
        }
        let set = pipeline::checked_calibrated(tag, &stream.buf, &self.config).ok()?;
        let obs = TagObservation {
            epc: tag.epc,
            disk: tag.disk,
            set: set.into_owned(),
        };
        stream.cached_obs = Some(obs.clone());
        Some(obs)
    }

    /// Start the refine-stage clock — only when a non-spectrum backend
    /// will actually run a refinement, and an observer is attached.
    fn refine_start(&self) -> Option<Instant> {
        if self.config.estimator.backend == EstimatorBackend::Spectrum {
            None
        } else {
            self.obs.clock_start()
        }
    }

    /// Book-keep one estimator dispatch: refine-stage time (ml/hybrid with
    /// an observer only) plus, for served fixes, the backend-tagged
    /// [`Event::EstimatorFix`] record.
    fn note_estimate(
        &mut self,
        kind: FixKind,
        backend: EstimatorBackend,
        t0: Option<Instant>,
        ml: Option<MlReport>,
        ok: bool,
    ) {
        if let Some(t0) = t0 {
            let nanos = elapsed_ns(t0);
            self.obs.emit(|| Event::StageTime {
                stage: Stage::Refine,
                nanos,
            });
        }
        if ok {
            self.obs.emit(|| Event::EstimatorFix {
                kind,
                backend,
                iterations: ml.map_or(0, |r| r.iterations),
                converged: ml.is_some_and(|r| r.converged),
                accepted: ml.map_or(backend == EstimatorBackend::Spectrum, |r| r.accepted),
            });
        }
    }

    /// Session-wide ingestion counters and freshness figures.
    pub fn stats(&self) -> SessionStats {
        let span_s = match (self.first_t_us, self.latest_t_us) {
            (Some(a), Some(b)) => (b.saturating_sub(a)) as f64 * 1e-6,
            _ => 0.0,
        };
        let read_rate = if span_s > 0.0 {
            self.ingested as f64 / span_s
        } else {
            0.0
        };
        SessionStats {
            ingested: self.ingested,
            rejects: self.rejects,
            evicted: self.evicted,
            streams: self.streams.len(),
            buffered: self.streams.values().map(|s| s.buf.len()).sum(),
            latest_t_s: self.latest_t_us.map(|us| us as f64 * 1e-6),
            span_s,
            read_rate,
            recomputes: self.recomputes,
            gate_withheld: self.gate_withheld,
            fixes: self.fixes,
            skips: self.skips,
            incremental: self.incremental,
        }
    }

    /// Per-stream counters and staleness for one EPC (`None` until the
    /// session has seen a registered report for it).
    pub fn tag_stats(&self, epc: u128) -> Option<TagStreamStats> {
        let stream = self.streams.get(&epc)?;
        let last_t_s = stream.buf.last().map(|s| s.t_s);
        let latest_t_s = self.latest_t_us.map(|us| us as f64 * 1e-6);
        Some(TagStreamStats {
            epc,
            buffered: stream.buf.len(),
            ingested: stream.ingested,
            evicted: stream.evicted,
            out_of_order: stream.out_of_order,
            duplicate: stream.duplicate,
            quality: CaptureQuality::of(&stream.buf),
            last_t_s,
            age_s: match (latest_t_s, last_t_s) {
                (Some(latest), Some(last)) => Some(latest - last),
                _ => None,
            },
            dirty: stream.dirty(),
        })
    }

    /// Per-stream stats for every stream the session tracks, in registry
    /// registration order.
    pub fn all_tag_stats(&self) -> Vec<TagStreamStats> {
        self.registry
            .tags()
            .iter()
            .filter_map(|t| self.tag_stats(t.epc))
            .collect()
    }
}

/// One streaming session per reader antenna, multiplexed over a single
/// shared [`TagRegistry`] and a single shared spectrum-engine steering
/// cache.
///
/// Created from a registered server via
/// [`crate::server::LocalizationServer::session_manager`], whose registry,
/// engine and observer every session shares. Reports are routed by their
/// `antenna_id`; sessions are created lazily on first sight of an antenna.
#[derive(Debug, Clone)]
pub struct SessionManager {
    registry: Arc<TagRegistry>,
    engine: SpectrumEngine,
    config: PipelineConfig,
    window: WindowConfig,
    /// Ascending antenna order, so iteration is deterministic regardless of
    /// report interleaving.
    sessions: BTreeMap<u8, ReaderSession>,
}

impl SessionManager {
    /// A manager sharing an existing registry and engine (used by
    /// [`crate::server::LocalizationServer::session_manager`]).
    pub(crate) fn with_shared(
        registry: Arc<TagRegistry>,
        engine: SpectrumEngine,
        config: PipelineConfig,
        window: WindowConfig,
    ) -> Self {
        SessionManager {
            registry,
            engine,
            config,
            window,
            sessions: BTreeMap::new(),
        }
    }

    /// The shared registry.
    pub fn registry(&self) -> &TagRegistry {
        &self.registry
    }

    /// Route one report to its antenna's session, creating the session on
    /// first sight of the antenna.
    pub fn ingest(&mut self, report: &TagReport) -> IngestOutcome {
        let session = self.sessions.entry(report.antenna_id).or_insert_with(|| {
            ReaderSession::with_engine(
                Arc::clone(&self.registry),
                self.engine.clone(),
                self.config,
                self.window,
            )
        });
        session.ingest(report)
    }

    /// Bulk-route a whole log. Returns how many reports were buffered.
    pub fn ingest_log(&mut self, log: &InventoryLog) -> usize {
        log.reports()
            .iter()
            .filter(|r| self.ingest(r) == IngestOutcome::Buffered)
            .count()
    }

    /// Bulk-route `reports` in order, batching observer traffic: each
    /// contiguous same-antenna run is handed to that antenna's
    /// [`ReaderSession::ingest_batch`] in one call. Returns how many
    /// reports were buffered.
    pub fn ingest_batch(&mut self, reports: &[TagReport]) -> usize {
        let mut buffered = 0usize;
        let mut i = 0usize;
        while i < reports.len() {
            let antenna_id = reports[i].antenna_id;
            let mut j = i + 1;
            while j < reports.len() && reports[j].antenna_id == antenna_id {
                j += 1;
            }
            let session = self.sessions.entry(antenna_id).or_insert_with(|| {
                ReaderSession::with_engine(
                    Arc::clone(&self.registry),
                    self.engine.clone(),
                    self.config,
                    self.window,
                )
            });
            buffered += session.ingest_batch(&reports[i..j]);
            i = j;
        }
        buffered
    }

    /// The antennas with live sessions, ascending.
    pub fn antennas(&self) -> Vec<u8> {
        self.sessions.keys().copied().collect()
    }

    /// The session of one antenna, if any reports arrived for it.
    pub fn session(&self, antenna_id: u8) -> Option<&ReaderSession> {
        self.sessions.get(&antenna_id)
    }

    /// Mutable access to one antenna's session.
    pub fn session_mut(&mut self, antenna_id: u8) -> Option<&mut ReaderSession> {
        self.sessions.get_mut(&antenna_id)
    }

    /// Fix of kind `K` for one antenna. An antenna with no session yields
    /// [`ServerError::NotEnoughBearings`] with zero usable bearings, the
    /// same as an empty log.
    ///
    /// # Errors
    ///
    /// Same as [`ReaderSession::fix`].
    pub fn fix<K: FixPath>(&mut self, antenna_id: u8) -> Result<K::Fix, ServerError> {
        self.with_session(antenna_id, ReaderSession::fix::<K>)
    }

    /// Estimate of kind `K` (fix + confidence + backend provenance) for
    /// one antenna; see [`ReaderSession::estimate`].
    ///
    /// # Errors
    ///
    /// Same as [`SessionManager::fix`].
    pub fn estimate<K: FixPath>(
        &mut self,
        antenna_id: u8,
    ) -> Result<Estimate<K::Fix>, ServerError> {
        self.with_session(antenna_id, ReaderSession::estimate::<K>)
    }

    /// `fix::<TwoD>(antenna_id)` under its old name, kept only because the
    /// `perfbench` benchmark package calls it.
    ///
    /// # Errors
    ///
    /// Same as [`SessionManager::fix`].
    pub fn fix_2d(&mut self, antenna_id: u8) -> Result<Fix2D, ServerError> {
        self.fix::<TwoD>(antenna_id)
    }

    /// The shared fix dispatch: route to the antenna's session, or report
    /// zero usable bearings for an antenna that never produced one — the
    /// same outcome as an empty log.
    fn with_session<T>(
        &mut self,
        antenna_id: u8,
        fix: impl FnOnce(&mut ReaderSession) -> Result<T, ServerError>,
    ) -> Result<T, ServerError> {
        match self.sessions.get_mut(&antenna_id) {
            Some(s) => fix(s),
            None => Err(ServerError::NotEnoughBearings { usable: 0 }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LocalizationServer;
    use crate::spinning::DiskConfig;
    use tagspin_geom::Vec3;

    /// A server with `epcs` registered 0.6 m apart along x.
    fn server_with(epcs: &[u128], config: PipelineConfig) -> LocalizationServer {
        let mut server = LocalizationServer::new(config);
        for (i, &epc) in epcs.iter().enumerate() {
            let x = i as f64 * 0.6 - 0.3;
            server
                .register(epc, DiskConfig::paper_default(Vec3::new(x, 0.0, 0.0)))
                .unwrap();
        }
        server
    }

    fn session_of(epcs: &[u128], config: PipelineConfig, window: WindowConfig) -> ReaderSession {
        server_with(epcs, config).session(window)
    }

    fn report(epc: u128, t_us: u64, antenna: u8) -> TagReport {
        TagReport {
            epc,
            timestamp_us: t_us,
            phase: tagspin_geom::angle::wrap_tau(t_us as f64 * 1e-5),
            rssi_dbm: -60.0,
            channel_index: 8,
            antenna_id: antenna,
        }
    }

    #[test]
    fn ingest_counts_and_routes() {
        let mut session = session_of(
            &[1, 2],
            PipelineConfig::default(),
            WindowConfig::unbounded(),
        );
        assert_eq!(session.ingest(&report(1, 0, 1)), IngestOutcome::Buffered);
        assert_eq!(session.ingest(&report(2, 100, 1)), IngestOutcome::Buffered);
        assert_eq!(
            session.ingest(&report(9, 200, 1)),
            IngestOutcome::Rejected(RejectReason::UnknownTag)
        );
        // Older than stream 1's newest snapshot → dropped, not panicked.
        assert_eq!(
            session.ingest(&report(2, 50, 1)),
            IngestOutcome::Rejected(RejectReason::OutOfOrder)
        );
        // Byte-identical repeat of stream 2's newest report → duplicate.
        assert_eq!(
            session.ingest(&report(2, 100, 1)),
            IngestOutcome::Rejected(RejectReason::Duplicate)
        );
        let stats = session.stats();
        assert_eq!(stats.ingested, 2);
        assert_eq!(stats.rejects.unknown_tag, 1);
        assert_eq!(stats.rejects.out_of_order, 1);
        assert_eq!(stats.rejects.duplicate, 1);
        assert_eq!(stats.rejects.total(), 3);
        assert_eq!(stats.streams, 2);
        assert_eq!(stats.buffered, 2);
        let t2 = session.tag_stats(2).unwrap();
        assert_eq!(t2.out_of_order, 1);
        assert_eq!(t2.duplicate, 1);
        assert_eq!(t2.buffered, 1);
        assert!(t2.dirty);
        assert!(t2.quality.is_some());
        assert!(session.tag_stats(9).is_none());
    }

    #[test]
    fn value_screens_quarantine_malformed_reports() {
        use tagspin_epc::ReportDefect;
        let mut session = session_of(&[1], PipelineConfig::default(), WindowConfig::unbounded());
        let nan = TagReport {
            phase: f64::NAN,
            ..report(1, 0, 1)
        };
        assert_eq!(
            session.ingest(&nan),
            IngestOutcome::Rejected(RejectReason::Malformed(ReportDefect::NonFinitePhase))
        );
        assert_eq!(session.stats().rejects.non_finite_phase, 1);
        // The permissive policy lets the same values through (finite checks
        // off), but out-of-order rejection still protects the buffer.
        let cfg = PipelineConfig {
            ingest: quarantine::IngestPolicy::permissive(),
            ..PipelineConfig::default()
        };
        let mut loose = session_of(&[1], cfg, WindowConfig::unbounded());
        assert!(loose.ingest(&nan).is_buffered());
        assert_eq!(
            loose.ingest(&report(1, 0, 1)),
            IngestOutcome::Buffered,
            "same timestamp is not out-of-order"
        );
    }

    #[test]
    fn quality_gate_withholds_sparse_capture_from_fix() {
        let cfg = PipelineConfig {
            quality_gate: quarantine::QualityGate::paper_default(),
            min_snapshots: 5,
            ..PipelineConfig::default()
        };
        let mut session = session_of(&[1], cfg, WindowConfig::unbounded());
        // Plenty of reads, but all at nearly the same instant → the disk
        // barely turned, coverage collapses, the gate withholds the tag.
        for i in 0..40u64 {
            session.ingest(&report(1, i, 1));
        }
        assert_eq!(
            session.tag_bearing_2d(1),
            Err(ServerError::QualityGated { epc: 1 })
        );
        // Skippable: the fix degrades to NotEnoughBearings, not a hard
        // QualityGated error.
        assert_eq!(
            session.fix::<TwoD>(),
            Err(ServerError::NotEnoughBearings { usable: 0 })
        );
    }

    #[test]
    fn count_window_bounds_buffers() {
        let mut session = session_of(
            &[1],
            PipelineConfig::default(),
            WindowConfig::last_reports(3),
        );
        for i in 0..10u64 {
            session.ingest(&report(1, i * 1000, 1));
        }
        let t1 = session.tag_stats(1).unwrap();
        assert_eq!(t1.buffered, 3);
        assert_eq!(t1.ingested, 10);
        assert_eq!(t1.evicted, 7);
        assert_eq!(session.stats().evicted, 7);
    }

    #[test]
    fn time_window_ages_out_silent_tags_at_fix_time() {
        let mut session = session_of(
            &[1, 2],
            PipelineConfig::default(),
            WindowConfig::last_seconds(0.5),
        );
        // Tag 1 reads early, then goes silent; tag 2 keeps reading.
        session.ingest(&report(1, 0, 1));
        session.ingest(&report(2, 100, 1));
        session.ingest(&report(2, 2_000_000, 1));
        // Tag 1's buffer is untouched until a fix forces session-wide aging.
        assert_eq!(session.tag_stats(1).unwrap().buffered, 1);
        let _ = session.fix::<TwoD>();
        assert_eq!(session.tag_stats(1).unwrap().buffered, 0);
        assert_eq!(session.tag_stats(1).unwrap().evicted, 1);
        // Tag 2's own early read aged out on ingest already.
        assert_eq!(session.tag_stats(2).unwrap().buffered, 1);
    }

    #[test]
    fn fixes_use_cached_bearings_until_dirty() {
        let mut session = session_of(
            &[1, 2],
            PipelineConfig::default(),
            WindowConfig::unbounded(),
        );
        session.ingest(&report(1, 0, 1));
        // Too few snapshots everywhere → NotEnoughBearings, but the per-tag
        // error results are now cached (streams clean).
        assert_eq!(
            session.fix::<TwoD>(),
            Err(ServerError::NotEnoughBearings { usable: 0 })
        );
        assert!(!session.tag_stats(1).unwrap().dirty);
        // New data re-dirties only tag 1's stream.
        session.ingest(&report(1, 1000, 1));
        assert!(session.tag_stats(1).unwrap().dirty);
    }

    #[test]
    fn unknown_epc_bearing_query_errors() {
        let mut session = session_of(&[1], PipelineConfig::default(), WindowConfig::unbounded());
        assert_eq!(session.tag_bearing_2d(42), Err(ServerError::UnknownTag(42)));
        // Registered but never read → NoReads, the batch pipeline's error.
        assert_eq!(
            session.tag_bearing_2d(1),
            Err(ServerError::Snapshot(SnapshotError::NoReads))
        );
        let registry = Arc::clone(&session.registry);
        let tag = registry.get(1).unwrap();
        assert_eq!(
            session.bearing_cached::<ThreeD>(tag),
            Err(ServerError::Snapshot(SnapshotError::NoReads))
        );
    }

    #[test]
    fn manager_routes_by_antenna() {
        let mut mgr =
            server_with(&[1], PipelineConfig::default()).session_manager(WindowConfig::unbounded());
        assert_eq!(mgr.ingest(&report(1, 0, 2)), IngestOutcome::Buffered);
        assert_eq!(mgr.ingest(&report(1, 100, 1)), IngestOutcome::Buffered);
        assert_eq!(
            mgr.ingest(&report(7, 200, 3)),
            IngestOutcome::Rejected(RejectReason::UnknownTag)
        );
        // Ascending antenna order, and the unknown-EPC antenna still has a
        // session (it saw traffic).
        assert_eq!(mgr.antennas(), vec![1, 2, 3]);
        // No-session antenna behaves like an empty log.
        assert_eq!(
            mgr.fix::<TwoD>(99),
            Err(ServerError::NotEnoughBearings { usable: 0 })
        );
    }
}

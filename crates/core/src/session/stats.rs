//! Observability counters for streaming sessions.
//!
//! A production ingestion tier needs to answer "is this reader alive, how
//! fresh is its fix, how hard is it hitting us" without touching the
//! localization math. These structs are cheap snapshots of the session's
//! counters — no locks, no recomputation.

use crate::diagnostics::CaptureQuality;
use crate::server::ServerError;
use crate::session::quarantine::RejectCounts;
use crate::snapshot::SnapshotError;

/// Per-reason counters for tags *skipped* by a multi-tag fix.
///
/// Historically every skippable per-tag error was folded into one silent
/// `continue`, so a fix quietly degrading because the quality gate
/// withheld half the tags looked identical to one degrading for lack of
/// reads. Each skippable class now has its own visible bucket —
/// `QualityGated` included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SkipCounts {
    /// Tags with an empty window (`SnapshotError::NoReads`).
    pub no_reads: u64,
    /// Tags below the configured `min_snapshots` floor.
    pub too_few_snapshots: u64,
    /// Tags whose angle spectrum degenerated to no finite peak.
    pub empty_spectrum: u64,
    /// Tags withheld by the capture quality gate.
    pub quality_gated: u64,
}

impl SkipCounts {
    /// Record one skipped tag by its (skippable) error.
    pub(crate) fn record(&mut self, e: &ServerError) {
        match e {
            ServerError::Snapshot(SnapshotError::NoReads) => self.no_reads += 1,
            ServerError::TooFewSnapshots { .. } => self.too_few_snapshots += 1,
            ServerError::EmptySpectrum { .. } => self.empty_spectrum += 1,
            ServerError::QualityGated { .. } => self.quality_gated += 1,
            // `pipeline::skippable` admits exactly the four classes above;
            // anything else aborts the fix before reaching this counter.
            _ => {}
        }
    }

    /// Total skipped tags across every reason.
    pub fn total(&self) -> u64 {
        self.no_reads + self.too_few_snapshots + self.empty_spectrum + self.quality_gated
    }
}

/// Counters for the incremental-accumulator fix path.
///
/// All four stay zero until a stream's refreshes turn small enough to
/// anchor the incremental state, at the earliest on its third refresh (see
/// [`crate::spectrum::incremental::IncrementalPolicy`]); they tick even
/// when no observer is attached, mirroring the other session counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalCounts {
    /// Snapshot columns applied (rank-1 updates) to accumulators.
    pub applied: u64,
    /// Snapshot columns downdated (evicted) from accumulators.
    pub downdated: u64,
    /// Syncs that re-anchored with a full recompute.
    pub reanchors: u64,
    /// Syncs that fell back to the reference path because non-finite
    /// columns were resident in the window.
    pub fallbacks: u64,
}

/// Session-wide ingestion counters and freshness figures.
///
/// Accounting invariant: every report ever offered to the session is either
/// counted in `ingested` or in exactly one [`RejectCounts`] bucket
/// (`ingested + rejects.total()` = reports offered); every ingested
/// snapshot is either still `buffered` or was `evicted` by the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionStats {
    /// Reports buffered into a tag stream since the session started.
    pub ingested: u64,
    /// Reports quarantined by the ingest screens, by typed reason.
    pub rejects: RejectCounts,
    /// Snapshots evicted by the sliding window (all streams, lifetime).
    pub evicted: u64,
    /// Tag streams currently tracked (registered EPCs seen at least once).
    pub streams: usize,
    /// Snapshots currently buffered across all streams.
    pub buffered: usize,
    /// Reader-clock time of the newest ingested report, seconds.
    pub latest_t_s: Option<f64>,
    /// Reader-clock span from the first to the newest ingested report,
    /// seconds (0 until two reports arrive).
    pub span_s: f64,
    /// Mean ingest rate over the observed span, reports/s (0 for
    /// degenerate spans).
    pub read_rate: f64,
    /// Fresh per-tag bearing computations (dirty-flag recomputes) since
    /// the session started. Cached reuses are *not* counted here.
    pub recomputes: u64,
    /// Fresh recomputes the quality gate withheld (a subset of
    /// `recomputes`; cached reuses of a gated result do not re-count).
    pub gate_withheld: u64,
    /// Multi-tag fix attempts (successful or not).
    pub fixes: u64,
    /// Tags skipped by fix attempts, by skippable reason.
    pub skips: SkipCounts,
    /// Incremental-accumulator sync counters (zeros until the incremental
    /// path engages).
    pub incremental: IncrementalCounts,
}

/// Per-tag stream counters and staleness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagStreamStats {
    /// The stream's EPC.
    pub epc: u128,
    /// Snapshots currently inside the window.
    pub buffered: usize,
    /// Reports ever buffered into this stream.
    pub ingested: u64,
    /// Snapshots evicted from this stream by the sliding window.
    pub evicted: u64,
    /// Reports dropped for arriving behind this stream's newest snapshot.
    pub out_of_order: u64,
    /// Byte-identical repeats of this stream's newest report, dropped.
    pub duplicate: u64,
    /// Structural quality of the current window (`None` for an empty
    /// buffer) — what the session's quality gate judges.
    pub quality: Option<CaptureQuality>,
    /// Reader-clock time of the newest buffered snapshot, seconds.
    pub last_t_s: Option<f64>,
    /// Staleness: session latest minus this stream's newest snapshot,
    /// seconds. `None` until both exist.
    pub age_s: Option<f64>,
    /// True when the buffer changed since the last bearing computation —
    /// the next fix recomputes this tag instead of reusing a cached
    /// bearing.
    pub dirty: bool,
}

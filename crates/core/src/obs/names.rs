//! The canonical metric-name inventory.
//!
//! Every name [`super::MetricsObserver`] registers lives here as a
//! `pub const`, and `cargo xtask lint` rule L8 cross-checks this file in
//! both directions against the inventory table in `docs/OBSERVABILITY.md`:
//! a const missing from the docs is undocumented telemetry, a documented
//! name without a const is a stale entry or a silent rename, and a const
//! never referenced by the observer is dead inventory. Registration sites
//! in `metrics.rs` must use these consts (raw string literals there are
//! an L8 finding), so renaming a metric is a one-line change that the
//! lint gate keeps honest.

use super::Stage;

/// Steering-table cache lookups that found a cached table.
pub const ENGINE_CACHE_HIT: &str = "engine.cache.hit";
/// Steering-table cache lookups that had to build the table.
pub const ENGINE_CACHE_MISS: &str = "engine.cache.miss";
/// Sparse coarse-to-fine peak searches completed.
pub const ENGINE_PEAK_SEARCHES: &str = "engine.peak_searches";
/// Grid cells evaluated by coarse stride passes.
pub const ENGINE_COARSE_CELLS: &str = "engine.coarse_cells";
/// Grid cells evaluated by fine window passes.
pub const ENGINE_FINE_CELLS: &str = "engine.fine_cells";
/// Peak-to-sidelobe detection margin (histogram, profile power units).
pub const ENGINE_PEAK_MARGIN: &str = "engine.peak_margin";
/// Reports that passed every ingest screen.
pub const INGEST_ACCEPTED: &str = "ingest.accepted";
/// Reports quarantined: EPC not in the registry.
pub const INGEST_REJECTED_UNKNOWN_TAG: &str = "ingest.rejected.unknown_tag";
/// Reports quarantined: timestamp older than the stream head.
pub const INGEST_REJECTED_OUT_OF_ORDER: &str = "ingest.rejected.out_of_order";
/// Reports quarantined: duplicate (timestamp, antenna) pair.
pub const INGEST_REJECTED_DUPLICATE: &str = "ingest.rejected.duplicate";
/// Reports quarantined: NaN or infinite phase.
pub const INGEST_REJECTED_NON_FINITE_PHASE: &str = "ingest.rejected.non_finite_phase";
/// Reports quarantined: phase outside `[0, 2π)`.
pub const INGEST_REJECTED_PHASE_OUT_OF_RANGE: &str = "ingest.rejected.phase_out_of_range";
/// Reports quarantined: non-finite or out-of-range RSSI.
pub const INGEST_REJECTED_BAD_RSSI: &str = "ingest.rejected.bad_rssi";
/// Reports quarantined: the all-zero null EPC.
pub const INGEST_REJECTED_NULL_EPC: &str = "ingest.rejected.null_epc";
/// Reports shed by the serve daemon: a shard queue was at capacity.
pub const INGEST_REJECTED_OVERLOAD: &str = "ingest.rejected.overload";
/// Buffer depth of the most recently accepted stream (gauge).
pub const INGEST_LAST_BUFFERED: &str = "ingest.last_buffered";
/// Snapshots aged out of sliding windows.
pub const SESSION_EVICTED: &str = "session.evicted";
/// Bearings served by a fresh dirty-flag recompute.
pub const SESSION_RECOMPUTE_FRESH: &str = "session.recompute.fresh";
/// Bearings served from the per-window cache.
pub const SESSION_RECOMPUTE_CACHED: &str = "session.recompute.cached";
/// Fresh recomputes withheld by the capture quality gate.
pub const SESSION_GATE_WITHHELD: &str = "session.gate_withheld";
/// Snapshot columns applied (rank-1 updates) to incremental accumulators.
pub const SESSION_INCREMENTAL_APPLIED: &str = "session.incremental.applied";
/// Snapshot columns downdated (evicted) from incremental accumulators.
pub const SESSION_INCREMENTAL_DOWNDATED: &str = "session.incremental.downdated";
/// Incremental syncs that re-anchored with a full recompute.
pub const SESSION_INCREMENTAL_REANCHORS: &str = "session.incremental.reanchors";
/// Incremental syncs that fell back to the reference path (resident
/// non-finite columns).
pub const SESSION_INCREMENTAL_FALLBACKS: &str = "session.incremental.fallbacks";
/// Multi-tag fix attempts started.
pub const FIX_ATTEMPTS: &str = "fix.attempts";
/// Multi-tag fix attempts that produced a fix.
pub const FIX_OK: &str = "fix.ok";
/// Tags skipped inside fix attempts for degenerate input.
pub const FIX_SKIPPED_TAGS: &str = "fix.skipped_tags";
/// Fixes served by the spectrum estimator backend.
pub const ESTIMATOR_FIX_SPECTRUM: &str = "estimator.fix.spectrum";
/// Fixes served by the maximum-likelihood estimator backend.
pub const ESTIMATOR_FIX_ML: &str = "estimator.fix.ml";
/// Fixes served by the hybrid estimator backend.
pub const ESTIMATOR_FIX_HYBRID: &str = "estimator.fix.hybrid";
/// ML refinements that converged below the step tolerance.
pub const ESTIMATOR_ML_CONVERGED: &str = "estimator.ml.converged";
/// ML refinements rejected back to their spectrum seed.
pub const ESTIMATOR_ML_REJECTED: &str = "estimator.ml.rejected";
/// Gauss–Newton iterations per ML refinement (histogram).
pub const ESTIMATOR_ML_ITERATIONS: &str = "estimator.ml.iterations";
/// Ingest stage wall-clock (histogram, nanoseconds).
pub const STAGE_INGEST_NS: &str = "stage.ingest_ns";
/// Coarse-pass wall-clock (histogram, nanoseconds).
pub const STAGE_COARSE_NS: &str = "stage.coarse_ns";
/// Fine-pass wall-clock (histogram, nanoseconds).
pub const STAGE_FINE_NS: &str = "stage.fine_ns";
/// Per-window recompute wall-clock (histogram, nanoseconds).
pub const STAGE_RECOMPUTE_NS: &str = "stage.recompute_ns";
/// Whole fix-attempt wall-clock (histogram, nanoseconds).
pub const STAGE_FIX_NS: &str = "stage.fix_ns";
/// Estimator-refinement wall-clock (histogram, nanoseconds).
pub const STAGE_REFINE_NS: &str = "stage.refine_ns";
/// Serve frame decode wall-clock (histogram, nanoseconds).
pub const STAGE_DECODE_NS: &str = "stage.decode_ns";
/// Serve batch routing wall-clock (histogram, nanoseconds).
pub const STAGE_ROUTE_NS: &str = "stage.route_ns";
/// TCP reader connections accepted by the serve daemon.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Wire frames decoded into report batches by the serve daemon.
pub const SERVE_FRAMES: &str = "serve.frames";
/// Wire frames rejected with a typed protocol error.
pub const SERVE_FRAME_ERRORS: &str = "serve.frame_errors";
/// Reports enqueued onto a shard channel.
pub const SERVE_REPORTS_ENQUEUED: &str = "serve.reports.enqueued";
/// Reports shed at the shard channel (queue full).
pub const SERVE_REPORTS_SHED: &str = "serve.reports.shed";
/// Fix queries answered over the HTTP endpoint.
pub const SERVE_QUERIES: &str = "serve.queries";
/// Metrics scrapes answered over the HTTP endpoint.
pub const SERVE_SCRAPES: &str = "serve.scrapes";
/// Per-shard queue depth gauge family; one `serve.shard_queue_depth.<n>`
/// gauge per shard.
pub const SERVE_SHARD_QUEUE_DEPTH: &str = "serve.shard_queue_depth";

/// Store records rejected as corrupt or stale at warm boot (the tag boots
/// uncalibrated).
pub const STORE_INVALID: &str = "store.invalid";
/// Orientation calibrations loaded from the store at warm boot.
pub const STORE_ORIENTATION_HIT: &str = "store.orientation.hit";
/// Orientation calibrations persisted to the store at boot.
pub const STORE_ORIENTATION_PERSISTED: &str = "store.orientation.persisted";

/// The stage-timer histogram name for `stage`.
pub fn stage_ns_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Ingest => STAGE_INGEST_NS,
        Stage::Coarse => STAGE_COARSE_NS,
        Stage::Fine => STAGE_FINE_NS,
        Stage::Recompute => STAGE_RECOMPUTE_NS,
        Stage::Fix => STAGE_FIX_NS,
        Stage::Refine => STAGE_REFINE_NS,
        Stage::Decode => STAGE_DECODE_NS,
        Stage::Route => STAGE_ROUTE_NS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_stage_name() {
        for stage in [
            Stage::Ingest,
            Stage::Coarse,
            Stage::Fine,
            Stage::Recompute,
            Stage::Fix,
            Stage::Refine,
            Stage::Decode,
            Stage::Route,
        ] {
            assert_eq!(
                stage_ns_name(stage),
                format!("stage.{}_ns", stage.name()),
                "{stage:?}"
            );
        }
    }
}

//! Observability conformance: the observer layer must be invisible and
//! exact.
//!
//! The contract under test, over hostile streams from
//! [`tagspin::sim::fault::FaultPlan`] (drops, duplicates, reordering,
//! corrupt phases, ghost EPCs):
//!
//! 1. **Invisible** — a session with a [`RecordingObserver`] attached
//!    produces bit-identical ingest outcomes, fixes and stats (stage
//!    timers aside) to the default [`NullObserver`] session, and the null
//!    session's stage timers stay exactly zero (the disabled path never
//!    reads the clock).
//! 2. **Exact** — the recorded event stream reconciles with
//!    [`SessionStats`] and [`RejectCounts`] counter-for-counter: no event
//!    double-counted, none missing, across accepts, per-reason rejects,
//!    evictions, fresh/cached recomputes, gate withholdings, fix attempts
//!    and per-stage timer sums.
//!
//! Case count defaults to 256 and is pinned in CI via `PROPTEST_CASES`.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::InventoryLog;
use tagspin::geom::{Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};
use tagspin::sim::fault::FaultPlan;

/// Two registered disks (EPCs 1 and 2) with the paper-default pipeline.
fn server() -> LocalizationServer {
    let mut server = LocalizationServer::new(PipelineConfig::default());
    server
        .register(1, DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)))
        .expect("unique EPC");
    server
        .register(2, DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)))
        .expect("unique EPC");
    server
}

/// One clean simulated rotation of the two-tag deployment, built once: the
/// fault plans below derive every hostile stream from it deterministically.
fn clean_log() -> &'static InventoryLog {
    static LOG: OnceLock<InventoryLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(7);
        let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
        let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
        let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
        let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
        let reader = ReaderConfig::at(Pose::facing_toward(Vec3::new(0.4, 1.7, 0.0), Vec3::ZERO));
        run_inventory(
            &Environment::paper_default(),
            &reader,
            &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
            d1.period_s(),
            &mut rng,
        )
    })
}

fn window(sel: u8) -> WindowConfig {
    match sel % 4 {
        0 => WindowConfig::unbounded(),
        1 => WindowConfig::last_reports(64),
        2 => WindowConfig::last_reports(512),
        _ => WindowConfig::last_seconds(3.0),
    }
}

/// Fold a recorded event stream into the totals [`SessionStats`] should
/// agree with.
#[derive(Debug, Default, PartialEq)]
struct EventTotals {
    accepted: u64,
    rejects: RejectCounts,
    evicted: u64,
    fresh: u64,
    cached: u64,
    gate_withheld: u64,
    fixes: u64,
    fix_ok: u64,
    skipped: u64,
    estimator_fixes: u64,
    stage: StageTimes,
    cache_lookups: u64,
    peak_searches: u64,
    incremental: IncrementalCounts,
}

fn fold(events: &[Event]) -> EventTotals {
    let mut t = EventTotals::default();
    for e in events {
        match e {
            Event::IngestAccepted { .. } => t.accepted += 1,
            Event::IngestRejected { reason, .. } => t.rejects.record(*reason),
            Event::Evicted { count, .. } => t.evicted += count,
            Event::BearingServed { recomputed, .. } => {
                if *recomputed {
                    t.fresh += 1;
                } else {
                    t.cached += 1;
                }
            }
            Event::GateWithheld { .. } => t.gate_withheld += 1,
            Event::FixAttempt { skipped, ok, .. } => {
                t.fixes += 1;
                t.fix_ok += u64::from(*ok);
                t.skipped += *skipped as u64;
            }
            Event::EstimatorFix { .. } => t.estimator_fixes += 1,
            Event::StageTime { stage, nanos } => match stage {
                Stage::Ingest => t.stage.ingest_ns += nanos,
                Stage::Coarse => t.stage.coarse_ns += nanos,
                Stage::Fine => t.stage.fine_ns += nanos,
                Stage::Recompute => t.stage.recompute_ns += nanos,
                Stage::Fix => t.stage.fix_ns += nanos,
                Stage::Refine => t.stage.refine_ns += nanos,
                // Serve-daemon stages; the session pipeline never emits them.
                Stage::Decode | Stage::Route => {}
            },
            Event::CacheLookup { .. } => t.cache_lookups += 1,
            Event::PeakSearch { .. } => t.peak_searches += 1,
            Event::IncrementalSync {
                applied,
                downdated,
                reanchored,
                fallback,
                ..
            } => {
                t.incremental.applied += applied;
                t.incremental.downdated += downdated;
                t.incremental.reanchors += u64::from(*reanchored);
                t.incremental.fallbacks += u64::from(*fallback);
            }
        }
    }
    t
}

proptest! {
    /// Invariants 1 and 2 over one hostile stream: the recording arm is
    /// bit-identical to the null arm, and its event stream reconciles
    /// exactly with the session counters.
    #[test]
    fn prop_observer_invisible_and_event_counts_reconcile(
        rate in 0.0f64..0.45,
        seed in 0u64..4096,
        window_sel in 0u8..8,
    ) {
        let reports = FaultPlan::at_rate(rate).apply(clean_log(), seed);

        // Separate servers per arm: sessions cloned from one engine share
        // its stage-time atomics, and the point here is that the *null*
        // arm's timers stay untouched.
        let null_server = server();
        let mut null_session = null_server.session(window(window_sel));

        let mut rec_server = server();
        let recorder = Arc::new(RecordingObserver::new());
        rec_server.set_observer(Arc::clone(&recorder) as Arc<dyn Observer>);
        let mut rec_session = rec_server.session(window(window_sel));

        for report in &reports {
            let a = null_session.ingest(report);
            let b = rec_session.ingest(report);
            prop_assert_eq!(a, b, "ingest outcomes diverged");
        }
        // First fix computes, second reuses the per-tag caches — the
        // cached path must be equally invisible and equally counted.
        prop_assert_eq!(null_session.fix::<TwoD>(), rec_session.fix::<TwoD>());
        prop_assert_eq!(null_session.fix::<TwoD>(), rec_session.fix::<TwoD>());

        let null_stats = null_session.stats();
        let rec_stats = rec_session.stats();

        // Invariant 1: identical outputs. Stats agree field-for-field once
        // the (observer-gated, wall-clock) stage timers are set aside —
        // and the null arm's timers are exactly zero.
        let mut rec_flat = rec_stats;
        rec_flat.stage = StageTimes::default();
        let mut null_flat = null_stats;
        null_flat.stage = StageTimes::default();
        prop_assert_eq!(null_flat, rec_flat);
        prop_assert_eq!(null_stats.stage, StageTimes::default(),
            "disabled observer path read the clock");

        // Invariant 2: exact reconciliation, counter-for-counter.
        let totals = fold(&recorder.take());
        prop_assert_eq!(totals.accepted, rec_stats.ingested);
        prop_assert_eq!(totals.rejects, rec_stats.rejects);
        prop_assert_eq!(totals.evicted, rec_stats.evicted);
        prop_assert_eq!(totals.fresh, rec_stats.recomputes);
        prop_assert_eq!(totals.gate_withheld, rec_stats.gate_withheld);
        prop_assert_eq!(totals.fixes, rec_stats.fixes);
        prop_assert_eq!(totals.skipped, rec_stats.skips.total());
        // Every successful fix is served through the estimator dispatch —
        // exactly one EstimatorFix event per FixAttempt { ok: true }.
        prop_assert_eq!(totals.estimator_fixes, totals.fix_ok);
        // The default spectrum backend never runs a refinement.
        prop_assert_eq!(rec_stats.stage.refine_ns, 0);
        prop_assert_eq!(totals.stage, rec_stats.stage);
        prop_assert_eq!(totals.incremental, rec_stats.incremental);
        // Conservation: every buffered report is still buffered or evicted.
        prop_assert_eq!(rec_stats.ingested,
            rec_stats.buffered as u64 + rec_stats.evicted);
        // Gate withholdings only happen on fresh recomputes.
        prop_assert!(totals.gate_withheld <= totals.fresh);
    }

    /// The [`MetricsObserver`] agrees with the raw event stream: feeding
    /// the same hostile stream to a metrics arm yields registry counters
    /// equal to the recording arm's event counts.
    #[test]
    fn prop_metrics_registry_matches_event_stream(
        rate in 0.0f64..0.45,
        seed in 0u64..4096,
    ) {
        let reports = FaultPlan::at_rate(rate).apply(clean_log(), seed);

        let mut rec_server = server();
        let recorder = Arc::new(RecordingObserver::new());
        rec_server.set_observer(Arc::clone(&recorder) as Arc<dyn Observer>);
        let mut rec_session = rec_server.session(WindowConfig::last_reports(256));

        let mut met_server = server();
        let registry = Arc::new(MetricsRegistry::new());
        met_server.set_observer(Arc::new(MetricsObserver::new(Arc::clone(&registry))));
        let mut met_session = met_server.session(WindowConfig::last_reports(256));

        for report in &reports {
            let a = rec_session.ingest(report);
            let b = met_session.ingest(report);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(rec_session.fix::<TwoD>(), met_session.fix::<TwoD>());

        let totals = fold(&recorder.take());
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        prop_assert_eq!(counter("ingest.accepted"), totals.accepted);
        prop_assert_eq!(counter("ingest.rejected.unknown_tag"), totals.rejects.unknown_tag);
        prop_assert_eq!(counter("ingest.rejected.out_of_order"), totals.rejects.out_of_order);
        prop_assert_eq!(counter("ingest.rejected.duplicate"), totals.rejects.duplicate);
        prop_assert_eq!(counter("ingest.rejected.non_finite_phase"),
            totals.rejects.non_finite_phase);
        prop_assert_eq!(counter("ingest.rejected.phase_out_of_range"),
            totals.rejects.phase_out_of_range);
        prop_assert_eq!(counter("ingest.rejected.bad_rssi"), totals.rejects.bad_rssi);
        prop_assert_eq!(counter("ingest.rejected.null_epc"), totals.rejects.null_epc);
        prop_assert_eq!(counter("session.evicted"), totals.evicted);
        prop_assert_eq!(counter("session.recompute.fresh"), totals.fresh);
        prop_assert_eq!(counter("session.recompute.cached"), totals.cached);
        prop_assert_eq!(counter("session.gate_withheld"), totals.gate_withheld);
        prop_assert_eq!(counter("fix.attempts"), totals.fixes);
        prop_assert_eq!(counter("fix.skipped_tags"), totals.skipped);
        prop_assert_eq!(counter("estimator.fix.spectrum"), totals.estimator_fixes);
        prop_assert_eq!(counter("estimator.fix.ml") + counter("estimator.fix.hybrid"), 0);
        prop_assert_eq!(counter("engine.cache.hit") + counter("engine.cache.miss"),
            totals.cache_lookups);
        prop_assert_eq!(counter("engine.peak_searches"), totals.peak_searches);
        prop_assert_eq!(counter("session.incremental.applied"), totals.incremental.applied);
        prop_assert_eq!(counter("session.incremental.downdated"),
            totals.incremental.downdated);
        prop_assert_eq!(counter("session.incremental.reanchors"),
            totals.incremental.reanchors);
        prop_assert_eq!(counter("session.incremental.fallbacks"),
            totals.incremental.fallbacks);
    }
}

/// The incremental accumulator path is visible and reconciled: once a
/// stream passes the engage threshold, every fresh fix emits exactly one
/// `IncrementalSync` event per tag whose deltas match the session counters
/// AND the metrics registry — proving the batched counter path (one
/// `on_batch` per sync instead of one atomic add per accumulator update)
/// loses nothing.
#[test]
fn incremental_sync_events_reconcile_with_stats_and_metrics() {
    let reports = FaultPlan::at_rate(0.0).apply(clean_log(), 0);
    let mut srv = server();
    let recorder = Arc::new(RecordingObserver::new());
    let registry = Arc::new(MetricsRegistry::new());
    srv.set_observer(Arc::new(FanoutObserver::new(vec![
        Arc::clone(&recorder) as Arc<dyn Observer>,
        Arc::new(MetricsObserver::new(Arc::clone(&registry))) as Arc<dyn Observer>,
    ])));
    let mut session = srv.session(WindowConfig::last_reports(256));

    // Fix after every chunk: fix 1 serves the legacy path (engage
    // threshold), fix 2 anchors the incremental state, later fixes apply
    // deltas against the count window.
    for chunk in reports.chunks(reports.len() / 4) {
        for report in chunk {
            session.ingest(report);
        }
        let _ = session.fix::<TwoD>();
    }

    let stats = session.stats();
    assert!(
        stats.incremental.reanchors >= 2,
        "2D slots never anchored: {:?}",
        stats.incremental
    );
    assert!(
        stats.incremental.applied > 0,
        "no accumulator updates applied"
    );
    assert_eq!(
        stats.incremental.fallbacks, 0,
        "clean stream must not fall back"
    );

    let totals = fold(&recorder.take());
    assert_eq!(totals.incremental, stats.incremental);

    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter("session.incremental.applied"),
        stats.incremental.applied
    );
    assert_eq!(
        counter("session.incremental.downdated"),
        stats.incremental.downdated
    );
    assert_eq!(
        counter("session.incremental.reanchors"),
        stats.incremental.reanchors
    );
    assert_eq!(
        counter("session.incremental.fallbacks"),
        stats.incremental.fallbacks
    );
}

/// The quality gate's withholdings are visible, not folded into other
/// skips: a capture covering a sliver of the rotation passes the count
/// floor but fails the structural gate, and both the `quality_gated` skip
/// bucket and the `gate_withheld` counter say so — matching the recorded
/// `GateWithheld` events exactly.
#[test]
fn quality_gate_withholding_is_visible_and_reconciled() {
    let mut server = server();
    server.config.ingest = IngestPolicy::hardened();
    server.config.quality_gate = QualityGate::paper_default();
    let recorder = Arc::new(RecordingObserver::new());
    server.set_observer(Arc::clone(&recorder) as Arc<dyn Observer>);
    let mut session = server.session(WindowConfig::unbounded());

    // 60 reads per tag inside half a second — a sliver of the ~12.6 s
    // rotation, so angular coverage is far below the gate's floor.
    for i in 0..120u64 {
        let outcome = session.ingest(&tagspin::epc::TagReport {
            epc: 1 + (i % 2) as u128,
            timestamp_us: i * 4_000,
            phase: (i as f64 * 0.37) % std::f64::consts::TAU,
            rssi_dbm: -60.0,
            channel_index: 0,
            antenna_id: 1,
        });
        assert_eq!(outcome, IngestOutcome::Buffered, "clean read {i} rejected");
    }
    let err = session
        .fix::<TwoD>()
        .expect_err("both tags must be withheld");
    assert!(
        matches!(err, ServerError::NotEnoughBearings { usable: 0 }),
        "unexpected error {err:?}"
    );

    let stats = session.stats();
    assert_eq!(stats.skips.quality_gated, 2, "gate skips must be visible");
    assert_eq!(stats.skips.total(), 2);
    assert_eq!(stats.gate_withheld, 2);
    assert_eq!(stats.recomputes, 2);

    let totals = fold(&recorder.take());
    assert_eq!(totals.gate_withheld, 2);
    assert_eq!(totals.fresh, 2);
    assert_eq!(totals.skipped, 2);
    assert_eq!(totals.fixes, 1);
}

/// A fan-out delivers the identical event stream to every sink: two
/// recorders behind one [`FanoutObserver`] record equal sequences.
#[test]
fn fanout_sinks_record_identical_streams() {
    let reports = FaultPlan::at_rate(0.3).apply(clean_log(), 11);
    let mut srv = server();
    let a = Arc::new(RecordingObserver::new());
    let b = Arc::new(RecordingObserver::new());
    srv.set_observer(Arc::new(FanoutObserver::new(vec![
        Arc::clone(&a) as Arc<dyn Observer>,
        Arc::clone(&b) as Arc<dyn Observer>,
    ])));
    let mut session = srv.session(WindowConfig::last_reports(128));
    for report in &reports {
        session.ingest(report);
    }
    let _ = session.fix::<TwoD>();
    let ea = a.take();
    assert!(!ea.is_empty(), "no events recorded");
    assert_eq!(ea, b.take());
}

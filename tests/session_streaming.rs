//! Streaming/batch equivalence and sliding-window semantics of the session
//! pipeline.
//!
//! The contract under test: a [`ReaderSession`] with an unbounded window,
//! fed an inventory log report-by-report, produces **bit-identical** fixes
//! to the batch `LocalizationServer::fix::<K>` fed the same log whole —
//! including when fixes are queried mid-stream (dirty-flag recomputation
//! must not drift). Bounded windows must agree with the batch pipeline run on the
//! equivalently-truncated log.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::{InventoryLog, TagReport};
use tagspin::geom::{Pose, Vec2, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        spectrum: SpectrumConfig {
            azimuth_steps: 360,
            polar_steps: 31,
            references: 8,
            ..SpectrumConfig::default()
        },
        // These tests pin the legacy bit-equality contract. The incremental
        // path serves a full-grid peak that may legitimately differ from the
        // default coarse-to-fine search within one grid step, so it gets its
        // own scoped tests below.
        incremental: IncrementalPolicy::disabled(),
        ..PipelineConfig::default()
    }
}

/// Standard deployment: spinning tags on the given disks, a server with
/// every disk registered, and one observation log from `truth`.
fn deploy(disks: &[DiskConfig], truth: Vec3, seed: u64) -> (LocalizationServer, InventoryLog) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut server = LocalizationServer::new(pipeline_config());
    let mut tags = Vec::new();
    for (i, &disk) in disks.iter().enumerate() {
        let epc = (i + 1) as u128;
        tags.push(SpinningTag::new(
            disk,
            TagInstance::manufacture(TagModel::DEFAULT, epc, &mut rng),
        ));
        server.register(epc, disk).expect("unique EPCs");
    }
    let reader = ReaderConfig::at(Pose::facing_toward(truth, disks[0].center));
    let transponders: Vec<&dyn Transponder> = tags.iter().map(|t| t as &dyn Transponder).collect();
    let log = run_inventory(
        &Environment::paper_default(),
        &reader,
        &transponders,
        disks[0].period_s(),
        &mut rng,
    );
    (server, log)
}

fn two_disks() -> Vec<DiskConfig> {
    vec![
        DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
        DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
    ]
}

#[test]
fn streaming_2d_matches_batch_with_interleaved_fixes() {
    let (server, log) = deploy(&two_disks(), Vec3::new(0.4, 1.8, 0.0), 42);
    let batch = server.fix::<TwoD>(&log).expect("batch fix");

    let mut session = server.session(WindowConfig::unbounded());
    for (i, report) in log.stream().enumerate() {
        session.ingest(report);
        // Query fixes mid-stream: the dirty-flag cache must recompute from
        // the grown buffers, never from stale state.
        if i % 97 == 0 {
            let _ = session.fix::<TwoD>();
        }
    }
    let streamed = session.fix::<TwoD>().expect("streaming fix");
    assert_eq!(batch, streamed);
    // A second query without new data hits the caches and must be
    // identical too.
    assert_eq!(streamed, session.fix::<TwoD>().expect("cached fix"));
    assert!(!session.tag_stats(1).expect("stream exists").dirty);
}

/// A poll below the snapshot floor is no refresh, so it must not count
/// toward the incremental refresh rule: the stream's first real fix stays
/// fresh and matches the batch fix bit-for-bit instead of anchoring the
/// accumulators.
#[test]
fn below_floor_poll_does_not_engage_incremental() {
    let (mut server, log) = deploy(&two_disks(), Vec3::new(0.4, 1.8, 0.0), 42);
    server.config = PipelineConfig::default();
    let mut session = server.session(WindowConfig::unbounded());
    let mut reports = log.stream();
    let buffered = |s: &ReaderSession, epc| s.tag_stats(epc).map_or(0, |t| t.buffered);
    while buffered(&session, 1) < 10 || buffered(&session, 2) < 10 {
        session.ingest(reports.next().expect("log outlasts the poll"));
    }
    assert_eq!(
        session.fix::<TwoD>(),
        Err(ServerError::NotEnoughBearings { usable: 0 })
    );
    for report in reports {
        session.ingest(report);
    }
    let fix = session.fix::<TwoD>().expect("streaming fix");
    assert_eq!(session.stats().incremental, IncrementalCounts::default());
    assert_eq!(fix, server.fix::<TwoD>(&log).expect("batch fix"));
}

/// The three layers agree on one kind: a session and a manager fed the log
/// report-by-report serve the batch server's estimate, and each layer's
/// plain fix is that estimate's fix.
fn assert_layers_agree<K: FixPath>(server: &LocalizationServer, log: &InventoryLog)
where
    K::Fix: PartialEq + std::fmt::Debug,
{
    let batch = server.estimate::<K>(log).expect("batch estimate");
    let mut session = server.session(WindowConfig::unbounded());
    let mut manager = server.session_manager(WindowConfig::unbounded());
    for report in log.stream() {
        session.ingest(report);
        manager.ingest(report);
    }
    let antenna = log.reports()[0].antenna_id;
    assert_eq!(batch, session.estimate::<K>().expect("session estimate"));
    assert_eq!(
        batch,
        manager.estimate::<K>(antenna).expect("manager estimate")
    );
    assert_eq!(batch.fix, server.fix::<K>(log).expect("batch fix"));
    assert_eq!(batch.fix, session.fix::<K>().expect("session fix"));
    assert_eq!(batch.fix, manager.fix::<K>(antenna).expect("manager fix"));
}

#[test]
fn streaming_3d_and_aided_match_batch() {
    let (server, log) = deploy(&two_disks(), Vec3::new(0.3, 1.6, 0.8), 11);
    assert_layers_agree::<TwoD>(&server, &log);
    assert_layers_agree::<ThreeD>(&server, &log);
    assert_layers_agree::<Aided>(&server, &log);
}

#[test]
fn count_window_matches_batch_on_truncated_log() {
    let (server, log) = deploy(&two_disks(), Vec3::new(-0.2, 2.0, 0.0), 7);
    let max = 64usize;

    let mut session = server.session(WindowConfig::last_reports(max));
    session.ingest_log(&log);
    let windowed = session.fix::<TwoD>().expect("windowed fix");
    for epc in [1u128, 2] {
        assert_eq!(session.tag_stats(epc).expect("stream").buffered, max);
    }

    // The equivalent batch input: only the last `max` reports per EPC.
    let per_epc_total: std::collections::HashMap<u128, usize> = log
        .epcs()
        .into_iter()
        .map(|e| (e, log.for_epc(e).count()))
        .collect();
    let mut seen: std::collections::HashMap<u128, usize> = std::collections::HashMap::new();
    let truncated: InventoryLog = log
        .stream()
        .filter(|r| {
            let i = seen.entry(r.epc).or_insert(0);
            *i += 1;
            *i > per_epc_total[&r.epc] - max
        })
        .copied()
        .collect();
    let batch = server.fix::<TwoD>(&truncated).expect("batch fix");
    assert_eq!(batch, windowed);
}

#[test]
fn time_window_matches_batch_on_truncated_log() {
    let (server, log) = deploy(&two_disks(), Vec3::new(0.1, 1.5, 0.0), 19);
    let age = 6.0f64;

    let mut session = server.session(WindowConfig::last_seconds(age));
    session.ingest_log(&log);
    let windowed = session.fix::<TwoD>().expect("windowed fix");

    // Same horizon arithmetic as the session: newest report minus max age,
    // keep reads at or after it.
    let latest = log.reports().last().expect("nonempty log").timestamp_us as f64 * 1e-6;
    let horizon = latest - age;
    let truncated: InventoryLog = log
        .stream()
        .filter(|r| r.time_s() >= horizon)
        .copied()
        .collect();
    assert!(truncated.len() < log.len(), "window must actually truncate");
    let batch = server.fix::<TwoD>(&truncated).expect("batch fix");
    assert_eq!(batch, windowed);
}

#[test]
fn silent_tags_age_out_to_not_enough_bearings() {
    let (server, log) = deploy(&two_disks(), Vec3::new(0.4, 1.8, 0.0), 42);
    let mut session = server.session(WindowConfig::last_seconds(2.0));
    session.ingest_log(&log);
    assert!(session.fix::<TwoD>().is_ok());

    // Both tags go silent; a lone fresh read from an unregistered EPC
    // advances the clock far past the window.
    let late = TagReport {
        epc: 99,
        timestamp_us: log.reports().last().expect("nonempty").timestamp_us + 60_000_000,
        phase: 1.0,
        rssi_dbm: -60.0,
        channel_index: 8,
        antenna_id: 1,
    };
    assert_eq!(
        session.ingest(&late),
        IngestOutcome::Rejected(RejectReason::UnknownTag)
    );
    // An unknown-tag read advances nothing; a registered one does.
    let late_known = TagReport { epc: 1, ..late };
    assert_eq!(session.ingest(&late_known), IngestOutcome::Buffered);
    assert_eq!(
        session.fix::<TwoD>(),
        Err(ServerError::NotEnoughBearings { usable: 0 })
    );
    let stats = session.stats();
    assert!(stats.evicted > 0);
    assert_eq!(stats.buffered, 1);
}

/// Pinned behavior: a tag whose spectrum degenerates (here: all-NaN phases,
/// so the peak search finds no finite sample) is *skipped* by the multi-tag
/// fixes — it no longer aborts the whole localization.
#[test]
fn empty_spectrum_tag_is_skipped_not_fatal() {
    let mut disks = two_disks();
    disks.push(DiskConfig::paper_default(Vec3::new(0.0, 0.5, 0.0)));
    let (server, log) = deploy(&disks, Vec3::new(0.4, 1.8, 0.0), 42);

    // Replace tag 3's reads with NaN phases (a dead sensor feed), keeping
    // timestamps so the log stays time-ordered.
    let poisoned: InventoryLog = log
        .stream()
        .map(|r| {
            if r.epc == 3 {
                TagReport {
                    phase: f64::NAN,
                    ..*r
                }
            } else {
                *r
            }
        })
        .collect();
    assert!(poisoned.for_epc(3).count() >= server.config.min_snapshots);

    // The default hardened ingest quarantines NaN phases; admit them so
    // the spectrum itself degenerates.
    let mut admitting = server.clone();
    admitting.config.ingest = IngestPolicy::permissive();
    let mut session = admitting.session(WindowConfig::unbounded());
    session.ingest_log(&poisoned);
    // The per-tag diagnostic pins the exact error...
    assert_eq!(
        session.tag_bearing_2d(3),
        Err(ServerError::EmptySpectrum { epc: 3 })
    );
    // ...while the fix skips the tag and matches the healthy-tags-only log.
    let healthy: InventoryLog = log.stream().filter(|r| r.epc != 3).copied().collect();
    let fix = session.fix::<TwoD>().expect("degenerate tag skipped");
    assert_eq!(fix, server.fix::<TwoD>(&healthy).expect("two-tag fix"));
    // The batch fix under the default (quarantining) ingest agrees.
    assert_eq!(fix, server.fix::<TwoD>(&poisoned).expect("batch fix"));
}

#[test]
fn manager_fixes_match_per_antenna_batch() {
    let disks = two_disks();
    let (server, log_a) = deploy(&disks, Vec3::new(0.4, 1.8, 0.0), 42);
    let (_, log_b) = deploy(&disks, Vec3::new(-0.6, 1.4, 0.0), 43);

    // Merge two readers into one interleaved feed: antenna 2's reports are
    // relabeled, then both streams are merged in timestamp order.
    let mut merged: Vec<TagReport> = log_a.stream().copied().collect();
    merged.extend(log_b.stream().map(|r| TagReport {
        antenna_id: 2,
        ..*r
    }));
    merged.sort_by_key(|r| r.timestamp_us);
    let merged: InventoryLog = merged.into_iter().collect();

    let mut manager = server.session_manager(WindowConfig::unbounded());
    manager.ingest_log(&merged);
    // The antenna ids come back ascending.
    assert_eq!(manager.antennas(), vec![1, 2]);
    // The multiplexed result must equal running the batch pipeline on each
    // antenna's sub-log separately (the pre-session semantics).
    for ant in manager.antennas() {
        assert_eq!(
            manager.fix::<TwoD>(ant),
            server.fix::<TwoD>(&merged.for_antenna(ant))
        );
    }
}

#[test]
fn session_stats_reflect_the_stream() {
    let (server, log) = deploy(&two_disks(), Vec3::new(0.4, 1.8, 0.0), 42);
    let mut session = server.session(WindowConfig::unbounded());
    let buffered = session.ingest_log(&log);
    assert_eq!(buffered, log.len());

    let stats = session.stats();
    assert_eq!(stats.ingested as usize, log.len());
    assert_eq!(stats.rejects.total(), 0);
    assert_eq!(stats.evicted, 0);
    assert_eq!(stats.streams, 2);
    assert_eq!(stats.buffered, log.len());
    assert!((stats.span_s - log.span_s()).abs() < 1e-9);
    assert!(stats.read_rate > 0.0);

    let per_tag = session.all_tag_stats();
    assert_eq!(per_tag.len(), 2);
    assert_eq!(per_tag.iter().map(|t| t.buffered).sum::<usize>(), log.len());
    // Tag streams are fresh relative to the session's newest report.
    for t in &per_tag {
        assert!(t.age_s.expect("ages known") >= 0.0);
        assert!(t.dirty, "no fix queried yet");
    }
}

/// With the incremental accumulators engaged (the default policy), a
/// session queried mid-stream converges to the same answer as the batch
/// pipeline. The incremental full-grid peak may differ from the default
/// coarse-to-fine search within one grid step, so the fix is pinned by
/// position tolerance rather than bit-equality.
#[test]
fn incremental_session_tracks_batch_within_tolerance() {
    let truth = Vec3::new(0.4, 1.8, 0.0);
    let (mut server, log) = deploy(&two_disks(), truth, 42);
    server.config.incremental = IncrementalPolicy::default();
    let batch = server.fix::<TwoD>(&log).expect("batch fix");

    let mut session = server.session(WindowConfig::unbounded());
    for (i, report) in log.stream().enumerate() {
        session.ingest(report);
        if i % 97 == 0 {
            let _ = session.fix::<TwoD>();
        }
    }
    let streamed = session.fix::<TwoD>().expect("streaming fix");
    assert!(
        (streamed.position - batch.position).norm() < 0.1,
        "incremental fix {:?} drifted from batch {:?}",
        streamed.position,
        batch.position
    );
    assert!((streamed.position - truth.xy()).norm() < 0.2);
    let stats = session.stats();
    assert!(
        stats.incremental.applied > 0,
        "incremental path never engaged: {:?}",
        stats.incremental
    );
    assert_eq!(stats.incremental.fallbacks, 0);
}

/// Forcing a re-anchor on every sync (`drift_tol = 0.0`) under the
/// exhaustive engine makes the incremental path bit-identical to batch:
/// every refresh replays the reference fold order exactly, so even
/// interleaved mid-stream fixes cannot introduce drift.
#[test]
fn incremental_reanchor_every_sync_is_bit_identical_to_batch() {
    let (mut server, log) = deploy(&two_disks(), Vec3::new(-0.2, 1.6, 0.0), 23);
    server.config.engine = SpectrumEngineConfig { exhaustive: true };
    server.config.incremental = IncrementalPolicy {
        drift_tol: 0.0,
        ..IncrementalPolicy::default()
    };
    let batch_2d = server.fix::<TwoD>(&log).expect("batch 2d fix");
    let batch_3d = server.fix::<ThreeD>(&log).expect("batch 3d fix");

    let mut session = server.session(WindowConfig::unbounded());
    let n = log.len();
    for (i, report) in log.stream().enumerate() {
        session.ingest(report);
        if i % 61 == 0 {
            let _ = session.fix::<TwoD>();
        }
        // Two early 3D polls: the final 3D fix is then the second small
        // refresh in a row, so it anchors instead of searching fresh.
        if i == n / 8 || i == n / 4 {
            let _ = session.fix::<ThreeD>();
        }
    }
    assert_eq!(batch_2d, session.fix::<TwoD>().expect("streaming 2d fix"));
    let before = session.stats().incremental.reanchors;
    assert!(before > 0);
    assert_eq!(batch_3d, session.fix::<ThreeD>().expect("streaming 3d fix"));
    let stats = session.stats();
    assert_eq!(
        stats.incremental.reanchors,
        before + 2,
        "the final 3d fix must anchor both tags"
    );
    assert_eq!(
        stats.incremental.downdated, 0,
        "anchors rebuild, never downdate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized streaming/batch equivalence: any reader pose and seed,
    /// the unbounded session reproduces the batch fix bit-for-bit (or the
    /// batch error verbatim).
    #[test]
    fn prop_streaming_matches_batch(
        x in -1.0f64..1.0,
        y in 1.0f64..2.5,
        seed in 0u64..1000,
    ) {
        let (server, log) = deploy(&two_disks(), Vec3::new(x, y, 0.0), seed);
        let batch = server.fix::<TwoD>(&log);
        let mut session = server.session(WindowConfig::unbounded());
        session.ingest_log(&log);
        prop_assert_eq!(batch, session.fix::<TwoD>());
    }
}

#[test]
fn quickstart_streaming_snippet_works() {
    // The README's streaming example, kept honest by CI.
    let (server, log) = deploy(&two_disks(), Vec3::new(0.4, 1.7, 0.0), 7);
    let mut session = server.session(WindowConfig::last_seconds(30.0));
    let mut last_fix = None;
    for report in log.stream() {
        if session.ingest(report) == IngestOutcome::Buffered && session.stats().ingested % 256 == 0
        {
            last_fix = session.fix::<TwoD>().ok();
        }
    }
    let fix = session.fix::<TwoD>().expect("final fix");
    assert!((fix.position - Vec2::new(0.4, 1.7)).norm() < 0.2);
    let _ = last_fix;
}

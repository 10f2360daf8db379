//! Equivalence suite for the incremental spectrum accumulators.
//!
//! The contract under test (see `docs/INCREMENTAL_SPECTRUM.md`):
//!
//! 1. **Bit-identity on demand** — with `reanchor_after_ops = 1` every
//!    sync replays the reference fold order exactly, so a session on the
//!    incremental path is bit-identical to the legacy recompute over any
//!    ingest/evict interleaving the quarantine admits: duplicates,
//!    out-of-order arrivals, corrupt phases, ghost EPCs, count and time
//!    windows.
//! 2. **Bounded divergence by default** — with the default re-anchor
//!    policy the traditional accumulators see only float drift, and the
//!    enhanced family's frozen-reference estimates keep the detected peak
//!    in place, so fixes track the legacy path within a tight position
//!    tolerance.
//! 3. **Poison safety** — non-finite phases (hardened-rejected or
//!    permissive-buffered) never reach an accumulator; while resident
//!    they force the legacy fallback wholesale, and the state recovers
//!    once they evict.
//! 4. **Drift bound** — a ≥10⁶-operation stream stays within the
//!    re-anchor policy's drift envelope.
//!
//! Case count defaults to 256 and is pinned in CI via `PROPTEST_CASES`;
//! the nightly soak reruns the properties at 4096 cases.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tagspin::core::prelude::*;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::{InventoryLog, TagReport};
use tagspin::geom::{angle, Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};
use tagspin::sim::fault::FaultPlan;

/// A grid small enough for exhaustive recomputes in debug builds while
/// keeping the hybrid refine meaningful (2° azimuth steps).
fn spectrum_cfg() -> SpectrumConfig {
    SpectrumConfig {
        azimuth_steps: 180,
        polar_steps: 11,
        references: 4,
        ..SpectrumConfig::default()
    }
}

/// A coarse 10° × 45° grid for the property suite's 3D and aided arms. An
/// anchored reduction is bit-identical at any resolution, so this grid runs
/// the same sync, re-anchor and reduction code as `spectrum_cfg`'s 3D grid
/// with 180 cells instead of 1980 — the 2D grid's cell count.
fn spectrum_cfg_3d() -> SpectrumConfig {
    SpectrumConfig {
        azimuth_steps: 36,
        polar_steps: 5,
        ..spectrum_cfg()
    }
}

/// Two registered disks (EPCs 1 and 2) on `spectrum_cfg`, exhaustive
/// engine, and the given incremental policy.
fn server(incremental: IncrementalPolicy) -> LocalizationServer {
    server_on(spectrum_cfg(), incremental)
}

/// [`server`] on the given grid. The exhaustive engine removes the
/// coarse-to-fine search from the comparison: both arms then reduce the
/// same full grid.
fn server_on(spectrum: SpectrumConfig, incremental: IncrementalPolicy) -> LocalizationServer {
    let mut server = LocalizationServer::new(PipelineConfig {
        spectrum,
        engine: SpectrumEngineConfig { exhaustive: true },
        incremental,
        ..PipelineConfig::default()
    });
    server
        .register(1, DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)))
        .expect("unique EPC");
    server
        .register(2, DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)))
        .expect("unique EPC");
    server
}

/// Re-anchor on every sync: every served result replays the reference
/// fold order, so the session must be bit-identical to the legacy path.
fn bit_identical_policy() -> IncrementalPolicy {
    IncrementalPolicy {
        reanchor_after_ops: 1,
        engage_after_recomputes: 0,
        ..IncrementalPolicy::default()
    }
}

/// Default drift policy, engaged from the first fresh recompute.
fn engaged_default_policy() -> IncrementalPolicy {
    IncrementalPolicy {
        engage_after_recomputes: 0,
        ..IncrementalPolicy::default()
    }
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
        2 => WindowConfig::last_reports(256),
        _ => WindowConfig::last_seconds(2.0),
    }
}

proptest! {
    /// Property 1: re-anchoring on every sync makes the incremental path
    /// bit-identical to the legacy recompute over random ingest/evict
    /// interleavings — hostile streams (duplicates, reordering, corrupt
    /// phases, ghost EPCs), all four window shapes, 2D, 3D and aided fixes
    /// queried mid-stream at a random stride (3D and aided on the coarse
    /// `spectrum_cfg_3d` grid).
    #[test]
    fn prop_reanchored_sync_is_bit_identical_over_interleavings(
        rate in 0.0f64..0.45,
        seed in 0u64..4096,
        window_sel in 0u8..8,
        stride in 97usize..500,
    ) {
        let reports = FaultPlan::at_rate(rate).apply(clean_log(), seed);

        let legacy_server = server(IncrementalPolicy::disabled());
        let mut legacy = legacy_server.session(window(window_sel));
        let incr_server = server(bit_identical_policy());
        let mut incr = incr_server.session(window(window_sel));
        let legacy_3d_server = server_on(spectrum_cfg_3d(), IncrementalPolicy::disabled());
        let mut legacy_3d = legacy_3d_server.session(window(window_sel));
        let incr_3d_server = server_on(spectrum_cfg_3d(), bit_identical_policy());
        let mut incr_3d = incr_3d_server.session(window(window_sel));

        for (i, report) in reports.iter().enumerate() {
            prop_assert_eq!(legacy.ingest(report), incr.ingest(report));
            prop_assert_eq!(legacy_3d.ingest(report), incr_3d.ingest(report));
            if i % stride == 0 {
                prop_assert_eq!(legacy.fix::<TwoD>(), incr.fix::<TwoD>());
                prop_assert_eq!(legacy_3d.fix::<ThreeD>(), incr_3d.fix::<ThreeD>());
                prop_assert_eq!(legacy_3d.fix::<Aided>(), incr_3d.fix::<Aided>());
            }
        }
        prop_assert_eq!(legacy.fix::<TwoD>(), incr.fix::<TwoD>());
        prop_assert_eq!(legacy_3d.fix::<ThreeD>(), incr_3d.fix::<ThreeD>());
        prop_assert_eq!(legacy_3d.fix::<Aided>(), incr_3d.fix::<Aided>());

        // The incremental arms really took the incremental path: every
        // engaged sync re-anchored, none fell back.
        for stats in [incr.stats(), incr_3d.stats()] {
            prop_assert!(stats.incremental.reanchors > 0);
            prop_assert_eq!(stats.incremental.downdated, 0);
            prop_assert_eq!(stats.incremental.fallbacks, 0);
        }
    }

    /// Property 2: under the *default* re-anchor policy the traditional
    /// profile sees only float drift between anchors, so the incremental
    /// bearing stays on the legacy bearing's grid cell — or, when drift
    /// flips the argmax between numerically tied lobes, the two peaks'
    /// heights agree to float precision. Bearings (not fix positions) are
    /// the oracle: under tiny hostile windows the two-ray intersection
    /// amplifies a one-step bearing shift without bound, while the bearing
    /// itself stays pinned to the spectrum peak.
    #[test]
    fn prop_default_policy_traditional_drift_is_float_level(
        rate in 0.0f64..0.3,
        seed in 0u64..4096,
        window_sel in 0u8..8,
        stride in 97usize..500,
    ) {
        let reports = FaultPlan::at_rate(rate).apply(clean_log(), seed);

        let mut legacy_server = server(IncrementalPolicy::disabled());
        legacy_server.config.profile = ProfileKind::Traditional;
        let mut legacy = legacy_server.session(window(window_sel));
        let mut incr_server = server(engaged_default_policy());
        incr_server.config.profile = ProfileKind::Traditional;
        let mut incr = incr_server.session(window(window_sel));

        for (i, report) in reports.iter().enumerate() {
            prop_assert_eq!(legacy.ingest(report), incr.ingest(report));
            if i % stride == 0 {
                let (a, b) = (legacy.fix::<TwoD>(), incr.fix::<TwoD>());
                prop_assert_eq!(a.is_ok(), b.is_ok(), "{:?} vs {:?}", a, b);
            }
        }
        let (a, b) = (legacy.fix::<TwoD>(), incr.fix::<TwoD>());
        prop_assert_eq!(a.is_ok(), b.is_ok(), "{:?} vs {:?}", a, b);
        // lint:allow(lossy-cast) azimuth step count is < 2^32, exact in f64
        let step = std::f64::consts::TAU / spectrum_cfg().azimuth_steps as f64;
        for epc in [1u128, 2] {
            let (a, b) = (legacy.tag_bearing_2d(epc), incr.tag_bearing_2d(epc));
            prop_assert_eq!(a.is_ok(), b.is_ok(), "epc {}: {:?} vs {:?}", epc, a, b);
            if let (Ok(a), Ok(b)) = (a, b) {
                prop_assert!(
                    angle::separation(a.azimuth, b.azimuth) <= step + 1e-12
                        || (a.weight - b.weight).abs() <= 1e-9,
                    "epc {}: legacy ({}, w {}) vs incremental ({}, w {})",
                    epc,
                    a.azimuth,
                    a.weight,
                    b.azimuth,
                    b.weight
                );
            }
        }
        prop_assert!(incr.stats().incremental.reanchors > 0);
    }
}

/// Under the default policy on a *clean* stream, the hybrid profile's
/// frozen-reference detection keeps the legacy lobe on every window shape
/// that holds a substantial share of the rotation: between anchors the
/// per-cell enhanced values drift semantically, but a dominant lobe stays
/// dominant and the traditional refine stays pinned within a few grid
/// steps. Sliver windows (a few dozen reports, or a second or two of a
/// ~12.6 s rotation) see short-arc, near-tied multi-lobed spectra whose
/// frozen-reference ordering can legitimately swap between anchors — that
/// regime is covered by the ok-ness and bit-identity properties above, and
/// documented in `docs/INCREMENTAL_SPECTRUM.md`.
#[test]
fn hybrid_clean_sliding_windows_keep_the_detected_lobe() {
    // lint:allow(lossy-cast) azimuth step count is < 2^32, exact in f64
    let step = std::f64::consts::TAU / spectrum_cfg().azimuth_steps as f64;
    let shapes: [(&str, WindowConfig); 3] = [
        ("unbounded", WindowConfig::unbounded()),
        ("count512", WindowConfig::last_reports(512)),
        ("time6", WindowConfig::last_seconds(6.0)),
    ];
    for (name, shape) in shapes {
        let legacy_server = server(IncrementalPolicy::disabled());
        let mut legacy = legacy_server.session(shape);
        let incr_server = server(engaged_default_policy());
        let mut incr = incr_server.session(shape);

        let mut compared = 0usize;
        for (i, report) in clean_log().stream().enumerate() {
            assert_eq!(legacy.ingest(report), incr.ingest(report));
            if i % 113 != 0 {
                continue;
            }
            for epc in [1u128, 2] {
                let (a, b) = (legacy.tag_bearing_2d(epc), incr.tag_bearing_2d(epc));
                assert_eq!(a.is_ok(), b.is_ok(), "w={name} i={i}: {a:?} vs {b:?}");
                if let (Ok(a), Ok(b)) = (a, b) {
                    // 6° — the measured envelope across these shapes tops
                    // out at 0.43°; a hop to a neighboring lobe is ≥ 20°.
                    assert!(
                        angle::separation(a.azimuth, b.azimuth) <= 3.0 * step + 1e-12,
                        "w={} i={} epc {}: legacy {} vs incremental {}",
                        name,
                        i,
                        epc,
                        a.azimuth,
                        b.azimuth
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 4, "w={name}: too few comparable bearings");
        assert!(
            incr.stats().incremental.applied > 0,
            "w={name}: never engaged"
        );
    }
}

/// Poison safety, hardened arm: a stream where most phases are corrupted
/// outright (NaN/Inf/garbage) never perturbs the incremental path, because
/// the quarantine rejects the poison before it can reach an accumulator.
/// The sessions stay bit-identical throughout.
#[test]
fn hardened_quarantine_keeps_nan_storms_bit_identical() {
    let plan = FaultPlan {
        corrupt_rate: 0.6,
        duplicate_rate: 0.3,
        ..FaultPlan::clean()
    };
    let reports = plan.apply(clean_log(), 99);

    let legacy_server = server(IncrementalPolicy::disabled());
    let mut legacy = legacy_server.session(WindowConfig::last_reports(128));
    let incr_server = server(bit_identical_policy());
    let mut incr = incr_server.session(WindowConfig::last_reports(128));

    for (i, report) in reports.iter().enumerate() {
        assert_eq!(legacy.ingest(report), incr.ingest(report));
        if i % 151 == 0 {
            assert_eq!(legacy.fix::<TwoD>(), incr.fix::<TwoD>());
        }
    }
    assert_eq!(legacy.fix::<TwoD>(), incr.fix::<TwoD>());
    let stats = incr.stats();
    assert!(
        stats.rejects.non_finite_phase > 0,
        "storm never hit the screen"
    );
    assert_eq!(
        stats.incremental.fallbacks, 0,
        "screened poison must not force fallback"
    );
}

/// The 2D, 3D and aided fixes of two sessions agree exactly.
fn assert_all_kinds_equal(legacy: &mut ReaderSession, incr: &mut ReaderSession) {
    assert_eq!(legacy.fix::<TwoD>(), incr.fix::<TwoD>());
    assert_eq!(legacy.fix::<ThreeD>(), incr.fix::<ThreeD>());
    assert_eq!(legacy.fix::<Aided>(), incr.fix::<Aided>());
}

/// Poison safety, permissive arm: with the value screens off, NaN phases
/// flow into the buffers. While any is resident the incremental path must
/// serve the legacy fallback wholesale (bit-identical fixes, fallback
/// counter ticking); once the count window slides the poison out, the
/// incremental path resumes and the arms remain bit-identical.
#[test]
fn permissive_nan_residency_falls_back_then_recovers() {
    let window = 64usize;
    let mut legacy_server = server(IncrementalPolicy::disabled());
    legacy_server.config.ingest = IngestPolicy::permissive();
    let mut incr_server = server(bit_identical_policy());
    incr_server.config.ingest = IngestPolicy::permissive();
    let mut legacy = legacy_server.session(WindowConfig::last_reports(window));
    let mut incr = incr_server.session(WindowConfig::last_reports(window));

    let clean: Vec<TagReport> = clean_log().stream().copied().collect();

    // Phase 1: a clean prefix, fix on the incremental path.
    for r in &clean[..400] {
        assert_eq!(legacy.ingest(r), incr.ingest(r));
    }
    assert_all_kinds_equal(&mut legacy, &mut incr);
    assert_eq!(incr.stats().incremental.fallbacks, 0);

    // Phase 2: inject NaN phases for both tags, then fix while resident.
    let t0 = clean[400].timestamp_us;
    for k in 0..8u64 {
        let poison = TagReport {
            epc: 1 + (k % 2) as u128,
            timestamp_us: t0 + k * 100,
            phase: if k % 2 == 0 { f64::NAN } else { f64::INFINITY },
            rssi_dbm: -60.0,
            channel_index: 0,
            antenna_id: 1,
        };
        assert_eq!(legacy.ingest(&poison), incr.ingest(&poison));
    }
    assert_all_kinds_equal(&mut legacy, &mut incr);
    let fallbacks_during = incr.stats().incremental.fallbacks;
    assert!(
        fallbacks_during > 0,
        "resident NaN must force the legacy fallback"
    );

    // Phase 3: enough clean reports per tag to slide every NaN out of the
    // count window; the incremental path resumes cleanly.
    for r in &clean[400..400 + 4 * window] {
        let shifted = TagReport {
            timestamp_us: r.timestamp_us + 1_000,
            ..*r
        };
        assert_eq!(legacy.ingest(&shifted), incr.ingest(&shifted));
    }
    assert_all_kinds_equal(&mut legacy, &mut incr);
    let stats = incr.stats();
    assert_eq!(
        stats.incremental.fallbacks, fallbacks_during,
        "fallbacks must stop once the poison evicts"
    );
    assert!(
        stats.incremental.reanchors > fallbacks_during,
        "incremental path never resumed"
    );
}

/// Drift bound over a long stream: ≥10⁶ accumulator operations through a
/// sliding count window, fixes interleaved throughout, under the *default*
/// re-anchor policy. The traditional-profile fix must agree with a
/// from-scratch recompute to float precision, and the re-anchor counter
/// must show the policy bound working — anchoring occasionally, not on
/// every sync.
#[test]
fn long_stream_drift_stays_within_reanchor_bound() {
    let policy = engaged_default_policy();
    let config = PipelineConfig {
        profile: ProfileKind::Traditional,
        spectrum: SpectrumConfig {
            azimuth_steps: 16,
            polar_steps: 5,
            references: 2,
            ..SpectrumConfig::default()
        },
        engine: SpectrumEngineConfig { exhaustive: true },
        ..PipelineConfig::default()
    };
    let mut incr_server = LocalizationServer::new(PipelineConfig {
        incremental: policy,
        ..config
    });
    let mut legacy_server = LocalizationServer::new(PipelineConfig {
        incremental: IncrementalPolicy::disabled(),
        ..config
    });
    for (epc, x) in [(1u128, -0.3), (2u128, 0.3)] {
        let disk = DiskConfig::paper_default(Vec3::new(x, 0.0, 0.0));
        incr_server.register(epc, disk).expect("unique EPC");
        legacy_server.register(epc, disk).expect("unique EPC");
    }
    let mut incr = incr_server.session(WindowConfig::last_reports(64));
    let mut legacy = legacy_server.session(WindowConfig::last_reports(64));

    // Cycle the clean rotation with shifted timestamps until one million
    // reports have flowed through the 64-deep windows. Fixing every 32
    // ingests keeps the per-sync delta (~16 in + 16 out per stream) well
    // under the resident count, so syncs stay on the update/downdate path
    // and only the ops-count policy triggers re-anchors.
    let base: Vec<TagReport> = clean_log().stream().copied().collect();
    let span_us = base.last().expect("nonempty log").timestamp_us + 1_000;
    let mut count: u64 = 0;
    'outer: for cycle in 0u64.. {
        for r in &base {
            let report = TagReport {
                timestamp_us: r.timestamp_us + cycle * span_us,
                ..*r
            };
            assert_eq!(legacy.ingest(&report), incr.ingest(&report));
            count += 1;
            if count.is_multiple_of(32) {
                let _ = incr.fix::<TwoD>();
            }
            if count >= 1_000_000 {
                break 'outer;
            }
        }
    }

    let reference = legacy.fix::<TwoD>().expect("legacy fix");
    let fix = incr.fix::<TwoD>().expect("incremental fix");
    assert!(
        (fix.position - reference.position).norm() <= 1e-9,
        "drift exceeded bound: {:?} vs {:?}",
        fix.position,
        reference.position
    );

    let stats = incr.stats();
    assert_eq!(stats.incremental.fallbacks, 0, "clean stream fell back");
    assert!(
        stats.incremental.applied + stats.incremental.downdated >= 1_000_000,
        "soak too short: {:?}",
        stats.incremental
    );
    // The policy bound is live: some re-anchors happened, but far fewer
    // than one per sync (~32 ops between fixes per stream, so the 4096-op
    // default re-anchors roughly every 128th sync per stream).
    assert!(
        stats.incremental.reanchors > 2,
        "re-anchor bound never tripped"
    );
    assert!(
        stats.incremental.downdated > stats.incremental.reanchors * 100,
        "re-anchoring dominated, downdate path never exercised: {:?}",
        stats.incremental
    );
}

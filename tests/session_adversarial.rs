//! Adversarial ingest: the quarantine layer under hostile streams.
//!
//! The contract under test: a hardened [`ReaderSession`] fed *arbitrary*
//! reports — NaN/infinite/out-of-range phases, bogus RSSI, null and
//! unknown EPCs, backward timestamps, exact duplicates — must
//!
//! 1. never panic,
//! 2. account for every single report: `ingested` equals the number of
//!    `Buffered` outcomes, `rejects` matches the returned reasons
//!    counter-for-counter, and per-stream stats sum back to the session
//!    totals, and
//! 3. stay equivalent to the batch pipeline on the surviving clean
//!    subset: re-running the buffered reports (time-sorted) through
//!    `fix::<TwoD>` reproduces the streaming fix bit-for-bit, errors
//!    included.

use std::f64::consts::TAU;

use proptest::prelude::*;
use tagspin::core::prelude::*;
use tagspin::epc::{InventoryLog, TagReport};
use tagspin::geom::Vec3;

/// Two registered disks (EPCs 1 and 2); EPC 99 stays unknown, EPC 0 is
/// the null tag the value screen rejects.
fn hostile_server() -> LocalizationServer {
    let mut server = LocalizationServer::new(PipelineConfig::default());
    server
        .register(1, DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)))
        .expect("unique EPC");
    server
        .register(2, DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)))
        .expect("unique EPC");
    server
}

/// Decode one strategy tuple into a (possibly hostile) report.
///
/// `phase_sel` / `rssi_sel` pick between poisoned and plausible values so
/// every generated stream mixes valid reads with every defect class;
/// `dup` re-keys the report onto round timestamps so exact duplicates and
/// backward jumps both occur often.
#[allow(clippy::too_many_arguments)]
fn decode(
    epc_sel: u8,
    t_us: u64,
    dup: bool,
    phase_sel: u8,
    phase_raw: f64,
    rssi_sel: u8,
    rssi_raw: f64,
    channel: u8,
) -> TagReport {
    let epc = match epc_sel % 5 {
        0 => 0,  // null EPC: value screen
        1 => 99, // unregistered: registry screen
        2 => 1,
        3 => 2,
        _ => 1,
    };
    let phase = match phase_sel % 6 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => phase_raw,                      // likely out of [0, TAU)
        _ => phase_raw.abs() % (TAU - 1e-9), // lint:allow(angle-hygiene) — forging raw reports, not wrapping angles
    };
    let rssi_dbm = match rssi_sel % 5 {
        0 => f64::NAN,
        1 => rssi_raw, // likely out of [-120, 20]
        _ => -60.0,
    };
    TagReport {
        epc,
        // Collapsing to a coarse grid makes exact timestamp collisions
        // (duplicate keys) and backward jumps common rather than rare.
        timestamp_us: if dup { (t_us / 4) * 4 } else { t_us },
        phase,
        rssi_dbm,
        channel_index: channel % 64,
        antenna_id: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants 1 and 2: no panic, and exact quarantine accounting.
    #[test]
    fn prop_hostile_stream_is_fully_accounted(
        raw in proptest::collection::vec(
            (0u8..8, 0u64..2_000_000, (0u8..2).prop_map(|b| b == 1), 0u8..8,
             -10.0f64..10.0, 0u8..8, -300.0f64..200.0, 0u8..255),
            0..250,
        ),
    ) {
        let server = hostile_server();
        let mut session = server.session(WindowConfig::unbounded());

        let mut buffered = 0u64;
        let mut rejected = 0u64;
        let mut by_reason = RejectCounts::default();
        for &(e, t, d, ps, pr, rs, rr, ch) in &raw {
            let report = decode(e, t, d, ps, pr, rs, rr, ch);
            match session.ingest(&report) {
                IngestOutcome::Buffered => buffered += 1,
                IngestOutcome::Rejected(reason) => {
                    rejected += 1;
                    by_reason.record(reason);
                }
            }
        }

        let stats = session.stats();
        prop_assert_eq!(stats.ingested, buffered);
        prop_assert_eq!(stats.rejects.total(), rejected);
        prop_assert_eq!(stats.ingested + stats.rejects.total(), raw.len() as u64);
        // Reason-for-reason agreement with the returned outcomes.
        prop_assert_eq!(stats.rejects, by_reason);
        // Unbounded window: nothing evicted, streams sum to the total.
        prop_assert_eq!(stats.evicted, 0);
        let per_stream: u64 = [1u128, 2]
            .iter()
            .filter_map(|&epc| session.tag_stats(epc))
            .map(|s| s.buffered as u64)
            .sum();
        prop_assert_eq!(per_stream, stats.buffered as u64);
        prop_assert_eq!(stats.ingested, per_stream);
    }

    /// Invariant 3: the streaming fix over a hostile stream equals the
    /// batch fix over the clean subset that survived quarantine.
    #[test]
    fn prop_clean_subset_batch_equivalence(
        raw in proptest::collection::vec(
            (0u8..8, 0u64..2_000_000, (0u8..2).prop_map(|b| b == 1), 0u8..8,
             -10.0f64..10.0, 0u8..8, -300.0f64..200.0, 0u8..255),
            0..250,
        ),
    ) {
        let server = hostile_server();
        let mut session = server.session(WindowConfig::unbounded());

        let mut survivors: Vec<TagReport> = Vec::new();
        for &(e, t, d, ps, pr, rs, rr, ch) in &raw {
            let report = decode(e, t, d, ps, pr, rs, rr, ch);
            if session.ingest(&report) == IngestOutcome::Buffered {
                survivors.push(report);
            }
        }

        // Stable sort by timestamp: globally monotone (InventoryLog's
        // requirement) while preserving each stream's buffered order, so
        // the batch session screens the identical per-stream sequences.
        survivors.sort_by_key(|r| r.timestamp_us);
        let mut clean = InventoryLog::new();
        for r in survivors {
            clean.push(r);
        }
        prop_assert_eq!(server.fix::<TwoD>(&clean), session.fix::<TwoD>());
    }
}

/// A focused non-property case: one poisoned report of each defect class
/// plus a clean capture; the quarantine isolates the poison and the fix
/// still lands near the clean-only fix.
#[test]
fn each_defect_class_is_isolated() {
    let server = hostile_server();
    let mut session = server.session(WindowConfig::unbounded());

    let poison = [
        (0u128, 10, 1.0, -60.0),       // null EPC
        (1, 20, f64::NAN, -60.0),      // NaN phase
        (1, 30, f64::INFINITY, -60.0), // infinite phase
        (1, 40, 100.0, -60.0),         // phase out of range
        (1, 50, 1.0, f64::NAN),        // NaN RSSI
        (1, 60, 1.0, -500.0),          // RSSI out of range
        (99, 70, 1.0, -60.0),          // unknown tag
    ];
    for (epc, t, phase, rssi) in poison {
        let outcome = session.ingest(&TagReport {
            epc,
            timestamp_us: t,
            phase,
            rssi_dbm: rssi,
            channel_index: 0,
            antenna_id: 1,
        });
        assert!(
            matches!(outcome, IngestOutcome::Rejected(_)),
            "poisoned report must be rejected, got {outcome:?}"
        );
    }
    let stats = session.stats();
    assert_eq!(stats.rejects.total(), poison.len() as u64);
    assert_eq!(stats.rejects.null_epc, 1);
    assert_eq!(stats.rejects.non_finite_phase, 2);
    assert_eq!(stats.rejects.phase_out_of_range, 1);
    assert_eq!(stats.rejects.bad_rssi, 2);
    assert_eq!(stats.rejects.unknown_tag, 1);
    assert_eq!(stats.ingested, 0);
}

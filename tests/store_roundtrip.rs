//! Calibration-store round-trip suite: orientation calibrations across
//! Fourier orders survive save → load → save with byte-identical files
//! and bit-identical contents, and an empty store is a clean no-op for a
//! zero-tag daemon.
//!
//! Case count defaults to 256 and is pinned in CI via `PROPTEST_CASES`.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use tagspin::core::prelude::*;
use tagspin::dsp::fourier::FourierSeries;
use tagspin::serve::{ServeConfig, ServeDaemon};

/// A fresh per-case store directory.
fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    // ordering: relaxed — unique-id counter; no data is published through it
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tagspin-store-roundtrip-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single `.tsc` file in a one-record store.
fn record_bytes(dir: &PathBuf) -> Vec<u8> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir listable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tsc"))
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one record in {dir:?}");
    files.sort();
    std::fs::read(&files[0]).expect("record readable")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// save → load → save is byte-stable for orientation calibrations
    /// across Fourier orders, and the decoded series is bit-identical.
    #[test]
    fn prop_orientation_records_are_byte_stable(
        epc_hi in proptest::num::u64::ANY,
        epc_lo in proptest::num::u64::ANY,
        a0 in -3.0f64..3.0,
        harmonics in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..6),
        rms in 0.0f64..0.5,
    ) {
        let epc = (u128::from(epc_hi) << 64) | u128::from(epc_lo);
        let series = FourierSeries::from_coefficients(a0, harmonics);
        let cal = OrientationCalibration::from_parts(series, rms);

        let dir1 = case_dir("orient-a");
        let store1 = FileStore::open(&dir1).expect("store opens");
        store1.save_orientation(epc, &cal).expect("save");
        let bytes1 = record_bytes(&dir1);

        let loaded = store1.load_orientation(epc).expect("load");
        prop_assert_eq!(
            loaded.series().dc().to_bits(),
            cal.series().dc().to_bits()
        );
        prop_assert_eq!(loaded.series().order(), cal.series().order());
        for (got, want) in loaded
            .series()
            .harmonics()
            .iter()
            .zip(cal.series().harmonics())
        {
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
        prop_assert_eq!(loaded.rms_residual().to_bits(), cal.rms_residual().to_bits());

        let dir2 = case_dir("orient-b");
        let store2 = FileStore::open(&dir2).expect("store opens");
        store2.save_orientation(epc, &loaded).expect("re-save");
        let bytes2 = record_bytes(&dir2);
        prop_assert_eq!(bytes1, bytes2, "save → load → save not byte-stable");

        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir2);
    }
}

/// An empty store round-trips: nothing to list, nothing to verify,
/// nothing to collect — and a zero-tag daemon booted over one neither
/// reads nor writes a record.
#[test]
fn empty_store_and_zero_tag_registry_round_trip() {
    let dir = case_dir("empty");
    let store = FileStore::open(&dir).expect("store opens");
    assert!(store.entries().expect("entries").is_empty());
    assert!(store.verify().expect("verify").is_empty());
    assert!(store.gc().expect("gc").is_empty());

    // Reopening the same directory is equally empty (open is idempotent).
    let reopened = FileStore::open(&dir).expect("store reopens");
    assert!(reopened.entries().expect("entries").is_empty());

    // A daemon with zero registered tags booted over the store performs
    // no store traffic and leaves the directory empty.
    let config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = LocalizationServer::new(PipelineConfig::default());
    let daemon = ServeDaemon::start(server, &config).expect("daemon boots");
    let stats = daemon.stats();
    daemon.shutdown();
    assert_eq!((stats.store_persisted, stats.store_invalid), (0, 0));
    assert!(reopened.entries().expect("entries").is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

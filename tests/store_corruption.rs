//! Calibration-store corruption suite: whatever happens to an orientation
//! record on disk — truncation, bit flips, wrong magic, stale schema
//! versions, key/file mismatches — loading yields a *typed*
//! [`StoreError`] (never a panic) or a bit-identical calibration, and a
//! server that adopts whatever loads, as the serve daemon does at warm
//! boot, fixes bit-for-bit like one of two baselines: the calibrated one
//! when the record survived intact, the uncalibrated one when it did not.
//! The store is a cache with a conformance proof, not a source of truth.
//!
//! The fixture is built once: a two-tag deployment is inventoried, the
//! calibrated and uncalibrated baseline fixes recorded, and a golden
//! store directory populated with tag 1's orientation record. Every
//! proptest case then copies the golden record into a fresh directory,
//! mangles it, and checks both the direct load and the end-to-end fix.
//!
//! Case count defaults to 256 and is pinned in CI via `PROPTEST_CASES`
//! (the nightly corruption soak raises it to 4096).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tagspin::core::prelude::*;
use tagspin::dsp::fourier::FourierSeries;
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::InventoryLog;
use tagspin::geom::{Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

/// The tag whose orientation record the suite mangles.
const EPC: u128 = 1;

/// A small grid keeps each per-case fix cheap without changing the code
/// paths under test.
fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        spectrum: SpectrumConfig {
            azimuth_steps: 72,
            polar_steps: 3,
            ..SpectrumConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// The shared fixture: capture, disks, the two baseline fixes, and a
/// golden store directory holding the pristine record.
struct Fixture {
    log: InventoryLog,
    disks: [DiskConfig; 2],
    calibration: OrientationCalibration,
    calibrated_bits: [u64; 3],
    uncalibrated_bits: [u64; 3],
    golden: PathBuf,
}

/// Build a registered two-tag server (two bearings make a 2D fix).
fn server(disks: &[DiskConfig; 2]) -> LocalizationServer {
    let mut server = LocalizationServer::new(pipeline_config());
    server.register(1, disks[0]).expect("distinct epcs");
    server.register(2, disks[1]).expect("distinct epcs");
    server
}

/// A server that adopts every calibration `store` yields for its tags,
/// exactly as the serve daemon's warm boot does.
fn adopting_server(disks: &[DiskConfig; 2], store: &FileStore) -> LocalizationServer {
    let mut server = server(disks);
    for epc in [1, 2] {
        if let Ok(cal) = store.load_orientation(epc) {
            server
                .set_orientation_calibration(epc, cal)
                .expect("registered tag");
        }
    }
    server
}

fn fix_bits(server: &LocalizationServer, log: &InventoryLog) -> [u64; 3] {
    let fix = server.fix::<TwoD>(log).expect("two-bearing fix");
    [
        fix.position.x.to_bits(),
        fix.position.y.to_bits(),
        fix.residual_m.to_bits(),
    ]
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(29);
        let d1 = DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0));
        let d2 = DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0));
        let t1 = SpinningTag::new(d1, TagInstance::manufacture(TagModel::DEFAULT, 1, &mut rng));
        let t2 = SpinningTag::new(d2, TagInstance::manufacture(TagModel::DEFAULT, 2, &mut rng));
        let reader = ReaderConfig::at(Pose::facing_toward(Vec3::new(0.0, 2.0, 0.0), Vec3::ZERO));
        let log = run_inventory(
            &Environment::paper_default(),
            &reader,
            &[&t1 as &dyn Transponder, &t2 as &dyn Transponder],
            d1.period_s() * 1.5,
            &mut rng,
        );
        let disks = [d1, d2];
        let series =
            FourierSeries::from_coefficients(0.4, vec![(0.12, -0.05), (0.3, 0.2), (-0.04, 0.06)]);
        let calibration = OrientationCalibration::from_parts(series, 0.02);

        let uncalibrated_bits = fix_bits(&server(&disks), &log);
        let mut calibrated = server(&disks);
        calibrated
            .set_orientation_calibration(EPC, calibration.clone())
            .expect("registered tag");
        let calibrated_bits = fix_bits(&calibrated, &log);
        assert_ne!(
            calibrated_bits, uncalibrated_bits,
            "the calibration must move the fix, or the suite cannot tell the baselines apart"
        );

        let golden = std::env::temp_dir().join(format!(
            "tagspin-store-corruption-{}-golden",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&golden);
        let store = FileStore::open(&golden).expect("golden store opens");
        store
            .save_orientation(EPC, &calibration)
            .expect("golden record saves");
        assert_eq!(
            fix_bits(&adopting_server(&disks, &store), &log),
            calibrated_bits,
            "adopting the pristine record must reproduce the calibrated fix"
        );
        Fixture {
            log,
            disks,
            calibration,
            calibrated_bits,
            uncalibrated_bits,
            golden,
        }
    })
}

/// The golden record's on-disk file (the store holds exactly one).
fn golden_record(fx: &Fixture) -> (PathBuf, Vec<u8>) {
    let mut files: Vec<PathBuf> = std::fs::read_dir(&fx.golden)
        .expect("golden dir listable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "tsc"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "expected exactly one golden record");
    let bytes = std::fs::read(&files[0]).expect("golden record readable");
    (files[0].clone(), bytes)
}

/// A fresh per-case directory (proptest cases run concurrently across
/// test binaries; the counter keeps them disjoint).
fn case_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    // ordering: relaxed — unique-id counter; no data is published through it
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "tagspin-store-corruption-{}-case-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("case dir creatable");
    dir
}

/// Mutations, coded by hand (the vendored proptest has no `prop_oneof!`):
/// 0 truncate, 1 bit flip, 2 wrong magic, 3 stale version, 4 key/file
/// mismatch.
fn mangle(code: u8, offset: usize, bytes: &mut Vec<u8>) -> &'static str {
    match code {
        0 => {
            bytes.truncate(offset % bytes.len().max(1));
            "truncation"
        }
        1 => {
            let at = offset % bytes.len().max(1);
            // lint:allow(lossy-cast) offset folded into [0, 8); one bit
            bytes[at] ^= 1u8 << ((offset / bytes.len().max(1)) % 8) as u8;
            "bit flip"
        }
        2 => {
            bytes[..8].copy_from_slice(b"NOTSPNC\0");
            "wrong magic"
        }
        3 => {
            // Version field is little-endian at header offset 8.
            bytes[8] = 0xFF;
            bytes[9] = 0xFF;
            "stale version"
        }
        _ => "key mismatch",
    }
}

/// Whether two calibrations agree bit for bit.
fn bit_identical(a: &OrientationCalibration, b: &OrientationCalibration) -> bool {
    let (sa, sb) = (a.series(), b.series());
    sa.dc().to_bits() == sb.dc().to_bits()
        && a.rms_residual().to_bits() == b.rms_residual().to_bits()
        && sa.harmonics().len() == sb.harmonics().len()
        && sa
            .harmonics()
            .iter()
            .zip(sb.harmonics())
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}

/// Assert the mutated record's direct load is safe: a typed error with a
/// non-empty rendering, or a bit-identical calibration (a flip in the
/// reserved header byte changes nothing the decoder checks). Returns
/// whether the record loaded.
fn assert_load_is_safe(
    store: &FileStore,
    pristine: &OrientationCalibration,
    what: &'static str,
) -> Result<bool, TestCaseError> {
    match store.load_orientation(EPC) {
        Ok(cal) => {
            prop_assert!(
                bit_identical(&cal, pristine),
                "{what}: load succeeded with a *different* calibration"
            );
            Ok(true)
        }
        Err(e) => {
            prop_assert!(!e.to_string().is_empty(), "{what}: blank error rendering");
            Ok(false)
        }
    }
}

/// Copy the golden record into `dir` under `name`.
fn plant(dir: &Path, name: &std::ffi::OsStr, bytes: &[u8]) {
    std::fs::write(dir.join(name), bytes).expect("case record writable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every coded mutation of the on-disk record yields a typed error or
    /// an identical calibration on direct load — and the fix of a server
    /// that adopts whatever loads equals the calibrated baseline when the
    /// record survived and the uncalibrated baseline when it did not.
    #[test]
    fn prop_corrupt_records_never_change_a_fix(
        code in 0u8..5,
        offset in 0usize..1 << 20,
        alt_epc_sel in 0u8..4,
    ) {
        let fx = fixture();
        let (golden_path, golden_bytes) = golden_record(fx);
        let golden_name = golden_path.file_name().expect("record has a name");

        let dir = case_dir();
        let store = FileStore::open(&dir).expect("case store opens");
        let (what, loaded) = if code == 4 {
            // Key mismatch: the intact record planted under a *different*
            // tag's file name, then requested as that tag.
            let other = [2u128, 3, 0xDEAD_BEEF, u128::MAX][usize::from(alt_epc_sel)];
            let name = format!("orient-{other:032x}.tsc");
            plant(&dir, std::ffi::OsStr::new(&name), &golden_bytes);
            // The planted record decodes fine but carries the wrong key:
            // this must be the typed KeyMismatch, not a silent accept.
            let loaded = store.load_orientation(other);
            prop_assert!(
                matches!(loaded, Err(StoreError::KeyMismatch { .. })),
                "key mismatch load returned {loaded:?}"
            );
            ("key mismatch", false)
        } else {
            let mut bytes = golden_bytes.clone();
            let what = mangle(code, offset, &mut bytes);
            plant(&dir, golden_name, &bytes);
            (what, assert_load_is_safe(&store, &fx.calibration, what)?)
        };

        // End to end: the adopting server fixes like exactly one baseline.
        let want = if loaded { fx.calibrated_bits } else { fx.uncalibrated_bits };
        let got = fix_bits(&adopting_server(&fx.disks, &store), &fx.log);
        prop_assert_eq!(
            got, want,
            "{} (record loaded: {}) changed the fix", what, loaded
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncations hitting inside the header or payload are reported as
    /// the typed `Truncated` family with the right byte accounting —
    /// never a panic, never a partial calibration.
    #[test]
    fn prop_truncations_are_typed(cut in 0usize..1 << 20) {
        let fx = fixture();
        let (golden_path, golden_bytes) = golden_record(fx);
        let golden_name = golden_path.file_name().expect("record has a name");
        let cut = cut % golden_bytes.len(); // strictly shorter than full
        let dir = case_dir();
        plant(&dir, golden_name, &golden_bytes[..cut]);
        let store = FileStore::open(&dir).expect("case store opens");
        let loaded = store.load_orientation(EPC);
        prop_assert!(
            matches!(loaded, Err(StoreError::Truncated { needed, got })
                if u64::try_from(cut).ok() == Some(got) && needed > got),
            "cut at {cut} of {} returned {loaded:?}",
            golden_bytes.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `FileStore::verify` flags every mangled record (and `gc` then
    /// removes it), so operators can audit a store without booting a
    /// daemon over it.
    #[test]
    fn prop_verify_flags_and_gc_removes_corruption(
        code in 0u8..4,
        offset in 0usize..1 << 20,
    ) {
        let fx = fixture();
        let (golden_path, golden_bytes) = golden_record(fx);
        let golden_name = golden_path.file_name().expect("record has a name");
        let mut bytes = golden_bytes.clone();
        let what = mangle(code, offset, &mut bytes);
        // Skip the mutations that happen to leave a valid record.
        let dir = case_dir();
        plant(&dir, golden_name, &bytes);
        let store = FileStore::open(&dir).expect("case store opens");
        let still_valid = store.load_orientation(EPC).is_ok();
        let report = store.verify().expect("verify walks the dir");
        prop_assert_eq!(report.len(), 1);
        if still_valid {
            prop_assert!(report[0].error.is_none(), "{}: verify flagged a valid record", what);
        } else {
            prop_assert!(report[0].error.is_some(), "{}: verify missed the corruption", what);
            let removed = store.gc().expect("gc walks the dir");
            prop_assert_eq!(removed.len(), 1, "{}: gc kept a corrupt record", what);
            let after = store.verify().expect("verify after gc");
            prop_assert!(after.is_empty(), "{}: corrupt record survived gc", what);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

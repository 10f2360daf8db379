//! Calibration-store corruption suite: whatever happens to the bytes on
//! disk — truncation, bit flips, wrong magic, stale schema versions,
//! key/file mismatches — loading yields a *typed* [`StoreError`] (never a
//! panic) or a bit-identical record, and a fix computed through a
//! corrupted store is bit-for-bit the fix a storeless run produces. The
//! store is a cache with a conformance proof, not a source of truth.
//!
//! The fixture is built once: a two-tag deployment is inventoried, a
//! storeless baseline fix recorded, and a golden store directory
//! populated by one store-attached run. Every proptest case then copies
//! the golden record into a fresh directory, mangles it, and checks both
//! the direct load and the end-to-end fix.
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
use tagspin::epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin::epc::InventoryLog;
use tagspin::geom::{Pose, Vec3};
use tagspin::rf::channel::Environment;
use tagspin::rf::tags::{TagInstance, TagModel};

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

/// The shared fixture: capture, disks, storeless-baseline fix bits, and a
/// golden store directory holding the pristine persisted record.
struct Fixture {
    log: InventoryLog,
    disks: [DiskConfig; 2],
    baseline_bits: [u64; 3],
    golden: PathBuf,
}

/// Build a registered two-tag server (two bearings make a 2D fix).
fn server(disks: &[DiskConfig; 2]) -> LocalizationServer {
    let mut server = LocalizationServer::new(pipeline_config());
    server.register(1, disks[0]).expect("distinct epcs");
    server.register(2, disks[1]).expect("distinct epcs");
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
        let baseline_bits = fix_bits(&server(&disks), &log);

        let golden = std::env::temp_dir().join(format!(
            "tagspin-store-corruption-{}-golden",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&golden);
        let mut populate = server(&disks);
        populate.set_store(std::sync::Arc::new(
            FileStore::open(&golden).expect("golden store opens"),
        ));
        let populated_bits = fix_bits(&populate, &log);
        assert_eq!(
            populated_bits, baseline_bits,
            "populating the store already changed the fix"
        );
        Fixture {
            log,
            disks,
            baseline_bits,
            golden,
        }
    })
}

/// The golden record's on-disk file (exactly one table is persisted:
/// both paper-default disks share a radius, hence a [`TableId`]).
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

/// The requested table id for the fixture's fix path.
fn fixture_table_id(fx: &Fixture) -> TableId {
    TableId::for_radius(fx.disks[0].radius, &pipeline_config().spectrum)
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

/// Assert the mutated record's direct load is safe: a typed error with a
/// non-empty rendering, or a bit-identical table (a flip in the reserved
/// header byte, or a truncation landing exactly at the end, changes
/// nothing the decoder checks).
fn assert_load_is_safe(
    store: &FileStore,
    requested: &TableId,
    pristine: &SteeringTable,
    what: &'static str,
) -> Result<(), TestCaseError> {
    match store.load_table(requested) {
        Ok(table) => {
            let same = table
                .cos_phi()
                .iter()
                .zip(pristine.cos_phi())
                .all(|(a, b)| a.to_bits() == b.to_bits())
                && table
                    .sin_phi()
                    .iter()
                    .zip(pristine.sin_phi())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && table.cos_phi().len() == pristine.cos_phi().len();
            prop_assert!(same, "{what}: load succeeded with a *different* table");
        }
        Err(e) => {
            prop_assert!(!e.to_string().is_empty(), "{what}: blank error rendering");
        }
    }
    Ok(())
}

/// Copy the golden record into `dir` under `name`.
fn plant(dir: &Path, name: &std::ffi::OsStr, bytes: &[u8]) {
    std::fs::write(dir.join(name), bytes).expect("case record writable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every coded mutation of the on-disk record yields a typed error or
    /// an identical table on direct load — and the end-to-end fix through
    /// the mangled store stays bit-identical to the storeless baseline.
    #[test]
    fn prop_corrupt_records_never_change_a_fix(
        code in 0u8..5,
        offset in 0usize..1 << 20,
        alt_radius_sel in 0u8..4,
    ) {
        let fx = fixture();
        let (golden_path, golden_bytes) = golden_record(fx);
        let golden_name = golden_path.file_name().expect("record has a name");
        let requested = fixture_table_id(fx);

        // Decode the pristine record once for the identical-table arm.
        let pristine_store = FileStore::open(&fx.golden).expect("golden store reopens");
        let pristine = pristine_store
            .load_table(&requested)
            .expect("golden record loads");

        let dir = case_dir();
        let (what, target_id) = if code == 4 {
            // Key mismatch: the intact record planted under a *different*
            // id's file name, then requested under that id.
            let cfg = pipeline_config().spectrum;
            let radius = [0.31, 0.47, 0.59, 0.73][usize::from(alt_radius_sel)];
            let other = TableId::for_radius(radius, &cfg);
            let name = format!("table-{:016x}.tsc", other.content_hash());
            plant(&dir, std::ffi::OsStr::new(&name), &golden_bytes);
            ("key mismatch", other)
        } else {
            let mut bytes = golden_bytes.clone();
            let what = mangle(code, offset, &mut bytes);
            plant(&dir, golden_name, &bytes);
            (what, requested)
        };

        let store = FileStore::open(&dir).expect("case store opens");
        if code == 4 {
            // The planted record decodes fine but carries the wrong key:
            // this must be the typed KeyMismatch, not a silent accept.
            let loaded = store.load_table(&target_id);
            prop_assert!(
                matches!(loaded, Err(StoreError::KeyMismatch { .. })),
                "key mismatch load returned {loaded:?}"
            );
        } else {
            assert_load_is_safe(&store, &target_id, &pristine, what)?;
        }

        // End to end: a server over the mangled directory must produce the
        // storeless fix, bit for bit.
        let mut through_store = server(&fx.disks);
        through_store.set_store(std::sync::Arc::new(store));
        let got = fix_bits(&through_store, &fx.log);
        prop_assert_eq!(
            got, fx.baseline_bits,
            "{} changed the fix", what
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncations hitting inside the header or payload are reported as
    /// the typed `Truncated`/`Malformed` family with the right byte
    /// accounting — never a panic, never a partial table.
    #[test]
    fn prop_truncations_are_typed(cut in 0usize..1 << 20) {
        let fx = fixture();
        let (golden_path, golden_bytes) = golden_record(fx);
        let golden_name = golden_path.file_name().expect("record has a name");
        let cut = cut % golden_bytes.len(); // strictly shorter than full
        let dir = case_dir();
        plant(&dir, golden_name, &golden_bytes[..cut]);
        let store = FileStore::open(&dir).expect("case store opens");
        let loaded = store.load_table(&fixture_table_id(fx));
        prop_assert!(
            matches!(loaded, Err(StoreError::Truncated { .. })),
            "cut at {cut} of {} returned {loaded:?}",
            golden_bytes.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `FileStore::verify` flags every mangled record (and `gc` then
    /// removes it), so operators can audit a store without loading it
    /// through an engine.
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
        let still_valid = store.load_table(&fixture_table_id(fx)).is_ok();
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

//! Versioned, checksummed persistence for per-tag orientation
//! calibrations.
//!
//! An orientation calibration is the one piece of calibration state a
//! restart cannot recompute: it is fit from a physical center-spin run
//! (the paper's Step 1). [`FileStore`] keeps one fit per tag on disk in a
//! hand-rolled binary format (no new dependencies), so a rebooted daemon
//! can adopt it without repeating the spin. Steering tables are not
//! stored: they rebuild in microseconds, faster than a disk load.
//!
//! **Trust model: the store is a cache, never an authority.** Every record
//! carries a magic, a schema version, a key, and a CRC-32 of the payload;
//! on load the decoder additionally re-evaluates the decoded series at
//! fixed probe angles and compares bit-for-bit with the evaluations the
//! record carries (the *conformance spot-check*). Any mismatch surfaces
//! as a typed [`StoreError`] and the caller boots the tag uncalibrated —
//! exactly as if the store were absent.
//!
//! # Record layout
//!
//! Every `.tsc` file is one record: a 32-byte little-endian header
//! followed by the payload.
//!
//! ```text
//! offset  size  field
//!      0     8  magic            "TSPNCAL\0"
//!      8     2  schema version   u16 (currently 1)
//!     10     1  record kind      2 = orientation (1 was a steering table; retired)
//!     11     1  reserved         0
//!     12     8  key              u64 FNV-1a 64 digest of the EPC
//!     20     8  payload length   u64, bytes
//!     28     4  CRC-32 (IEEE)    over the payload only
//! ```
//!
//! See `docs/STORE.md` for the format rationale, the invalidation rules,
//! and the one-time upgrade step for directories that still hold retired
//! steering-table records.
//!
//! Writes are atomic: payloads land in a `.tmp` file that is `rename`d
//! into place, so a killed process never leaves a torn file that passes
//! the magic check.

use crate::calib::orientation::OrientationCalibration;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tagspin_dsp::fourier::FourierSeries;

/// Record magic: identifies a tagspin calibration record.
pub const STORE_MAGIC: [u8; 8] = *b"TSPNCAL\0";

/// Schema version written by this build; loads reject any other version.
pub const STORE_VERSION: u16 = 1;

/// Fixed header length, bytes.
const HEADER_LEN: usize = 32;

/// Record kind byte: orientation calibration, the only kind this build
/// reads or writes.
const KIND_ORIENTATION: u8 = 2;

/// Sanity cap on persisted Fourier order.
const MAX_FOURIER_ORDER: u64 = 1024;

/// Angles (radians) at which an orientation record embeds — and the
/// decoder recomputes — series evaluations for the conformance
/// spot-check. Arbitrary but fixed: changing them is a schema change.
const ORIENTATION_PROBES: [f64; 4] = [0.0, 1.0, 2.5, 4.0];

// ---------------------------------------------------------------------
// Hashing primitives (hand-rolled; the offline dependency set has none).
// ---------------------------------------------------------------------

/// IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n: u32 = 0;
    while n < 256 {
        let mut c = n;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n as usize] = c;
        n += 1;
    }
    table
}

/// IEEE CRC-32 of `bytes` (the zlib/PNG polynomial, reflected).
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = (c ^ u32::from(b)) & 0xFF;
        c = CRC_TABLE[idx as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a 64-bit digest of `bytes` — the key function.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The store key for an orientation record: a digest of the EPC.
fn epc_key(epc: u128) -> u64 {
    fnv1a(&epc.to_le_bytes())
}

/// `usize` length widened for serialization; lengths are far below
/// `u64::MAX`, so saturation never fires in practice.
fn widen(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a store operation failed. Every load-path variant is a signal to
/// boot the tag uncalibrated; none may change a fix.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// No record exists for the requested key (the common cold-boot case).
    NotFound,
    /// The file does not start with [`STORE_MAGIC`].
    BadMagic,
    /// The record was written by an incompatible schema version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this build reads and writes.
        supported: u16,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header (or payload structure) requires.
        needed: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload CRC does not match the header.
    ChecksumMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The record decodes cleanly but describes a different key than the
    /// one requested — e.g. a renamed file or a hash collision.
    KeyMismatch {
        /// Key of the requested record.
        requested: u64,
        /// Key the record actually describes.
        found: u64,
    },
    /// The record is not an orientation record; kind 1 is a retired
    /// steering-table record (`tagspin store gc` removes it).
    WrongKind {
        /// Kind byte found in the header.
        found: u8,
    },
    /// The record passed magic, version, and CRC, but the conformance
    /// spot-check (recompute a sample, compare bit-for-bit) failed.
    SpotCheckFailed,
    /// The payload structure is internally inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::NotFound => write!(f, "no record for the requested key"),
            StoreError::BadMagic => write!(f, "not a tagspin calibration record (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "schema version {found} unsupported (this build: {supported})"
                )
            }
            StoreError::Truncated { needed, got } => {
                write!(f, "record truncated: needs {needed} bytes, has {got}")
            }
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload CRC mismatch: header says {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::KeyMismatch { requested, found } => write!(
                f,
                "key mismatch: requested {requested:#018x}, record is {found:#018x}"
            ),
            StoreError::WrongKind { found } => write!(
                f,
                "wrong record kind: {found} (this build reads only kind \
                 {KIND_ORIENTATION}, orientation)"
            ),
            StoreError::SpotCheckFailed => {
                write!(
                    f,
                    "conformance spot-check failed: recomputed sample differs"
                )
            }
            StoreError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::NotFound {
            StoreError::NotFound
        } else {
            StoreError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------
// Record encode / decode
// ---------------------------------------------------------------------

/// Assemble a full record: header + payload, CRC computed here.
fn encode_record(kind: u8, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&STORE_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.push(kind);
    out.push(0); // reserved
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&widen(payload.len()).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Read a little-endian `u64` at `offset`; caller guarantees bounds.
fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[offset..offset + 8]);
    u64::from_le_bytes(b)
}

/// Read a little-endian `u32` at `offset`; caller guarantees bounds.
fn read_u32(bytes: &[u8], offset: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[offset..offset + 4]);
    u32::from_le_bytes(b)
}

/// Read a little-endian `u16` at `offset`; caller guarantees bounds.
fn read_u16(bytes: &[u8], offset: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&bytes[offset..offset + 2]);
    u16::from_le_bytes(b)
}

/// Validate header + CRC of a whole-file orientation record. Returns
/// `(header key, payload)` on success.
fn decode_record(bytes: &[u8]) -> Result<(u64, &[u8]), StoreError> {
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            needed: widen(HEADER_LEN),
            got: widen(bytes.len()),
        });
    }
    if bytes[..8] != STORE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = read_u16(bytes, 8);
    if version != STORE_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: STORE_VERSION,
        });
    }
    let kind = bytes[10];
    if kind != KIND_ORIENTATION {
        return Err(StoreError::WrongKind { found: kind });
    }
    let key = read_u64(bytes, 12);
    let payload_len = read_u64(bytes, 20);
    let stored_crc = read_u32(bytes, 28);
    let needed = widen(HEADER_LEN).saturating_add(payload_len);
    let got = widen(bytes.len());
    if got < needed {
        return Err(StoreError::Truncated { needed, got });
    }
    if got > needed {
        return Err(StoreError::Malformed("trailing bytes after payload"));
    }
    let payload = &bytes[HEADER_LEN..];
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(StoreError::ChecksumMismatch {
            stored: stored_crc,
            computed,
        });
    }
    Ok((key, payload))
}

/// Serialize an orientation calibration with embedded probe evaluations.
fn encode_orientation_payload(epc: u128, cal: &OrientationCalibration) -> Vec<u8> {
    let series = cal.series();
    let harmonics = series.harmonics();
    let mut out = Vec::with_capacity(40 + 16 * harmonics.len() + 32);
    out.extend_from_slice(&epc.to_le_bytes());
    out.extend_from_slice(&cal.rms_residual().to_bits().to_le_bytes());
    out.extend_from_slice(&series.dc().to_bits().to_le_bytes());
    out.extend_from_slice(&widen(harmonics.len()).to_le_bytes());
    for &(a, b) in harmonics {
        out.extend_from_slice(&a.to_bits().to_le_bytes());
        out.extend_from_slice(&b.to_bits().to_le_bytes());
    }
    for probe in ORIENTATION_PROBES {
        out.extend_from_slice(&series.eval(probe).to_bits().to_le_bytes());
    }
    out
}

/// Decode an orientation payload and run its probe spot-check: re-evaluate
/// the decoded series at [`ORIENTATION_PROBES`] and compare bit-for-bit
/// with the persisted evaluations.
fn decode_orientation_payload(
    payload: &[u8],
) -> Result<(u128, OrientationCalibration), StoreError> {
    if payload.len() < 40 {
        return Err(StoreError::Truncated {
            needed: 40,
            got: widen(payload.len()),
        });
    }
    let mut epc_bytes = [0u8; 16];
    epc_bytes.copy_from_slice(&payload[..16]);
    let epc = u128::from_le_bytes(epc_bytes);
    let rms_residual = f64::from_bits(read_u64(payload, 16));
    let a0 = f64::from_bits(read_u64(payload, 24));
    let order_wide = read_u64(payload, 32);
    if order_wide > MAX_FOURIER_ORDER {
        return Err(StoreError::Malformed("fourier order out of range"));
    }
    let order = usize::try_from(order_wide)
        .map_err(|_| StoreError::Malformed("fourier order does not fit usize"))?;
    let expected = 40 + 16 * order + 8 * ORIENTATION_PROBES.len();
    if payload.len() != expected {
        return Err(StoreError::Truncated {
            needed: widen(expected),
            got: widen(payload.len()),
        });
    }
    let mut offset = 40;
    let mut harmonics = Vec::with_capacity(order);
    for _ in 0..order {
        let a = f64::from_bits(read_u64(payload, offset));
        let b = f64::from_bits(read_u64(payload, offset + 8));
        harmonics.push((a, b));
        offset += 16;
    }
    let series = FourierSeries::from_coefficients(a0, harmonics);
    for probe in ORIENTATION_PROBES {
        let stored = f64::from_bits(read_u64(payload, offset));
        offset += 8;
        if series.eval(probe).to_bits() != stored.to_bits() {
            return Err(StoreError::SpotCheckFailed);
        }
    }
    Ok((
        epc,
        OrientationCalibration::from_parts(series, rms_residual),
    ))
}

// ---------------------------------------------------------------------
// The file-backed store
// ---------------------------------------------------------------------

/// One store file, as listed by [`FileStore::entries`].
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// File name within the store directory.
    pub file: String,
    /// Record kind byte from the header (2 = orientation; 1 = a retired
    /// steering-table record); `None` when the header is unreadable.
    pub kind: Option<u8>,
    /// Record key from the header (zero when unreadable).
    pub key: u64,
    /// File size, bytes.
    pub bytes: u64,
}

/// One file's verification outcome, as reported by [`FileStore::verify`].
#[derive(Debug)]
pub struct VerifyReport {
    /// File name within the store directory.
    pub file: String,
    /// `None` when the record decodes and spot-checks cleanly.
    pub error: Option<StoreError>,
}

/// Monotonic discriminator for temp-file names, so concurrent writers in
/// one process never collide on the same temp path.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The on-disk calibration store: one orientation record per file in a
/// flat directory, file names derived from the tag EPC.
///
/// Load errors are *soft*: warm boot treats every variant as "this tag
/// boots uncalibrated" — see the module docs.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(StoreError::Io)?;
        Ok(FileStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn orientation_file(epc: u128) -> String {
        format!("orient-{epc:032x}.tsc")
    }

    /// Load the orientation calibration for tag `epc`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when no record exists; any other variant
    /// when the record is unreadable, corrupt, stale, of another kind, or
    /// fails its conformance spot-check.
    pub fn load_orientation(&self, epc: u128) -> Result<OrientationCalibration, StoreError> {
        let bytes = fs::read(self.dir.join(Self::orientation_file(epc)))?;
        let (key, payload) = decode_record(&bytes)?;
        let (decoded_epc, cal) = decode_orientation_payload(payload)?;
        if decoded_epc != epc || key != epc_key(epc) {
            return Err(StoreError::KeyMismatch {
                requested: epc_key(epc),
                found: epc_key(decoded_epc),
            });
        }
        Ok(cal)
    }

    /// Persist the orientation calibration for tag `epc`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the write fails; the write is atomic, so a
    /// failure never leaves a partial record behind.
    pub fn save_orientation(
        &self,
        epc: u128,
        cal: &OrientationCalibration,
    ) -> Result<(), StoreError> {
        let payload = encode_orientation_payload(epc, cal);
        let record = encode_record(KIND_ORIENTATION, epc_key(epc), &payload);
        self.write_atomic(&Self::orientation_file(epc), &record)
    }

    /// Atomically write `record` as `name`: the bytes land in a unique
    /// `.tmp` sibling first and are `rename`d into place, so readers (and
    /// crash recovery) only ever see complete records.
    fn write_atomic(&self, name: &str, record: &[u8]) -> Result<(), StoreError> {
        // ordering: relaxed — unique-id counter; no data is published through it
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{name}-{pid}-{n}.tmp", pid = std::process::id()));
        fs::write(&tmp, record).map_err(StoreError::Io)?;
        let result = fs::rename(&tmp, self.dir.join(name)).map_err(StoreError::Io);
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// List every `.tsc` file with a shallow header parse (no payload
    /// validation — that is [`FileStore::verify`]'s job).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be read.
    pub fn entries(&self) -> Result<Vec<StoreEntry>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(StoreError::Io)? {
            let entry = entry.map_err(StoreError::Io)?;
            let file = entry.file_name().to_string_lossy().into_owned();
            if !file.ends_with(".tsc") {
                continue;
            }
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let (kind, key) = match fs::read(entry.path()) {
                Ok(data) if data.len() >= HEADER_LEN && data[..8] == STORE_MAGIC => {
                    (Some(data[10]), read_u64(&data, 12))
                }
                _ => (None, 0),
            };
            out.push(StoreEntry {
                file,
                kind,
                key,
                bytes,
            });
        }
        out.sort_by(|a, b| a.file.cmp(&b.file));
        Ok(out)
    }

    /// Fully decode one store file, including its conformance spot-check
    /// and the name/key/EPC consistency check.
    fn verify_file(&self, file: &str) -> Result<(), StoreError> {
        let bytes = fs::read(self.dir.join(file))?;
        let (key, payload) = decode_record(&bytes)?;
        let (epc, _cal) = decode_orientation_payload(payload)?;
        if key != epc_key(epc) || file != Self::orientation_file(epc) {
            return Err(StoreError::KeyMismatch {
                requested: key,
                found: epc_key(epc),
            });
        }
        Ok(())
    }

    /// Fully verify every `.tsc` file: header, CRC, payload structure,
    /// spot-check, and key/file-name consistency.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory listing itself fails;
    /// per-file problems are reported in the returned list, not as an
    /// overall error.
    pub fn verify(&self) -> Result<Vec<VerifyReport>, StoreError> {
        let mut out = Vec::new();
        for entry in self.entries()? {
            let error = self.verify_file(&entry.file).err();
            out.push(VerifyReport {
                file: entry.file,
                error,
            });
        }
        Ok(out)
    }

    /// Remove leftover `.tmp` files and every `.tsc` record that fails
    /// [`FileStore::verify`] — retired steering-table records included.
    /// Returns the removed file names.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be read; individual
    /// remove failures are ignored (a later `gc` retries them).
    pub fn gc(&self) -> Result<Vec<String>, StoreError> {
        let mut removed = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(StoreError::Io)? {
            let entry = entry.map_err(StoreError::Io)?;
            let file = entry.file_name().to_string_lossy().into_owned();
            let stale_tmp = file.ends_with(".tmp");
            let corrupt = file.ends_with(".tsc") && self.verify_file(&file).is_err();
            if (stale_tmp || corrupt) && fs::remove_file(entry.path()).is_ok() {
                removed.push(file);
            }
        }
        removed.sort();
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

    /// A unique, empty store directory per call.
    fn tmp_store(tag: &str) -> FileStore {
        // ordering: relaxed — unique-id counter; no data published through it
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "tagspin-store-unit-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        FileStore::open(dir).expect("create temp store")
    }

    fn sample_orientation() -> OrientationCalibration {
        let series = FourierSeries::from_coefficients(0.25, vec![(0.5, -0.125), (0.0625, 0.75)]);
        OrientationCalibration::from_parts(series, 0.01)
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn orientation_round_trip_is_bit_exact_and_byte_stable() {
        let store = tmp_store("orient-rt");
        let epc = 0xDEAD_BEEF_u128;
        let cal = sample_orientation();
        store.save_orientation(epc, &cal).expect("save");
        let path = store.dir().join(FileStore::orientation_file(epc));
        let first = fs::read(&path).expect("read");
        let loaded = store.load_orientation(epc).expect("load");
        assert_eq!(loaded, cal);
        store.save_orientation(epc, &loaded).expect("re-save");
        let second = fs::read(&path).expect("re-read");
        assert_eq!(first, second);
    }

    #[test]
    fn missing_records_are_not_found() {
        let store = tmp_store("missing");
        assert!(matches!(
            store.load_orientation(42),
            Err(StoreError::NotFound)
        ));
    }

    #[test]
    fn header_corruption_is_typed_never_a_panic() {
        let store = tmp_store("corrupt");
        let epc = 5u128;
        store
            .save_orientation(epc, &sample_orientation())
            .expect("save");
        let path = store.dir().join(FileStore::orientation_file(epc));
        let clean = fs::read(&path).expect("read");

        // Wrong magic.
        let mut bad = clean.clone();
        bad[0] ^= 0xFF;
        fs::write(&path, &bad).expect("write");
        assert!(matches!(
            store.load_orientation(epc),
            Err(StoreError::BadMagic)
        ));

        // Stale schema version.
        let mut bad = clean.clone();
        bad[8] = 0xFE;
        fs::write(&path, &bad).expect("write");
        assert!(matches!(
            store.load_orientation(epc),
            Err(StoreError::UnsupportedVersion { found: 0xFE, .. })
        ));

        // Truncation below the header.
        fs::write(&path, &clean[..16]).expect("write");
        assert!(matches!(
            store.load_orientation(epc),
            Err(StoreError::Truncated { .. })
        ));

        // Truncation inside the payload.
        fs::write(&path, &clean[..clean.len() - 9]).expect("write");
        assert!(matches!(
            store.load_orientation(epc),
            Err(StoreError::Truncated { .. })
        ));

        // Payload bit-flip → CRC catches it.
        let mut bad = clean.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        fs::write(&path, &bad).expect("write");
        assert!(matches!(
            store.load_orientation(epc),
            Err(StoreError::ChecksumMismatch { .. })
        ));

        // Trailing garbage after the payload.
        let mut bad = clean.clone();
        bad.push(0);
        fs::write(&path, &bad).expect("write");
        assert!(matches!(
            store.load_orientation(epc),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn key_mismatch_is_detected_on_renamed_records() {
        let store = tmp_store("rename");
        store
            .save_orientation(1, &sample_orientation())
            .expect("save");
        fs::rename(
            store.dir().join(FileStore::orientation_file(1)),
            store.dir().join(FileStore::orientation_file(2)),
        )
        .expect("rename");
        assert!(matches!(
            store.load_orientation(2),
            Err(StoreError::KeyMismatch { .. })
        ));
        let reports = store.verify().expect("verify");
        assert!(matches!(
            reports[0].error,
            Some(StoreError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn orientation_probe_spot_check_rejects_tampered_series() {
        let store = tmp_store("orient-spot");
        let epc = 7u128;
        store
            .save_orientation(epc, &sample_orientation())
            .expect("save");
        let path = store.dir().join(FileStore::orientation_file(epc));
        let clean = fs::read(&path).expect("read");
        let mut payload = clean[HEADER_LEN..].to_vec();
        // Flip the a0 coefficient and re-seal the CRC; the persisted probe
        // evaluations no longer match the decoded series.
        payload[24..32].copy_from_slice(&9.0f64.to_bits().to_le_bytes());
        let resealed = encode_record(KIND_ORIENTATION, epc_key(epc), &payload);
        fs::write(&path, &resealed).expect("write");
        assert!(matches!(
            store.load_orientation(epc),
            Err(StoreError::SpotCheckFailed)
        ));
    }

    #[test]
    fn retired_table_kind_is_a_typed_error_and_gc_removes_it() {
        let store = tmp_store("kind");
        // A well-formed record of the retired kind 1, under both a legacy
        // table name and an orientation name.
        let record = encode_record(1, 0x1234, &[0u8; 56]);
        fs::write(store.dir().join("table-0000000000001234.tsc"), &record).expect("write");
        fs::write(store.dir().join(FileStore::orientation_file(3)), &record).expect("write");
        assert!(matches!(
            store.load_orientation(3),
            Err(StoreError::WrongKind { found: 1 })
        ));
        let reports = store.verify().expect("verify");
        assert_eq!(reports.len(), 2);
        assert!(reports
            .iter()
            .all(|r| matches!(r.error, Some(StoreError::WrongKind { found: 1 }))));
        assert_eq!(store.gc().expect("gc").len(), 2);
        assert!(store.entries().expect("entries").is_empty());
    }

    #[test]
    fn entries_verify_and_gc_work_together() {
        let store = tmp_store("gc");
        store
            .save_orientation(9, &sample_orientation())
            .expect("save");
        store
            .save_orientation(10, &sample_orientation())
            .expect("save");
        // A torn write: stale temp file left behind.
        fs::write(store.dir().join(".leftover-1-2.tmp"), b"junk").expect("write");
        // A corrupt record that still passes the magic check.
        let path = store.dir().join(FileStore::orientation_file(10));
        let mut bad = fs::read(&path).expect("read");
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        fs::write(&path, &bad).expect("write");
        let bad_name = FileStore::orientation_file(10);

        let entries = store.entries().expect("entries");
        assert_eq!(entries.len(), 2, "tmp files are not entries");
        assert!(entries.iter().all(|e| e.kind == Some(KIND_ORIENTATION)));

        let reports = store.verify().expect("verify");
        let broken: Vec<_> = reports.iter().filter(|r| r.error.is_some()).collect();
        assert_eq!(broken.len(), 1);
        assert_eq!(broken[0].file, bad_name);

        let removed = store.gc().expect("gc");
        assert_eq!(
            removed.len(),
            2,
            "gc removes the tmp and the corrupt record"
        );
        assert!(removed.contains(&".leftover-1-2.tmp".to_string()));
        assert!(removed.contains(&bad_name));
        assert!(store.load_orientation(9).is_ok(), "good records survive gc");
    }

    #[test]
    fn concurrent_writers_never_leave_a_torn_record() {
        let store = std::sync::Arc::new(tmp_store("race"));
        let cal = sample_orientation();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = std::sync::Arc::clone(&store);
            let cal = cal.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..16 {
                    store.save_orientation(11, &cal).expect("save");
                    // Every observable intermediate state must decode.
                    match store.load_orientation(11) {
                        Ok(loaded) => assert_eq!(loaded, cal),
                        Err(StoreError::NotFound) => {}
                        Err(other) => panic!("torn record observed: {other}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        assert_eq!(store.load_orientation(11).expect("final load"), cal);
        assert!(store.gc().expect("gc").is_empty(), "no stale temp files");
    }
}

//! Signal snapshots: the per-read tuples the spectrum consumes.
//!
//! The reader "takes n signal snapshots of every spinning tag with each
//! snapshot taken at time tᵢ" (Section IV). A [`Snapshot`] joins the raw
//! LLRP report with the server-side knowledge of the disk: the disk angle
//! `β(tᵢ)` (which encodes where on the circle the virtual array element
//! sits) and the carrier wavelength of the read.

use crate::spinning::DiskConfig;
use serde::{Deserialize, Serialize};
use tagspin_epc::{InventoryLog, TagReport};
use tagspin_rf::constants::{channel_frequency, wavelength, CHANNEL_COUNT};

/// One snapshot of a spinning tag's signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Read time, seconds (reader clock).
    pub t_s: f64,
    /// Reported phase, `[0, 2π)`.
    pub phase: f64,
    /// Disk angle `β(tᵢ)` at the read instant, radians (unwrapped).
    pub disk_angle: f64,
    /// Carrier wavelength of the read, meters.
    pub lambda: f64,
    /// Reported RSSI, dBm (used by diagnostics, not by the spectra).
    pub rssi_dbm: f64,
}

/// A time-ordered snapshot collection for one spinning tag.
///
/// A sliding window evicts from the front on almost every ingest, so
/// eviction moves a head offset instead of shifting the buffer: the live
/// window is `buf[head..]`, and the dead prefix is compacted only once it
/// outgrows the live window. Eviction is therefore amortized O(1) per
/// evicted snapshot, and the buffer never holds more than twice the live
/// window. Every accessor, `==` and `clone` see the live window only.
#[derive(Default)]
pub struct SnapshotSet {
    buf: Vec<Snapshot>,
    /// Evicted prefix of `buf`.
    head: usize,
}

/// Error from snapshot extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// No reads for the requested EPC in the log.
    NoReads,
    /// The disk configuration is invalid.
    BadDisk(crate::spinning::DiskConfigError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::NoReads => write!(f, "no reads for the requested epc"),
            SnapshotError::BadDisk(e) => write!(f, "bad disk config: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::NoReads => None,
            SnapshotError::BadDisk(e) => Some(e),
        }
    }
}

impl Snapshot {
    /// Annotate one tag report with the server-known disk state at the
    /// reader timestamp — the per-read building block shared by the batch
    /// extraction ([`SnapshotSet::from_log`]) and the streaming session's
    /// incremental ingest.
    pub fn from_report(report: &TagReport, disk: &DiskConfig) -> Snapshot {
        Snapshot {
            t_s: report.time_s(),
            phase: report.phase,
            disk_angle: disk.disk_angle(report.time_s()),
            lambda: wavelength(channel_frequency(
                report.channel_index as usize % CHANNEL_COUNT,
            )),
            rssi_dbm: report.rssi_dbm,
        }
    }
}

impl SnapshotSet {
    /// Extract the snapshots of `epc` from an inventory log, annotating each
    /// read with the disk state implied by `disk` at the reader timestamp.
    ///
    /// # Errors
    ///
    /// * [`SnapshotError::BadDisk`] — invalid disk config.
    /// * [`SnapshotError::NoReads`] — the log has no reads for `epc`.
    pub fn from_log(
        log: &InventoryLog,
        epc: u128,
        disk: &DiskConfig,
    ) -> Result<SnapshotSet, SnapshotError> {
        disk.validate().map_err(SnapshotError::BadDisk)?;
        let snapshots: Vec<Snapshot> = log
            .for_epc(epc)
            .map(|r: &TagReport| Snapshot::from_report(r, disk))
            .collect();
        if snapshots.is_empty() {
            return Err(SnapshotError::NoReads);
        }
        Ok(SnapshotSet::from_vec(snapshots))
    }

    /// Build directly from snapshots (testing / synthetic data).
    ///
    /// # Panics
    ///
    /// Panics when snapshots are not in non-decreasing time order.
    pub fn from_snapshots(snapshots: Vec<Snapshot>) -> SnapshotSet {
        assert!(
            snapshots.windows(2).all(|w| w[1].t_s >= w[0].t_s),
            "snapshots must be time-ordered"
        );
        SnapshotSet::from_vec(snapshots)
    }

    fn from_vec(buf: Vec<Snapshot>) -> SnapshotSet {
        SnapshotSet { buf, head: 0 }
    }

    /// Append one snapshot — the incremental-ingestion counterpart of
    /// [`SnapshotSet::from_log`]. Appending report-by-report in log order
    /// produces exactly the set `from_log` would have extracted.
    ///
    /// # Panics
    ///
    /// Panics when `snapshot` predates the newest buffered snapshot; the
    /// set is time-ordered by construction (reader clocks are monotonic).
    pub fn push(&mut self, snapshot: Snapshot) {
        assert!(
            self.last().is_none_or(|last| snapshot.t_s >= last.t_s),
            "snapshots must be appended in time order"
        );
        self.buf.push(snapshot);
    }

    /// Evict every snapshot strictly older than `t0` seconds (the sliding
    /// window's time bound). Returns how many snapshots were dropped.
    pub fn evict_before(&mut self, t0: f64) -> usize {
        let n = self.snapshots().iter().take_while(|s| s.t_s < t0).count();
        self.evict_front(n);
        n
    }

    /// Keep only the newest `max` snapshots (the sliding window's count
    /// bound). Returns how many snapshots were dropped.
    pub fn evict_to_len(&mut self, max: usize) -> usize {
        let excess = self.len().saturating_sub(max);
        self.evict_front(excess);
        excess
    }

    /// Drop the oldest `n` live snapshots (`n <= len()`).
    fn evict_front(&mut self, n: usize) {
        self.head += n;
        // Compact once the dead prefix is longer than the live window:
        // the move costs at most the evictions since the last compaction.
        if self.head > self.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// The oldest buffered snapshot.
    pub fn first(&self) -> Option<&Snapshot> {
        self.snapshots().first()
    }

    /// The newest buffered snapshot.
    pub fn last(&self) -> Option<&Snapshot> {
        self.snapshots().last()
    }

    /// The snapshots, time-ordered.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.buf[self.head..]
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw phase sequence.
    pub fn phases(&self) -> Vec<f64> {
        self.snapshots().iter().map(|s| s.phase).collect()
    }

    /// Replace the phase sequence (used by the calibration stages), keeping
    /// the other annotations.
    ///
    /// # Panics
    ///
    /// Panics when the length differs.
    pub fn with_phases(&self, phases: &[f64]) -> SnapshotSet {
        assert_eq!(phases.len(), self.len(), "length mismatch");
        let snapshots = self
            .snapshots()
            .iter()
            .zip(phases)
            .map(|(s, &p)| Snapshot { phase: p, ..*s })
            .collect();
        SnapshotSet::from_vec(snapshots)
    }

    /// Keep at most every `stride`-th snapshot (decimation for sweeps).
    ///
    /// # Panics
    ///
    /// Panics when `stride == 0`.
    pub fn decimate(&self, stride: usize) -> SnapshotSet {
        assert!(stride > 0, "stride must be positive");
        SnapshotSet::from_vec(self.snapshots().iter().step_by(stride).copied().collect())
    }

    /// Keep only snapshots within `[t0, t1)` seconds.
    pub fn window(&self, t0: f64, t1: f64) -> SnapshotSet {
        SnapshotSet::from_vec(
            self.snapshots()
                .iter()
                .filter(|s| s.t_s >= t0 && s.t_s < t1)
                .copied()
                .collect(),
        )
    }

    /// Observation span, seconds.
    pub fn span_s(&self) -> f64 {
        match (self.first(), self.last()) {
            (Some(a), Some(b)) => b.t_s - a.t_s,
            _ => 0.0,
        }
    }
}

impl Clone for SnapshotSet {
    fn clone(&self) -> Self {
        SnapshotSet::from_vec(self.snapshots().to_vec())
    }
}

impl PartialEq for SnapshotSet {
    fn eq(&self, other: &Self) -> bool {
        self.snapshots() == other.snapshots()
    }
}

impl std::fmt::Debug for SnapshotSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotSet")
            .field("snapshots", &self.snapshots())
            .finish()
    }
}

impl<'a> IntoIterator for &'a SnapshotSet {
    type Item = &'a Snapshot;
    type IntoIter = std::slice::Iter<'a, Snapshot>;
    fn into_iter(self) -> Self::IntoIter {
        self.snapshots().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagspin_geom::Vec3;

    fn disk() -> DiskConfig {
        DiskConfig::paper_default(Vec3::ZERO)
    }

    fn log_with(epc: u128, n: u64) -> InventoryLog {
        (0..n)
            .map(|i| TagReport {
                epc,
                timestamp_us: i * 100_000,
                phase: tagspin_geom::angle::wrap_tau(i as f64 * 0.3),
                rssi_dbm: -60.0,
                channel_index: 8,
                antenna_id: 1,
            })
            .collect()
    }

    #[test]
    fn extraction_annotates_disk_state() {
        let log = log_with(5, 10);
        let set = SnapshotSet::from_log(&log, 5, &disk()).unwrap();
        assert_eq!(set.len(), 10);
        let s = &set.snapshots()[3];
        assert!((s.t_s - 0.3).abs() < 1e-12);
        assert!((s.disk_angle - disk().disk_angle(0.3)).abs() < 1e-12);
        assert!(s.lambda > 0.32 && s.lambda < 0.33);
    }

    #[test]
    fn missing_epc_is_error() {
        let log = log_with(5, 10);
        assert_eq!(
            SnapshotSet::from_log(&log, 99, &disk()),
            Err(SnapshotError::NoReads)
        );
    }

    #[test]
    fn bad_disk_is_error() {
        let log = log_with(5, 10);
        let mut d = disk();
        d.radius = -1.0;
        assert!(matches!(
            SnapshotSet::from_log(&log, 5, &d),
            Err(SnapshotError::BadDisk(_))
        ));
    }

    #[test]
    fn with_phases_replaces_only_phases() {
        let log = log_with(5, 4);
        let set = SnapshotSet::from_log(&log, 5, &disk()).unwrap();
        let new = set.with_phases(&[0.0, 0.1, 0.2, 0.3]);
        assert_eq!(new.snapshots()[2].phase, 0.2);
        assert_eq!(new.snapshots()[2].t_s, set.snapshots()[2].t_s);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn with_phases_length_checked() {
        let log = log_with(5, 4);
        let set = SnapshotSet::from_log(&log, 5, &disk()).unwrap();
        let _ = set.with_phases(&[0.0]);
    }

    #[test]
    fn decimate_and_window() {
        let log = log_with(5, 10);
        let set = SnapshotSet::from_log(&log, 5, &disk()).unwrap();
        assert_eq!(set.decimate(3).len(), 4); // 0,3,6,9
        let w = set.window(0.25, 0.65);
        assert_eq!(w.len(), 4); // t = 0.3,0.4,0.5,0.6
        assert!((set.span_s() - 0.9).abs() < 1e-12);
        assert_eq!(SnapshotSet::default().span_s(), 0.0);
    }

    #[test]
    fn iterator_and_phases() {
        let log = log_with(5, 3);
        let set = SnapshotSet::from_log(&log, 5, &disk()).unwrap();
        assert_eq!((&set).into_iter().count(), 3);
        assert_eq!(set.phases().len(), 3);
    }

    #[test]
    fn incremental_push_matches_from_log() {
        let log = log_with(5, 20);
        let batch = SnapshotSet::from_log(&log, 5, &disk()).unwrap();
        let mut streamed = SnapshotSet::default();
        for r in log.reports() {
            streamed.push(Snapshot::from_report(r, &disk()));
        }
        assert_eq!(streamed, batch);
        assert_eq!(streamed.first(), batch.snapshots().first());
        assert_eq!(streamed.last(), batch.snapshots().last());
    }

    #[test]
    fn eviction_bounds_the_window() {
        let log = log_with(5, 10);
        let mut set = SnapshotSet::from_log(&log, 5, &disk()).unwrap();
        // Time bound: t = 0.0..0.9 in 0.1 steps; evict before 0.35.
        assert_eq!(set.evict_before(0.35), 4);
        assert_eq!(set.len(), 6);
        assert!((set.first().unwrap().t_s - 0.4).abs() < 1e-12);
        // Count bound: keep the newest 2.
        assert_eq!(set.evict_to_len(2), 4);
        assert_eq!(set.len(), 2);
        assert!((set.last().unwrap().t_s - 0.9).abs() < 1e-12);
        // No-ops once inside the bounds.
        assert_eq!(set.evict_before(0.0), 0);
        assert_eq!(set.evict_to_len(10), 0);
    }

    fn at(tick: i64) -> Snapshot {
        Snapshot {
            t_s: tick as f64 * 0.1,
            phase: tagspin_geom::angle::wrap_tau(tick as f64 * 0.7),
            disk_angle: tick as f64 * 0.05,
            lambda: 0.325,
            rssi_dbm: -60.0,
        }
    }

    /// Every accessor of `set` agrees with a plain `Vec` holding the same
    /// live window, and the backing buffer holds at most twice it.
    fn assert_matches_model(set: &SnapshotSet, model: &[Snapshot]) {
        let expect = SnapshotSet::from_snapshots(model.to_vec());
        assert_eq!(set.snapshots(), model);
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        assert_eq!(set.first(), model.first());
        assert_eq!(set.last(), model.last());
        assert_eq!(set.span_s().to_bits(), expect.span_s().to_bits());
        assert_eq!(set.phases(), expect.phases());
        assert_eq!(*set, expect);
        let copy = set.clone();
        assert_eq!(copy, expect);
        assert_eq!(copy.buf.len(), model.len());
        assert!(
            set.buf.len() <= 2 * set.len(),
            "backing {} for a live window of {}",
            set.buf.len(),
            set.len()
        );
    }

    #[test]
    fn window_edge_cases() {
        let mut set = SnapshotSet::default();
        let mut model = Vec::new();
        for tick in 0..8 {
            set.push(at(tick));
            model.push(at(tick));
        }
        // Evicting nothing, by either bound.
        assert_eq!(set.evict_before(at(0).t_s), 0);
        assert_eq!(set.evict_to_len(8), 0);
        assert_matches_model(&set, &model);
        // A partial eviction leaves the dead prefix in place...
        assert_eq!(set.evict_to_len(5), 3);
        model.drain(..3);
        assert_matches_model(&set, &model);
        assert_eq!(set.head, 3);
        // ...until it outgrows the live window.
        assert_eq!(set.evict_before(at(5).t_s), 2);
        model.drain(..2);
        assert_matches_model(&set, &model);
        assert_eq!(set.head, 0);
        // Evicting everything, then pushing an older read than the
        // evicted ones: the emptied window imposes no order.
        assert_eq!(set.evict_before(at(100).t_s), 3);
        model.clear();
        assert_matches_model(&set, &model);
        set.push(at(2));
        model.push(at(2));
        assert_matches_model(&set, &model);
        assert_eq!(set.evict_to_len(0), 1);
        model.clear();
        assert_matches_model(&set, &model);
    }

    proptest::proptest! {
        /// Random push / evict sequences match a `Vec` model step by step.
        /// Op kinds 0–2 push (0, 1 or 2 ticks after the newest read),
        /// 3 evicts before `arg` ticks back from just past the newest read
        /// (0: everything; large: nothing), 4 keeps the newest `arg`.
        #[test]
        fn prop_window_matches_vec_model(
            ops in proptest::collection::vec((0u8..5, 0usize..40), 0..300),
        ) {
            let mut set = SnapshotSet::default();
            let mut model: Vec<Snapshot> = Vec::new();
            let mut now = 0i64;
            for (kind, arg) in ops {
                match kind {
                    0..=2 => {
                        now += i64::from(kind);
                        set.push(at(now));
                        model.push(at(now));
                    }
                    3 => {
                        let t0 = at(now + 1 - arg as i64).t_s;
                        let n = model.iter().take_while(|s| s.t_s < t0).count();
                        proptest::prop_assert_eq!(set.evict_before(t0), n);
                        model.drain(..n);
                    }
                    _ => {
                        let n = model.len().saturating_sub(arg);
                        proptest::prop_assert_eq!(set.evict_to_len(arg), n);
                        model.drain(..n);
                    }
                }
                assert_matches_model(&set, &model);
            }
        }
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn push_rejects_stale_snapshot() {
        let mut set = SnapshotSet::default();
        let s = Snapshot {
            t_s: 1.0,
            phase: 0.0,
            disk_angle: 0.0,
            lambda: 0.325,
            rssi_dbm: -60.0,
        };
        set.push(s);
        let mut stale = s;
        stale.t_s = 0.5;
        set.push(stale);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn from_snapshots_rejects_unordered() {
        let s = Snapshot {
            t_s: 1.0,
            phase: 0.0,
            disk_angle: 0.0,
            lambda: 0.325,
            rssi_dbm: -60.0,
        };
        let mut s2 = s;
        s2.t_s = 0.5;
        let _ = SnapshotSet::from_snapshots(vec![s, s2]);
    }
}

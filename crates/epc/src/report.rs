//! Tag read reports — the data the localization pipeline consumes.
//!
//! The paper's client configures the Impinj reader "to immediately report
//! its readings whenever tag is detected" and uses the *reader's* timestamp
//! (not the host's) "to erase the influence of network latency". A
//! [`TagReport`] carries exactly that per-read tuple; an [`InventoryLog`] is
//! the collected stream for one observation window.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a [`TagReport`] failed [`TagReport::validate`].
///
/// Real COTS captures contain reports that are *structurally* broken before
/// any localization math sees them: NaN phases from firmware glitches,
/// RSSI fields holding sentinel garbage, all-zero EPCs from CRC-passing
/// ghost reads. These defects are detectable from the report alone — no
/// registry or stream context needed — which is why the screen lives at the
/// EPC layer rather than in the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReportDefect {
    /// The phase is NaN or infinite.
    NonFinitePhase,
    /// The phase is finite but outside the reader contract `[0, 2π)`.
    PhaseOutOfRange,
    /// The RSSI is NaN or infinite.
    NonFiniteRssi,
    /// The RSSI is finite but outside any plausible backscatter power
    /// (`[-120, +20]` dBm).
    RssiOutOfRange,
    /// The EPC is all-zero — a ghost read (bit errors that still passed
    /// CRC produce these on COTS readers).
    NullEpc,
}

impl fmt::Display for ReportDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportDefect::NonFinitePhase => write!(f, "phase is NaN or infinite"),
            ReportDefect::PhaseOutOfRange => write!(f, "phase outside [0, 2π)"),
            ReportDefect::NonFiniteRssi => write!(f, "rssi is NaN or infinite"),
            ReportDefect::RssiOutOfRange => write!(f, "rssi outside [-120, +20] dBm"),
            ReportDefect::NullEpc => write!(f, "all-zero EPC (ghost read)"),
        }
    }
}

impl std::error::Error for ReportDefect {}

/// One tag read, as reported over LLRP by the reader.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagReport {
    /// 96-bit EPC of the tag.
    pub epc: u128,
    /// Reader-clock timestamp, microseconds since reader epoch.
    pub timestamp_us: u64,
    /// Reported backscatter phase, radians in `[0, 2π)`.
    pub phase: f64,
    /// Peak RSSI, dBm.
    pub rssi_dbm: f64,
    /// Hop-channel index at the time of the read.
    pub channel_index: u8,
    /// Reader antenna port (1-based, Speedway has 4).
    pub antenna_id: u8,
}

impl TagReport {
    /// Timestamp in seconds (convenience for the phase model's `t`).
    #[inline]
    pub fn time_s(&self) -> f64 {
        self.timestamp_us as f64 * 1e-6
    }

    /// Screen the report's *values* against the reader contract: phase in
    /// `[0, 2π)`, RSSI finite and within `[-120, +20]` dBm, non-zero EPC.
    ///
    /// Stream-level properties (timestamp monotonicity, duplicates,
    /// registry membership) are out of scope — those need context this
    /// report does not carry and are enforced by the ingesting session.
    ///
    /// # Errors
    ///
    /// The first [`ReportDefect`] found, in field order.
    pub fn validate(&self) -> Result<(), ReportDefect> {
        if self.epc == 0 {
            return Err(ReportDefect::NullEpc);
        }
        if !self.phase.is_finite() {
            return Err(ReportDefect::NonFinitePhase);
        }
        if !(0.0..std::f64::consts::TAU).contains(&self.phase) {
            return Err(ReportDefect::PhaseOutOfRange);
        }
        if !self.rssi_dbm.is_finite() {
            return Err(ReportDefect::NonFiniteRssi);
        }
        if !(-120.0..=20.0).contains(&self.rssi_dbm) {
            return Err(ReportDefect::RssiOutOfRange);
        }
        Ok(())
    }
}

impl fmt::Display for TagReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epc={:024x} t={}µs φ={:.4} rssi={:.1}dBm ch={} ant={}",
            self.epc,
            self.timestamp_us,
            self.phase,
            self.rssi_dbm,
            self.channel_index,
            self.antenna_id
        )
    }
}

/// A time-ordered stream of tag reads from one observation window.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InventoryLog {
    reports: Vec<TagReport>,
}

impl InventoryLog {
    /// An empty log.
    pub fn new() -> Self {
        InventoryLog::default()
    }

    /// An empty log with room for `capacity` reports.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        InventoryLog {
            reports: Vec::with_capacity(capacity),
        }
    }

    /// Append a report.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when timestamps go backwards — reader clocks
    /// are monotonic.
    pub fn push(&mut self, report: TagReport) {
        debug_assert!(
            self.reports
                .last()
                .is_none_or(|last| report.timestamp_us >= last.timestamp_us),
            "reports must be appended in timestamp order"
        );
        self.reports.push(report);
    }

    /// All reports, time-ordered.
    pub fn reports(&self) -> &[TagReport] {
        &self.reports
    }

    /// Number of reports.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True when no reads were collected.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Iterate reports for one EPC only.
    pub fn for_epc(&self, epc: u128) -> impl Iterator<Item = &TagReport> + '_ {
        self.reports.iter().filter(move |r| r.epc == epc)
    }

    /// A sub-log containing only reads from one reader antenna port —
    /// used when several target antennas are calibrated simultaneously.
    pub fn for_antenna(&self, antenna_id: u8) -> InventoryLog {
        InventoryLog {
            reports: self
                .reports
                .iter()
                .filter(|r| r.antenna_id == antenna_id)
                .copied()
                .collect(),
        }
    }

    /// The distinct antenna ids seen, in first-seen order.
    pub fn antennas(&self) -> Vec<u8> {
        let mut seen = Vec::new();
        for r in &self.reports {
            if !seen.contains(&r.antenna_id) {
                seen.push(r.antenna_id);
            }
        }
        seen
    }

    /// The distinct EPCs seen, in first-seen order.
    pub fn epcs(&self) -> Vec<u128> {
        let mut seen = Vec::new();
        for r in &self.reports {
            if !seen.contains(&r.epc) {
                seen.push(r.epc);
            }
        }
        seen
    }

    /// Observation span in seconds (0 for fewer than 2 reports).
    pub fn span_s(&self) -> f64 {
        match (self.reports.first(), self.reports.last()) {
            (Some(a), Some(b)) => (b.timestamp_us - a.timestamp_us) as f64 * 1e-6,
            _ => 0.0,
        }
    }

    /// Mean read rate over the span, reads/s (0 for degenerate logs).
    pub fn read_rate(&self) -> f64 {
        let span = self.span_s();
        if span <= 0.0 {
            0.0
        } else {
            self.reports.len() as f64 / span
        }
    }

    /// Replay the log as the report stream the reader originally emitted —
    /// the bridge between a recorded log and a streaming consumer that
    /// ingests report-by-report (e.g. a localization session).
    pub fn stream(&self) -> impl Iterator<Item = &TagReport> + '_ {
        self.reports.iter()
    }
}

impl<'a> IntoIterator for &'a InventoryLog {
    type Item = &'a TagReport;
    type IntoIter = std::slice::Iter<'a, TagReport>;
    fn into_iter(self) -> Self::IntoIter {
        self.reports.iter()
    }
}

impl IntoIterator for InventoryLog {
    type Item = TagReport;
    type IntoIter = std::vec::IntoIter<TagReport>;
    fn into_iter(self) -> Self::IntoIter {
        self.reports.into_iter()
    }
}

impl FromIterator<TagReport> for InventoryLog {
    fn from_iter<I: IntoIterator<Item = TagReport>>(iter: I) -> Self {
        let mut log = InventoryLog::new();
        for r in iter {
            log.push(r);
        }
        log
    }
}

impl Extend<TagReport> for InventoryLog {
    fn extend<I: IntoIterator<Item = TagReport>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(epc: u128, t: u64) -> TagReport {
        TagReport {
            epc,
            timestamp_us: t,
            phase: 1.0,
            rssi_dbm: -60.0,
            channel_index: 3,
            antenna_id: 1,
        }
    }

    #[test]
    fn push_and_query() {
        let mut log = InventoryLog::new();
        assert!(log.is_empty());
        log.push(report(1, 0));
        log.push(report(2, 1_000_000));
        log.push(report(1, 2_000_000));
        assert_eq!(log.len(), 3);
        assert_eq!(log.for_epc(1).count(), 2);
        assert_eq!(log.epcs(), vec![1, 2]);
        assert_eq!(log.span_s(), 2.0);
        assert_eq!(log.read_rate(), 1.5);
    }

    #[test]
    fn collect_from_iterator() {
        let log: InventoryLog = (0..5).map(|i| report(7, i * 10)).collect();
        assert_eq!(log.len(), 5);
        let mut log2 = InventoryLog::new();
        log2.extend((0..3).map(|i| report(9, i)));
        assert_eq!(log2.len(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_panics_in_debug() {
        let mut log = InventoryLog::new();
        log.push(report(1, 100));
        log.push(report(1, 50));
    }

    #[test]
    fn degenerate_rates() {
        let log = InventoryLog::new();
        assert_eq!(log.span_s(), 0.0);
        assert_eq!(log.read_rate(), 0.0);
        let log: InventoryLog = [report(1, 5)].into_iter().collect();
        assert_eq!(log.read_rate(), 0.0);
    }

    #[test]
    fn stream_replays_in_log_order() {
        let log: InventoryLog = (0..5).map(|i| report(7, i * 10)).collect();
        let times: Vec<u64> = log.stream().map(|r| r.timestamp_us).collect();
        assert_eq!(times, vec![0, 10, 20, 30, 40]);
        // Borrowing and consuming iteration agree with stream().
        assert_eq!((&log).into_iter().count(), 5);
        assert_eq!(log.into_iter().count(), 5);
    }

    #[test]
    fn validate_accepts_clean_reports() {
        assert_eq!(report(1, 0).validate(), Ok(()));
    }

    #[test]
    fn validate_screens_each_field() {
        let clean = report(1, 0);
        for (broken, defect) in [
            (TagReport { epc: 0, ..clean }, ReportDefect::NullEpc),
            (
                TagReport {
                    phase: f64::NAN,
                    ..clean
                },
                ReportDefect::NonFinitePhase,
            ),
            (
                TagReport {
                    phase: f64::INFINITY,
                    ..clean
                },
                ReportDefect::NonFinitePhase,
            ),
            (
                TagReport {
                    phase: -0.1,
                    ..clean
                },
                ReportDefect::PhaseOutOfRange,
            ),
            (
                TagReport {
                    phase: std::f64::consts::TAU,
                    ..clean
                },
                ReportDefect::PhaseOutOfRange,
            ),
            (
                TagReport {
                    rssi_dbm: f64::NAN,
                    ..clean
                },
                ReportDefect::NonFiniteRssi,
            ),
            (
                TagReport {
                    rssi_dbm: 500.0,
                    ..clean
                },
                ReportDefect::RssiOutOfRange,
            ),
        ] {
            assert_eq!(broken.validate(), Err(defect), "report: {broken:?}");
            assert!(!defect.to_string().is_empty());
        }
    }

    #[test]
    fn time_conversion_and_display() {
        let r = report(1, 1_500_000);
        assert_eq!(r.time_s(), 1.5);
        assert!(r.to_string().contains("rssi"));
    }
}

//! The simulated deployment and the wire traffic every workload replays.
//!
//! The deployment is a fixed corpus: one two-disk rig, manufactured and
//! center-spun once, watched by reader antennas at fixed poses, with
//! fixed capture noise and fault placement. Accuracy (`err_cm`) is then a
//! deterministic gate, and fix answers do not depend on arrival timing (the
//! daemon's equivalence contract). The workload seed draws what varies
//! between real runs: when and in which order the traffic arrives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;
use tagspin_core::prelude::*;
use tagspin_epc::frame::{encode_report_frame, FrameDecoder, DEFAULT_MAX_FRAME_LEN};
use tagspin_epc::inventory::{run_inventory, ReaderConfig, Transponder};
use tagspin_epc::{InventoryLog, TagReport};
use tagspin_geom::{Pose, Vec3};
use tagspin_rf::channel::Environment;
use tagspin_rf::{ReaderAntenna, TagInstance, TagModel};
use tagspin_sim::fault::{FaultCounts, FaultPlan};
use tagspin_sim::scenario::{Scenario, DESK_HEIGHT};

/// The rig's two EPCs. Several bits set in each, so no single bit flip of
/// a ghost read turns one registered EPC into the other or into zero.
pub const EPCS: [u128; 2] = [
    0x3034_0000_0000_0000_0000_0A11,
    0x3034_0000_0000_0000_0000_0B22,
];
/// Seed of the fixed corpus: tag manufacture, center spins, captures and
/// fault placement.
const CORPUS_SEED: u64 = 0x7A65_5019;
/// Reports per wire frame before fault-reordered runs split it further,
/// as `tests/serve_e2e.rs` frames its streams.
pub const FRAME_REPORTS: usize = 48;

/// One two-disk rig: geometry, the physical tags and their center-spin
/// calibration captures.
pub struct Rig {
    /// Disk geometry, index-aligned with [`EPCS`].
    pub disks: [DiskConfig; 2],
    /// The spinning tags the readers see.
    pub tags: [SpinningTag; 2],
    /// Each tag's center-spin capture (the orientation-calibration input).
    pub center_spins: [SnapshotSet; 2],
    /// The pipeline configuration the rig is served with.
    pub config: PipelineConfig,
}

impl Rig {
    /// The paper's 2D rig: disks at (±30 cm, 0) on the reader plane.
    pub fn plane() -> Rig {
        let disks = [
            DiskConfig::paper_default(Vec3::new(-0.3, 0.0, 0.0)),
            DiskConfig::paper_default(Vec3::new(0.3, 0.0, 0.0)),
        ];
        Rig::build(disks, PipelineConfig::default(), Vec3::new(0.0, 1.5, 0.0))
    }

    /// The paper's 3D rig (`Scenario::paper_3d`): disks at desk height and
    /// a 360×61 grid.
    pub fn desk() -> Rig {
        let scenario = Scenario::paper_3d(Vec3::new(0.0, 1.5, DESK_HEIGHT + 0.6));
        let config = PipelineConfig {
            spectrum: scenario.spectrum,
            engine: scenario.engine,
            profile: scenario.profile,
            ..PipelineConfig::default()
        };
        let disks = [scenario.disks[0], scenario.disks[1]];
        Rig::build(disks, config, Vec3::new(0.0, 1.75, DESK_HEIGHT + 0.85))
    }

    fn build(disks: [DiskConfig; 2], config: PipelineConfig, calibration_reader: Vec3) -> Rig {
        let mut rng = StdRng::seed_from_u64(CORPUS_SEED);
        let instances = EPCS.map(|epc| TagInstance::manufacture(TagModel::DEFAULT, epc, &mut rng));
        let center = (disks[0].center + disks[1].center) * 0.5;
        let reader = ReaderConfig::at(Pose::facing_toward(calibration_reader, center))
            .with_antenna(ReaderAntenna::typical(1));
        let center_spins = std::array::from_fn(|i| {
            let spin = CenterSpinTag {
                disk: disks[i],
                tag: instances[i].clone(),
            };
            let log = run_inventory(
                &Environment::paper_default(),
                &reader,
                &[&spin as &dyn Transponder],
                disks[i].period_s() * 1.3,
                &mut rng,
            );
            SnapshotSet::from_log(&log, EPCS[i], &disks[i])
                .expect("a center spin in front of the reader is always read")
        });
        let tags = std::array::from_fn(|i| SpinningTag::new(disks[i], instances[i].clone()));
        Rig {
            disks,
            tags,
            center_spins,
            config,
        }
    }

    /// The disk period, seconds (both disks spin alike).
    pub fn period_s(&self) -> f64 {
        self.disks[0].period_s()
    }

    /// Fit both tags' orientation calibrations from their center spins,
    /// returning the fits and each fit's wall time in nanoseconds.
    pub fn fit(&self) -> ([OrientationCalibration; 2], [u64; 2]) {
        let mut nanos = [0u64; 2];
        let fits = std::array::from_fn(|i| {
            let t0 = Instant::now();
            let cal = OrientationCalibration::fit(&self.center_spins[i])
                .expect("a full center-spin revolution always fits");
            nanos[i] = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            cal
        });
        (fits, nanos)
    }

    /// A server with both disks registered, with `calibrations` attached
    /// when given (a warm-booting daemon loads them from its store).
    pub fn server(&self, calibrations: Option<&[OrientationCalibration; 2]>) -> LocalizationServer {
        let mut server = LocalizationServer::new(self.config);
        for (epc, disk) in EPCS.iter().zip(self.disks) {
            server
                .register(*epc, disk)
                .expect("the rig's EPCs are distinct");
        }
        if let Some(cals) = calibrations {
            for (epc, cal) in EPCS.iter().zip(cals) {
                server
                    .set_orientation_calibration(*epc, cal.clone())
                    .expect("registered above");
            }
        }
        server
    }

    /// A fixed capture of `seconds` of the spinning rig, as seen by
    /// `antenna` at `reader`. `stream` picks an independent noise stream.
    pub fn capture(&self, reader: Vec3, antenna: u8, seconds: f64, stream: u64) -> InventoryLog {
        let center = (self.disks[0].center + self.disks[1].center) * 0.5;
        let config = ReaderConfig::at(Pose::facing_toward(reader, center))
            .with_antenna(ReaderAntenna::typical(antenna));
        let mut rng = StdRng::seed_from_u64(CORPUS_SEED ^ (stream << 16) ^ u64::from(antenna));
        run_inventory(
            &Environment::paper_default(),
            &config,
            &[
                &self.tags[0] as &dyn Transponder,
                &self.tags[1] as &dyn Transponder,
            ],
            seconds,
            &mut rng,
        )
    }
}

/// Reader position `i` of `n` on an arc in front of a rig centered at
/// `center`: azimuths spread over 30°–150°, ranges alternating 1.4 m and
/// 1.7 m, `lift` meters above the rig.
pub fn arc_position(i: usize, n: usize, center: Vec3, lift: f64) -> Vec3 {
    let az = if n > 1 {
        30.0 + 120.0 * i as f64 / (n - 1) as f64
    } else {
        90.0
    };
    let range = if i.is_multiple_of(2) { 1.4 } else { 1.7 };
    let (s, c) = az.to_radians().sin_cos();
    center + Vec3::new(range * c, range * s, lift)
}

/// Apply `plan` to `log` with a fixed placement seed per `stream`.
pub fn faulted(log: &InventoryLog, plan: FaultPlan, stream: u64) -> (Vec<TagReport>, FaultCounts) {
    plan.apply_counted(log, CORPUS_SEED ^ stream)
}

/// Split a delivery stream into wire frames: maximal timestamp-monotonic
/// runs capped at [`FRAME_REPORTS`], in delivery order. Reordered reports
/// start a new frame, which is where the session's order screen meets
/// them.
pub fn wire_frames(stream: &[TagReport]) -> Vec<InventoryLog> {
    let mut frames = Vec::new();
    let mut run: Vec<TagReport> = Vec::new();
    for report in stream {
        let breaks = run.len() >= FRAME_REPORTS
            || run
                .last()
                .is_some_and(|last| report.timestamp_us < last.timestamp_us);
        if breaks {
            frames.push(run.drain(..).collect());
        }
        run.push(*report);
    }
    if !run.is_empty() {
        frames.push(run.into_iter().collect());
    }
    frames
}

/// Shuffle `items` in place (Fisher–Yates) with `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Shift every report of `log` by `offset_us` (a whole number of disk
/// periods keeps the physics exact).
pub fn shifted(reports: &[TagReport], offset_us: u64) -> Vec<TagReport> {
    reports
        .iter()
        .map(|r| TagReport {
            timestamp_us: r.timestamp_us + offset_us,
            ..*r
        })
        .collect()
}

/// A frame encoded for the wire, with the reports the daemon will decode
/// from it.
pub struct WireFrame {
    /// Length-prefixed LLRP bytes.
    pub bytes: Vec<u8>,
    /// The reports as the daemon decodes them (phase and RSSI quantized).
    pub decoded: InventoryLog,
}

/// Encode `frames` for the wire and decode them back, as the daemon will.
/// Returns the frames and the decode time in nanoseconds (the harness's
/// own pass of the public `FrameDecoder`).
pub fn encode(frames: &[InventoryLog], first_message_id: u32) -> (Vec<WireFrame>, u64) {
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .zip(first_message_id..)
        .map(|(f, id)| {
            encode_report_frame(f, id, DEFAULT_MAX_FRAME_LEN)
                .expect("frames stay far below the cap")
        })
        .collect();
    let mut decoder = FrameDecoder::new();
    let t0 = Instant::now();
    let decoded: Vec<InventoryLog> = encoded
        .iter()
        .map(|bytes| {
            decoder.push(bytes);
            decoder
                .try_report()
                .expect("own encoding decodes")
                .expect("one whole frame was pushed")
                .0
        })
        .collect();
    let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let frames = encoded
        .into_iter()
        .zip(decoded)
        .map(|(bytes, decoded)| WireFrame { bytes, decoded })
        .collect();
    (frames, nanos)
}

/// Quarantine books by reason, as the daemon's `ingest.*` counters keep
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Books {
    /// Reports buffered.
    pub accepted: u64,
    /// Unregistered EPCs.
    pub unknown_tag: u64,
    /// All-zero EPCs.
    pub null_epc: u64,
    /// Behind their stream's newest report.
    pub out_of_order: u64,
    /// Repeats of their stream's newest report.
    pub duplicate: u64,
    /// Any other value defect (phase or RSSI out of contract).
    pub malformed: u64,
}

/// An independent model of the ingest screens, run over the decoded wire
/// stream: value defects, then registry membership, then per-(antenna,
/// tag) timestamp order, then exact repeats of the stream's newest report.
/// It is the expected side of the quarantine check.
#[derive(Debug, Default)]
pub struct ScreenModel {
    /// Newest accepted `(timestamp_us, phase bits)` per (antenna, EPC).
    heads: BTreeMap<(u8, u128), (u64, u64)>,
    /// The books so far.
    pub books: Books,
}

impl ScreenModel {
    /// Classify one decoded report.
    pub fn offer(&mut self, r: &TagReport) {
        let b = &mut self.books;
        if r.epc == 0 {
            b.null_epc += 1;
        } else if r.validate().is_err() {
            b.malformed += 1;
        } else if !EPCS.contains(&r.epc) {
            b.unknown_tag += 1;
        } else {
            let key = (r.timestamp_us, r.phase.to_bits());
            match self.heads.get(&(r.antenna_id, r.epc)) {
                Some(&(t, _)) if r.timestamp_us < t => b.out_of_order += 1,
                Some(&head) if head == key => b.duplicate += 1,
                _ => {
                    b.accepted += 1;
                    self.heads.insert((r.antenna_id, r.epc), key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(epc: u128, t: u64, phase: f64) -> TagReport {
        TagReport {
            epc,
            timestamp_us: t,
            phase,
            rssi_dbm: -60.0,
            channel_index: 0,
            antenna_id: 1,
        }
    }

    #[test]
    fn screen_model_classifies_each_fault_class() {
        let mut m = ScreenModel::default();
        for r in [
            report(EPCS[0], 100, 1.0),
            report(EPCS[0], 100, 1.0),     // exact repeat
            report(EPCS[0], 90, 1.5),      // behind the stream head
            report(EPCS[1], 90, 1.5),      // another stream: in order
            report(EPCS[0] ^ 4, 120, 1.0), // ghost: one bit flipped
            report(0, 120, 1.0),           // null EPC
            report(EPCS[0], 100, 2.0),     // same time, new phase: kept
        ] {
            m.offer(&r);
        }
        assert_eq!(
            m.books,
            Books {
                accepted: 3,
                unknown_tag: 1,
                null_epc: 1,
                out_of_order: 1,
                duplicate: 1,
                malformed: 0,
            }
        );
    }

    #[test]
    fn no_single_bit_flip_aliases_a_registered_epc() {
        for epc in EPCS {
            for bit in 0..96 {
                let ghost = epc ^ (1u128 << bit);
                assert_ne!(ghost, 0);
                assert!(!EPCS.contains(&ghost));
            }
        }
    }

    #[test]
    fn frames_split_at_reorders_and_round_trip_the_wire() {
        let stream: Vec<TagReport> = (0..120u64)
            .map(|i| {
                report(
                    EPCS[(i % 2) as usize],
                    if i == 60 { 10 } else { 1000 + i * 10 },
                    0.5,
                )
            })
            .collect();
        let frames = wire_frames(&stream);
        assert!(frames.iter().all(|f| f.len() <= FRAME_REPORTS));
        assert_eq!(frames.iter().map(InventoryLog::len).sum::<usize>(), 120);
        let (wire, _) = encode(&frames, 1);
        assert_eq!(wire.len(), frames.len());
        for (w, f) in wire.iter().zip(&frames) {
            assert_eq!(w.decoded.len(), f.len());
        }
    }
}

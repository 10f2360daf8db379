//! LLRP wire-format subset: RO_ACCESS_REPORT encode/decode.
//!
//! The paper's host talks to the Impinj Speedway over LLRP (EPCglobal Low
//! Level Reader Protocol) with Impinj's custom extension that adds the
//! backscatter phase to each tag report. This module implements the subset
//! needed to serialize an [`InventoryLog`] the way the wire carries it:
//!
//! * LLRP message header (version 1, type `RO_ACCESS_REPORT` = 61),
//! * one `TagReportData` TLV parameter per read, containing
//!   `EPC-96`, `FirstSeenTimestampUTC`, `AntennaID`, `ChannelIndex` TV
//!   parameters, and
//! * an Impinj-style custom TLV carrying the phase angle (1/4096-turn
//!   units) and peak RSSI in centi-dBm.
//!
//! Round-tripping through this encoding applies exactly the quantization a
//! real deployment suffers, which makes it a useful fidelity layer in
//! end-to-end tests.

use crate::report::{InventoryLog, TagReport};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::f64::consts::TAU;
use std::fmt;

/// LLRP message type for RO_ACCESS_REPORT.
pub const MSG_RO_ACCESS_REPORT: u16 = 61;
/// TLV parameter type for TagReportData.
pub const PARAM_TAG_REPORT_DATA: u16 = 240;
/// TV parameter type for EPC-96.
pub const TV_EPC_96: u8 = 13;
/// TV parameter type for FirstSeenTimestampUTC.
pub const TV_FIRST_SEEN_UTC: u8 = 2;
/// TV parameter type for AntennaID.
pub const TV_ANTENNA_ID: u8 = 1;
/// TV parameter type for ChannelIndex.
pub const TV_CHANNEL_INDEX: u8 = 7;
/// TLV parameter type for vendor custom parameters.
pub const PARAM_CUSTOM: u16 = 1023;
/// Impinj vendor PEN.
pub const IMPINJ_VENDOR_ID: u32 = 25882;
/// Impinj custom subtype we use for the phase/RSSI extension.
pub const IMPINJ_PHASE_SUBTYPE: u32 = 1029;

/// Bytes of one TagReportData as [`encode_report`] writes it, header
/// included: 4 + EPC-96 (13) + timestamp (9) + AntennaID (3) +
/// ChannelIndex (3) + the Impinj parameter (16).
const TAG_REPORT_LEN: u16 = 48;

/// Errors from decoding an LLRP byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlrpError {
    /// The buffer ended before a complete header/parameter.
    Truncated,
    /// Header fields are inconsistent (bad version or message type).
    BadHeader(String),
    /// An unknown or out-of-place parameter type was found.
    UnexpectedParameter(u16),
    /// A TV field's value does not fit its report field: an AntennaID
    /// above 255, or a ChannelIndex outside `1..=256` (1-based on the wire).
    OutOfRange {
        /// The TV parameter type ([`TV_ANTENNA_ID`] or [`TV_CHANNEL_INDEX`]).
        param: u8,
        /// The value on the wire.
        value: u16,
    },
    /// A report's FirstSeenTimestampUTC precedes the previous report's in
    /// the same message: an [`InventoryLog`] is time-ordered, and a sender
    /// starts a new message where its stream goes back in time.
    OutOfOrder {
        /// The previous report's timestamp, µs.
        previous_us: u64,
        /// The offending report's timestamp, µs.
        timestamp_us: u64,
    },
}

impl fmt::Display for LlrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlrpError::Truncated => write!(f, "truncated llrp message"),
            LlrpError::BadHeader(s) => write!(f, "bad llrp header: {s}"),
            LlrpError::UnexpectedParameter(t) => write!(f, "unexpected llrp parameter type {t}"),
            LlrpError::OutOfRange { param, value } => {
                write!(f, "llrp parameter type {param} value {value} out of range")
            }
            LlrpError::OutOfOrder {
                previous_us,
                timestamp_us,
            } => write!(
                f,
                "llrp report at {timestamp_us} us follows one at {previous_us} us"
            ),
        }
    }
}

impl std::error::Error for LlrpError {}

/// Encode phase (radians) into Impinj 1/4096-turn units.
fn phase_to_units(phase: f64) -> u16 {
    // lint:allow(lossy-cast) a rounded turn fraction in [0, 4096] (NaN → 0); `% 4096` fits u16
    ((tagspin_geom::angle::wrap_tau(phase) / TAU * 4096.0).round() as u32 % 4096) as u16
}

/// Decode Impinj phase units back to radians.
fn units_to_phase(units: u16) -> f64 {
    f64::from(units % 4096) / 4096.0 * TAU
}

fn encode_tag_report(buf: &mut BytesMut, r: &TagReport) {
    // TagReportData TLV header: type u16, length u16 (header inclusive).
    buf.put_u16(PARAM_TAG_REPORT_DATA);
    buf.put_u16(TAG_REPORT_LEN);
    // EPC-96 (TV): type byte with MSB set, then the low 96 bits of the EPC.
    buf.put_u8(0x80 | TV_EPC_96);
    buf.put_slice(&r.epc.to_be_bytes()[4..16]);
    // FirstSeenTimestampUTC (TV): u64 microseconds.
    buf.put_u8(0x80 | TV_FIRST_SEEN_UTC);
    buf.put_u64(r.timestamp_us);
    // AntennaID (TV): u16.
    buf.put_u8(0x80 | TV_ANTENNA_ID);
    buf.put_u16(u16::from(r.antenna_id));
    // ChannelIndex (TV): u16, 1-based on the wire.
    buf.put_u8(0x80 | TV_CHANNEL_INDEX);
    buf.put_u16(u16::from(r.channel_index) + 1);
    // Impinj custom TLV: vendor, subtype, phase units u16, rssi centi-dBm i16.
    let custom_len = 4 + 4 + 4 + 2 + 2;
    buf.put_u16(PARAM_CUSTOM);
    buf.put_u16(custom_len);
    buf.put_u32(IMPINJ_VENDOR_ID);
    buf.put_u32(IMPINJ_PHASE_SUBTYPE);
    buf.put_u16(phase_to_units(r.phase));
    // lint:allow(lossy-cast) clamped to the i16 range first (NaN saturates to 0)
    buf.put_i16((r.rssi_dbm * 100.0).round().clamp(-32768.0, 32767.0) as i16);
}

/// Encode an [`InventoryLog`] as one RO_ACCESS_REPORT message.
///
/// `message_id` is the LLRP message id echoed in the header.
pub fn encode_report(log: &InventoryLog, message_id: u32) -> Bytes {
    let len = 10 + usize::from(TAG_REPORT_LEN) * log.len();
    let mut out = BytesMut::with_capacity(len);
    // Rsvd(3)=0, Version(3)=1, MessageType(10).
    out.put_u16((1u16 << 10) | MSG_RO_ACCESS_REPORT);
    // A message past u32::MAX bytes (about 89 M reports) declares
    // u32::MAX, a length no decoder accepts, rather than a wrapped one.
    out.put_u32(u32::try_from(len).unwrap_or(u32::MAX));
    out.put_u32(message_id);
    for r in log.reports() {
        encode_tag_report(&mut out, r);
    }
    debug_assert_eq!(out.len(), len);
    out.freeze()
}

/// Parse one TagReportData body, borrowed from the message: no copy.
fn decode_tag_report(mut body: &[u8]) -> Result<TagReport, LlrpError> {
    let mut epc: u128 = 0;
    let mut timestamp_us: u64 = 0;
    let mut antenna_id: u8 = 0;
    let mut channel_index: u8 = 0;
    let mut phase: f64 = 0.0;
    let mut rssi_dbm: f64 = 0.0;
    while let Some(&first) = body.first() {
        if first & 0x80 != 0 {
            // TV parameter.
            body.advance(1);
            match first & 0x7f {
                TV_EPC_96 => {
                    if body.remaining() < 12 {
                        return Err(LlrpError::Truncated);
                    }
                    let mut bytes = [0u8; 16];
                    body.copy_to_slice(&mut bytes[4..16]);
                    epc = u128::from_be_bytes(bytes);
                }
                TV_FIRST_SEEN_UTC => {
                    if body.remaining() < 8 {
                        return Err(LlrpError::Truncated);
                    }
                    timestamp_us = body.get_u64();
                }
                TV_ANTENNA_ID => {
                    if body.remaining() < 2 {
                        return Err(LlrpError::Truncated);
                    }
                    let value = body.get_u16();
                    antenna_id = u8::try_from(value).map_err(|_| LlrpError::OutOfRange {
                        param: TV_ANTENNA_ID,
                        value,
                    })?;
                }
                TV_CHANNEL_INDEX => {
                    if body.remaining() < 2 {
                        return Err(LlrpError::Truncated);
                    }
                    // 1-based on the wire.
                    let value = body.get_u16();
                    channel_index = value
                        .checked_sub(1)
                        .and_then(|c| u8::try_from(c).ok())
                        .ok_or(LlrpError::OutOfRange {
                            param: TV_CHANNEL_INDEX,
                            value,
                        })?;
                }
                other => return Err(LlrpError::UnexpectedParameter(u16::from(other))),
            }
        } else {
            // TLV parameter.
            if body.remaining() < 4 {
                return Err(LlrpError::Truncated);
            }
            let ptype = body.get_u16();
            let plen = usize::from(body.get_u16());
            if plen < 4 || body.remaining() < plen - 4 {
                return Err(LlrpError::Truncated);
            }
            let (mut pbody, rest) = body.split_at(plen - 4);
            body = rest;
            if ptype != PARAM_CUSTOM {
                return Err(LlrpError::UnexpectedParameter(ptype));
            }
            if pbody.remaining() < 12 {
                return Err(LlrpError::Truncated);
            }
            let vendor = pbody.get_u32();
            let subtype = pbody.get_u32();
            if vendor == IMPINJ_VENDOR_ID && subtype == IMPINJ_PHASE_SUBTYPE {
                phase = units_to_phase(pbody.get_u16());
                rssi_dbm = f64::from(pbody.get_i16()) / 100.0;
            }
        }
    }
    Ok(TagReport {
        epc,
        timestamp_us,
        phase,
        rssi_dbm,
        channel_index,
        antenna_id,
    })
}

/// Decode an RO_ACCESS_REPORT produced by [`encode_report`].
///
/// Returns the log and the message id. Every parameter is parsed in place
/// from `buf`; the only allocation is the returned log.
///
/// # Errors
///
/// Any structural problem yields an [`LlrpError`]; partial logs are not
/// returned.
pub fn decode_report(buf: Bytes) -> Result<(InventoryLog, u32), LlrpError> {
    let mut buf: &[u8] = &buf;
    if buf.remaining() < 10 {
        return Err(LlrpError::Truncated);
    }
    let vt = buf.get_u16();
    let version = (vt >> 10) & 0x7;
    let msg_type = vt & 0x3ff;
    if version != 1 {
        return Err(LlrpError::BadHeader(format!("version {version}")));
    }
    if msg_type != MSG_RO_ACCESS_REPORT {
        return Err(LlrpError::BadHeader(format!("message type {msg_type}")));
    }
    // lint:allow(lossy-cast) usize is at least 32 bits on every supported target
    let total_len = buf.get_u32() as usize;
    // The declared length covers the 10-byte header; anything smaller is a
    // malformed frame (and would underflow the arithmetic below).
    if total_len < 10 {
        return Err(LlrpError::BadHeader(format!(
            "declared length {total_len} below header size"
        )));
    }
    let message_id = buf.get_u32();
    if buf.remaining() != total_len - 10 {
        return Err(LlrpError::Truncated);
    }
    // Sized for this encoder's reports; other sizes only cost a regrowth.
    let mut log = InventoryLog::with_capacity(buf.len() / usize::from(TAG_REPORT_LEN));
    while buf.has_remaining() {
        if buf.remaining() < 4 {
            return Err(LlrpError::Truncated);
        }
        let ptype = buf.get_u16();
        if ptype != PARAM_TAG_REPORT_DATA {
            return Err(LlrpError::UnexpectedParameter(ptype));
        }
        let plen = usize::from(buf.get_u16());
        if plen < 4 || buf.remaining() < plen - 4 {
            return Err(LlrpError::Truncated);
        }
        let (body, rest) = buf.split_at(plen - 4);
        buf = rest;
        let report = decode_tag_report(body)?;
        if let Some(previous) = log.reports().last() {
            if report.timestamp_us < previous.timestamp_us {
                return Err(LlrpError::OutOfOrder {
                    previous_us: previous.timestamp_us,
                    timestamp_us: report.timestamp_us,
                });
            }
        }
        log.push(report);
    }
    Ok((log, message_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> InventoryLog {
        (0..10)
            .map(|i| TagReport {
                epc: 0xE200_1234_5678_0000_u128 + i as u128,
                timestamp_us: 1_000 * i,
                phase: tagspin_geom::angle::wrap_tau(i as f64 * 0.7),
                rssi_dbm: -55.5 - i as f64,
                channel_index: (i % 16) as u8,
                antenna_id: 1 + (i % 4) as u8,
            })
            .collect()
    }

    #[test]
    fn roundtrip_preserves_fields() {
        let log = sample_log();
        let bytes = encode_report(&log, 42);
        let (decoded, id) = decode_report(bytes).unwrap();
        assert_eq!(id, 42);
        assert_eq!(decoded.len(), log.len());
        for (a, b) in decoded.reports().iter().zip(log.reports()) {
            assert_eq!(a.epc & ((1u128 << 96) - 1), b.epc & ((1u128 << 96) - 1));
            assert_eq!(a.timestamp_us, b.timestamp_us);
            assert_eq!(a.channel_index, b.channel_index);
            assert_eq!(a.antenna_id, b.antenna_id);
            // Phase survives within half a quantization step.
            let dq = (a.phase - b.phase).abs();
            assert!(dq < TAU / 4096.0, "phase err {dq}");
            // RSSI within a centi-dB.
            assert!((a.rssi_dbm - b.rssi_dbm).abs() <= 0.01);
        }
    }

    #[test]
    fn empty_log_roundtrip() {
        let log = InventoryLog::new();
        let bytes = encode_report(&log, 7);
        let (decoded, id) = decode_report(bytes).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(id, 7);
    }

    #[test]
    fn phase_units_roundtrip() {
        for i in 0..4096u16 {
            assert_eq!(phase_to_units(units_to_phase(i)), i);
        }
        assert_eq!(phase_to_units(TAU - 1e-9), 0);
    }

    #[test]
    fn truncated_rejected() {
        let log = sample_log();
        let bytes = encode_report(&log, 1);
        let short = bytes.slice(0..bytes.len() - 3);
        assert!(matches!(decode_report(short), Err(LlrpError::Truncated)));
        assert!(matches!(
            decode_report(Bytes::from_static(&[0, 1, 2])),
            Err(LlrpError::Truncated)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let log = sample_log();
        let mut bytes = BytesMut::from(&encode_report(&log, 1)[..]);
        bytes[0] = 0x0C; // version 3
        let err = decode_report(bytes.freeze()).unwrap_err();
        assert!(matches!(err, LlrpError::BadHeader(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn undersized_declared_length_rejected() {
        // A crafted frame declaring total_len < 10 must be a clean error,
        // not a usize-underflow panic.
        let mut out = BytesMut::new();
        out.put_u16((1u16 << 10) | MSG_RO_ACCESS_REPORT);
        out.put_u32(5); // absurd declared length
        out.put_u32(0);
        assert!(matches!(
            decode_report(out.freeze()),
            Err(LlrpError::BadHeader(_))
        ));
    }

    #[test]
    fn wrong_message_type_rejected() {
        let mut out = BytesMut::new();
        out.put_u16((1u16 << 10) | 30); // some other type
        out.put_u32(10);
        out.put_u32(0);
        assert!(matches!(
            decode_report(out.freeze()),
            Err(LlrpError::BadHeader(_))
        ));
    }

    /// A one-report message whose AntennaID and ChannelIndex carry the
    /// given wire values.
    fn with_wire_fields(antenna: u16, channel: u16) -> Bytes {
        let log: InventoryLog = sample_log().reports()[..1].iter().copied().collect();
        let mut bytes = encode_report(&log, 3).to_vec();
        // Header (10), TagReportData header (4), EPC-96 (13), timestamp (9).
        let at = 10 + 4 + 13 + 9;
        assert_eq!(bytes[at], 0x80 | TV_ANTENNA_ID);
        bytes[at + 1..at + 3].copy_from_slice(&antenna.to_be_bytes());
        assert_eq!(bytes[at + 3], 0x80 | TV_CHANNEL_INDEX);
        bytes[at + 4..at + 6].copy_from_slice(&channel.to_be_bytes());
        Bytes::from(bytes)
    }

    #[test]
    fn out_of_range_antenna_and_channel_rejected() {
        let fields = |antenna, channel| {
            let (log, _) = decode_report(with_wire_fields(antenna, channel)).unwrap();
            (log.reports()[0].antenna_id, log.reports()[0].channel_index)
        };
        // The edges of both ranges decode.
        assert_eq!(fields(255, 1), (255, 0));
        assert_eq!(fields(0, 256), (0, 255));
        // AntennaID 257 would otherwise alias antenna 1.
        for antenna in [256, 257, u16::MAX] {
            assert_eq!(
                decode_report(with_wire_fields(antenna, 1)),
                Err(LlrpError::OutOfRange {
                    param: TV_ANTENNA_ID,
                    value: antenna
                })
            );
        }
        // ChannelIndex 0 and 257 would otherwise both read as channel 0.
        for channel in [0, 257, u16::MAX] {
            let err = decode_report(with_wire_fields(1, channel)).unwrap_err();
            assert_eq!(
                err,
                LlrpError::OutOfRange {
                    param: TV_CHANNEL_INDEX,
                    value: channel
                }
            );
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn backward_timestamp_rejected() {
        // A message the encoder never writes: report 0 (t = 0) rewritten to
        // t = 5000 µs, after report 1's 1000 µs. Header (10), TagReportData
        // header (4), EPC-96 (13), timestamp type byte (1).
        let mut bytes = encode_report(&sample_log(), 1).to_vec();
        let at = 10 + 4 + 13 + 1;
        bytes[at..at + 8].copy_from_slice(&5000u64.to_be_bytes());
        let err = decode_report(Bytes::from(bytes)).unwrap_err();
        assert_eq!(
            err,
            LlrpError::OutOfOrder {
                previous_us: 5000,
                timestamp_us: 1000
            }
        );
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn epc_96_truncation_is_documented_behaviour() {
        // Only the low 96 bits ride the wire; high 32 bits are dropped.
        let mut log = InventoryLog::new();
        log.push(TagReport {
            epc: (0xDEADBEEF_u128 << 96) | 0x1234,
            timestamp_us: 0,
            phase: 0.0,
            rssi_dbm: -60.0,
            channel_index: 0,
            antenna_id: 1,
        });
        let (decoded, _) = decode_report(encode_report(&log, 0)).unwrap();
        assert_eq!(decoded.reports()[0].epc, 0x1234);
    }
}

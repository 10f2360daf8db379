//! Property-based tests for the length-prefixed serve framing: round
//! trips over arbitrary report batches and arbitrary delivery chunking,
//! plus adversarial inputs — truncation, garbage, single corrupted bytes,
//! oversized prefixes — which must always surface as typed protocol
//! errors, never a panic and never a silently desynchronized stream.

use proptest::prelude::*;
use tagspin_epc::frame::{
    encode_frame, encode_report_frame, FrameDecoder, FrameError, ProtocolError,
    DEFAULT_MAX_FRAME_LEN,
};
use tagspin_epc::llrp::encode_report;
use tagspin_epc::{InventoryLog, TagReport};

fn arb_report() -> impl Strategy<Value = TagReport> {
    (
        0u128..(1u128 << 96),
        0u64..10_000_000,
        0.0f64..std::f64::consts::TAU,
        -90.0f64..-30.0,
        0u8..16,
        1u8..9,
    )
        .prop_map(
            |(epc, timestamp_us, phase, rssi_dbm, channel_index, antenna_id)| TagReport {
                epc,
                timestamp_us,
                phase,
                rssi_dbm,
                channel_index,
                antenna_id,
            },
        )
}

fn arb_log() -> impl Strategy<Value = InventoryLog> {
    proptest::collection::vec(arb_report(), 0..32).prop_map(|mut reports| {
        reports.sort_by_key(|r| r.timestamp_us);
        reports.into_iter().collect()
    })
}

/// Every field of `sent` came back in `got`, up to the wire's documented
/// quantization (the framed twin of `proptests.rs::llrp_roundtrip`).
fn prop_assert_same_log(got: &InventoryLog, sent: &InventoryLog) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), sent.len());
    for (a, b) in got.reports().iter().zip(sent.reports()) {
        prop_assert_eq!(a.epc, b.epc & ((1u128 << 96) - 1));
        prop_assert_eq!(a.timestamp_us, b.timestamp_us);
        prop_assert_eq!(a.channel_index, b.channel_index);
        prop_assert_eq!(a.antenna_id, b.antenna_id);
        let dq = tagspin_geom::angle::separation(a.phase, b.phase);
        prop_assert!(dq <= std::f64::consts::TAU / 4096.0 / 2.0 + 1e-12);
        prop_assert!((a.rssi_dbm - b.rssi_dbm).abs() <= 0.005 + 1e-9);
    }
    Ok(())
}

/// Deterministically split `wire` into chunks whose sizes cycle through
/// `cuts` — models arbitrary TCP segmentation without randomness inside
/// the decoder loop.
fn deliver(dec: &mut FrameDecoder, wire: &[u8], cuts: &[usize]) -> Vec<(InventoryLog, u32)> {
    let mut out = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < wire.len() {
        let step = cuts[i % cuts.len()].max(1).min(wire.len() - pos);
        i += 1;
        dec.push(&wire[pos..pos + step]);
        pos += step;
        while let Ok(Some(report)) = dec.try_report() {
            out.push(report);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any batch sequence survives any segmentation: every frame comes
    /// back, in order, with its message id, and the stream drains clean.
    #[test]
    fn framed_roundtrip_any_chunking(
        logs in proptest::collection::vec(arb_log(), 1..6),
        cuts in proptest::collection::vec(1usize..128, 1..8),
    ) {
        let mut wire = Vec::new();
        for (id, log) in logs.iter().enumerate() {
            wire.extend_from_slice(
                &encode_report_frame(log, id as u32, DEFAULT_MAX_FRAME_LEN).unwrap(),
            );
        }
        let mut dec = FrameDecoder::new();
        let got = deliver(&mut dec, &wire, &cuts);
        prop_assert_eq!(got.len(), logs.len());
        for (id, ((log, rid), sent)) in got.iter().zip(&logs).enumerate() {
            prop_assert_eq!(*rid, id as u32);
            prop_assert_same_log(log, sent)?;
        }
        prop_assert!(dec.finish().is_ok());
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Cutting the wire anywhere mid-stream never panics: the decoder
    /// yields exactly the frames that were fully delivered, and `finish`
    /// reports truncation iff bytes were left over.
    #[test]
    fn truncation_is_typed_never_panic(
        logs in proptest::collection::vec(arb_log(), 1..4),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        for (id, log) in logs.iter().enumerate() {
            wire.extend_from_slice(
                &encode_report_frame(log, id as u32, DEFAULT_MAX_FRAME_LEN).unwrap(),
            );
        }
        let keep = ((wire.len() as f64) * cut_frac) as usize;
        let mut dec = FrameDecoder::new();
        let got = deliver(&mut dec, &wire[..keep], &[7]);
        // Every frame returned is one that was fully inside the kept
        // prefix, in order from the front.
        prop_assert!(got.len() <= logs.len());
        for ((_, rid), id) in got.iter().zip(0u32..) {
            prop_assert_eq!(*rid, id);
        }
        match dec.finish() {
            Ok(()) => prop_assert_eq!(dec.pending(), 0),
            Err(FrameError::Truncated { buffered }) => {
                prop_assert!(buffered > 0);
                prop_assert_eq!(buffered, dec.pending());
            }
            Err(e) => prop_assert!(false, "unexpected finish error {e}"),
        }
    }

    /// Garbage payloads inside well-formed frames cost exactly their own
    /// frame: the decoder reports a typed LLRP error and the next good
    /// frame still decodes — no desync.
    #[test]
    fn garbage_payload_does_not_desync(
        junk in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
        log in arb_log(),
    ) {
        let mut wire = encode_frame(&junk, DEFAULT_MAX_FRAME_LEN).unwrap();
        wire.extend_from_slice(&encode_report_frame(&log, 77, DEFAULT_MAX_FRAME_LEN).unwrap());
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.try_report() {
            // A random payload that happens to be a valid (e.g. empty)
            // message is fine; otherwise the error must be typed Llrp.
            Ok(Some(_)) => {}
            Err(ProtocolError::Llrp(_)) => {}
            other => prop_assert!(false, "expected Llrp error or decode, got {other:?}"),
        }
        let (decoded, rid) = dec.try_report().unwrap().expect("good frame after junk");
        prop_assert_eq!(rid, 77);
        prop_assert_eq!(decoded.len(), log.len());
        prop_assert!(dec.finish().is_ok());
    }

    /// Overwriting one byte of a valid frame's payload at any offset,
    /// length fields included, yields a log or a typed LLRP error, never a
    /// panic, and costs at most that frame: the next one decodes intact.
    #[test]
    fn corrupt_payload_byte_is_contained(
        log in arb_log(),
        next in arb_log(),
        offset_frac in 0.0f64..1.0,
        byte in proptest::num::u8::ANY,
    ) {
        let mut payload = encode_report(&log, 5).to_vec();
        let at = ((payload.len() as f64 * offset_frac) as usize).min(payload.len() - 1);
        let unchanged = payload[at] == byte;
        payload[at] = byte;
        let mut wire = encode_frame(&payload, DEFAULT_MAX_FRAME_LEN).unwrap();
        wire.extend_from_slice(&encode_report_frame(&next, 6, DEFAULT_MAX_FRAME_LEN).unwrap());
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.try_report() {
            Ok(Some((decoded, _))) if unchanged => prop_assert_same_log(&decoded, &log)?,
            Ok(Some(_)) | Err(ProtocolError::Llrp(_)) if !unchanged => {}
            other => prop_assert!(false, "byte {byte:#04x} at {at}: got {other:?}"),
        }
        let (decoded, rid) = dec.try_report().unwrap().expect("next frame intact");
        prop_assert_eq!(rid, 6);
        prop_assert_same_log(&decoded, &next)?;
        prop_assert!(dec.finish().is_ok());
    }

    /// An oversized length prefix is a typed, sticky framing error — the
    /// decoder refuses to guess at a resync point no matter what arrives
    /// afterwards.
    #[test]
    fn oversized_prefix_poisons(
        max in 16usize..4096,
        over in 1usize..1_000_000,
        trailing in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
    ) {
        let mut dec = FrameDecoder::with_max_len(max);
        dec.push(&((max + over) as u32).to_be_bytes());
        let e = dec.try_frame();
        prop_assert_eq!(e, Err(FrameError::Oversized { len: max + over, max }));
        dec.push(&trailing);
        prop_assert_eq!(dec.try_frame(), Err(FrameError::Oversized { len: max + over, max }));
        prop_assert!(dec.finish().is_err());
    }

    /// Feeding the decoder pure random bytes never panics; any frames it
    /// does emit obey the configured cap.
    #[test]
    fn random_bytes_never_panic(
        noise in proptest::collection::vec(proptest::num::u8::ANY, 0..512),
        max in 1usize..512,
    ) {
        let mut dec = FrameDecoder::with_max_len(max);
        dec.push(&noise);
        loop {
            match dec.try_report() {
                Ok(Some((log, _))) => prop_assert!(log.len() < max),
                Ok(None) => break,
                Err(ProtocolError::Llrp(_)) => continue,
                Err(ProtocolError::Frame(_)) => break,
            }
        }
        let _ = dec.finish();
    }
}

//! The envelope decoder against hostile bytes: frames arrive from
//! peers, so [`Envelope::from_bytes`] and [`Envelope::from_payload`]
//! must return `Ok` or `Err` for any input and never panic. The format
//! is canonical, so a frame that decodes re-encodes to the same bytes.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use rmodp_core::codec::SyntaxId;
use rmodp_core::id::{ChannelId, InterfaceId};
use rmodp_engineering::envelope::{Envelope, EnvelopeKind, ReplyStatus};
use rmodp_kernel::payload::Payload;

const KINDS: [EnvelopeKind; 4] = [
    EnvelopeKind::Request,
    EnvelopeKind::Reply,
    EnvelopeKind::Announce,
    EnvelopeKind::Flow,
];
const STATUSES: [ReplyStatus; 3] = [ReplyStatus::Ok, ReplyStatus::NotHere, ReplyStatus::Rejected];
const SYNTAXES: [SyntaxId; 2] = [SyntaxId::Binary, SyntaxId::Text];

/// Any envelope: every kind, status and syntax, unicode flow names.
fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        (0..KINDS.len(), 0..STATUSES.len(), 0..SYNTAXES.len()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(any::<char>(), 0..6),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(
            |((k, s, x), (channel, request, seq, target), flow, payload)| Envelope {
                kind: KINDS[k],
                channel: ChannelId::new(channel),
                request,
                seq,
                target: InterfaceId::new(target),
                status: STATUSES[s],
                syntax: SYNTAXES[x],
                payload: Payload::new(payload),
                flow: flow.into_iter().collect(),
            },
        )
}

/// Decodes `bytes` both ways: the decoders agree, and a decoded frame
/// re-encodes to `bytes`. Returns whether the frame decoded.
fn decodes(bytes: &[u8]) -> Result<bool, TestCaseError> {
    let copied = Envelope::from_bytes(bytes);
    prop_assert_eq!(&copied, &Envelope::from_payload(&Payload::copy_of(bytes)));
    if let Ok(env) = &copied {
        prop_assert_eq!(env.to_bytes(), bytes.to_vec());
    }
    Ok(copied.is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_envelope_round_trips(env in arb_envelope()) {
        let frame = Payload::new(env.to_bytes());
        prop_assert_eq!(Envelope::from_bytes(&frame), Ok(env.clone()));
        let shared = Envelope::from_payload(&frame).unwrap();
        prop_assert!(shared.payload.shares_buffer_with(&frame));
        prop_assert_eq!(shared, env);
    }

    #[test]
    fn arbitrary_bytes_decode_or_fail_cleanly(
        header in (0u8..5, 0u8..4, 0u8..3),
        rest in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        // Mostly valid discriminants, so the length fields are reached.
        let mut bytes = vec![header.0, header.1, header.2];
        bytes.extend_from_slice(&rest);
        decodes(&bytes)?;
        decodes(&rest)?;
    }

    #[test]
    fn damaged_frames_decode_or_fail_cleanly(
        env in arb_envelope(),
        (at, byte) in (any::<usize>(), any::<u8>()),
        len in prop_oneof![0u32..64, any::<u32>(), Just(u32::MAX)],
        tail in proptest::collection::vec(any::<u8>(), 1..8),
    ) {
        let frame = env.to_bytes();
        // A truncated or extended frame never decodes.
        prop_assert!(!decodes(&frame[..at % frame.len()])?);
        prop_assert!(!decodes(&[frame.as_slice(), &tail].concat())?);
        // An overwritten byte or length field decodes or fails cleanly.
        let mut hit = frame.clone();
        hit[at % frame.len()] = byte;
        decodes(&hit)?;
        let flow_len_at = 3 + 4 * 8;
        for at in [flow_len_at, flow_len_at + 4 + env.flow.len()] {
            let mut hit = frame.clone();
            hit[at..at + 4].copy_from_slice(&len.to_le_bytes());
            decodes(&hit)?;
        }
    }
}

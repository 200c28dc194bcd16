//! The streamed writers against the `Value`-tree reference.
//!
//! WAL frames and snapshots are written in place, straight from
//! borrowed parts. Their bytes are defined by the tree form: a frame is
//! `len | fnv1a | BinarySyntax.encode(record.to_value())`, a snapshot
//! the same framing around `{entries: [{k, v}…], next_batch}`. The
//! oracles below build those trees and encode them; the properties say
//! the streamed bytes are identical, and that decoding by move gives
//! back what went in.

use std::collections::BTreeMap;

use proptest::prelude::*;

use rmodp_core::codec::{BinarySyntax, TransferSyntax};
use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_observe::hash::{fnv1a, FNV_OFFSET_BASIS};
use rmodp_store::snapshot::{decode_snapshot, encode_snapshot, Snapshot};
use rmodp_store::wal::{decode_frames, encode_frame};
use rmodp_transactions::log::LogRecord;

/// `len | fnv1a | payload`, the frame layout, around given payload bytes.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a(FNV_OFFSET_BASIS, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The reference frame: the record's tree form, encoded, then framed.
fn oracle_frame(record: &LogRecord) -> Vec<u8> {
    framed(&BinarySyntax.encode(&record.to_value()))
}

/// The reference snapshot: the whole state cloned into its document
/// tree, encoded, then framed.
fn oracle_snapshot(state: &BTreeMap<String, Value>, next_batch: u64) -> Vec<u8> {
    let entries = Value::Seq(
        state
            .iter()
            .map(|(k, v)| Value::record([("k", Value::text(k.clone())), ("v", v.clone())]))
            .collect(),
    );
    let doc = Value::record([
        ("entries", entries),
        ("next_batch", Value::Int(next_batch as i64)),
    ]);
    framed(&BinarySyntax.encode(&doc))
}

/// Keys and texts: ASCII, path separators and multi-byte characters.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z/0-9]{0,12}",
        "[aé日κ🦀/ü_]{0,6}",
        proptest::collection::vec(any::<char>(), 0..6).prop_map(String::from_iter),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("NaN never equals itself", |x| !x.is_nan())
            .prop_map(Value::Float),
        arb_text().prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(Value::Blob),
        any::<u64>().prop_map(Value::Ref),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::btree_map(arb_text(), inner, 0..4).prop_map(Value::Record),
        ]
    })
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    let tx = any::<u64>().prop_map(TxId::new);
    prop_oneof![
        tx.clone().prop_map(|tx| LogRecord::Begin { tx }),
        tx.clone().prop_map(|tx| LogRecord::Prepare { tx }),
        tx.clone().prop_map(|tx| LogRecord::Commit { tx }),
        tx.clone().prop_map(|tx| LogRecord::Abort { tx }),
        (
            tx,
            arb_text(),
            proptest::option::of(arb_value()),
            prop_oneof![Just(Value::Null), arb_value()],
        )
            .prop_map(|(tx, item, before, after)| LogRecord::Write {
                tx,
                item,
                before,
                after,
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_frames_equal_the_tree_encoding(record in arb_record()) {
        let bytes = encode_frame(&record);
        prop_assert_eq!(&bytes, &oracle_frame(&record));
        let decoded = decode_frames(&bytes);
        prop_assert!(!decoded.truncated_tail);
        prop_assert_eq!(decoded.records, vec![record]);
    }

    #[test]
    fn streamed_logs_decode_by_move(records in proptest::collection::vec(arb_record(), 0..8)) {
        let image: Vec<u8> = records.iter().flat_map(encode_frame).collect();
        let oracle: Vec<u8> = records.iter().flat_map(oracle_frame).collect();
        prop_assert_eq!(&image, &oracle);
        let decoded = decode_frames(&image);
        prop_assert_eq!(decoded.valid_len, image.len());
        prop_assert_eq!(decoded.records, records);
    }

    #[test]
    fn streamed_snapshots_equal_the_tree_encoding(
        state in proptest::collection::btree_map(arb_text(), arb_value(), 0..12),
        next_batch in any::<u64>(),
    ) {
        let bytes = encode_snapshot(&state, next_batch);
        prop_assert_eq!(&bytes, &oracle_snapshot(&state, next_batch));
        prop_assert_eq!(decode_snapshot(&bytes).unwrap(), Snapshot { state, next_batch });
    }
}

#[test]
fn null_images_stay_distinct_from_absent_ones() {
    // `before: Some(Null)` and `before: None` frame differently and both
    // survive the round trip; a `Null` after-image is the tombstone.
    for before in [None, Some(Value::Null)] {
        let record = LogRecord::Write {
            tx: TxId::new(3),
            item: "gone".to_owned(),
            before,
            after: Value::Null,
        };
        let bytes = encode_frame(&record);
        assert_eq!(bytes, oracle_frame(&record));
        assert_eq!(decode_frames(&bytes).records, vec![record]);
    }
}

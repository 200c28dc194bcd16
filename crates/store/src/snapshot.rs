//! Snapshot codec: the full committed state as one checksummed blob.
//!
//! A snapshot is the compaction point — everything the WAL had applied
//! when it was taken — plus the batch-id high-water mark, so identifiers
//! stay monotone across restarts. It is framed exactly like a WAL
//! record (`len`/`fnv1a`/payload, through the WAL's `frame` helper), and
//! installation is atomic at the media layer, so recovery sees either
//! the old or the new snapshot in full, never a torn one.
//!
//! The payload is the binary encoding of the document
//!
//! ```text
//! { entries: [ { k: Text, v: Value }, … in key order ], next_batch: Int }
//! ```
//!
//! streamed straight from the live state: encoding clones nothing, and
//! decoding moves each key and value out of the decoded document.

use std::collections::BTreeMap;

use rmodp_core::codec::binary::{
    encode_into, put_field_key, put_int, put_record_header, put_seq_header, put_text,
};
use rmodp_core::codec::{BinarySyntax, TransferSyntax};
use rmodp_core::value::Value;

use crate::wal::{frame, unframe};

/// Levels of `Seq`/`Record` nesting the snapshot document wraps around
/// each stored value: the document, its entry list, and the entry.
pub(crate) const VALUE_WRAP_DEPTH: usize = 3;

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// The committed keyspace at the compaction point.
    pub state: BTreeMap<String, Value>,
    /// The next batch id the engine should hand out.
    pub next_batch: u64,
}

/// Appends a snapshot of `state` to `out` as one checksummed frame,
/// streaming the entries from the borrowed state.
pub(crate) fn put_snapshot(out: &mut Vec<u8>, state: &BTreeMap<String, Value>, next_batch: u64) {
    frame(out, |out| {
        // Fields in canonical (sorted) key order.
        put_record_header(out, 2);
        put_field_key(out, "entries");
        put_seq_header(out, state.len());
        for (k, v) in state {
            put_record_header(out, 2);
            put_field_key(out, "k");
            put_text(out, k);
            put_field_key(out, "v");
            encode_into(v, out);
        }
        put_field_key(out, "next_batch");
        put_int(out, next_batch as i64);
    });
}

/// Encodes a snapshot as one checksummed frame. Takes the live state by
/// reference and streams it: nothing in the keyspace is cloned.
pub fn encode_snapshot(state: &BTreeMap<String, Value>, next_batch: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_snapshot(&mut out, state, next_batch);
    out
}

/// Decodes a snapshot frame, moving every key and value out of the
/// decoded document.
///
/// # Errors
///
/// A description of the first structural problem (truncation, checksum
/// mismatch, bad payload).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, String> {
    let (payload, _) = unframe(bytes).map_err(|why| format!("snapshot {why}"))?;
    let doc = BinarySyntax.decode(payload).map_err(|e| e.to_string())?;
    let Value::Record(mut doc) = doc else {
        return Err("snapshot is not a record".to_owned());
    };
    let Some(Value::Seq(entries)) = doc.remove("entries") else {
        return Err("snapshot without entries".to_owned());
    };
    let mut state = BTreeMap::new();
    for entry in entries {
        let Value::Record(mut entry) = entry else {
            return Err("entry without key".to_owned());
        };
        let Some(Value::Text(k)) = entry.remove("k") else {
            return Err("entry without key".to_owned());
        };
        let v = entry.remove("v").ok_or("entry without value")?;
        state.insert(k, v);
    }
    let next_batch = doc
        .get("next_batch")
        .and_then(Value::as_int)
        .ok_or("snapshot without next_batch")? as u64;
    Ok(Snapshot { state, next_batch })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips() {
        let mut state = BTreeMap::new();
        state.insert("a".to_owned(), Value::Int(1));
        state.insert(
            "b".to_owned(),
            Value::record([("nested", Value::text("x"))]),
        );
        let snap = Snapshot {
            state,
            next_batch: 42,
        };
        let bytes = encode_snapshot(&snap.state, snap.next_batch);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
    }

    #[test]
    fn damage_is_detected() {
        let mut bytes = encode_snapshot(&BTreeMap::new(), 0);
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode_snapshot(&bytes).is_err());
        assert!(decode_snapshot(&[]).is_err());
    }
}

//! Frame encoding for the durable write-ahead log.
//!
//! The in-memory redo/undo machinery lives in
//! [`rmodp_transactions::log`]; this module gives its [`LogRecord`]s a
//! byte form safe to read back after an arbitrary crash point. Each
//! record is framed as
//!
//! ```text
//! [len: u32 LE] [fnv1a(payload): u64 LE] [payload: binary-syntax Value]
//! ```
//!
//! where the payload is the binary encoding of
//! [`LogRecord::to_value`]. Frames are written in place: `frame`
//! reserves the header, the payload is streamed straight onto the
//! output from borrowed parts (no `Value` tree is built), and the
//! length and checksum are patched in after. Snapshots use the same
//! helper.
//!
//! Decoding stops at the first frame that is incomplete, fails its
//! checksum, or does not decode: whatever a crash left beyond the last
//! fully-synced frame is discarded, never misread. That is exactly the
//! property the crash-at-every-prefix test pins — the decoded stream
//! equals the longest valid frame prefix, byte-truncation anywhere
//! included. Decoded records are built by moving the images out of the
//! decoded payload.

use rmodp_core::codec::binary::{
    encode_into, put_field_key, put_int, put_record_header, put_seq_header, put_text,
};
use rmodp_core::codec::{BinarySyntax, TransferSyntax};
use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_transactions::log::LogRecord;

/// Bytes of a frame header: `len` then `fnv1a`.
const HEADER: usize = 12;

/// FNV-1a over a byte slice — the per-frame checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one checksummed frame to `out`: reserves the header, lets
/// `payload` append the payload, then patches in its length and FNV-1a.
pub(crate) fn frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; HEADER]);
    payload(out);
    let body = &out[start + HEADER..];
    let (len, crc) = (body.len() as u32, fnv1a(body));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Splits the frame at the front of `bytes` into its payload and its
/// total length.
///
/// # Errors
///
/// What is wrong with the frame: too short for its header, payload
/// truncated, or checksum mismatch.
pub(crate) fn unframe(bytes: &[u8]) -> Result<(&[u8], usize), &'static str> {
    let header = bytes.get(..HEADER).ok_or("shorter than its header")?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u64::from_le_bytes(header[4..HEADER].try_into().expect("8 bytes"));
    let payload = bytes.get(HEADER..HEADER + len).ok_or("payload truncated")?;
    if fnv1a(payload) != crc {
        return Err("checksum mismatch");
    }
    Ok((payload, HEADER + len))
}

/// Appends the frame of a `Write` record built from borrowed parts —
/// the same bytes as [`put_frame`] of the owned record.
pub(crate) fn put_write_frame(
    out: &mut Vec<u8>,
    tx: TxId,
    item: &str,
    before: Option<&Value>,
    after: &Value,
) {
    frame(out, |out| {
        // Fields in canonical (sorted) key order.
        put_record_header(out, 5);
        put_field_key(out, "after");
        encode_into(after, out);
        put_field_key(out, "before");
        put_seq_header(out, usize::from(before.is_some()));
        if let Some(before) = before {
            encode_into(before, out);
        }
        put_field_key(out, "item");
        put_text(out, item);
        put_field_key(out, "rec");
        put_text(out, "write");
        put_field_key(out, "tx");
        put_int(out, tx.raw() as i64);
    });
}

/// Appends one record as a checksummed frame.
pub(crate) fn put_frame(out: &mut Vec<u8>, record: &LogRecord) {
    match record {
        LogRecord::Write {
            tx,
            item,
            before,
            after,
        } => put_write_frame(out, *tx, item, before.as_ref(), after),
        _ => frame(out, |out| {
            put_record_header(out, 2);
            put_field_key(out, "rec");
            put_text(out, record.tag());
            put_field_key(out, "tx");
            put_int(out, record.tx().raw() as i64);
        }),
    }
}

/// Encodes one record as a checksummed frame.
pub fn encode_frame(record: &LogRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_frame(&mut out, record);
    out
}

/// The outcome of scanning a WAL image.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedWal {
    /// Every record recovered, in log order.
    pub records: Vec<LogRecord>,
    /// How many leading bytes formed valid frames.
    pub valid_len: usize,
    /// Whether trailing bytes were discarded (torn frame, bad checksum,
    /// or undecodable payload).
    pub truncated_tail: bool,
}

/// Scans a WAL image, returning the longest valid frame prefix.
pub fn decode_frames(bytes: &[u8]) -> DecodedWal {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Ok((payload, len)) = unframe(&bytes[pos..]) {
        let Ok(value) = BinarySyntax.decode(payload) else {
            break;
        };
        let Ok(record) = LogRecord::from_value(value) else {
            break;
        };
        records.push(record);
        pos += len;
    }
    DecodedWal {
        records,
        valid_len: pos,
        truncated_tail: pos != bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { tx: TxId::new(1) },
            LogRecord::Write {
                tx: TxId::new(1),
                item: "oo7/atomic/3".to_owned(),
                before: None,
                after: Value::record([("x", Value::Int(9))]),
            },
            LogRecord::Commit { tx: TxId::new(1) },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut image = Vec::new();
        for r in sample() {
            image.extend_from_slice(&encode_frame(&r));
        }
        let decoded = decode_frames(&image);
        assert_eq!(decoded.records, sample());
        assert_eq!(decoded.valid_len, image.len());
        assert!(!decoded.truncated_tail);
    }

    #[test]
    fn truncation_at_every_byte_yields_a_frame_prefix() {
        let mut image = Vec::new();
        let mut boundaries = vec![0usize];
        for r in sample() {
            image.extend_from_slice(&encode_frame(&r));
            boundaries.push(image.len());
        }
        for cut in 0..=image.len() {
            let decoded = decode_frames(&image[..cut]);
            let frames_complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                decoded.records.len(),
                frames_complete,
                "cut at byte {cut} must recover exactly the whole frames before it"
            );
            assert_eq!(decoded.records, sample()[..frames_complete]);
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let mut image = Vec::new();
        for r in sample() {
            image.extend_from_slice(&encode_frame(&r));
        }
        // Flip one payload byte of the second frame.
        let first = encode_frame(&sample()[0]).len();
        image[first + 13] ^= 0xff;
        let decoded = decode_frames(&image);
        assert_eq!(decoded.records.len(), 1, "scan stops at the bad frame");
        assert!(decoded.truncated_tail);
        assert_eq!(decoded.valid_len, first);
    }
}

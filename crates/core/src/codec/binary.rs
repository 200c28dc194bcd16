//! The compact binary transfer syntax.
//!
//! Layout: one tag byte followed by a fixed- or length-prefixed payload.
//! All integers are little-endian. Lengths are `u32`.
//!
//! ```text
//! 0x00 null
//! 0x01 bool     (1 byte: 0 or 1)
//! 0x02 int      (8 bytes, i64 LE)
//! 0x03 float    (8 bytes, f64 LE bits)
//! 0x04 text     (u32 len + utf-8 bytes)
//! 0x05 blob     (u32 len + bytes)
//! 0x06 seq      (u32 count + encoded items)
//! 0x07 record   (u32 count + (text key, value) pairs, keys sorted)
//! 0x08 ref      (8 bytes, u64 LE)
//! ```
//!
//! The encoding is canonical: record keys appear in strictly increasing
//! order, and the decoder rejects any other order (a duplicate key
//! included), so one [`Value`] has exactly one byte form. Decoding also
//! refuses `Seq`/`Record` nesting deeper than [`MAX_DEPTH`], so hostile
//! input returns a [`CodecError`] instead of exhausting the stack.
//!
//! Writers that stream a value straight from borrowed parts — the
//! durable store's WAL frames and snapshots — use [`encode_into`] and the
//! header writers ([`put_record_header`], [`put_seq_header`],
//! [`put_field_key`], [`put_text`], [`put_int`]). They must emit record
//! fields in key order; the decoder catches any that do not.

use bytes::{Buf, BufMut};

use super::{CodecError, SyntaxId, TransferSyntax};
use crate::value::Value;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_FLOAT: u8 = 0x03;
const TAG_TEXT: u8 = 0x04;
const TAG_BLOB: u8 = 0x05;
const TAG_SEQ: u8 = 0x06;
const TAG_RECORD: u8 = 0x07;
const TAG_REF: u8 = 0x08;

/// The deepest `Seq`/`Record` nesting [`BinarySyntax`] decodes: a
/// top-level sequence is one level. Deeper input is a [`CodecError`].
/// Sized, like the expression parser's bound, to decode within a 2 MiB
/// thread stack in a debug build.
pub const MAX_DEPTH: usize = 128;

/// The compact binary transfer syntax (see module docs for the layout).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinarySyntax;

impl TransferSyntax for BinarySyntax {
    fn id(&self) -> SyntaxId {
        SyntaxId::Binary
    }

    fn encode(&self, value: &Value) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        encode_into(value, &mut out);
        out
    }

    fn encode_record(&self, fields: &[(&str, &Value)]) -> Vec<u8> {
        debug_assert!(super::keys_increasing(fields), "record keys out of order");
        let mut out = Vec::with_capacity(64);
        put_record_header(&mut out, fields.len());
        for (k, v) in fields {
            put_field_key(&mut out, k);
            encode_into(v, &mut out);
        }
        out
    }

    fn decode(&self, bytes: &[u8]) -> Result<Value, CodecError> {
        let mut cursor = Cursor {
            buf: bytes,
            pos: 0,
            depth: 0,
        };
        let v = cursor.value()?;
        if cursor.pos != bytes.len() {
            return Err(cursor.error("trailing bytes after value"));
        }
        Ok(v)
    }
}

/// Appends the encoding of `value` to `out`.
pub fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.put_u8(TAG_NULL),
        Value::Bool(b) => {
            out.put_u8(TAG_BOOL);
            out.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            out.put_u8(TAG_INT);
            out.put_i64_le(*i);
        }
        Value::Float(x) => {
            out.put_u8(TAG_FLOAT);
            out.put_f64_le(*x);
        }
        Value::Text(s) => {
            out.put_u8(TAG_TEXT);
            out.put_u32_le(s.len() as u32);
            out.put_slice(s.as_bytes());
        }
        Value::Blob(b) => {
            out.put_u8(TAG_BLOB);
            out.put_u32_le(b.len() as u32);
            out.put_slice(b);
        }
        Value::Seq(items) => {
            out.put_u8(TAG_SEQ);
            out.put_u32_le(items.len() as u32);
            for item in items {
                encode_into(item, out);
            }
        }
        Value::Record(fields) => {
            put_record_header(out, fields.len());
            for (k, v) in fields {
                put_field_key(out, k);
                encode_into(v, out);
            }
        }
        Value::Ref(id) => {
            out.put_u8(TAG_REF);
            out.put_u64_le(*id);
        }
    }
}

/// Appends a record header for `count` fields. Follow it with `count`
/// [`put_field_key`]-then-value pairs, keys in strictly increasing order.
pub fn put_record_header(out: &mut Vec<u8>, count: usize) {
    out.put_u8(TAG_RECORD);
    out.put_u32_le(count as u32);
}

/// Appends a sequence header for `count` items; follow it with the items.
pub fn put_seq_header(out: &mut Vec<u8>, count: usize) {
    out.put_u8(TAG_SEQ);
    out.put_u32_le(count as u32);
}

/// Appends a record field's key (untagged); follow it with the value.
pub fn put_field_key(out: &mut Vec<u8>, key: &str) {
    out.put_u32_le(key.len() as u32);
    out.put_slice(key.as_bytes());
}

/// Appends a `Text` value.
pub fn put_text(out: &mut Vec<u8>, s: &str) {
    out.put_u8(TAG_TEXT);
    put_field_key(out, s);
}

/// Appends an `Int` value.
pub fn put_int(out: &mut Vec<u8>, i: i64) {
    out.put_u8(TAG_INT);
    out.put_i64_le(i);
}

/// Whether `value` nests at most `levels` `Seq`/`Record` levels deep,
/// so that it still decodes inside `MAX_DEPTH - levels` levels of
/// wrapping. Looks no deeper than `levels`.
pub fn depth_within(value: &Value, levels: usize) -> bool {
    match value {
        Value::Seq(items) => levels > 0 && items.iter().all(|v| depth_within(v, levels - 1)),
        Value::Record(fields) => levels > 0 && fields.values().all(|v| depth_within(v, levels - 1)),
        _ => true,
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// `Seq`/`Record` levels currently open.
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn error(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            syntax: SyntaxId::Binary,
            offset: self.pos,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return Err(self.error(format!(
                "need {n} bytes, only {} remain",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    fn text(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError {
            syntax: SyntaxId::Binary,
            offset: at,
            message: "invalid utf-8 in text".into(),
        })
    }

    /// Opens one more nesting level for the tag just read, refusing to
    /// pass [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), CodecError> {
        if self.depth == MAX_DEPTH {
            return Err(CodecError {
                syntax: SyntaxId::Binary,
                offset: self.pos - 1,
                message: format!("value nested deeper than {MAX_DEPTH}"),
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        let tag = self.u8()?;
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                other => Err(self.error(format!("bad bool byte {other}"))),
            },
            TAG_INT => {
                let mut b = self.take(8)?;
                Ok(Value::Int(b.get_i64_le()))
            }
            TAG_FLOAT => {
                let mut b = self.take(8)?;
                Ok(Value::Float(b.get_f64_le()))
            }
            TAG_TEXT => Ok(Value::Text(self.text()?)),
            TAG_BLOB => {
                let len = self.u32()? as usize;
                Ok(Value::Blob(self.take(len)?.to_vec()))
            }
            TAG_SEQ => {
                self.descend()?;
                let count = self.u32()? as usize;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(self.value()?);
                }
                self.depth -= 1;
                Ok(Value::Seq(items))
            }
            TAG_RECORD => {
                self.descend()?;
                let count = self.u32()? as usize;
                let mut fields = std::collections::BTreeMap::<String, Value>::new();
                for _ in 0..count {
                    let at = self.pos;
                    let key = self.text()?;
                    if let Some((last, _)) = fields.last_key_value() {
                        if key <= *last {
                            return Err(CodecError {
                                syntax: SyntaxId::Binary,
                                offset: at,
                                message: format!("record key {key:?} does not follow {last:?}"),
                            });
                        }
                    }
                    let value = self.value()?;
                    fields.insert(key, value);
                }
                self.depth -= 1;
                Ok(Value::Record(fields))
            }
            TAG_REF => {
                let mut b = self.take(8)?;
                Ok(Value::Ref(b.get_u64_le()))
            }
            other => Err(self.error(format!("unknown tag 0x{other:02x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_compact() {
        // null is one byte; an int is nine.
        assert_eq!(BinarySyntax.encode(&Value::Null).len(), 1);
        assert_eq!(BinarySyntax.encode(&Value::Int(7)).len(), 9);
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let v = Value::record([("key", Value::seq([Value::Int(1), Value::text("x")]))]);
        let full = BinarySyntax.encode(&v);
        for cut in 0..full.len() {
            assert!(
                BinarySyntax.decode(&full[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        assert!(BinarySyntax.decode(&full).is_ok());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = BinarySyntax.encode(&Value::Int(1));
        bytes.push(0);
        let err = BinarySyntax.decode(&bytes).unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn decode_rejects_unknown_tag_and_bad_bool() {
        let err = BinarySyntax.decode(&[0xff]).unwrap_err();
        assert!(err.message.contains("unknown tag"));
        let err = BinarySyntax.decode(&[TAG_BOOL, 7]).unwrap_err();
        assert!(err.message.contains("bad bool"));
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let bytes = vec![TAG_TEXT, 1, 0, 0, 0, 0xff];
        let err = BinarySyntax.decode(&bytes).unwrap_err();
        assert!(err.message.contains("utf-8"));
    }

    #[test]
    fn record_keys_are_sorted_on_the_wire() {
        let a = Value::record([("b", Value::Int(2)), ("a", Value::Int(1))]);
        let b = Value::record([("a", Value::Int(1)), ("b", Value::Int(2))]);
        assert_eq!(BinarySyntax.encode(&a), BinarySyntax.encode(&b));
    }

    /// A record of two `Int` fields, keys written in the given order.
    fn two_field_record(first: &str, second: &str) -> Vec<u8> {
        let mut out = Vec::new();
        put_record_header(&mut out, 2);
        put_field_key(&mut out, first);
        put_int(&mut out, 1);
        put_field_key(&mut out, second);
        put_int(&mut out, 2);
        out
    }

    #[test]
    fn decode_rejects_a_duplicate_record_key() {
        let err = BinarySyntax
            .decode(&two_field_record("a", "a"))
            .unwrap_err();
        assert!(err.message.contains("does not follow"), "{err}");
        assert_eq!(err.offset, 5 + 4 + 1 + 9, "points at the second key");
    }

    #[test]
    fn decode_rejects_an_unsorted_record_key() {
        let err = BinarySyntax
            .decode(&two_field_record("b", "a"))
            .unwrap_err();
        assert!(err.message.contains("does not follow"), "{err}");
        let sorted = two_field_record("a", "b");
        assert_eq!(
            BinarySyntax.decode(&sorted).unwrap(),
            Value::record([("a", Value::Int(1)), ("b", Value::Int(2))])
        );
    }

    #[test]
    fn header_writers_match_the_tree_encoder() {
        let mut out = Vec::new();
        put_record_header(&mut out, 3);
        put_field_key(&mut out, "n");
        put_int(&mut out, -4);
        put_field_key(&mut out, "s");
        put_seq_header(&mut out, 2);
        put_text(&mut out, "héllo");
        encode_into(&Value::Null, &mut out);
        put_field_key(&mut out, "t");
        put_text(&mut out, "");
        let tree = Value::record([
            ("n", Value::Int(-4)),
            ("s", Value::seq([Value::text("héllo"), Value::Null])),
            ("t", Value::text("")),
        ]);
        assert_eq!(out, BinarySyntax.encode(&tree));
    }

    fn nested(levels: usize) -> Value {
        (0..levels).fold(Value::Int(0), |v, _| Value::seq([v]))
    }

    #[test]
    fn nesting_is_bounded_by_a_codec_error() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(nesting_checks)
            .unwrap()
            .join()
            .unwrap();
    }

    /// Run on a 2 MiB stack: the deepest accepted value must decode (and
    /// encode, compare and drop) there in a debug build.
    fn nesting_checks() {
        let deepest = nested(MAX_DEPTH);
        assert!(depth_within(&deepest, MAX_DEPTH));
        assert!(!depth_within(&deepest, MAX_DEPTH - 1));
        assert_eq!(
            BinarySyntax.decode(&BinarySyntax.encode(&deepest)).unwrap(),
            deepest
        );
        let err = BinarySyntax
            .decode(&BinarySyntax.encode(&nested(MAX_DEPTH + 1)))
            .unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // A megabyte of sequence headers: refused, not a stack overflow.
        let mut hostile = Vec::new();
        for _ in 0..200_000 {
            put_seq_header(&mut hostile, 1);
        }
        let err = BinarySyntax.decode(&hostile).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH * 5);
        // Records count toward the same bound.
        let mut records = Vec::new();
        for _ in 0..=MAX_DEPTH {
            put_record_header(&mut records, 1);
            put_field_key(&mut records, "k");
        }
        records.push(TAG_NULL);
        assert!(BinarySyntax.decode(&records).is_err());
    }

    #[test]
    fn float_bit_patterns_survive() {
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, -0.0] {
            let bytes = BinarySyntax.encode(&Value::Float(x));
            match BinarySyntax.decode(&bytes).unwrap() {
                Value::Float(y) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }
}

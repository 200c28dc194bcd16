//! The self-describing text transfer syntax.
//!
//! Values render as readable text:
//!
//! ```text
//! null  true  42  3.5  "hi\n"  b"00ff"  [1, 2]  {a: 1, b: "x"}  ref(7)
//! ```
//!
//! Floats always carry a `.` or exponent so they are distinguishable from
//! ints. Record keys that are valid identifiers render bare; others quoted.
//!
//! Decoding refuses `[`/`{` nesting deeper than [`MAX_DEPTH`], the
//! binary syntax's bound, so hostile input returns a [`CodecError`]
//! instead of exhausting the stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::binary::MAX_DEPTH;
use super::{CodecError, SyntaxId, TransferSyntax};
use crate::value::Value;

/// The self-describing text transfer syntax (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TextSyntax;

impl TransferSyntax for TextSyntax {
    fn id(&self) -> SyntaxId {
        SyntaxId::Text
    }

    fn encode(&self, value: &Value) -> Vec<u8> {
        let mut s = String::with_capacity(32);
        render(value, &mut s);
        s.into_bytes()
    }

    fn encode_record(&self, fields: &[(&str, &Value)]) -> Vec<u8> {
        debug_assert!(super::keys_increasing(fields), "record keys out of order");
        let mut s = String::with_capacity(32);
        render_record(fields.iter().copied(), &mut s);
        s.into_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<Value, CodecError> {
        let src = std::str::from_utf8(bytes).map_err(|e| CodecError {
            syntax: SyntaxId::Text,
            offset: e.valid_up_to(),
            message: "encoding is not utf-8".into(),
        })?;
        let mut p = TextParser {
            src,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(p.error("trailing characters after value"));
        }
        Ok(v)
    }
}

fn render(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(x) => {
            if x.is_nan() {
                out.push_str("nan");
            } else if x.is_infinite() {
                out.push_str(if *x > 0.0 { "inf" } else { "-inf" });
            } else {
                // Debug formatting prints the shortest round-trippable form
                // and always marks floats (".0" or an exponent).
                let _ = write!(out, "{x:?}");
            }
        }
        Value::Text(s) => render_quoted(s, out),
        Value::Blob(b) => {
            out.push_str("b\"");
            for byte in b {
                let _ = write!(out, "{byte:02x}");
            }
            out.push('"');
        }
        Value::Seq(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render(v, out);
            }
            out.push(']');
        }
        Value::Record(fields) => render_record(fields.iter().map(|(k, v)| (k.as_str(), v)), out),
        Value::Ref(id) => {
            let _ = write!(out, "ref({id})");
        }
    }
}

fn render_record<'v>(fields: impl Iterator<Item = (&'v str, &'v Value)>, out: &mut String) {
    out.push('{');
    for (i, (k, v)) in fields.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if is_ident(k) {
            out.push_str(k);
        } else {
            render_quoted(k, out);
        }
        out.push_str(": ");
        render(v, out);
    }
    out.push('}');
}

fn render_quoted(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !matches!(s, "null" | "true" | "false" | "nan" | "inf" | "ref")
}

struct TextParser<'a> {
    src: &'a str,
    pos: usize,
    /// `[`/`{` levels currently open.
    depth: usize,
}

impl<'a> TextParser<'a> {
    fn error(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            syntax: SyntaxId::Text,
            offset: self.pos,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with([' ', '\t', '\n', '\r']) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, prefix: &str) -> Result<(), CodecError> {
        if self.eat(prefix) {
            Ok(())
        } else {
            Err(self.error(format!("expected {prefix:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        self.skip_ws();
        if self.eat("null") {
            return Ok(Value::Null);
        }
        if self.eat("true") {
            return Ok(Value::Bool(true));
        }
        if self.eat("false") {
            return Ok(Value::Bool(false));
        }
        if self.eat("nan") {
            return Ok(Value::Float(f64::NAN));
        }
        if self.eat("inf") {
            return Ok(Value::Float(f64::INFINITY));
        }
        if self.eat("-inf") {
            return Ok(Value::Float(f64::NEG_INFINITY));
        }
        if self.eat("ref(") {
            let n = self.unsigned()?;
            self.expect(")")?;
            return Ok(Value::Ref(n));
        }
        if self.rest().starts_with("b\"") {
            self.pos += 2;
            return self.blob_body();
        }
        match self.rest().chars().next() {
            Some('"') => {
                self.pos += 1;
                Ok(Value::Text(self.string_body()?))
            }
            Some(open @ ('[' | '{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error(format!("value nested deeper than {MAX_DEPTH}")));
                }
                self.pos += 1;
                self.depth += 1;
                let v = if open == '[' {
                    self.seq_body()
                } else {
                    self.record_body()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.error(format!("unexpected character {c:?}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn unsigned(&mut self) -> Result<u64, CodecError> {
        let start = self.pos;
        while self
            .rest()
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit())
        {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.error("expected unsigned integer"))
    }

    fn number(&mut self) -> Result<Value, CodecError> {
        let start = self.pos;
        if self.rest().starts_with('-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.rest().chars().next() {
            match c {
                '0'..='9' => self.pos += 1,
                '.' | 'e' | 'E' | '+' => {
                    is_float = true;
                    self.pos += 1;
                }
                '-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse()
                .map(Value::Float)
                .map_err(|_| self.error(format!("malformed float {text:?}")))
        } else {
            text.parse()
                .map(Value::Int)
                .map_err(|_| self.error(format!("malformed int {text:?}")))
        }
    }

    fn string_body(&mut self) -> Result<String, CodecError> {
        let mut s = String::new();
        loop {
            let c = self
                .rest()
                .chars()
                .next()
                .ok_or_else(|| self.error("unterminated string"))?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(s),
                '\\' => {
                    let esc = self
                        .rest()
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += esc.len_utf8();
                    match esc {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        'n' => s.push('\n'),
                        't' => s.push('\t'),
                        'r' => s.push('\r'),
                        other => return Err(self.error(format!("unknown escape \\{other}"))),
                    }
                }
                c => s.push(c),
            }
        }
    }

    fn blob_body(&mut self) -> Result<Value, CodecError> {
        let mut bytes = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("\"") {
                return Ok(Value::Blob(bytes));
            }
            let hex = self
                .rest()
                .get(..2)
                .ok_or_else(|| self.error("unterminated blob"))?;
            let byte = u8::from_str_radix(hex, 16)
                .map_err(|_| self.error(format!("bad hex pair {hex:?}")))?;
            bytes.push(byte);
            self.pos += 2;
        }
    }

    fn seq_body(&mut self) -> Result<Value, CodecError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            self.expect("]")?;
            return Ok(Value::Seq(items));
        }
    }

    fn record_body(&mut self) -> Result<Value, CodecError> {
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Record(fields));
        }
        loop {
            self.skip_ws();
            let key = if self.eat("\"") {
                self.string_body()?
            } else {
                let start = self.pos;
                while self
                    .rest()
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    self.pos += 1;
                }
                if start == self.pos {
                    return Err(self.error("expected record key"));
                }
                self.src[start..self.pos].to_owned()
            };
            self.skip_ws();
            self.expect(":")?;
            let value = self.value()?;
            fields.insert(key, value);
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            self.expect("}")?;
            return Ok(Value::Record(fields));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let bytes = TextSyntax.encode(v);
        TextSyntax.decode(&bytes).unwrap()
    }

    #[test]
    fn renders_readably() {
        let v = Value::record([
            ("name", Value::text("alice")),
            ("age", Value::Int(30)),
            ("rate", Value::Float(2.0)),
        ]);
        let s = String::from_utf8(TextSyntax.encode(&v)).unwrap();
        assert_eq!(s, "{age: 30, name: \"alice\", rate: 2.0}");
    }

    #[test]
    fn floats_stay_floats() {
        // 2.0 must not come back as Int(2).
        assert_eq!(round_trip(&Value::Float(2.0)), Value::Float(2.0));
        assert_eq!(round_trip(&Value::Float(1e300)), Value::Float(1e300));
        assert_eq!(round_trip(&Value::Float(-2.5e-10)), Value::Float(-2.5e-10));
    }

    #[test]
    fn special_floats() {
        assert_eq!(
            round_trip(&Value::Float(f64::INFINITY)),
            Value::Float(f64::INFINITY)
        );
        assert_eq!(
            round_trip(&Value::Float(f64::NEG_INFINITY)),
            Value::Float(f64::NEG_INFINITY)
        );
        match round_trip(&Value::Float(f64::NAN)) {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected nan, got {other:?}"),
        }
    }

    #[test]
    fn non_identifier_keys_are_quoted() {
        let v = Value::record([("has space", Value::Int(1)), ("true", Value::Int(2))]);
        let s = String::from_utf8(TextSyntax.encode(&v)).unwrap();
        assert_eq!(s, "{\"has space\": 1, \"true\": 2}");
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn blobs_render_as_hex() {
        let v = Value::Blob(vec![0x00, 0xff, 0x10]);
        let s = String::from_utf8(TextSyntax.encode(&v)).unwrap();
        assert_eq!(s, "b\"00ff10\"");
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = TextSyntax.decode(b" { a : [ 1 , 2 ] , b : ref( 7 ) } "[..].as_ref());
        // `ref( 7 )` contains inner spaces which we do not allow; check strict form.
        assert!(v.is_err());
        let v = TextSyntax.decode(b" { a : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v,
            Value::record([("a", Value::seq([Value::Int(1), Value::Int(2)]))])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "\"open", "b\"0", "b\"0g\"", "{a 1}", "1 2", "tru",
        ] {
            assert!(
                TextSyntax.decode(bad.as_bytes()).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |open: &str, close: &str, levels: usize| {
            let mut s = open.repeat(levels);
            s.push_str(&close.repeat(levels));
            s
        };
        for (open, close) in [("[", "]"), ("{a: ", "}")] {
            let deepest = nested(open, close, MAX_DEPTH);
            let deepest = deepest.replace("{a: }", "{}");
            assert!(TextSyntax.decode(deepest.as_bytes()).is_ok(), "{open}");
            let too_deep = nested(open, close, MAX_DEPTH + 1).replace("{a: }", "{}");
            let err = TextSyntax.decode(too_deep.as_bytes()).unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn rejects_non_utf8() {
        let err = TextSyntax.decode(&[0xff, 0xfe]).unwrap_err();
        assert!(err.message.contains("utf-8"));
    }
}

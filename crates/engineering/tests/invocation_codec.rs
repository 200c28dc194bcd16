//! Invocation and termination bodies: the borrowed-parts encoders equal
//! the tree encoding they replace, and decode-by-move equals the
//! clone-based decode, for arbitrary values, malformed inputs included.
//!
//! The `tree_*` and `cloned_*` functions below are the reference forms:
//! build the record, then encode it; borrow the fields, then clone them.

use std::collections::BTreeMap;

use proptest::prelude::*;

use rmodp_computational::signature::{Invocation, Termination};
use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::value::Value;
use rmodp_engineering::engine::CallError;
use rmodp_engineering::invocation::{
    decode_invocation, decode_termination, encode_invocation, encode_termination,
};

const SYNTAXES: [SyntaxId; 2] = [SyntaxId::Binary, SyntaxId::Text];

/// Unicode text: mostly ASCII (quotes, backslashes and control
/// characters included), sometimes any scalar value.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<char>(), 0..10).prop_map(|cs| cs.into_iter().collect())
}

/// Every `Value` variant, nested, with unicode text and keys. Floats
/// are finite so values compare equal to themselves.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(Value::Float),
        arb_text().prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(Value::Blob),
        any::<u64>().prop_map(Value::Ref),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::btree_map(arb_text(), inner, 0..4).prop_map(Value::Record),
        ]
    })
}

/// Candidate bodies for a decoder expecting fields `text_key` (a text)
/// and `value_key`: arbitrary values (non-records, arbitrary records)
/// and records where either field may be missing, or `text_key` may
/// hold a non-text, next to an unrelated field.
fn arb_body(text_key: &'static str, value_key: &'static str) -> BoxedStrategy<Value> {
    let shaped = (
        proptest::option::of(prop_oneof![arb_text().prop_map(Value::Text), arb_value()]),
        proptest::option::of(arb_value()),
        proptest::option::of(arb_value()),
    )
        .prop_map(move |(text, value, other)| {
            let mut fields = BTreeMap::new();
            for (k, v) in [(text_key, text), (value_key, value), ("zz", other)] {
                if let Some(v) = v {
                    fields.insert(k.to_owned(), v);
                }
            }
            Value::Record(fields)
        });
    prop_oneof![arb_value(), shaped].boxed()
}

fn tree_invocation(syntax: SyntaxId, op: &str, args: &Value) -> Vec<u8> {
    let v = Value::record([("op", Value::text(op.to_owned())), ("args", args.clone())]);
    syntax_for(syntax).encode(&v)
}

fn tree_termination(syntax: SyntaxId, t: &Termination) -> Vec<u8> {
    let v = Value::record([
        ("name", Value::text(t.name.clone())),
        ("results", t.results.clone()),
    ]);
    syntax_for(syntax).encode(&v)
}

fn cloned_invocation(syntax: SyntaxId, payload: &[u8]) -> Option<Invocation> {
    let value = syntax_for(syntax).decode(payload).ok()?;
    let op = value.field("op")?.as_text()?.to_owned();
    let args = value.field("args").cloned().unwrap_or(Value::Null);
    Some(Invocation::new(op, args))
}

fn cloned_termination(syntax: SyntaxId, payload: &[u8]) -> Result<Termination, CallError> {
    let value = syntax_for(syntax)
        .decode(payload)
        .map_err(|e| CallError::BadReply {
            detail: e.to_string(),
        })?;
    let name = value
        .field("name")
        .and_then(|v| v.as_text())
        .ok_or_else(|| CallError::BadReply {
            detail: "termination has no name".into(),
        })?
        .to_owned();
    let results = value.field("results").cloned().unwrap_or(Value::Null);
    Ok(Termination::new(name, results))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_invocation_equals_the_tree_encoding(op in arb_text(), args in arb_value()) {
        for syntax in SYNTAXES {
            prop_assert_eq!(
                encode_invocation(syntax, &op, &args),
                tree_invocation(syntax, &op, &args)
            );
        }
    }

    #[test]
    fn encode_termination_equals_the_tree_encoding(name in arb_text(), results in arb_value()) {
        let t = Termination::new(name, results);
        for syntax in SYNTAXES {
            prop_assert_eq!(
                encode_termination(syntax, t.clone()),
                tree_termination(syntax, &t)
            );
        }
    }

    #[test]
    fn encode_record_equals_the_tree_encoding(
        fields in proptest::collection::btree_map(arb_text(), arb_value(), 0..6)
    ) {
        let borrowed: Vec<(&str, &Value)> = fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
        let tree = Value::Record(fields.clone());
        for syntax in SYNTAXES {
            let syntax = syntax_for(syntax);
            prop_assert_eq!(syntax.encode_record(&borrowed), syntax.encode(&tree));
        }
    }

    #[test]
    fn decode_invocation_by_move_equals_the_cloned_decode(body in arb_body("op", "args")) {
        for syntax in SYNTAXES {
            let bytes = syntax_for(syntax).encode(&body);
            prop_assert_eq!(decode_invocation(syntax, &bytes), cloned_invocation(syntax, &bytes));
        }
    }

    #[test]
    fn decode_termination_by_move_equals_the_cloned_decode(body in arb_body("name", "results")) {
        for syntax in SYNTAXES {
            let bytes = syntax_for(syntax).encode(&body);
            prop_assert_eq!(decode_termination(syntax, &bytes), cloned_termination(syntax, &bytes));
        }
    }

    #[test]
    fn decoders_agree_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..48)) {
        for syntax in SYNTAXES {
            prop_assert_eq!(decode_invocation(syntax, &bytes), cloned_invocation(syntax, &bytes));
            prop_assert_eq!(decode_termination(syntax, &bytes), cloned_termination(syntax, &bytes));
        }
    }
}

#[test]
fn malformed_bodies_keep_their_outcomes() {
    let int = Value::Int(1);
    let cases = [
        Value::seq([Value::text("op")]),
        Value::record([("args", int.clone())]),
        Value::record([("op", int.clone()), ("args", int.clone())]),
        Value::record([("results", int.clone())]),
        Value::record([("name", int.clone())]),
    ];
    for syntax in SYNTAXES {
        for body in &cases {
            let bytes = syntax_for(syntax).encode(body);
            assert_eq!(decode_invocation(syntax, &bytes), None, "{body}");
            assert_eq!(
                decode_termination(syntax, &bytes),
                Err(CallError::BadReply {
                    detail: "termination has no name".into()
                }),
                "{body}"
            );
        }
    }
    // A missing `args`/`results` is Null, not an error.
    let bytes = syntax_for(SyntaxId::Text).encode(&Value::record([("op", Value::text("Get"))]));
    assert_eq!(
        decode_invocation(SyntaxId::Text, &bytes),
        Some(Invocation::new("Get", Value::Null))
    );
    let bytes = syntax_for(SyntaxId::Binary).encode(&Value::record([("name", Value::text("OK"))]));
    assert_eq!(
        decode_termination(SyntaxId::Binary, &bytes),
        Ok(Termination::new("OK", Value::Null))
    );
}

//! The wire form of an operation's body: what a stub marshals into an
//! envelope's payload.
//!
//! An invocation is the record `{args, op}` and a termination the
//! record `{name, results}`, each in the sender's transfer syntax. Both
//! are encoded from borrowed parts with
//! [`TransferSyntax::encode_record`](rmodp_core::codec::TransferSyntax::encode_record),
//! so no record tree is built (or its arguments cloned) just to be
//! serialised, and both are decoded by moving the fields out of the
//! decoded record.

use rmodp_computational::signature::{Invocation, Termination};
use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::value::Value;

use crate::engine::CallError;

/// Encodes the invocation of `op` with `args` in `syntax`: the bytes of
/// the record `{args, op}`.
pub fn encode_invocation(syntax: SyntaxId, op: &str, args: &Value) -> Vec<u8> {
    let op = Value::text(op);
    syntax_for(syntax).encode_record(&[("args", args), ("op", &op)])
}

/// Decodes an invocation, moving `op` and `args` out of the record.
/// `None` when the bytes do not decode to a record with a text `op`; a
/// missing `args` is `Null`.
pub fn decode_invocation(syntax: SyntaxId, payload: &[u8]) -> Option<Invocation> {
    let Ok(Value::Record(mut fields)) = syntax_for(syntax).decode(payload) else {
        return None;
    };
    let Some(Value::Text(operation)) = fields.remove("op") else {
        return None;
    };
    let args = fields.remove("args").unwrap_or(Value::Null);
    Some(Invocation { operation, args })
}

/// Encodes a termination in `syntax`: the bytes of the record
/// `{name, results}`.
pub fn encode_termination(syntax: SyntaxId, termination: Termination) -> Vec<u8> {
    let name = Value::Text(termination.name);
    syntax_for(syntax).encode_record(&[("name", &name), ("results", &termination.results)])
}

/// Decodes a termination, moving `name` and `results` out of the
/// record; a missing `results` is `Null`.
///
/// # Errors
///
/// [`CallError::BadReply`] when the bytes do not decode, or decode to
/// something other than a record with a text `name`.
pub fn decode_termination(syntax: SyntaxId, payload: &[u8]) -> Result<Termination, CallError> {
    let value = syntax_for(syntax)
        .decode(payload)
        .map_err(|e| CallError::BadReply {
            detail: e.to_string(),
        })?;
    let no_name = || CallError::BadReply {
        detail: "termination has no name".into(),
    };
    let Value::Record(mut fields) = value else {
        return Err(no_name());
    };
    let Some(Value::Text(name)) = fields.remove("name") else {
        return Err(no_name());
    };
    let results = fields.remove("results").unwrap_or(Value::Null);
    Ok(Termination { name, results })
}

//! Hostile input returns errors, never a stack overflow.
//!
//! Each reproduction is a nesting bomb at a trust boundary: bytes from a
//! peer (both transfer syntaxes) and constraint text from a trader
//! importer. Each runs on a thread with a 2 MiB stack, the default for
//! spawned threads, so an unbounded recursive descent would abort the
//! whole test process rather than pass by luck of a large main stack.

use rmodp::core::codec::{BinarySyntax, TextSyntax, TransferSyntax};
use rmodp::core::expr::Expr;

/// Runs `f` on a fresh thread with a 2 MiB stack and returns its result.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("the decoder must return, not overflow its stack")
}

#[test]
fn nested_binary_seq_headers_are_an_error() {
    // 200K `Seq` headers, each announcing one item: a 1 MB frame.
    let frame: Vec<u8> = [0x06, 1, 0, 0, 0].repeat(200_000);
    assert_eq!(frame.len(), 1_000_000);
    let result = on_small_stack(move || BinarySyntax.decode(&frame));
    assert!(result.is_err());
}

#[test]
fn nested_text_brackets_are_an_error() {
    let text = "[".repeat(200_000);
    let result = on_small_stack(move || TextSyntax.decode(text.as_bytes()));
    assert!(result.is_err());
    let text = "{a: ".repeat(200_000);
    let result = on_small_stack(move || TextSyntax.decode(text.as_bytes()));
    assert!(result.is_err());
}

#[test]
fn nested_expression_parentheses_are_an_error() {
    let src = "(".repeat(100_000);
    let result = on_small_stack(move || Expr::parse(&src).map(drop));
    assert!(result.is_err());
}

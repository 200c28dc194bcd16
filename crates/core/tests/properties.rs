//! Property-based tests for the core data model, codecs and expression
//! language.

use proptest::prelude::*;

use rmodp_core::codec::{BinarySyntax, TextSyntax, TransferSyntax};
use rmodp_core::dtype::DataType;
use rmodp_core::expr::{Expr, ParseErrorKind, MAX_DEPTH};
use rmodp_core::naming::{BindingTarget, Name, NamingContext};
use rmodp_core::value::Value;

/// Strategy for arbitrary values, with bounded depth and width.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks equality-based round-trip checks.
        any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(Value::Float),
        "[a-zA-Z0-9 _\\-./\"\\\\\n]{0,12}".prop_map(Value::text),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::Blob),
        any::<u64>().prop_map(Value::Ref),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::btree_map("[a-z_][a-z0-9_]{0,6}", inner, 0..4)
                .prop_map(Value::Record),
        ]
    })
}

/// Strategy for arbitrary data types.
fn arb_dtype() -> impl Strategy<Value = DataType> {
    let leaf = prop_oneof![
        Just(DataType::Any),
        Just(DataType::Null),
        Just(DataType::Bool),
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Text),
        Just(DataType::Blob),
        proptest::collection::vec("[a-z]{1,4}", 1..3).prop_map(DataType::labels),
        proptest::option::of("[A-Z][a-z]{0,5}").prop_map(DataType::Ref),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(DataType::seq),
            inner.clone().prop_map(DataType::optional),
            proptest::collection::btree_map("[a-z]{1,4}", inner, 0..3).prop_map(DataType::Record),
        ]
    })
}

proptest! {
    #[test]
    fn binary_codec_round_trips(v in arb_value()) {
        let bytes = BinarySyntax.encode(&v);
        let back = BinarySyntax.decode(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn text_codec_round_trips(v in arb_value()) {
        let bytes = TextSyntax.encode(&v);
        let back = TextSyntax.decode(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn binary_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = BinarySyntax.decode(&bytes);
    }

    #[test]
    fn text_decode_never_panics_on_garbage(s in "\\PC{0,64}") {
        let _ = TextSyntax.decode(s.as_bytes());
    }

    #[test]
    fn subtyping_is_reflexive(t in arb_dtype()) {
        prop_assert!(t.is_subtype_of(&t), "{t} should be a subtype of itself");
    }

    #[test]
    fn subtyping_is_transitive(a in arb_dtype(), b in arb_dtype(), c in arb_dtype()) {
        if a.is_subtype_of(&b) && b.is_subtype_of(&c) {
            prop_assert!(a.is_subtype_of(&c), "{a} <: {b} <: {c} but not {a} <: {c}");
        }
    }

    #[test]
    fn conforming_values_still_conform_at_supertype(v in arb_value(), a in arb_dtype(), b in arb_dtype()) {
        // Substitutability: if v : a and a <: b then v : b.
        if a.check(&v).is_ok() && a.is_subtype_of(&b) {
            prop_assert!(b.check(&v).is_ok(), "v={v} a={a} b={b}");
        }
    }

    #[test]
    fn expr_display_parse_round_trip(
        x in -1000i64..1000,
        y in -1000i64..1000,
    ) {
        // Build expressions programmatically and check print→parse fidelity.
        let e = Expr::Binary(
            rmodp_core::expr::BinOp::Add,
            Box::new(Expr::lit(x)),
            Box::new(Expr::Binary(
                rmodp_core::expr::BinOp::Mul,
                Box::new(Expr::lit(y)),
                Box::new(Expr::var("k")),
            )),
        );
        let printed = e.to_string();
        let parsed = Expr::parse(&printed).unwrap();
        // Negative literals re-parse as unary negation, so compare by
        // evaluation rather than AST equality.
        let env = Value::record([("k", Value::Int(3))]);
        prop_assert_eq!(parsed.eval(&env).unwrap(), e.eval(&env).unwrap());
    }

    #[test]
    fn arithmetic_expressions_agree_with_rust(
        a in -10_000i64..10_000,
        b in -10_000i64..10_000,
        c in 1i64..100,
    ) {
        let env = Value::record([
            ("a", Value::Int(a)),
            ("b", Value::Int(b)),
            ("c", Value::Int(c)),
        ]);
        let e = Expr::parse("(a + b) * c - a / c").unwrap();
        let expected = (a.wrapping_add(b)).wrapping_mul(c).wrapping_sub(a / c);
        prop_assert_eq!(e.eval(&env).unwrap(), Value::Int(expected));
    }

    #[test]
    fn comparison_total_on_ints(a in any::<i64>(), b in any::<i64>()) {
        let env = Value::record([("a", Value::Int(a)), ("b", Value::Int(b))]);
        let lt = Expr::parse("a < b").unwrap().eval_bool(&env).unwrap();
        let ge = Expr::parse("a >= b").unwrap().eval_bool(&env).unwrap();
        prop_assert_eq!(lt, !ge);
    }

    #[test]
    fn naming_bind_then_resolve(
        segs in proptest::collection::vec("[a-z]{1,6}", 1..4),
        id in any::<u64>(),
    ) {
        let name = Name::from_segments(segs).unwrap();
        let mut ctx = NamingContext::new();
        ctx.bind(&name, BindingTarget { id, kind: "t".into() }).unwrap();
        prop_assert_eq!(ctx.resolve(&name).map(|t| t.id), Some(id));
        prop_assert_eq!(ctx.unbind(&name).map(|t| t.id), Some(id));
        prop_assert!(ctx.resolve(&name).is_none());
    }

    #[test]
    fn dtype_check_never_panics(v in arb_value(), t in arb_dtype()) {
        let _ = t.check(&v);
    }

    #[test]
    fn hostile_nesting_parses_to_an_error_not_a_stack_overflow(
        shape in 0usize..6,
        depth in prop_oneof![0usize..2 * MAX_DEPTH, 0usize..100_000],
    ) {
        // Each shape nests `depth` levels around one leaf: brackets,
        // sequences, calls, prefix operators, and left-deep chains.
        let (open, close, sep) = [
            ("(", ")", ""),
            ("[", "]", ""),
            ("abs(", ")", ""),
            ("-", "", ""),
            ("not ", "", ""),
            ("", "", "x + "),
        ][shape];
        let src = format!(
            "{}{}x{}",
            open.repeat(depth),
            sep.repeat(depth),
            close.repeat(depth)
        );
        match Expr::parse(&src) {
            Ok(e) => {
                prop_assert!(depth <= MAX_DEPTH, "depth {} accepted", depth);
                // Shallow enough to render and evaluate recursively.
                let _ = e.eval(&Value::record([("x", Value::Int(1))]));
                prop_assert!(!e.to_string().is_empty());
            }
            Err(err) => {
                prop_assert_eq!(err.kind, ParseErrorKind::TooDeep, "{}", err);
                prop_assert!(depth >= MAX_DEPTH, "depth {} refused", depth);
            }
        }
    }
}

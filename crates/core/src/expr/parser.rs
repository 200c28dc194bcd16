//! Recursive-descent parser for the expression language.

use std::fmt;

use super::token::{lex, LexError, Spanned, Token};
use super::{BinOp, Expr, UnOp};
use crate::value::Value;

/// The deepest expression the parser accepts: both the nesting of
/// brackets, calls and prefix operators, and the height of the parsed
/// tree (so a long operator chain counts too). Parsing, evaluation,
/// rendering and dropping all recurse, so without this bound a hostile
/// constraint such as 100,000 `(`s would overflow the stack. At 128 an
/// unoptimised x86-64 build parses the deepest input in about half of a
/// 2 MiB thread stack (roughly 9 KiB per bracket level).
pub const MAX_DEPTH: usize = 128;

/// What kind of failure a [`ParseError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed source: a bad character, token or missing operand.
    Syntax,
    /// Well-formed so far, but nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source (source length for "unexpected end").
    pub offset: usize,
    /// What went wrong.
    pub message: String,
    /// The failure class, for callers that react to it.
    pub kind: ParseErrorKind,
}

impl ParseError {
    fn syntax(offset: usize, message: String) -> Self {
        ParseError {
            offset,
            message,
            kind: ParseErrorKind::Syntax,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::syntax(e.offset, e.message)
    }
}

/// Parses a complete expression; trailing tokens are an error.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        end: src.len(),
        nesting: 0,
    };
    let (e, _) = p.or_expr()?;
    if let Some(t) = p.peek() {
        return Err(ParseError::syntax(
            t.offset,
            format!("unexpected trailing token {}", t.token),
        ));
    }
    Ok(e)
}

/// A parsed subtree with its height: 1 for a leaf, one more than the
/// tallest child otherwise.
type Tree = (Expr, usize);

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    end: usize,
    /// How many brackets, calls and prefix operators enclose the
    /// current position: the parser's own recursion depth.
    nesting: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Token) -> bool {
        if self.peek().map(|s| &s.token) == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(s) if &s.token == want => Ok(()),
            Some(s) => Err(ParseError::syntax(
                s.offset,
                format!("expected {want}, found {}", s.token),
            )),
            None => Err(ParseError::syntax(
                self.end,
                format!("expected {want}, found end of input"),
            )),
        }
    }

    fn unexpected_end(&self, what: &str) -> ParseError {
        ParseError::syntax(self.end, format!("expected {what}, found end of input"))
    }

    /// The offset of the token most recently consumed.
    fn offset(&self) -> usize {
        self.pos
            .checked_sub(1)
            .and_then(|i| self.tokens.get(i))
            .map_or(self.end, |t| t.offset)
    }

    fn too_deep(&self) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: format!("expression nested deeper than {MAX_DEPTH}"),
            kind: ParseErrorKind::TooDeep,
        }
    }

    /// Runs `f` one nesting level deeper, refusing to recurse past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Tree, ParseError>) -> Result<Tree, ParseError> {
        if self.nesting >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let out = f(self);
        self.nesting -= 1;
        out
    }

    /// Builds a node over children of the given heights, refusing a
    /// tree taller than [`MAX_DEPTH`].
    fn node(&self, expr: Expr, child_height: usize) -> Result<Tree, ParseError> {
        let height = child_height + 1;
        if height > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok((expr, height))
    }

    fn binary(&self, op: BinOp, (a, ha): Tree, (b, hb): Tree) -> Result<Tree, ParseError> {
        self.node(Expr::Binary(op, Box::new(a), Box::new(b)), ha.max(hb))
    }

    fn or_expr(&mut self) -> Result<Tree, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Token::Or) {
            let rhs = self.and_expr()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Tree, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Token::And) {
            let rhs = self.cmp_expr()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Tree, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek().map(|s| &s.token) {
            Some(Token::EqEq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            Some(Token::In) => Some(BinOp::In),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            self.binary(op, lhs, rhs)
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Tree, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().map(|s| &s.token) {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Tree, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().map(|s| &s.token) {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Rem,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Tree, ParseError> {
        let op = match self.peek().map(|s| &s.token) {
            Some(Token::Minus) => UnOp::Neg,
            Some(Token::Not) => UnOp::Not,
            _ => return self.primary(),
        };
        self.pos += 1;
        let (e, h) = self.nested(Self::unary_expr)?;
        self.node(Expr::Unary(op, Box::new(e)), h)
    }

    fn primary(&mut self) -> Result<Tree, ParseError> {
        let t = self
            .next()
            .ok_or_else(|| self.unexpected_end("expression"))?;
        let leaf = |v| Ok((Expr::Lit(v), 1));
        match t.token {
            Token::Int(i) => leaf(Value::Int(i)),
            Token::Float(x) => leaf(Value::Float(x)),
            Token::Str(s) => leaf(Value::Text(s)),
            Token::True => leaf(Value::Bool(true)),
            Token::False => leaf(Value::Bool(false)),
            Token::Null => leaf(Value::Null),
            Token::LParen => {
                let e = self.nested(Self::or_expr)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::LBracket => {
                let (items, h) = self.expr_list(&Token::RBracket)?;
                self.node(Expr::SeqLit(items), h)
            }
            Token::Ident(name) => {
                if self.eat(&Token::LParen) {
                    let (args, h) = self.expr_list(&Token::RParen)?;
                    return self.node(Expr::Call(name, args), h);
                }
                let mut path = vec![name];
                while self.eat(&Token::Dot) {
                    match self.next() {
                        Some(Spanned {
                            token: Token::Ident(seg),
                            ..
                        }) => path.push(seg),
                        Some(s) => {
                            return Err(ParseError::syntax(
                                s.offset,
                                format!("expected field name after '.', found {}", s.token),
                            ))
                        }
                        None => return Err(self.unexpected_end("field name after '.'")),
                    }
                }
                Ok((Expr::Var(path), 1))
            }
            other => Err(ParseError::syntax(
                t.offset,
                format!("unexpected token {other}"),
            )),
        }
    }

    /// Parses a comma-separated list terminated by `close` (already past the
    /// opening delimiter), with the height of its tallest item (0 for the
    /// empty list).
    fn expr_list(&mut self, close: &Token) -> Result<(Vec<Expr>, usize), ParseError> {
        let mut items = Vec::new();
        let mut height = 0;
        if self.eat(close) {
            return Ok((items, height));
        }
        loop {
            let (item, h) = self.nested(Self::or_expr)?;
            items.push(item);
            height = height.max(h);
            if self.eat(&Token::Comma) {
                continue;
            }
            self.expect(close)?;
            return Ok((items, height));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_mul_over_add_over_cmp_over_and_over_or() {
        let e = parse("a or b and c == d + e * f").unwrap();
        assert_eq!(e.to_string(), "(a or (b and (c == (d + (e * f)))))");
    }

    #[test]
    fn unary_binds_tighter_than_binary() {
        let e = parse("-a + b").unwrap();
        assert_eq!(e.to_string(), "((-a) + b)");
        let e = parse("not a and b").unwrap();
        assert_eq!(e.to_string(), "((not a) and b)");
    }

    #[test]
    fn parens_override_precedence() {
        let e = parse("(a or b) and c").unwrap();
        assert_eq!(e.to_string(), "((a or b) and c)");
    }

    #[test]
    fn parses_calls_paths_and_seq_literals() {
        let e = parse("min(a.b, 3) in [1, 2, 3]").unwrap();
        assert_eq!(e.to_string(), "(min(a.b, 3) in [1, 2, 3])");
        let e = parse("f()").unwrap();
        assert_eq!(e, Expr::Call("f".into(), vec![]));
        let e = parse("[]").unwrap();
        assert_eq!(e, Expr::SeqLit(vec![]));
    }

    #[test]
    fn subtraction_is_left_associative() {
        let e = parse("a - b - c").unwrap();
        assert_eq!(e.to_string(), "((a - b) - c)");
    }

    #[test]
    fn rejects_trailing_tokens() {
        let err = parse("a b").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_dangling_operators() {
        assert!(parse("a +").is_err());
        assert!(parse("* a").is_err());
        assert!(parse("(a").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("a.").is_err());
        assert!(parse("a.1").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn comparison_does_not_chain() {
        // `a < b < c` is rejected — the second `<` is a trailing token.
        assert!(parse("a < b < c").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let deep =
            |open: &str, close: &str, n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
        // Within the bound, every shape parses.
        assert!(parse(&deep("(", ")", MAX_DEPTH - 1)).is_ok());
        assert!(parse(&deep("[", "]", MAX_DEPTH - 1)).is_ok());
        assert!(parse(&deep("-", "", MAX_DEPTH - 1)).is_ok());
        assert!(parse(&vec!["a"; MAX_DEPTH].join(" + ")).is_ok());
        // Past it, each is refused with a TooDeep error, not a stack
        // overflow: brackets, prefix operators, call arguments, and long
        // operator chains (a left-deep tree as tall as the chain).
        for src in [
            deep("(", ")", 100_000),
            "(".repeat(100_000),
            deep("[", "]", 100_000),
            deep("-", "", 100_000),
            deep("not ", "", 100_000),
            deep("abs(", ")", 100_000),
            vec!["a"; 100_000].join(" + "),
            vec!["a"; 100_000].join(" and "),
            deep("-", "", MAX_DEPTH),
        ] {
            let err = parse(&src).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::TooDeep, "{err}");
        }
        assert_eq!(parse("a +").unwrap_err().kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let err = parse("a + + b").unwrap_err();
        assert_eq!(err.offset, 4);
    }
}

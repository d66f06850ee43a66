//! Recursive-descent parser with statement-level error recovery, which
//! lowers each statement as soon as it has parsed it.
//!
//! The keyword match in [`Parser::stmt`] is the one dispatch over
//! statement kinds: each arm parses its statement and hands the pieces to
//! the [`Lowerer`]. No syntax tree is built; a gate call is the one parsed
//! form ([`GateCall`]), because a `gate` body keeps its calls until first
//! use and a conditioned call is parsed before it is lowered.
//!
//! Internal parse functions return `Result<T, ()>` where `Err(())` means
//! *a diagnostic has already been recorded*; the statement loop recovers
//! by skipping to the next `;` (or `}` / end of input) and continues, so
//! one malformed statement yields one focused diagnostic instead of a
//! cascade. Lowering's own results never steer the parse.

use quipper_circuit::Control;

use crate::ast::{Arg, BinOp, Condition, Expr, ExprKind, GateCall};
use crate::diag::{Code, Diagnostics, Span};
use crate::lex::{Tok, Token};
use crate::lower::Lowerer;

/// Maximum expression/`if` nesting depth. Deeper programs are rejected
/// with `QP006` instead of risking parser stack exhaustion.
pub const MAX_DEPTH: usize = 64;

/// Built-in functions usable in angle expressions.
const FUNCTIONS: &[&str] = &["sin", "cos", "tan", "exp", "ln", "sqrt"];

/// Keywords that start a statement (an identifier that is none of these
/// starts a gate call or a QASM-3 measure-assign).
const KEYWORDS: &[&str] = &[
    "OPENQASM", "include", "qreg", "creg", "qubit", "bit", "gate", "opaque", "barrier", "reset",
    "measure", "if",
];

struct Parser<'t, 'a> {
    toks: &'t [Token<'a>],
    pos: usize,
    diags: &'t mut Diagnostics,
    lw: Lowerer<'a>,
}

/// Parses a token stream and lowers every statement that parses. Syntax
/// problems are recorded in `diags`; the returned lowerer holds the
/// circuit so far and its own diagnostics, for [`Lowerer::finish`].
pub fn parse<'a>(toks: &[Token<'a>], diags: &mut Diagnostics) -> Lowerer<'a> {
    let mut p = Parser {
        toks,
        pos: 0,
        diags,
        lw: Lowerer::default(),
    };
    p.header();
    while !p.at_eof() {
        if p.at(&Tok::RBrace) {
            // A stray closing brace at top level.
            let span = p.span();
            p.bump();
            p.diags
                .error(Code::QP003, span, "unmatched `}`".to_string());
            continue;
        }
        // Lowering stops once its own diagnostics reach the cap.
        let conds: Option<&[Control]> = if p.lw.is_truncated() { None } else { Some(&[]) };
        if p.stmt(0, conds).is_err() {
            p.recover();
        }
        if p.diags.is_truncated() {
            break;
        }
    }
    p.lw
}

impl<'a> Parser<'_, 'a> {
    fn cur(&self) -> Token<'a> {
        // The lexer guarantees a trailing Eof token.
        self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn next(&self) -> Token<'a> {
        self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn span(&self) -> Span {
        self.cur().span
    }

    fn at_eof(&self) -> bool {
        self.cur().tok == Tok::Eof
    }

    fn at(&self, t: &Tok) -> bool {
        self.cur().tok == *t
    }

    fn at_ident(&self, s: &str) -> bool {
        self.cur().tok == Tok::Ident(s)
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.cur();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<Span, ()> {
        if self.at(t) {
            Ok(self.bump().span)
        } else {
            let found = self.cur().tok.describe();
            self.diags.error(
                Code::QP003,
                self.span(),
                format!("expected {what}, found {found}"),
            );
            Err(())
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'a str, Span), ()> {
        match self.cur().tok {
            Tok::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => {
                let found = other.describe();
                self.diags.error(
                    Code::QP003,
                    self.span(),
                    format!("expected {what}, found {found}"),
                );
                Err(())
            }
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<(u64, Span), ()> {
        match self.cur().tok {
            Tok::Int(n) => {
                let span = self.bump().span;
                Ok((n, span))
            }
            other => {
                let found = other.describe();
                self.diags.error(
                    Code::QP003,
                    self.span(),
                    format!("expected {what}, found {found}"),
                );
                Err(())
            }
        }
    }

    /// Skips to just past the next `;`, or stops before `}` / end of input.
    fn recover(&mut self) {
        loop {
            match self.cur().tok {
                Tok::Eof | Tok::RBrace => return,
                Tok::Semi => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn header(&mut self) {
        if !self.at_ident("OPENQASM") {
            self.diags.warning(
                Code::QP004,
                self.span(),
                "missing `OPENQASM` version header",
            );
            return;
        }
        self.bump();
        match self.cur().tok {
            Tok::Real(x) if x == 2.0 || x == 3.0 => {}
            Tok::Int(2 | 3) => {}
            other => {
                let found = other.describe();
                self.diags.error(
                    Code::QP004,
                    self.span(),
                    format!("unsupported OPENQASM version {found} (2.0 and 3 are accepted)"),
                );
            }
        }
        // Consume the version token (even an unsupported one) so the bad
        // number does not cascade into a `;`-expected syntax error.
        if !matches!(self.cur().tok, Tok::Semi | Tok::Eof) {
            self.bump();
        }
        if self.expect(&Tok::Semi, "`;` after version header").is_err() {
            self.recover();
        }
    }

    /// Parses one statement and lowers it under the classical controls
    /// `conds`; with `None` it is parsed only.
    fn stmt(&mut self, depth: usize, conds: Option<&[Control]>) -> Result<(), ()> {
        let span = self.span();
        if depth > MAX_DEPTH {
            self.diags
                .error(Code::QP006, span, "statements nested too deeply");
            return Err(());
        }
        let Tok::Ident(kw) = self.cur().tok else {
            let found = self.cur().tok.describe();
            self.diags.error(
                Code::QP003,
                span,
                format!("expected a statement, found {found}"),
            );
            return Err(());
        };
        let lower = conds.is_some();
        match kw {
            "OPENQASM" => {
                self.bump();
                self.diags
                    .error(Code::QP003, span, "duplicate OPENQASM header".to_string());
                Err(())
            }
            "include" => {
                self.bump();
                let path = match self.cur().tok {
                    Tok::Str(s) => {
                        self.bump();
                        s
                    }
                    other => {
                        let found = other.describe();
                        self.diags.error(
                            Code::QP003,
                            self.span(),
                            format!("expected include path string, found {found}"),
                        );
                        return Err(());
                    }
                };
                self.expect(&Tok::Semi, "`;` after include")?;
                if lower {
                    let _ = self.lw.include(path, span);
                }
                Ok(())
            }
            "qreg" | "creg" => {
                self.bump();
                let (name, _) = self.expect_ident("register name")?;
                self.expect(&Tok::LBracket, "`[`")?;
                let (size, _) = self.expect_int("register size")?;
                self.expect(&Tok::RBracket, "`]`")?;
                self.expect(&Tok::Semi, "`;` after register declaration")?;
                if lower {
                    let _ = self.lw.declare(name, size, kw == "qreg", span);
                }
                Ok(())
            }
            "qubit" | "bit" => {
                // QASM-3 spellings: `qubit[3] q;`, `bit c;`.
                self.bump();
                let size = if self.at(&Tok::LBracket) {
                    self.bump();
                    let (size, _) = self.expect_int("register size")?;
                    self.expect(&Tok::RBracket, "`]`")?;
                    size
                } else {
                    1
                };
                let (name, _) = self.expect_ident("register name")?;
                self.expect(&Tok::Semi, "`;` after register declaration")?;
                if lower {
                    let _ = self.lw.declare(name, size, kw == "qubit", span);
                }
                Ok(())
            }
            "gate" => self.gate_def(span, lower),
            "opaque" => {
                self.bump();
                let (name, _) = self.expect_ident("gate name")?;
                if self.at(&Tok::LParen) {
                    self.bump();
                    self.ident_list(true)?;
                    self.expect(&Tok::RParen, "`)`")?;
                }
                self.ident_list(false)?;
                self.expect(&Tok::Semi, "`;` after opaque declaration")?;
                if lower {
                    let _ = self.lw.opaque(name, span);
                }
                Ok(())
            }
            "barrier" => {
                self.bump();
                let args = self.arg_list()?;
                self.expect(&Tok::Semi, "`;` after barrier")?;
                if lower {
                    let _ = self.lw.barrier(&args);
                }
                Ok(())
            }
            "reset" => {
                self.bump();
                let arg = self.arg()?;
                self.expect(&Tok::Semi, "`;` after reset")?;
                if lower {
                    let _ = self.lw.reset(&arg);
                }
                Ok(())
            }
            "measure" => {
                self.bump();
                let src = self.arg()?;
                self.expect(&Tok::Arrow, "`->` after measure source")?;
                let dst = self.arg()?;
                self.expect(&Tok::Semi, "`;` after measure")?;
                if lower {
                    let _ = self.lw.measure(&src, &dst, span);
                }
                Ok(())
            }
            "if" => {
                self.bump();
                self.expect(&Tok::LParen, "`(` after if")?;
                let (creg, creg_span) = self.expect_ident("classical register name")?;
                self.expect(&Tok::EqEq, "`==`")?;
                let (value, _) = self.expect_int("comparison value")?;
                self.expect(&Tok::RParen, "`)` after if condition")?;
                let cond = Condition {
                    creg,
                    creg_span,
                    value,
                };
                // Its first tokens tell what the conditioned statement is.
                let misplaced = (!self.at_conditionable()).then(|| self.span());
                let merged =
                    conds.and_then(|conds| self.lw.condition(conds, cond, span, depth, misplaced));
                self.stmt(depth + 1, merged.as_deref())
            }
            _ => {
                if let (Some(call), Some(conds)) = (self.ident_stmt(span, lower)?, conds) {
                    let _ = self.lw.call(&call, conds);
                }
                Ok(())
            }
        }
    }

    /// Whether the statement at the cursor is a gate call or an `if`: the
    /// only statements a condition applies to.
    fn at_conditionable(&self) -> bool {
        match self.cur().tok {
            Tok::Ident("if") => true,
            Tok::Ident(kw) if KEYWORDS.contains(&kw) => false,
            Tok::Ident(_) => !matches!(self.next().tok, Tok::LBracket | Tok::Assign),
            _ => false,
        }
    }

    /// A statement starting with a non-keyword identifier: a gate call,
    /// returned for the caller to lower or keep, or the QASM-3
    /// `c[0] = measure q[0];` form, lowered here when `lower` is set.
    fn ident_stmt(&mut self, span: Span, lower: bool) -> Result<Option<GateCall<'a>>, ()> {
        let (name, name_span) = self.expect_ident("gate name")?;
        if self.at(&Tok::LBracket) || self.at(&Tok::Assign) {
            // `dst[i] = measure src;` — measure-assign.
            let index = if self.at(&Tok::LBracket) {
                self.bump();
                let (i, _) = self.expect_int("index")?;
                self.expect(&Tok::RBracket, "`]`")?;
                Some(i)
            } else {
                None
            };
            let dst = Arg {
                name,
                index,
                span: name_span,
            };
            self.expect(&Tok::Assign, "`=`")?;
            if !self.at_ident("measure") {
                let found = self.cur().tok.describe();
                self.diags.error(
                    Code::QP003,
                    self.span(),
                    format!("expected `measure` after `=`, found {found}"),
                );
                return Err(());
            }
            self.bump();
            let src = self.arg()?;
            self.expect(&Tok::Semi, "`;` after measure")?;
            if lower {
                let _ = self.lw.measure(&src, &dst, span);
            }
            return Ok(None);
        }
        let params = if self.at(&Tok::LParen) {
            self.bump();
            let params = if self.at(&Tok::RParen) {
                Vec::new()
            } else {
                self.expr_list()?
            };
            self.expect(&Tok::RParen, "`)` after gate parameters")?;
            params
        } else {
            Vec::new()
        };
        let args = if self.at(&Tok::Semi) {
            Vec::new()
        } else {
            self.arg_list()?
        };
        self.expect(&Tok::Semi, "`;` after gate application")?;
        Ok(Some(GateCall {
            name,
            name_span,
            params,
            args,
        }))
    }

    /// `gate name(params) qubits { body }`: the body's calls are kept for
    /// the lowerer; its barriers (and any measure-assign) are dropped.
    fn gate_def(&mut self, span: Span, lower: bool) -> Result<(), ()> {
        self.bump();
        let (name, _) = self.expect_ident("gate name")?;
        let params = if self.at(&Tok::LParen) {
            self.bump();
            let list = self.ident_list(true)?;
            self.expect(&Tok::RParen, "`)`")?;
            list
        } else {
            Vec::new()
        };
        let qubits = self.ident_list(false)?;
        self.expect(&Tok::LBrace, "`{` to open the gate body")?;
        let mut body = Vec::new();
        loop {
            if self.at(&Tok::RBrace) {
                self.bump();
                break;
            }
            if self.at_eof() {
                self.diags.error(
                    Code::QP003,
                    self.span(),
                    "unterminated gate body (missing `}`)".to_string(),
                );
                return Err(());
            }
            let stmt_span = self.span();
            let allowed = match self.cur().tok {
                // Gate bodies may contain only gate applications and
                // barriers (OpenQASM 2.0 §"gate" production).
                Tok::Ident(id) => !KEYWORDS.contains(&id) || id == "barrier",
                _ => false,
            };
            if !allowed {
                self.diags.error(
                    Code::QP112,
                    stmt_span,
                    "only gate applications and barriers are allowed in a gate body".to_string(),
                );
                self.recover();
                continue;
            }
            let parsed = if self.at_ident("barrier") {
                self.bump();
                self.arg_list()
                    .and_then(|_| self.expect(&Tok::Semi, "`;` after barrier"))
                    .map(|_| None)
            } else {
                self.ident_stmt(stmt_span, false)
            };
            match parsed {
                Ok(call) => body.extend(call),
                Err(()) => self.recover(),
            }
            if self.diags.is_truncated() {
                return Err(());
            }
        }
        if lower {
            let _ = self.lw.define_gate(name, params, qubits, body, span);
        }
        Ok(())
    }

    /// `ident (, ident)*` — with `allow_empty` the list may be absent.
    fn ident_list(&mut self, allow_empty: bool) -> Result<Vec<&'a str>, ()> {
        let mut out = Vec::new();
        if allow_empty && !matches!(self.cur().tok, Tok::Ident(_)) {
            return Ok(out);
        }
        loop {
            let (name, _) = self.expect_ident("identifier")?;
            out.push(name);
            if self.at(&Tok::Comma) {
                self.bump();
            } else {
                return Ok(out);
            }
        }
    }

    fn arg(&mut self) -> Result<Arg<'a>, ()> {
        let (name, span) = self.expect_ident("register")?;
        let index = if self.at(&Tok::LBracket) {
            self.bump();
            let (i, _) = self.expect_int("index")?;
            self.expect(&Tok::RBracket, "`]`")?;
            Some(i)
        } else {
            None
        };
        Ok(Arg { name, index, span })
    }

    fn arg_list(&mut self) -> Result<Vec<Arg<'a>>, ()> {
        let mut out = vec![self.arg()?];
        while self.at(&Tok::Comma) {
            self.bump();
            out.push(self.arg()?);
        }
        Ok(out)
    }

    fn expr_list(&mut self) -> Result<Vec<Expr<'a>>, ()> {
        let mut out = vec![self.expr(0)?];
        while self.at(&Tok::Comma) {
            self.bump();
            out.push(self.expr(0)?);
        }
        Ok(out)
    }

    /// Additive precedence level.
    fn expr(&mut self, depth: usize) -> Result<Expr<'a>, ()> {
        if depth > MAX_DEPTH {
            self.diags
                .error(Code::QP006, self.span(), "expression nested too deeply");
            return Err(());
        }
        let mut lhs = self.term(depth + 1)?;
        loop {
            let op = match self.cur().tok {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            let span = self.bump().span;
            let rhs = self.term(depth + 1)?;
            lhs = Expr {
                kind: ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
    }

    fn term(&mut self, depth: usize) -> Result<Expr<'a>, ()> {
        let mut lhs = self.factor(depth + 1)?;
        loop {
            let op = match self.cur().tok {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            let span = self.bump().span;
            let rhs = self.factor(depth + 1)?;
            lhs = Expr {
                kind: ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
    }

    /// `^` is right-associative and binds tighter than `*`.
    fn factor(&mut self, depth: usize) -> Result<Expr<'a>, ()> {
        let base = self.atom(depth + 1)?;
        if self.at(&Tok::Caret) {
            let span = self.bump().span;
            let exp = self.factor(depth + 1)?;
            return Ok(Expr {
                kind: ExprKind::Bin(BinOp::Pow, Box::new(base), Box::new(exp)),
                span,
            });
        }
        Ok(base)
    }

    fn atom(&mut self, depth: usize) -> Result<Expr<'a>, ()> {
        if depth > MAX_DEPTH {
            self.diags
                .error(Code::QP006, self.span(), "expression nested too deeply");
            return Err(());
        }
        let span = self.span();
        match self.cur().tok {
            Tok::Int(n) => {
                let v = n as f64;
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Num(v),
                    span,
                })
            }
            Tok::Real(x) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Num(x),
                    span,
                })
            }
            Tok::Minus => {
                self.bump();
                let inner = self.atom(depth + 1)?;
                Ok(Expr {
                    kind: ExprKind::Neg(Box::new(inner)),
                    span,
                })
            }
            Tok::LParen => {
                self.bump();
                let inner = self.expr(depth + 1)?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Expr {
                    kind: inner.kind,
                    span,
                })
            }
            Tok::Ident(id) => {
                self.bump();
                if id == "pi" {
                    return Ok(Expr {
                        kind: ExprKind::Pi,
                        span,
                    });
                }
                if self.at(&Tok::LParen) {
                    let Some(f) = FUNCTIONS.iter().find(|f| **f == id) else {
                        self.diags.error(
                            Code::QP114,
                            span,
                            format!("unknown function `{id}` in expression"),
                        );
                        return Err(());
                    };
                    self.bump();
                    let inner = self.expr(depth + 1)?;
                    self.expect(&Tok::RParen, "`)` after function argument")?;
                    return Ok(Expr {
                        kind: ExprKind::Call(f, Box::new(inner)),
                        span,
                    });
                }
                Ok(Expr {
                    kind: ExprKind::Ident(id),
                    span,
                })
            }
            other => {
                let found = other.describe();
                self.diags.error(
                    Code::QP003,
                    span,
                    format!("expected an expression, found {found}"),
                );
                Err(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::lex::lex;
    use quipper_circuit::Gate;

    /// The lowerer after the parse, and the parse's own diagnostics.
    fn parse_src(src: &str) -> (Lowerer<'_>, Diagnostics) {
        let mut diags = Diagnostics::new();
        let toks = lex(src, &mut diags);
        let lw = parse(&toks, &mut diags);
        (lw, diags)
    }

    #[test]
    fn parses_the_standard_prelude() {
        let (lw, mut ds) = parse_src(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n",
        );
        assert!(ds.is_empty(), "{ds}");
        // All five statements reached the lowerer: two qubits, both
        // touched by the `h` and the `cx`.
        let bc = lw.finish(&mut ds).expect("lowers");
        assert!(ds.is_empty(), "{ds}");
        assert_eq!(bc.main.inputs.len(), 2);
        assert_eq!(bc.main.gates.len(), 2);
    }

    #[test]
    fn parses_qasm3_spellings() {
        let (lw, mut ds) = parse_src(
            "OPENQASM 3;\nqubit[2] q;\nbit[2] c;\nU(pi/2,0,pi) q[0];\ngphase(pi/4);\nc[0] = measure q[0];\n",
        );
        // Version 3 is accepted, and every statement lowers: `q[0]` is
        // the one touched qubit, and the last gate is the measure-assign.
        assert!(ds.is_empty(), "{ds}");
        let bc = lw.finish(&mut ds).expect("lowers");
        assert!(ds.is_empty(), "{ds}");
        assert_eq!(bc.main.inputs.len(), 1);
        assert!(matches!(bc.main.gates.last(), Some(Gate::QMeas { .. })));
    }

    #[test]
    fn missing_header_is_a_warning() {
        let (_, ds) = parse_src("qreg q[1];\nh q[0];\n");
        assert!(!ds.has_errors());
        assert_eq!(ds.iter().next().unwrap().code, Code::QP004);
    }

    #[test]
    fn bad_version_is_an_error() {
        let (_, ds) = parse_src("OPENQASM 7.5;\n");
        assert!(ds.iter().any(|d| d.code == Code::QP004 && ds.has_errors()));
    }

    #[test]
    fn recovery_is_per_statement() {
        let (lw, ds) = parse_src("OPENQASM 2.0;\nqreg q[;\nh q[0];\n");
        // The broken declaration yields one diagnostic; the following
        // statement still parses, and reaches the lowerer (which knows no
        // `h` without the include).
        assert_eq!(ds.count(Severity::Error), 1, "{ds}");
        let mut lowered = Diagnostics::new();
        assert!(lw.finish(&mut lowered).is_none());
        let found: Vec<(Code, u32)> = lowered.iter().map(|d| (d.code, d.span.line)).collect();
        assert_eq!(found, [(Code::QP103, 3)]);
    }

    #[test]
    fn deep_expressions_hit_the_cap() {
        let mut src = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nrz(");
        for _ in 0..200 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..200 {
            src.push(')');
        }
        src.push_str(") q[0];\n");
        let (_, ds) = parse_src(&src);
        assert!(ds.iter().any(|d| d.code == Code::QP006), "{ds}");
    }

    #[test]
    fn gate_bodies_reject_measure() {
        let (_, ds) = parse_src("OPENQASM 2.0;\ngate bad a { measure a -> c[0]; }\n");
        assert!(ds.iter().any(|d| d.code == Code::QP112), "{ds}");
    }

    #[test]
    fn if_wraps_a_statement() {
        let (lw, mut ds) = parse_src(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\nif(c==1) x q[0];\n",
        );
        assert!(ds.is_empty(), "{ds}");
        // The `if` took the `x` as its statement, under `c == 1`, which an
        // unwritten bit never is: the `x` is dropped, not applied.
        let bc = lw.finish(&mut ds).expect("lowers");
        assert!(ds.is_empty(), "{ds}");
        assert!(bc.main.gates.is_empty());
    }
}

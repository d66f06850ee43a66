//! Hand-rolled OpenQASM lexer.
//!
//! Produces a flat token stream with 1-based line/column spans. Names and
//! string literals are slices of the source, never copies. Lexical errors
//! (stray characters, unterminated comments or strings, malformed
//! numbers) are recorded as diagnostics and the offending bytes skipped,
//! so the parser always sees a well-formed stream ending in [`Tok::Eof`].

use crate::diag::{Code, Diagnostics, Span};

/// Token payload.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Tok<'a> {
    /// Identifier or keyword (`qreg`, `gate`, `pi`, gate names, …).
    Ident(&'a str),
    /// Unsigned integer literal.
    Int(u64),
    /// Real literal (also used for integers too large for `u64`).
    Real(f64),
    /// String literal, quotes stripped (`include` paths).
    Str(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `->`
    Arrow,
    /// `==`
    EqEq,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
    /// End of input (always the final token).
    Eof,
}

impl Tok<'_> {
    /// Short human name for "expected X, found Y" messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Int(n) => format!("`{n}`"),
            Tok::Real(x) => format!("`{x}`"),
            Tok::Str(_) => "string literal".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::Semi => "`;`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Arrow => "`->`".into(),
            Tok::EqEq => "`==`".into(),
            Tok::Assign => "`=`".into(),
            Tok::Plus => "`+`".into(),
            Tok::Minus => "`-`".into(),
            Tok::Star => "`*`".into(),
            Tok::Slash => "`/`".into(),
            Tok::Caret => "`^`".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Token<'a> {
    /// Payload.
    pub tok: Tok<'a>,
    /// Position of the token's first byte.
    pub span: Span,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self, diags: &mut Diagnostics) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while let Some(b) = self.bump() {
                        if b == b'*' && self.peek() == Some(b'/') {
                            self.bump();
                            closed = true;
                            break;
                        }
                    }
                    if !closed {
                        diags.error(Code::QP002, start, "unterminated block comment");
                    }
                }
                _ => return,
            }
        }
    }

    fn lex_number(&mut self, diags: &mut Diagnostics) -> Tok<'a> {
        let start = self.span();
        let begin = self.pos;
        let mut is_real = false;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.bump();
        }
        if self.peek() == Some(b'.') {
            is_real = true;
            self.bump();
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            // Only consume the exponent if digits follow (possibly signed);
            // otherwise `2e` would swallow an identifier character.
            let mut look = self.pos + 1;
            if matches!(self.src.get(look), Some(b'+' | b'-')) {
                look += 1;
            }
            if matches!(self.src.get(look), Some(b'0'..=b'9')) {
                is_real = true;
                self.bump();
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.bump();
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
        }
        // A number immediately followed by identifier characters ("2x",
        // "1.5abc") is malformed, not two tokens.
        if matches!(self.peek(), Some(b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'.')) {
            while matches!(
                self.peek(),
                Some(b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'.' | b'0'..=b'9')
            ) {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[begin..self.pos]).into_owned();
            diags.error(
                Code::QP005,
                start,
                format!("malformed numeric literal `{text}`"),
            );
            return Tok::Real(0.0);
        }
        let text = std::str::from_utf8(&self.src[begin..self.pos]).unwrap_or("0");
        if is_real {
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Tok::Real(x),
                _ => {
                    diags.error(
                        Code::QP005,
                        start,
                        format!("malformed numeric literal `{text}`"),
                    );
                    Tok::Real(0.0)
                }
            }
        } else {
            match text.parse::<u64>() {
                Ok(n) => Tok::Int(n),
                // Out of u64 range: fall back to a real so constant folding
                // still sees the magnitude.
                Err(_) => match text.parse::<f64>() {
                    Ok(x) if x.is_finite() => Tok::Real(x),
                    _ => {
                        diags.error(
                            Code::QP005,
                            start,
                            format!("malformed numeric literal `{text}`"),
                        );
                        Tok::Real(0.0)
                    }
                },
            }
        }
    }
}

/// Lexes the whole source. The returned stream always ends with
/// [`Tok::Eof`]; lexical problems are recorded in `diags`.
pub fn lex<'a>(source: &'a str, diags: &mut Diagnostics) -> Vec<Token<'a>> {
    let mut lx = Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    loop {
        lx.skip_trivia(diags);
        let span = lx.span();
        let Some(b) = lx.peek() else {
            out.push(Token {
                tok: Tok::Eof,
                span,
            });
            return out;
        };
        let tok = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let begin = lx.pos;
                while matches!(
                    lx.peek(),
                    Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                ) {
                    lx.bump();
                }
                // Names are ASCII, so the slice ends on a character boundary.
                Tok::Ident(&source[begin..lx.pos])
            }
            b'0'..=b'9' => lx.lex_number(diags),
            b'.' if matches!(lx.peek2(), Some(b'0'..=b'9')) => lx.lex_number(diags),
            b'"' => {
                lx.bump();
                let begin = lx.pos;
                let mut end = None;
                while let Some(c) = lx.peek() {
                    if c == b'"' {
                        end = Some(lx.pos);
                        lx.bump();
                        break;
                    }
                    if c == b'\n' {
                        break;
                    }
                    lx.bump();
                }
                // Both ends sit next to an ASCII quote: character boundaries.
                match end {
                    Some(e) => Tok::Str(&source[begin..e]),
                    None => {
                        diags.error(Code::QP002, span, "unterminated string literal");
                        Tok::Str("")
                    }
                }
            }
            b'(' => {
                lx.bump();
                Tok::LParen
            }
            b')' => {
                lx.bump();
                Tok::RParen
            }
            b'[' => {
                lx.bump();
                Tok::LBracket
            }
            b']' => {
                lx.bump();
                Tok::RBracket
            }
            b'{' => {
                lx.bump();
                Tok::LBrace
            }
            b'}' => {
                lx.bump();
                Tok::RBrace
            }
            b';' => {
                lx.bump();
                Tok::Semi
            }
            b',' => {
                lx.bump();
                Tok::Comma
            }
            b'+' => {
                lx.bump();
                Tok::Plus
            }
            b'*' => {
                lx.bump();
                Tok::Star
            }
            b'/' => {
                lx.bump();
                Tok::Slash
            }
            b'^' => {
                lx.bump();
                Tok::Caret
            }
            b'-' => {
                lx.bump();
                if lx.peek() == Some(b'>') {
                    lx.bump();
                    Tok::Arrow
                } else {
                    Tok::Minus
                }
            }
            b'=' => {
                lx.bump();
                if lx.peek() == Some(b'=') {
                    lx.bump();
                    Tok::EqEq
                } else {
                    Tok::Assign
                }
            }
            other => {
                lx.bump();
                // Consume any continuation bytes of a multi-byte UTF-8
                // character so one bad character is one diagnostic.
                while matches!(lx.peek(), Some(c) if c & 0xC0 == 0x80) {
                    lx.bump();
                }
                let printable = if other.is_ascii_graphic() {
                    format!("`{}`", other as char)
                } else {
                    format!("0x{other:02x}")
                };
                diags.error(
                    Code::QP001,
                    span,
                    format!("unexpected character {printable}"),
                );
                continue;
            }
        };
        out.push(Token { tok, span });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> (Vec<Tok<'_>>, Diagnostics) {
        let mut diags = Diagnostics::new();
        let stream = lex(src, &mut diags);
        (stream.into_iter().map(|t| t.tok).collect(), diags)
    }

    #[test]
    fn lexes_a_declaration() {
        let (ts, ds) = toks("qreg q[3];");
        assert!(ds.is_empty());
        assert_eq!(
            ts,
            vec![
                Tok::Ident("qreg"),
                Tok::Ident("q"),
                Tok::LBracket,
                Tok::Int(3),
                Tok::RBracket,
                Tok::Semi,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_reals_and_measure_arrow() {
        let (ts, ds) = toks("rz(0.5e-3) q[0]; measure q[0] -> c[0];");
        assert!(ds.is_empty());
        assert!(ts.contains(&Tok::Real(0.5e-3)));
        assert!(ts.contains(&Tok::Arrow));
    }

    #[test]
    fn comments_are_skipped_and_unterminated_flagged() {
        let (ts, ds) = toks("// line\n/* block */ h q; /* open");
        assert!(ts.contains(&Tok::Ident("h")));
        assert!(ds.has_errors());
        assert_eq!(ds.iter().next().unwrap().code, Code::QP002);
    }

    #[test]
    fn stray_characters_are_single_diagnostics() {
        let (ts, ds) = toks("h @ q;");
        assert_eq!(ds.count(crate::diag::Severity::Error), 1);
        assert_eq!(ds.iter().next().unwrap().code, Code::QP001);
        // The surrounding tokens survive.
        assert!(ts.contains(&Tok::Ident("q")));
    }

    #[test]
    fn malformed_numbers_are_flagged() {
        let (_, ds) = toks("rz(2x) q[0];");
        assert!(ds.iter().any(|d| d.code == Code::QP005));
    }

    #[test]
    fn spans_are_one_based() {
        let mut diags = Diagnostics::new();
        let stream = lex("h q;\n  x q;", &mut diags);
        assert_eq!(stream[0].span, Span { line: 1, col: 1 });
        let x = stream.iter().find(|t| t.tok == Tok::Ident("x")).unwrap();
        assert_eq!(x.span, Span { line: 2, col: 3 });
    }
}

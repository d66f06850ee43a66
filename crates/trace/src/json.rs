//! The workspace's one JSON reader and one JSON writer, dependency-free.
//!
//! [`parse`] is the reader on the serving socket (`protocol::handle_line`
//! feeds it request lines straight from clients), so it is a trust
//! boundary: nesting is capped at `MAX_DEPTH` and every malformed input
//! is an `Err`, never a panic or a stack overflow. It also validates
//! exported Chrome traces (`trace_check`) and reads back everything the
//! workspace emits. Numbers are parsed as `f64`.
//!
//! [`JsonWriter`] is the only place JSON is assembled: wire responses, the
//! Chrome trace, metrics and lint JSON Lines and the CLI `--json` modes all
//! stream through it, so every emitted string is escaped by the one
//! `escape_into` and everything written round-trips through [`parse`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::str::Chars;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|o| o.get(key))
    }
}

/// Deepest array/object nesting [`parse`] accepts. The deepest document the
/// workspace emits is the five-level `flight` response and the deepest
/// request it reads is two levels, so this is ample; past it the parser
/// returns an error instead of recursing until the stack runs out.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document, rejecting trailing garbage and nesting
/// deeper than `MAX_DEPTH`.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        chars: input.chars(),
        peeked: None,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    match p.next_ch() {
        None => Ok(value),
        Some(c) => Err(format!("trailing character {c:?} after JSON value")),
    }
}

struct Parser<'a> {
    chars: Chars<'a>,
    peeked: Option<char>,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn next_ch(&mut self) -> Option<char> {
        self.peeked.take().or_else(|| self.chars.next())
    }

    fn peek(&mut self) -> Option<char> {
        if self.peeked.is_none() {
            self.peeked = self.chars.next();
        }
        self.peeked
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.next_ch();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        self.skip_ws();
        match self.next_ch() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected {c:?}, got {got:?}")),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.keyword("true", Json::Bool(true)),
            Some('f') => self.keyword("false", Json::Bool(false)),
            Some('n') => self.keyword("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            got => Err(format!("unexpected {got:?} at start of value")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for expected in word.chars() {
            match self.next_ch() {
                Some(c) if c == expected => {}
                got => return Err(format!("bad keyword: expected {expected:?}, got {got:?}")),
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                text.push(c);
                self.next_ch();
            } else {
                break;
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next_ch() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.next_ch() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let code = self.hex4()?;
                        // `ensure_ascii` encoders send astral characters as
                        // an escaped UTF-16 pair; anything else in the
                        // surrogate range has no scalar value.
                        let scalar = match self.low_surrogate_after(code) {
                            Some(low) => 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                            None => code,
                        };
                        out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                    }
                    got => return Err(format!("bad escape {got:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let c = self.next_ch().ok_or("unterminated \\u escape")?;
            code = code * 16 + c.to_digit(16).ok_or_else(|| format!("bad hex {c:?}"))?;
        }
        Ok(code)
    }

    /// If `high` is a high surrogate and the input continues with an escaped
    /// low surrogate, consumes that escape and returns its code unit.
    fn low_surrogate_after(&mut self, high: u32) -> Option<u32> {
        if !(0xD800..0xDC00).contains(&high) {
            return None;
        }
        // `string` never peeks, so `chars` is exactly the unread input.
        debug_assert!(self.peeked.is_none());
        let mut ahead = self.chars.clone();
        if ahead.next() != Some('\\') || ahead.next() != Some('u') {
            return None;
        }
        let mut low = 0u32;
        for _ in 0..4 {
            low = low * 16 + ahead.next()?.to_digit(16)?;
        }
        if !(0xDC00..0xE000).contains(&low) {
            return None;
        }
        self.chars = ahead;
        Some(low)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.next_ch();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.next_ch() {
                Some(',') => {}
                Some(']') => return Ok(Json::Arr(items)),
                got => return Err(format!("expected ',' or ']', got {got:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.next_ch();
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(':')?;
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.next_ch() {
                Some(',') => {}
                Some('}') => return Ok(Json::Obj(members)),
                got => return Err(format!("expected ',' or '}}', got {got:?}")),
            }
        }
    }
}

/// Escape a string for embedding in JSON output (without the quotes).
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// The integer types [`JsonWriter::int`] prints: exactly, by their own
/// `Display`, never through `f64`. Sealed by living in a private module.
pub trait Integer: fmt::Display {}
macro_rules! integers {
    ($($t:ty)*) => { $(impl Integer for $t {})* };
}
integers!(u8 u16 u32 u64 u128 usize i8 i16 i32 i64 i128 isize);

/// A streaming JSON writer: tokens come out in call order, commas and
/// colons are placed for the caller, strings and keys are escaped. There is
/// no pretty-printing and nothing to configure; the caller is responsible
/// for balancing `begin_*`/`end_*` and for writing a value after each key.
///
/// Several top-level values may be written one after another, separated by
/// [`JsonWriter::newline`] — that is JSON Lines.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// The enclosing array or object already holds a value.
    need_comma: bool,
    newline_owed: bool,
    depth: usize,
}

impl JsonWriter {
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// The text written so far.
    pub fn finish(mut self) -> String {
        debug_assert_eq!(self.depth, 0, "unbalanced JSON document");
        self.line_break();
        self.out
    }

    fn line_break(&mut self) {
        if std::mem::take(&mut self.newline_owed) {
            self.out.push('\n');
        }
    }

    fn before_value(&mut self) {
        if self.need_comma && self.depth > 0 {
            self.out.push(',');
        }
        self.line_break();
        self.need_comma = true;
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.before_value();
        self.out.push(bracket);
        self.need_comma = false;
        self.depth += 1;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.line_break();
        self.out.push(bracket);
        self.need_comma = true;
        self.depth -= 1;
        self
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object member's name; the member's value must follow.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push(':');
        self.need_comma = false;
        self
    }

    pub fn string(&mut self, value: &str) -> &mut Self {
        self.before_value();
        self.out.push('"');
        escape_into(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// A value whose text needs no escaping.
    fn token(&mut self, text: fmt::Arguments) -> &mut Self {
        self.before_value();
        let _ = self.out.write_fmt(text);
        self
    }

    pub fn int(&mut self, value: impl Integer) -> &mut Self {
        self.token(format_args!("{value}"))
    }

    /// A float, with `precision` digits after the point when given and the
    /// shortest text that reads back to the same `f64` otherwise. JSON has
    /// no NaN or infinity; those are written as `null`.
    pub fn float(&mut self, value: f64, precision: Option<usize>) -> &mut Self {
        match precision {
            _ if !value.is_finite() => self.null(),
            Some(digits) => self.token(format_args!("{value:.digits$}")),
            None => self.token(format_args!("{value}")),
        }
    }

    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.token(format_args!("{value}"))
    }

    pub fn null(&mut self) -> &mut Self {
        self.token(format_args!("null"))
    }

    /// Starts the next token — value, key or closing bracket — on a new
    /// line; a comma owed to the previous value stays on the old line. This
    /// is how the Chrome trace puts one event per line and how JSON Lines
    /// output separates its documents.
    pub fn newline(&mut self) -> &mut Self {
        self.newline_owed = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#" {"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\n\"yA"} "#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\n\"yA"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let at_limit = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(parse(&at_limit).is_ok());
            let past = format!(
                "{}1{}",
                open.repeat(MAX_DEPTH + 1),
                close.repeat(MAX_DEPTH + 1)
            );
            assert!(parse(&past).unwrap_err().contains("nesting"));
            // The hostile case: no closers at all, far past any stack.
            assert!(parse(&open.repeat(100_000))
                .unwrap_err()
                .contains("nesting"));
        }
        // Siblings do not count as nesting.
        assert!(parse(&format!("[{}1]", "[],".repeat(10 * MAX_DEPTH))).is_ok());
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_scalar() {
        let text = |doc: &str| parse(doc).unwrap().as_str().unwrap().to_string();
        assert_eq!(text(r#""😀""#), "\u{1F600}");
        assert_eq!(text(r#""a😀b""#), "a\u{1F600}b");
        // Lone high, lone low, reversed pair, high then a non-surrogate
        // escape: each unpaired unit is U+FFFD and nothing else is eaten.
        assert_eq!(text(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(text(r#""\ud83dx""#), "\u{fffd}x");
        assert_eq!(text(r#""\ude00""#), "\u{fffd}");
        assert_eq!(text(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert_eq!(text(r#""\ud83dA""#), "\u{fffd}A");
        assert_eq!(text(r#""\ud83d\n""#), "\u{fffd}\n");
        assert!(parse(r#""\ud83d\ude0"#).is_err());
    }

    #[test]
    fn writer_places_commas_colons_and_owed_newlines() {
        let mut w = JsonWriter::new();
        w.begin_object().key("a\"").begin_array();
        w.newline().int(u128::MAX).newline().int(i128::MIN);
        w.newline().end_array();
        w.key("f").float(1.5, None).key("g").float(2.0, Some(3));
        w.key("n").float(f64::NAN, None).key("e").begin_object();
        w.end_object()
            .key("t")
            .bool(true)
            .key("z")
            .null()
            .end_object();
        w.newline().string("second\ndocument").newline();
        assert_eq!(
            w.finish(),
            "{\"a\\\"\":[\n340282366920938463463374607431768211455,\n\
             -170141183460469231731687303715884105728\n],\
             \"f\":1.5,\"g\":2.000,\"n\":null,\"e\":{},\"t\":true,\"z\":null}\n\
             \"second\\ndocument\"\n"
        );
    }

    /// Quotes, backslashes, every control character, BMP and astral code
    /// points, in random order.
    fn nasty_string(draws: &mut impl Iterator<Item = u64>) -> String {
        let len = draws.next().unwrap_or(0) % 12;
        let pick = |d: u64| match d % 6 {
            0 => '"',
            1 => '\\',
            2 => char::from_u32((d >> 8) as u32 % 0x21).unwrap(),
            3 => char::from_u32((d >> 8) as u32 % 0x80).unwrap(),
            4 => char::from_u32((d >> 8) as u32 % 0x1_0000).unwrap_or('\u{fffd}'),
            _ => char::from_u32(0x1_0000 + (d >> 8) as u32 % 0x10_0000).unwrap(),
        };
        draws.take(len as usize).map(pick).collect()
    }

    /// Writes one random value of every kind the writer has — integers
    /// through `int`, so they are printed exactly — and returns what the
    /// parser should read back: structure and strings exactly, numbers to
    /// `f64`.
    fn emit(draws: &mut impl Iterator<Item = u64>, depth_left: usize, w: &mut JsonWriter) -> Json {
        let d = draws.next().unwrap_or(0);
        let payload = d >> 8;
        match d % if depth_left == 0 { 7 } else { 10 } {
            0 => {
                w.null();
                Json::Null
            }
            1 => {
                w.bool(d & 256 != 0);
                Json::Bool(d & 256 != 0)
            }
            2 | 3 => {
                let n = [
                    payload as u128,
                    u64::MAX as u128,
                    (1u128 << 64) + payload as u128,
                    u128::MAX - payload as u128,
                ][(payload % 4) as usize];
                w.int(n);
                Json::Num(n as f64)
            }
            4 => {
                let n = -(payload as i128) << (payload % 70);
                w.int(n);
                Json::Num(n as f64)
            }
            5 => {
                let x = f64::from_bits(d.rotate_left(17));
                w.float(x, None);
                if x.is_finite() {
                    Json::Num(x)
                } else {
                    Json::Null
                }
            }
            6 => {
                let s = nasty_string(draws);
                w.string(&s);
                Json::Str(s)
            }
            7 | 8 => {
                w.begin_array();
                let items = (0..payload % 4).map(|_| emit(draws, depth_left - 1, w));
                let items = items.collect();
                w.end_array();
                Json::Arr(items)
            }
            _ => {
                w.begin_object();
                let members = (0..payload % 4).map(|i| {
                    // Distinct keys: the reader keeps one member per key.
                    let key = format!("{i}{}", nasty_string(draws));
                    w.key(&key);
                    (key, emit(draws, depth_left - 1, w))
                });
                let members = members.collect();
                w.end_object();
                Json::Obj(members)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn whatever_the_writer_writes_the_parser_reads_back(
            draws in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 1..300),
            wrap in 0usize..MAX_DEPTH,
        ) {
            // A random tree of depth ≤ 8 inside `wrap` one-element arrays,
            // so documents reach the depth limit exactly and never pass it.
            let mut w = JsonWriter::new();
            for _ in 0..wrap {
                w.begin_array();
            }
            let mut want = emit(&mut draws.into_iter(), (MAX_DEPTH - wrap).min(8), &mut w);
            for _ in 0..wrap {
                w.end_array();
                want = Json::Arr(vec![want]);
            }
            let text = w.finish();
            assert_eq!(parse(&text).map_err(|e| format!("{e}: {text}")), Ok(want));
        }
    }
}

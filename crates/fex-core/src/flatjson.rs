//! The flat-JSON codec: the one reader and the one writer behind every
//! line fex writes as a flat JSON object — journal events, lab index
//! lines, artifact-graph payloads and the serve protocol.
//!
//! The grammar is the subset the writer emits: one object per line,
//! `{` then zero or more `"key": value` pairs separated by `,`, then `}`,
//! with whitespace allowed around every token and around the object. A
//! value is a string, an integer in `i64::MIN..=u64::MAX`, `true`,
//! `false` or `null`; there are no floats, arrays or nested objects.
//!
//! [`FlatObject::parse`] reads a line byte by byte. Keys and strings
//! without escapes borrow from the line, numbers and literals are parsed
//! in place, and fields stay in line order. A repeated key reads as its
//! last value. Every error is a [`ParseIssue::Malformed`] whose message
//! names what was expected and, where the reader stopped at a character,
//! that character.
//!
//! [`JsonLine`] appends keys and escaped values straight into the line
//! it builds; [`JsonStr`] writes one escaped string through `Display`
//! for the multi-line documents (`metrics.json`, SARIF).
//!
//! The workspace builds offline, without serde.

use std::borrow::Cow;
use std::fmt;

use crate::journal::ParseIssue;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Writes `s` as a JSON string literal (quotes included): `"`, `\`,
/// newline, carriage return and tab get their short escapes, every other
/// control character a `\u00xx` escape.
fn escape_into<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if short.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(short)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// A string displayed as an escaped JSON string literal.
pub(crate) struct JsonStr<'a>(pub(crate) &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        escape_into(f, self.0)
    }
}

/// Appends `s` as a JSON string literal.
fn push_escaped(out: &mut String, s: &str) {
    // Writing into a `String` cannot fail.
    let _ = escape_into(out, s);
}

/// Appends the decimal digits of `n`, as `Display` writes them.
fn push_int(out: &mut String, n: i128) {
    if n < 0 {
        out.push('-');
    }
    let mut magnitude = n.unsigned_abs();
    let mut digits = [0u8; 39];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (magnitude % 10) as u8;
        magnitude /= 10;
        if magnitude == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Builder for one flat JSON object line.
pub(crate) struct JsonLine {
    buf: String,
}

impl JsonLine {
    /// Starts a journal event line: `{"event": "<kind>"`.
    pub(crate) fn new(kind: &str) -> Self {
        Self::object("event", kind)
    }

    /// Starts an object whose first key is `key` rather than `"event"`.
    pub(crate) fn object(key: &str, val: &str) -> Self {
        let mut buf = String::with_capacity(128);
        buf.push('{');
        push_escaped(&mut buf, key);
        buf.push_str(": ");
        push_escaped(&mut buf, val);
        JsonLine { buf }
    }

    /// Appends `, "key": `.
    fn key(&mut self, key: &str) {
        self.buf.push_str(", ");
        push_escaped(&mut self.buf, key);
        self.buf.push_str(": ");
    }

    /// Appends one string field.
    pub(crate) fn str(&mut self, key: &str, val: &str) -> &mut Self {
        self.key(key);
        push_escaped(&mut self.buf, val);
        self
    }

    /// Appends one typed field.
    pub(crate) fn field<T: Field>(&mut self, key: &str, val: &T) -> &mut Self {
        self.key(key);
        val.write(&mut self.buf);
        self
    }

    /// Closes the object.
    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A parsed flat JSON value. A string borrows from the line unless it
/// held an escape.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json<'a> {
    Str(Cow<'a, str>),
    /// An integer in `i64::MIN..=u64::MAX`, so both signed and unsigned
    /// 64-bit fields round-trip.
    Int(i128),
    Bool(bool),
    Null,
}

/// One parsed flat JSON object, its fields in line order.
///
/// Lookups scan the fields from the end, which finds a repeated key's
/// last value first. Every consumer reads a fixed set of keys, so a
/// line costs at most that many scans of its fields. A sorted index was
/// measured slower: for the 31-field graph payload, the sort and binary
/// searches cost more than 30 scans that mostly stop at a key's length.
#[derive(Debug)]
pub(crate) struct FlatObject<'a> {
    fields: Vec<(Cow<'a, str>, Json<'a>)>,
}

fn malformed(msg: impl Into<String>) -> ParseIssue {
    ParseIssue::Malformed(msg.into())
}

impl<'a> FlatObject<'a> {
    /// Parses one flat JSON object line.
    ///
    /// # Errors
    ///
    /// [`ParseIssue::Malformed`] when the line is not a flat object of
    /// the grammar above.
    pub(crate) fn parse(line: &'a str) -> Result<Self, ParseIssue> {
        let mut r = Reader { text: line.trim(), pos: 0 };
        if r.peek() != Some(b'{') {
            return Err(malformed("expected `{`"));
        }
        r.pos += 1;
        let mut fields = Vec::with_capacity(16);
        r.skip_ws();
        if r.peek() != Some(b'}') {
            loop {
                r.skip_ws();
                let key = r.string()?;
                r.skip_ws();
                if r.peek() != Some(b':') {
                    return Err(malformed(format!("expected `:` after key `{key}`")));
                }
                r.pos += 1;
                r.skip_ws();
                let value = r.value()?;
                fields.push((key, value));
                r.skip_ws();
                match r.peek() {
                    Some(b',') => r.pos += 1,
                    Some(b'}') => break,
                    _ => {
                        let got = r.char_here();
                        return Err(malformed(format!("expected `,` or `}}`, got {got:?}")));
                    }
                }
            }
        }
        r.pos += 1;
        r.skip_ws();
        if r.pos < r.text.len() {
            return Err(malformed("trailing characters after object"));
        }
        Ok(FlatObject { fields })
    }

    /// The value of `key`: its last one when the key repeats.
    pub(crate) fn value(&self, key: &str) -> Option<&Json<'a>> {
        self.fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Every key once, with its last value, in key order.
    pub(crate) fn by_key(&self) -> Vec<(&str, &Json<'a>)> {
        let key = |i: usize| self.fields[i].0.as_ref();
        // A stable sort keeps equal keys in line order, the last one last.
        let mut order: Vec<usize> = (0..self.fields.len()).collect();
        order.sort_by(|&a, &b| key(a).cmp(key(b)));
        order
            .iter()
            .enumerate()
            .filter(|&(j, &i)| order.get(j + 1).is_none_or(|&next| key(next) != key(i)))
            .map(|(_, &i)| (key(i), &self.fields[i].1))
            .collect()
    }
}

/// A cursor over the (trimmed) line. `pos` only ever stops on a char
/// boundary: it moves past ASCII bytes one at a time and past anything
/// else a whole char at a time.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The char at the cursor, for messages.
    fn char_here(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    /// Skips Unicode whitespace (`char::is_whitespace`).
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => self.pos += 1,
                0x80.. => match self.char_here() {
                    Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
    }

    /// Reads a string literal; it borrows from the line unless it holds
    /// an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseIssue> {
        if self.peek() != Some(b'"') {
            return Err(malformed("expected string"));
        }
        self.pos += 1;
        let bytes = self.text.as_bytes();
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let stop = bytes[run..].iter().position(|&b| b == b'"' || b == b'\\');
            self.pos = stop.map_or(bytes.len(), |at| run + at);
            let text = &self.text[run..self.pos];
            match bytes.get(self.pos) {
                None => return Err(malformed("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(text),
                        Some(mut s) => {
                            s.push_str(text);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(_) => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(text);
                    self.pos += 1;
                    self.escape(s)?;
                }
            }
        }
    }

    /// Decodes the escape after a backslash into `out`. `\u` takes the
    /// next four chars (fewer at the end of the line) as hex; a code that
    /// is not a char reads as U+FFFD.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseIssue> {
        let short = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let rest = &self.text[self.pos..];
                let hex = &rest[..rest.char_indices().nth(4).map_or(rest.len(), |(i, _)| i)];
                self.pos += hex.len();
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| malformed(format!("bad \\u escape `{hex}`")))?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                return Ok(());
            }
            _ => return Err(malformed(format!("bad escape {:?}", self.char_here()))),
        };
        self.pos += 1;
        out.push(short);
        Ok(())
    }

    /// Advances past the bytes `accept` takes and returns them.
    fn take(&mut self, accept: fn(&u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.text.as_bytes().get(self.pos).is_some_and(accept) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    fn value(&mut self) -> Result<Json<'a>, ParseIssue> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't' | b'f' | b'n') => match self.take(u8::is_ascii_alphabetic) {
                "true" => Ok(Json::Bool(true)),
                "false" => Ok(Json::Bool(false)),
                "null" => Ok(Json::Null),
                other => Err(malformed(format!("unknown literal `{other}`"))),
            },
            Some(b'-' | b'0'..=b'9') => {
                let num = self.take(|b| *b == b'-' || b.is_ascii_digit());
                int(num).map(Json::Int).ok_or_else(|| malformed(format!("bad number `{num}`")))
            }
            _ => Err(malformed(format!("unexpected value start {:?}", self.char_here()))),
        }
    }
}

/// Reads `-?[0-9]+` as an integer in `i64::MIN..=u64::MAX`.
fn int(num: &str) -> Option<i128> {
    let (negative, digits) = match num.strip_prefix('-') {
        Some(digits) => (true, digits),
        None => (false, num),
    };
    let magnitude = i128::from(digits.parse::<u64>().ok()?);
    match negative {
        false => Some(magnitude),
        true if magnitude <= 1 << 63 => Some(-magnitude),
        true => None,
    }
}

// ---------------------------------------------------------------------
// Typed fields
// ---------------------------------------------------------------------

/// One field type of the flat-JSON grammar: how a value is written into
/// a [`JsonLine`] and read back out of a parsed object.
pub(crate) trait Field: Sized {
    /// Appends the value's JSON text.
    fn write(&self, out: &mut String);

    /// Decodes the present value of field `key`.
    fn read(value: &Json<'_>, key: &str) -> Result<Self, ParseIssue>;

    /// The value of an absent field; required fields are malformed.
    fn absent(key: &str) -> Result<Self, ParseIssue> {
        Err(malformed(format!("missing field `{key}`")))
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        push_escaped(out, self);
    }

    fn read(value: &Json<'_>, key: &str) -> Result<Self, ParseIssue> {
        match value {
            Json::Str(s) => Ok(s.as_ref().to_owned()),
            _ => Err(malformed(format!("field `{key}` is not a string"))),
        }
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(value: &Json<'_>, key: &str) -> Result<Self, ParseIssue> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(malformed(format!("field `{key}` is not a bool"))),
        }
    }
}

macro_rules! int_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                push_int(out, *self as i128);
            }

            fn read(value: &Json<'_>, key: &str) -> Result<Self, ParseIssue> {
                match value {
                    Json::Int(n) => <$ty>::try_from(*n).map_err(|_| {
                        let why = if *n < 0 { "negative" } else { "out of range" };
                        malformed(format!("field `{key}` is {why}"))
                    }),
                    _ => Err(malformed(format!("field `{key}` is not a number"))),
                }
            }
        }
    )*};
}

int_field!(u64, u32, usize, i64);

/// `null` or absent reads as `None`.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(value: &Json<'_>, key: &str) -> Result<Self, ParseIssue> {
        match value {
            Json::Null => Ok(None),
            v => T::read(v, key).map(Some),
        }
    }

    fn absent(_key: &str) -> Result<Self, ParseIssue> {
        Ok(None)
    }
}

/// Reads field `key` of a parsed flat object.
pub(crate) fn get<T: Field>(obj: &FlatObject<'_>, key: &str) -> Result<T, ParseIssue> {
    match obj.value(key) {
        Some(v) => T::read(v, key),
        None => T::absent(key),
    }
}

/// Reads an optional field: absent or `null` yields `default`.
pub(crate) fn get_or<T: Field>(
    obj: &FlatObject<'_>,
    key: &str,
    default: T,
) -> Result<T, ParseIssue> {
    match obj.value(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => T::read(v, key),
    }
}

#[cfg(test)]
mod tests;

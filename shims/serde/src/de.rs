//! Deserialization support (`serde::de` in the real crate): the error type
//! and the pull [`Reader`] every [`Deserialize`] impl reads from.

use crate::{Deserialize, Number};
use std::borrow::Cow;
use std::fmt;

/// Marker for types deserializable without borrowing from the input.
///
/// The shim's [`Deserialize`] never borrows, so every deserializable type
/// qualifies.
pub trait DeserializeOwned: Deserialize {}
impl<T: Deserialize> DeserializeOwned for T {}

/// A deserialization (or serialization) error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }

    /// A required struct field was absent.
    pub fn missing_field(field: &str) -> Self {
        Error {
            msg: format!("missing field `{field}`"),
        }
    }

    /// An enum tag did not match any variant.
    pub fn unknown_variant(variant: &str, ty: &str) -> Self {
        Error {
            msg: format!("unknown variant `{variant}` for enum `{ty}`"),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Decode one complete JSON document; anything but whitespace after it is
/// an error.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let value = T::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Arrays and objects may nest this deep; one level more is an [`Error`].
/// Decoders recurse once per level, so the bound is what keeps hostile
/// input (`[[[[…`) from overflowing the stack.
pub const MAX_DEPTH: u32 = 128;

/// A pull parser over borrowed JSON text.
///
/// Typed decoders ask for the token they expect (`str`, `number`,
/// `begin_object` …) and get an [`Error`] if the input holds something
/// else; members they do not know go through [`Reader::skip_value`], which
/// still checks their syntax. Every byte of a document is therefore
/// validated exactly once, by whichever call consumed it.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: u32,
}

impl<'a> Reader<'a> {
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// An error that says where in the input it happened.
    fn error(&self, msg: impl fmt::Display) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    /// The next byte that is not whitespace, without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    /// Succeeds only if nothing but whitespace is left.
    pub fn finish(mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// The error for "the next value is not a `what`".
    pub fn invalid_type(&mut self, what: &str) -> Error {
        let found = match self.peek() {
            None => return Error::custom("unexpected end of input"),
            Some(b'n') => "null",
            Some(b't' | b'f') => "a boolean",
            Some(b'-' | b'0'..=b'9') => "a number",
            Some(b'"') => "a string",
            Some(b'[') => "an array",
            Some(b'{') => "an object",
            Some(b) => return self.error(format_args!("unexpected character `{}`", b as char)),
        };
        self.error(format_args!("invalid type: expected {what}, found {found}"))
    }

    #[inline]
    fn eat(&mut self, token: &str) -> bool {
        let hit = self.src.as_bytes()[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{}`", b as char)))
        }
    }

    /// Consume a `null` if that is the next value.
    #[inline]
    pub fn eat_null(&mut self) -> bool {
        self.peek() == Some(b'n') && self.eat("null")
    }

    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') if self.eat("true") => Ok(true),
            Some(b'f') if self.eat("false") => Ok(false),
            _ => Err(self.invalid_type("bool")),
        }
    }

    /// A number token. Integers that fit come back as `U`/`I`; everything
    /// else (fractions, exponents, out-of-range integers) as `F`.
    pub fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.invalid_type("number"));
        }
        let bytes = self.src.as_bytes();
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::I(i));
            }
        }
        text.parse::<f64>()
            .map(Number::F)
            .map_err(|e| Error::custom(format!("bad number `{text}`: {e}")))
    }

    /// A string token, borrowed from the input unless it holds escapes.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.invalid_type("string"));
        }
        self.pos += 1;
        // Most strings contain no escapes: find the closing quote and hand
        // out the span. `"` and `\` are ASCII, so every index sliced at
        // below sits on a character boundary.
        let start = self.pos;
        if self.scan_to_quote_or_escape()? == b'"' {
            let span = &self.src[start..self.pos];
            self.pos += 1;
            return Ok(Cow::Borrowed(span));
        }
        let mut out = self.src[start..self.pos].to_owned();
        loop {
            self.pos += 1;
            out.push(self.escape()?);
            let span_start = self.pos;
            let stop = self.scan_to_quote_or_escape()?;
            out.push_str(&self.src[span_start..self.pos]);
            if stop == b'"' {
                self.pos += 1;
                return Ok(Cow::Owned(out));
            }
        }
    }

    /// Advance to the next `"` or `\` inside a string and return it.
    #[inline]
    fn scan_to_quote_or_escape(&mut self) -> Result<u8, Error> {
        let rest = &self.src.as_bytes()[self.pos..];
        let n = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| Error::custom("unterminated string"))?;
        self.pos += n;
        Ok(rest[n])
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.src.as_bytes().get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            other => {
                return Err(self.error(format_args!("bad escape {:?}", other.map(|&b| b as char))))
            }
        };
        self.pos += 1;
        Ok(c)
    }

    /// The `XXXX` after `\u`, and the low half if it is a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            if self.eat("\\u") {
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(cp).ok_or_else(|| Error::custom("bad surrogate pair"));
                }
            }
            return Err(Error::custom("lone surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| Error::custom("lone surrogate in \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .src
                .as_bytes()
                .get(self.pos)
                .and_then(|&b| (b as char).to_digit(16))
                .ok_or_else(|| Error::custom("bad \\u escape: expected four hex digits"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    #[inline]
    fn open(&mut self, bracket: u8, close: u8, what: &str) -> Result<bool, Error> {
        if self.peek() != Some(bracket) {
            return Err(self.invalid_type(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(!self.close_if(close))
    }

    #[inline]
    fn close_if(&mut self, close: u8) -> bool {
        let hit = self.peek() == Some(close);
        if hit {
            self.pos += 1;
            self.depth -= 1;
        }
        hit
    }

    /// After one element or member: a `,` means another follows.
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        if self.peek() == Some(b',') {
            self.pos += 1;
            Ok(true)
        } else if self.close_if(close) {
            Ok(false)
        } else {
            Err(self.error(format_args!("expected `,` or `{}`", close as char)))
        }
    }

    /// Enter an array; `true` if it has a first element to read.
    ///
    /// ```
    /// use serde::{de::Reader, Deserialize};
    /// let mut r = Reader::new("[1, 2]");
    /// let mut items = Vec::new();
    /// let mut more = r.begin_array()?;
    /// while more {
    ///     items.push(u8::read_json(&mut r)?);
    ///     more = r.next_element()?;
    /// }
    /// assert_eq!(items, [1, 2]);
    /// # Ok::<(), serde::de::Error>(())
    /// ```
    #[inline]
    pub fn begin_array(&mut self) -> Result<bool, Error> {
        self.open(b'[', b']', "array")
    }

    /// After an element: `true` if another follows, `false` once the
    /// array is closed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.more(b']')
    }

    /// One element of a fixed-arity array; `more` is what `begin_array` or
    /// the previous `element` left.
    pub fn element<T: Deserialize>(&mut self, more: &mut bool) -> Result<T, Error> {
        if !*more {
            return Err(self.error("too few elements in array ending"));
        }
        let value = T::read_json(self)?;
        *more = self.next_element()?;
        Ok(value)
    }

    /// After the last `element` of a fixed-arity array.
    pub fn end_array(&mut self, more: bool) -> Result<(), Error> {
        if more {
            return Err(self.error("too many elements in array"));
        }
        Ok(())
    }

    /// Enter an object; its first key (with the `:` consumed, so the value
    /// is next), or `None` if it is empty.
    ///
    /// ```
    /// use serde::{de::Reader, Deserialize};
    /// let mut r = Reader::new(r#"{"other": [1], "id": "x"}"#);
    /// let mut id = None;
    /// let mut key = r.begin_object()?;
    /// while let Some(k) = key {
    ///     match &*k {
    ///         "id" => id = Some(String::read_json(&mut r)?),
    ///         _ => r.skip_value()?,
    ///     }
    ///     key = r.next_key()?;
    /// }
    /// assert_eq!(id.as_deref(), Some("x"));
    /// # Ok::<(), serde::de::Error>(())
    /// ```
    #[inline]
    pub fn begin_object(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if self.open(b'{', b'}', "object")? {
            self.key().map(Some)
        } else {
            Ok(None)
        }
    }

    /// After a member's value: the next key, or `None` once the object is
    /// closed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if self.more(b'}')? {
            self.key().map(Some)
        } else {
            Ok(None)
        }
    }

    /// After the value of an object that may hold only one member.
    pub fn end_object(&mut self) -> Result<(), Error> {
        if self.more(b'}')? {
            return Err(self.error("expected `}`"));
        }
        Ok(())
    }

    #[inline]
    fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        let key = self.str()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Consume one value of any type, checking its syntax.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.str().map(drop),
            Some(b'[') => {
                let mut more = self.begin_array()?;
                while more {
                    self.skip_value()?;
                    more = self.next_element()?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut key = self.begin_object()?;
                while key.is_some() {
                    self.skip_value()?;
                    key = self.next_key()?;
                }
                Ok(())
            }
            Some(b'n') if self.eat("null") => Ok(()),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.invalid_type("a value")),
        }
    }
}

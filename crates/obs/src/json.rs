//! The workspace's one JSON reader.
//!
//! [`parse`] accepts exactly the grammar the workspace's renderers write:
//! objects, arrays, strings, integers (exact up to `u128`), negative and
//! fractional numbers, `true`, `false` and `null`. Duplicate keys,
//! trailing data, exponents, leading zeros, raw control characters and
//! nesting deeper than [`MAX_DEPTH`] are typed errors. Callers read the
//! tree through [`Node`], whose accessors name the field path in errors.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest nesting [`parse`] accepts (the renderers nest four levels); the
/// cap keeps hostile input from exhausting the recursive parser's stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An object; keys are unique.
    Object(BTreeMap<String, Value>),
    /// An array.
    Array(Vec<Value>),
    /// A string, unescaped.
    Str(String),
    /// A non-negative integer, exact.
    Uint(u128),
    /// Any other number: negative or fractional.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The value as the root of a document, for [`Node`]'s accessors.
    pub fn root(&self) -> Node<'_> {
        Node { value: self, path: String::new() }
    }
}

/// Why a document could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The text is not JSON the renderers write (a duplicate key included).
    Syntax {
        /// Byte offset of the offending input.
        offset: usize,
        /// What was expected or found there.
        reason: &'static str,
    },
    /// Objects and arrays nest deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that went one level too deep.
        offset: usize,
    },
    /// The document parsed but a field is missing or mistyped.
    Schema {
        /// Path of the field from the root, e.g. `cells[3].wall_us`.
        path: String,
        /// What is wrong with it.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { offset, reason } => write!(f, "{reason} at byte {offset}"),
            Error::TooDeep { offset } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {offset}")
            }
            Error::Schema { path, reason } if path.is_empty() => write!(f, "document: {reason}"),
            Error::Schema { path, reason } => write!(f, "`{path}`: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

/// A value inside a parsed document and its path from the root.
#[derive(Debug, Clone)]
pub struct Node<'a> {
    value: &'a Value,
    path: String,
}

impl<'a> Node<'a> {
    /// A schema error at this node's path.
    pub fn error(&self, reason: impl Into<String>) -> Error {
        Error::Schema { path: self.path.clone(), reason: reason.into() }
    }

    /// The field `key` of this object.
    pub fn get(&self, key: &str) -> Result<Node<'a>, Error> {
        let Value::Object(fields) = self.value else {
            return Err(self.error("not an object"));
        };
        let path =
            if self.path.is_empty() { key.to_string() } else { format!("{}.{key}", self.path) };
        match fields.get(key) {
            Some(value) => Ok(Node { value, path }),
            None => Err(Error::Schema { path, reason: "missing".to_string() }),
        }
    }

    /// The elements of this array.
    pub fn items(&self) -> Result<Vec<Node<'a>>, Error> {
        let Value::Array(items) = self.value else {
            return Err(self.error("not an array"));
        };
        let node = |(i, value)| Node { value, path: format!("{}[{i}]", self.path) };
        Ok(items.iter().enumerate().map(node).collect())
    }

    /// This string.
    pub fn str(&self) -> Result<&'a str, Error> {
        match self.value {
            Value::Str(s) => Ok(s),
            _ => Err(self.error("not a string")),
        }
    }

    /// This non-negative integer, converted to `T`.
    pub fn int<T: TryFrom<u128>>(&self) -> Result<T, Error> {
        match self.value {
            Value::Uint(n) => T::try_from(*n).map_err(|_| self.error("integer out of range")),
            _ => Err(self.error("not a non-negative integer")),
        }
    }

    /// This number, integer or not.
    pub fn f64(&self) -> Result<f64, Error> {
        match self.value {
            Value::Uint(n) => Ok(*n as f64),
            Value::Num(x) => Ok(*x),
            _ => Err(self.error("not a number")),
        }
    }

    /// This boolean.
    pub fn bool(&self) -> Result<bool, Error> {
        match self.value {
            Value::Bool(b) => Ok(*b),
            _ => Err(self.error("not a boolean")),
        }
    }
}

/// Parses one complete JSON document; never panics.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing data after the document"));
    }
    Ok(value)
}

/// [`parse`]s a document whose root object carries `"schema": <schema>`.
pub fn parse_tagged(text: &str, schema: &str) -> Result<Value, Error> {
    let doc = parse(text)?;
    let marker = doc.root().get("schema")?;
    match marker.str()? {
        found if found == schema => Ok(doc),
        found => Err(marker.error(format!("is `{found}`, expected `{schema}`"))),
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> Error {
        Error::Syntax { offset: self.pos, reason }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.literal("true") => Ok(Value::Bool(true)),
            _ if self.literal("false") => Ok(Value::Bool(false)),
            _ if self.literal("null") => Ok(Value::Null),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        let found = self.bytes[self.pos..].starts_with(word.as_bytes());
        self.pos += if found { word.len() } else { 0 };
        found
    }

    /// Parses an object or array one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::TooDeep { offset: self.pos });
        }
        self.depth += 1;
        self.pos += 1; // the opening bracket
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// Parses comma-separated elements up to the `close` bracket.
    fn elements(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or a closing bracket"));
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        let mut fields = BTreeMap::new();
        self.elements(b'}', |p| {
            p.skip_ws();
            if p.peek() != Some(b'"') {
                return Err(p.error("expected a string key"));
            }
            let key = p.string()?;
            if fields.contains_key(&key) {
                return Err(p.error("duplicate key"));
            }
            p.skip_ws();
            if !p.eat(b':') {
                return Err(p.error("expected `:`"));
            }
            fields.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Value::Object(fields))
    }

    fn array(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        self.elements(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    /// Parses a string literal; `self.pos` is at its opening quote.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let ch = (self.text.get(self.pos + 1..self.pos + 5))
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?))
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            ch
                        }
                        _ => return Err(self.error("bad escape")),
                    });
                    self.pos += 1;
                }
                Some(0..=0x1f) => return Err(self.error("raw control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte. All are ASCII, so the run starts and
                    // ends on char boundaries of the `&str` input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f))
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?` — the shapes `{}` and `{:.N}` write.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[self.pos - int_digits] == b'0') {
            return Err(self.error("expected digits without a leading zero"));
        }
        let fractional = self.eat(b'.');
        if fractional && self.digits() == 0 {
            return Err(self.error("expected a digit after `.`"));
        }
        let literal = &self.text[start..self.pos];
        if negative || fractional {
            literal.parse().map(Value::Num).map_err(|_| self.error("unreadable number"))
        } else {
            literal.parse().map(Value::Uint).map_err(|_| self.error("integer overflows u128"))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syntax_error(text: &str) -> bool {
        matches!(parse(text), Err(Error::Syntax { .. }))
    }

    #[test]
    fn parses_every_shape_the_renderers_write() {
        let doc = parse(
            r#" {"s": "a\"b\\c\n\t\r\u0001\/→😀", "n": 340282366920938463463374607431768211455,
                "f": 12.5, "neg": -3, "negf": -0.125, "t": true, "no": false, "z": null,
                "a": [], "o": {}, "nested": [[1], {"k": [2]}]} "#,
        )
        .expect("valid document");
        let root = doc.root();
        assert_eq!(root.get("s").unwrap().str().unwrap(), "a\"b\\c\n\t\r\u{1}/→😀");
        assert_eq!(root.get("n").unwrap().int::<u128>().unwrap(), u128::MAX);
        assert_eq!(root.get("f").unwrap().f64().unwrap(), 12.5);
        assert_eq!(root.get("neg").unwrap().f64().unwrap(), -3.0);
        assert_eq!(root.get("negf").unwrap().f64().unwrap(), -0.125);
        assert!(root.get("t").unwrap().bool().unwrap());
        assert!(!root.get("no").unwrap().bool().unwrap());
        assert!(root.get("z").unwrap().str().is_err());
        assert!(root.get("a").unwrap().items().unwrap().is_empty());
        assert_eq!(parse(" null "), Ok(Value::Null));
        assert_eq!(parse("{}"), Ok(Value::Object(BTreeMap::new())));
        let inner = &root.get("nested").unwrap().items().unwrap()[1];
        assert_eq!(inner.get("k").unwrap().items().unwrap()[0].int::<u64>().unwrap(), 2);
    }

    #[test]
    fn strings_may_hold_brackets_and_escaped_quotes() {
        assert!(parse("{\"a\": \"}{][\"}").is_ok());
        assert!(parse("{\"a\": \"\\\"}\"}").is_ok());
        assert!(parse("{\"a\": \"trailing\\\\\"}").is_ok());
        assert!(syntax_error("{]"));
        assert!(syntax_error("{\"a"));
    }

    #[test]
    fn refuses_what_the_renderers_never_write() {
        for text in [
            "",
            "   ",
            "{} {}",
            "{},",
            "{\"a\": 1,}",
            "[1,]",
            "[,1]",
            "{\"a\" 1}",
            "{a: 1}",
            "{\"a\": 01}",
            "{\"a\": 1e5}",
            "{\"a\": 1.}",
            "{\"a\": .5}",
            "{\"a\": -}",
            "{\"a\": +1}",
            "{\"a\": NaN}",
            "{\"a\": inf}",
            "{\"a\": tru}",
            "{\"a\": \"tab\there\"}",
            "{\"a\": \"\\x\"}",
            "{\"a\": \"\\u12\"}",
            "{\"a\": \"\\u+123\"}",
            "{\"a\": \"\\ud800\"}",
            "{\"a\": 1 2}",
            "[1 2]",
            "{\"a\": 340282366920938463463374607431768211456}",
            "{\"a\": ,,, 12 garbage :::}",
        ] {
            assert!(parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_typed_errors() {
        assert_eq!(
            parse("{\"a\": 1, \"b\": 2, \"a\": 3}"),
            Err(Error::Syntax { offset: 20, reason: "duplicate key" })
        );
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deep), Err(Error::TooDeep { offset: MAX_DEPTH }));
    }

    #[test]
    fn accessor_errors_name_the_field_path() {
        let doc = parse(r#"{"cells": [{"id": "a", "wall_us": 1}, {"id": "b", "wall_us": "x"}]}"#)
            .unwrap();
        let cells = doc.root().get("cells").unwrap().items().unwrap();
        let err = cells[1].get("wall_us").unwrap().int::<u64>().unwrap_err();
        assert_eq!(err.to_string(), "`cells[1].wall_us`: not a non-negative integer");
        let err = cells[0].get("events").unwrap_err();
        assert_eq!(err.to_string(), "`cells[0].events`: missing");
        assert_eq!(doc.root().items().unwrap_err().to_string(), "document: not an array");
        let big = parse("{\"n\": 18446744073709551616}").unwrap();
        assert_eq!(
            big.root().get("n").unwrap().int::<u64>().unwrap_err().to_string(),
            "`n`: integer out of range"
        );
        let err = parse_tagged("{\"schema\": \"x/v0\"}", "x/v1").unwrap_err();
        assert_eq!(err.to_string(), "`schema`: is `x/v0`, expected `x/v1`");
    }
}

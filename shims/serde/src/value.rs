//! The dynamic JSON tree: what callers use when the shape of a document is
//! not known at compile time. Typed encoding and decoding never build one.

use crate::de::{Error, Reader};
use crate::{ser, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// A JSON number: unsigned, signed, or floating.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(n) => n as f64,
            Number::I(n) => n as f64,
            Number::F(n) => n,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(n) => Some(n),
            Number::I(n) => u64::try_from(n).ok(),
            Number::F(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Some(n as u64),
            Number::F(_) => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(n) => i64::try_from(n).ok(),
            Number::I(n) => Some(n),
            Number::F(n) if n.fract() == 0.0 && n >= i64::MIN as f64 && n <= i64::MAX as f64 => {
                Some(n as i64)
            }
            Number::F(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::U(a), Number::U(b)) => a == b,
            (Number::I(a), Number::I(b)) => a == b,
            // Cross-variant comparison is numeric, so a round-trip that
            // changes 2.0 into the integer 2 still compares equal.
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

/// A JSON value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }
}

impl Serialize for Number {
    fn write_json(&self, out: &mut String) {
        match *self {
            Number::U(n) => ser::write_u64(out, n),
            Number::I(n) => ser::write_i64(out, n),
            Number::F(n) => ser::write_f64(out, n),
        }
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(n) => n.write_json(out),
            Value::String(s) => ser::write_str(out, s),
            Value::Array(a) => ser::write_seq(out, a),
            // The map is already in sorted key order.
            Value::Object(m) => m.write_json(out),
        }
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.peek() {
            Some(b'"') => String::read_json(r).map(Value::String),
            Some(b'[') => Vec::read_json(r).map(Value::Array),
            Some(b'{') => BTreeMap::read_json(r).map(Value::Object),
            Some(b't' | b'f') => r.bool().map(Value::Bool),
            Some(b'-' | b'0'..=b'9') => r.number().map(Value::Number),
            _ if r.eat_null() => Ok(Value::Null),
            _ => Err(r.invalid_type("a value")),
        }
    }

    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

static NULL: Value = Value::Null;

impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Compact JSON, matching `serde_json::to_string` formatting.
fn display_json(value: &impl Serialize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut s = String::new();
    value.write_json(&mut s);
    f.write_str(&s)
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_json(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        display_json(self, f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(Number::U(n))
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        if n >= 0 {
            Value::Number(Number::U(n as u64))
        } else {
            Value::Number(Number::I(n))
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(Number::F(n))
    }
}

//! Serialization support: the JSON text writers every [`Serialize`] impl
//! bottoms out in.
//!
//! There is exactly one writer per JSON token kind, shared by the typed
//! impls, the derive output and [`Value`](crate::Value)'s own impl, so the
//! typed path and the dynamic path cannot disagree on a byte.

use crate::Serialize;
use std::fmt::{self, Write as _};

/// Append `s` as a JSON string literal (quoted and escaped).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append the JSON-escaped body of `s` (no quotes), copying escape-free
/// spans in bulk; returns whether `s` needed no escaping at all. Only `"`,
/// `\` and control bytes need escaping, and all are ASCII, so a byte scan
/// never splits a multi-byte UTF-8 sequence.
fn escape_into(out: &mut String, s: &str) -> bool {
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b == b'"' || b == b'\\' || b < 0x20 {
            out.push_str(&s[start..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                0x08 => out.push_str("\\b"),
                0x0c => out.push_str("\\f"),
                _ => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            start = i + 1;
        }
    }
    out.push_str(&s[start..]);
    start == 0
}

/// Append an unsigned integer in decimal, as `Display` prints it.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

/// Append a signed integer in decimal, as `Display` prints it.
pub fn write_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    write_u64(out, n.unsigned_abs());
}

/// Append a float as `Display` prints it (shortest text that parses back
/// to the same value). JSON has no NaN/Infinity; like serde_json, those
/// become `null`.
pub fn write_f64(out: &mut String, n: f64) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Append `items` as a JSON array.
pub fn write_seq<'a, T: Serialize + 'a>(out: &mut String, items: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Append a JSON object whose members are only known at run time: sorts
/// `fields` by name, then writes them. The hand-written counterpart of what
/// `#[derive(Serialize)]` does at expansion time, for impls that leave
/// members out conditionally. Names must be distinct.
pub fn write_fields(out: &mut String, fields: &mut [(&str, &dyn Serialize)]) {
    fields.sort_unstable_by_key(|(name, _)| *name);
    out.push('{');
    for (i, (name, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, name);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

/// Escapes whatever a `Display` impl writes straight into the output.
struct Escaper<'a> {
    out: &'a mut String,
    clean: bool,
}

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.clean &= escape_into(self.out, s);
        Ok(())
    }
}

/// Append a map as a JSON object with keys (through `Display`) in sorted
/// string order, the later of two equal keys winning — the order and the
/// collapse a `BTreeMap<String, _>` of the entries would give.
///
/// A `BTreeMap` with string keys already iterates in that order, so the
/// first pass writes entries as they come, with no allocation, and only
/// checks that each escape-free key is strictly greater than the one
/// before. Anything else (integer keys, hash maps, keys needing escapes,
/// whose escaped bytes no longer compare like the raw ones) restarts on the
/// collect-and-sort path.
pub fn write_map<'a, K, V, I>(out: &mut String, entries: I)
where
    K: fmt::Display + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)> + Clone,
{
    let start = out.len();
    out.push('{');
    let mut prev: Option<std::ops::Range<usize>> = None;
    let mut in_order = true;
    for (k, v) in entries.clone() {
        if prev.is_some() {
            out.push(',');
        }
        out.push('"');
        let key_start = out.len();
        let mut esc = Escaper { out, clean: true };
        let _ = write!(esc, "{k}");
        let clean = esc.clean;
        let key = key_start..out.len();
        if !clean || prev.is_some_and(|p| out[p] >= out[key.clone()]) {
            in_order = false;
            break;
        }
        prev = Some(key);
        out.push_str("\":");
        v.write_json(out);
    }
    if in_order {
        out.push('}');
        return;
    }

    out.truncate(start);
    let mut all: Vec<(String, &V)> = entries.map(|(k, v)| (k.to_string(), v)).collect();
    all.sort_by(|a, b| a.0.cmp(&b.0)); // stable: equal keys stay in iteration order
    out.push('{');
    let mut wrote = false;
    for (i, (k, v)) in all.iter().enumerate() {
        if all.get(i + 1).is_some_and(|next| next.0 == *k) {
            continue;
        }
        if wrote {
            out.push(',');
        }
        wrote = true;
        write_str(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

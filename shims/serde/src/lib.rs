//! Offline shim for `serde`.
//!
//! The build environment has no crates.io access, so the workspace vendors a
//! minimal serde replacement. Instead of upstream's visitor-based data model,
//! this shim speaks one format, compact JSON text, and streams it:
//! [`Serialize`] appends a value's JSON to a `String`, [`Deserialize`] pulls
//! a value out of a borrowed [`de::Reader`]. No intermediate tree is built in
//! either direction. [`Value`] is the dynamic-JSON type for callers that do
//! want a tree; it implements the two traits like any other type.
//!
//! Objects are always written with their keys in sorted order (structs at
//! derive time, maps at run time), which is what a `BTreeMap`-backed tree
//! would print — so typed output, `Value` output and a parse/print round
//! trip through `Value` all agree byte for byte.
//!
//! The `derive` feature re-exports a hand-rolled proc-macro (see
//! `serde_derive`) that mirrors upstream's externally-tagged representation
//! for the container shapes and `#[serde(...)]` attributes this workspace
//! actually uses.

#![forbid(unsafe_code)]

pub mod de;
pub mod ser;
pub mod value;

pub use ser::write_str as write_json_str;
pub use value::{Number, Value};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use de::{Error, Reader};
use std::collections::{BTreeMap, HashMap};

/// Append `self` as compact JSON.
pub trait Serialize {
    fn write_json(&self, out: &mut String);

    /// `self` as a JSON tree: what parsing its text gives.
    fn to_value(&self) -> Value {
        let mut text = String::new();
        self.write_json(&mut text);
        de::from_str(&text).expect("Serialize impls write valid JSON")
    }
}

/// Read `Self` from JSON.
pub trait Deserialize: Sized {
    /// Consume exactly one value from `r`.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error>;

    /// `Self` out of a JSON tree: what decoding the tree's text gives.
    fn from_value(v: &Value) -> Result<Self, Error> {
        de::from_str(&v.to_string())
    }
}

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                ser::write_u64(out, *self as u64);
            }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
                // A float token (`1e3`, `2.0`, or an integer past `u64::MAX`)
                // is refused, not rounded into range.
                let n = r.number()?;
                match n {
                    Number::F(_) => None,
                    _ => n.as_u64().and_then(|u| <$t>::try_from(u).ok()),
                }
                .ok_or_else(|| Error::custom(format!("{n} is not a {}", stringify!($t))))
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                ser::write_i64(out, *self as i64);
            }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = r.number()?;
                match n {
                    Number::F(_) => None,
                    _ => n.as_i64().and_then(|i| <$t>::try_from(i).ok()),
                }
                .ok_or_else(|| Error::custom(format!("{n} is not an {}", stringify!($t))))
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for u128 {
    fn write_json(&self, out: &mut String) {
        // Wire types keep u128 within u64 range; saturate defensively.
        ser::write_u64(out, u64::try_from(*self).unwrap_or(u64::MAX));
    }
}

impl Deserialize for u128 {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        u64::read_json(r).map(u128::from)
    }
}

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        ser::write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.number().map(|n| n.as_f64())
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        ser::write_f64(out, *self as f64);
    }
}

impl Deserialize for f32 {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(f64::read_json(r)? as f32)
    }
}

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        ser::write_str(out, self);
    }
}

impl Deserialize for String {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.str().map(|s| s.into_owned())
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        ser::write_str(out, self);
    }
}

impl Deserialize for &'static str {
    /// `&'static str` fields only appear in constant datasets that are
    /// serialized for reporting; deserializing one leaks the string, which
    /// is acceptable for those rare, small cases.
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(Box::leak(String::read_json(r)?.into_boxed_str()))
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        ser::write_str(out, self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = r.str()?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom(format!(
                "expected a single-char string, found {s:?}"
            ))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::read_json(r).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::read_json(r).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(x) => x.write_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.eat_null() {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        ser::write_seq(out, self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        ser::write_seq(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        ser::write_seq(out, self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        let mut more = r.begin_array()?;
        while more {
            items.push(T::read_json(r)?);
            more = r.next_element()?;
        }
        Ok(items)
    }
}

macro_rules! ser_tuple {
    ($(($($t:ident : $idx:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, out: &mut String) {
                ser::write_seq(out, &[$(&self.$idx as &dyn Serialize),+]);
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
                let mut more = r.begin_array()?;
                let tuple = ($(r.element::<$t>(&mut more)?,)+);
                r.end_array(more)?;
                Ok(tuple)
            }
        }
    )*};
}
ser_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

/// Shared body of the map decoders: members in document order, so a
/// repeated key's last value is the one a map keeps.
fn read_members<K: std::str::FromStr, V: Deserialize>(
    r: &mut Reader<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    let mut key = r.begin_object()?;
    while let Some(k) = key {
        let parsed = k
            .parse()
            .map_err(|_| Error::custom(format!("bad key `{k}`")))?;
        insert(parsed, V::read_json(r)?);
        key = r.next_key()?;
    }
    Ok(())
}

// Map keys serialize through `Display` and deserialize through `FromStr`,
// which covers `String`, `&String`/`&str`, and integer keys alike (JSON
// object keys are always strings).
impl<K: std::fmt::Display, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        ser::write_map(out, self.iter());
    }
}

impl<K: std::str::FromStr + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        read_members(r, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

impl<K: std::fmt::Display, V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<K, V, S> {
    fn write_json(&self, out: &mut String) {
        ser::write_map(out, self.iter());
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: std::str::FromStr + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn read_json(r: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = HashMap::default();
        read_members(r, |k, v| {
            map.insert(k, v);
        })?;
        Ok(map)
    }
}

//! Offline shim for `serde_json`.
//!
//! The entry points over the `serde` shim's streaming traits: `to_vec` /
//! `to_string` write a value's JSON straight into a buffer, `from_slice` /
//! `from_str` decode straight out of the text (no intermediate tree in
//! either direction). [`Value`] and the `json!` macro (object and array
//! literals whose values are plain expressions or nested `json!` forms) are
//! the dynamic-JSON surface for callers that want a tree.

#![forbid(unsafe_code)]
// The `json!` TT-muncher necessarily builds arrays by pushing into a fresh
// Vec; the lint would fire at every expansion site.
#![allow(clippy::vec_init_then_push)]

pub use serde::de::Error;
pub use serde::{write_json_str, Number, Value};

use serde::de::DeserializeOwned;
use serde::Serialize;

/// Serialize a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    // Most wire bodies fit; starting here skips the first few regrowths.
    let mut out = String::with_capacity(128);
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize a value to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Deserialize a value from a JSON string.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T, Error> {
    serde::de::from_str(s)
}

/// Deserialize a value from JSON bytes.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::custom(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Build a [`Value`] from a JSON-ish literal.
///
/// Supports `null`, array literals, object literals with string keys, nested
/// `{...}` / `[...]` forms, and arbitrary serializable expressions in value
/// position.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elems:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut __a: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::json_array_munch!(__a; $($elems)*);
        $crate::Value::Array(__a)
    }};
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut __m = ::std::collections::BTreeMap::new();
        $crate::json_object_munch!(__m; $($body)*);
        $crate::Value::Object(__m)
    }};
    ($other:expr) => { $crate::value_of(&$other) };
}

/// Internal TT-muncher: object body of [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_object_munch {
    ($m:ident;) => {};
    ($m:ident; , $($rest:tt)*) => { $crate::json_object_munch!($m; $($rest)*); };
    ($m:ident; $key:literal : null $($rest:tt)*) => {
        $m.insert($key.to_string(), $crate::Value::Null);
        $crate::json_object_munch!($m; $($rest)*);
    };
    ($m:ident; $key:literal : { $($inner:tt)* } $($rest:tt)*) => {
        $m.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_object_munch!($m; $($rest)*);
    };
    ($m:ident; $key:literal : [ $($inner:tt)* ] $($rest:tt)*) => {
        $m.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_object_munch!($m; $($rest)*);
    };
    ($m:ident; $key:literal : $val:expr , $($rest:tt)*) => {
        $m.insert($key.to_string(), $crate::value_of(&$val));
        $crate::json_object_munch!($m; $($rest)*);
    };
    ($m:ident; $key:literal : $val:expr) => {
        $m.insert($key.to_string(), $crate::value_of(&$val));
    };
}

/// Internal TT-muncher: array body of [`json!`].
#[doc(hidden)]
#[macro_export]
macro_rules! json_array_munch {
    ($a:ident;) => {};
    ($a:ident; , $($rest:tt)*) => { $crate::json_array_munch!($a; $($rest)*); };
    ($a:ident; null $($rest:tt)*) => {
        $a.push($crate::Value::Null);
        $crate::json_array_munch!($a; $($rest)*);
    };
    ($a:ident; { $($inner:tt)* } $($rest:tt)*) => {
        $a.push($crate::json!({ $($inner)* }));
        $crate::json_array_munch!($a; $($rest)*);
    };
    ($a:ident; [ $($inner:tt)* ] $($rest:tt)*) => {
        $a.push($crate::json!([ $($inner)* ]));
        $crate::json_array_munch!($a; $($rest)*);
    };
    ($a:ident; $val:expr , $($rest:tt)*) => {
        $a.push($crate::value_of(&$val));
        $crate::json_array_munch!($a; $($rest)*);
    };
    ($a:ident; $val:expr) => {
        $a.push($crate::value_of(&$val));
    };
}

/// Helper for `json!`: lower any serializable expression to a [`Value`].
#[doc(hidden)]
pub fn value_of<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v: Value = from_str(text).unwrap();
            assert_eq!(v.to_string(), text, "round-trip of {text}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v: Value = from_str(r#"{"a": [1, 2.5, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert_eq!(v["a"][2].as_str(), Some("x"));
        assert!(v["b"]["c"].is_null());
        assert_eq!(v.to_string(), r#"{"a":[1,2.5,"x"],"b":{"c":null}}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "quote\" slash\\ newline\n tab\t unicode\u{1F600}ctrl\u{01}";
        let json = Value::String(original.to_string()).to_string();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn unicode_escapes_parse() {
        let s: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(s, "A\u{1F600}");
    }

    #[test]
    fn json_macro_builds_objects() {
        let n = 5u64;
        let items = vec!["a".to_string(), "b".to_string()];
        let v = json!({ "n": n, "items": items, "nested": { "ok": true }, "list": [1, 2] });
        assert_eq!(
            v.to_string(),
            r#"{"items":["a","b"],"list":[1,2],"n":5,"nested":{"ok":true}}"#
        );
    }

    #[test]
    fn typed_round_trip_via_bytes() {
        let map: std::collections::BTreeMap<String, String> =
            [("k".to_string(), "v\"tricky\"".to_string())]
                .into_iter()
                .collect();
        let bytes = to_vec(&map).unwrap();
        let back: std::collections::BTreeMap<String, String> = from_slice(&bytes).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{broken").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }
}

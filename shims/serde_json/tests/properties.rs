//! Properties of the JSON text codec itself: round trips, fixed points,
//! the number and escape edge cases, and that hostile input is an `Err`,
//! never a panic or a stack overflow.

use proptest::prelude::*;
use rand::StdRng;
use serde_json::{from_slice, from_str, to_string, Number, Value};
use std::collections::BTreeMap;

/// Characters that exercise every escape class, plus multi-byte scalars.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{08}',
    '\u{0c}',
    '\u{00}',
    '\u{1f}',
    '\u{7f}',
    'é',
    '€',
    '\u{FFFF}',
    '\u{1F600}',
    '\u{10FFFF}',
];

fn gen_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..6))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn gen_value(rng: &mut StdRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Number(Number::U(rng.gen())),
        3 => Value::Number(Number::I(rng.gen())),
        // Finite floats of every magnitude (non-finite ones print as `null`).
        4 => {
            let f = f64::from_bits(rng.gen());
            Value::Number(Number::F(if f.is_finite() { f } else { 0.5 }))
        }
        5 => Value::String(gen_string(rng)),
        6 => Value::Array(
            (0..rng.gen_range(0..4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Arbitrary trees up to four levels deep.
struct ArbValue;

impl Strategy for ArbValue {
    type Value = Value;
    fn generate(&self, rng: &mut StdRng) -> Value {
        gen_value(rng, 4)
    }
}

/// A valid document with one random splice (delete, duplicate or replace a
/// few bytes): mostly invalid, sometimes still valid, always JSON-shaped
/// enough to get deep into the reader.
struct ArbMutant;

impl Strategy for ArbMutant {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        let mut bytes = to_string(&gen_value(rng, 4)).unwrap().into_bytes();
        let at = rng.gen_range(0..=bytes.len());
        let len = rng.gen_range(0..4).min(bytes.len() - at);
        const JUNK: &[u8] = b"[]{}:,\"\\u0eE+-. \x00\xc3\xff";
        let patch: Vec<u8> = match rng.gen_range(0..3) {
            0 => vec![],
            1 => bytes[at..at + len].repeat(2),
            _ => (0..rng.gen_range(1..4))
                .map(|_| JUNK[rng.gen_range(0..JUNK.len())])
                .collect(),
        };
        bytes.splice(at..at + len, patch);
        bytes
    }
}

/// If `bytes` parse at all, printing the tree and parsing that again
/// prints the same text.
fn assert_prints_to_a_fixed_point(bytes: &[u8]) {
    if let Ok(v) = from_slice::<Value>(bytes) {
        let printed = to_string(&v).unwrap();
        let again: Value = from_str(&printed).unwrap();
        assert_eq!(to_string(&again).unwrap(), printed);
    }
}

const JSON_ALPHABET: &[u8] = b"[]{}:,\"\\ntu0123456789adf .eE+-";

proptest! {
    /// value → text → value is the identity, and the text is a fixed point.
    #[test]
    fn value_text_value_round_trips(v in ArbValue) {
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(to_string(&back).unwrap(), text);
    }

    /// Whatever parses, prints to a fixed point — and nothing panics on the
    /// way, valid UTF-8 or not.
    #[test]
    fn parse_then_print_is_a_fixed_point(bytes in ArbMutant) {
        assert_prints_to_a_fixed_point(&bytes);
    }

    /// The same on text drawn from JSON's own alphabet.
    #[test]
    fn arbitrary_json_alphabet_text_never_panics(
        picks in proptest::collection::vec(0..JSON_ALPHABET.len(), 0..24),
    ) {
        let s: String = picks.iter().map(|&i| JSON_ALPHABET[i] as char).collect();
        assert_prints_to_a_fixed_point(s.as_bytes());
    }

    /// Typed and dynamic decoding agree on maps, including which duplicate wins.
    #[test]
    fn typed_map_agrees_with_value(keys in proptest::collection::vec("[ab\"]{1,2}", 0..6)) {
        let text = format!(
            "{{{}}}",
            keys.iter()
                .enumerate()
                .map(|(i, k)| format!("{}:{i}", to_string(k).unwrap()))
                .collect::<Vec<_>>()
                .join(",")
        );
        let typed: BTreeMap<String, u32> = from_str(&text).unwrap();
        let tree: Value = from_str(&text).unwrap();
        prop_assert_eq!(to_string(&typed).unwrap(), to_string(&tree).unwrap());
    }
}

#[test]
fn every_escape_round_trips_and_prints_canonically() {
    let s: String = from_str(r#""\" \\ \/ \b \f \n \r \t A é €""#).unwrap();
    assert_eq!(s, "\" \\ / \u{08} \u{0c} \n \r \t A é €");
    assert_eq!(to_string(&s).unwrap(), r#""\" \\ / \b \f \n \r \t A é €""#);
    // Control bytes without a short form print as lowercase \u00XX; DEL and
    // everything above pass through raw.
    assert_eq!(
        to_string("\u{01}\u{1f}\u{7f}").unwrap(),
        "\"\\u0001\\u001f\u{7f}\""
    );
    assert!(from_str::<String>(r#""\x""#).is_err());
    assert!(from_str::<String>(r#""\u12""#).is_err());
    assert!(from_str::<String>(r#""\u12G4""#).is_err());
    assert!(from_str::<String>(r#""\"#).is_err());
    assert!(from_str::<String>(r#""abc"#).is_err());
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_do_not() {
    let s: String = from_str(r#""😀 😀""#).unwrap();
    assert_eq!(s, "\u{1F600} \u{1F600}");
    // Non-BMP text is written raw, never as a pair.
    assert_eq!(to_string(&s).unwrap(), "\"\u{1F600} \u{1F600}\"");
    for bad in [
        r#""\ud83d""#,
        r#""\ud83d x""#,
        r#""\ud83d\n""#,
        r#""\ud83dA""#,
        r#""\ud83d\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
    ] {
        assert!(from_str::<String>(bad).is_err(), "{bad}");
    }
}

#[test]
fn integer_edges_keep_their_exact_value() {
    for text in [
        "0",
        "18446744073709551615",
        "-9223372036854775808",
        "9223372036854775808",
        "-1",
    ] {
        let v: Value = from_str(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
    }
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert!(from_str::<i64>("9223372036854775808").is_err());
    assert!(from_str::<u64>("-1").is_err());
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<i8>("-129").is_err());
    // One past either end no longer fits an integer and becomes a float.
    assert!(matches!(
        from_str::<Value>("18446744073709551616").unwrap(),
        Value::Number(Number::F(_))
    ));
    assert!(matches!(
        from_str::<Value>("-9223372036854775809").unwrap(),
        Value::Number(Number::F(_))
    ));
    // A float spelling is refused where an integer is expected, integral
    // or not, and so is an integer one past the end that parsed as a float
    // (it used to saturate to `u64::MAX`).
    for text in ["2.0", "1e3", "1E3", "2.5", "-0.0", "18446744073709551616"] {
        let err = from_str::<u64>(text).unwrap_err().to_string();
        assert!(err.contains("is not a u64"), "{text}: {err}");
        assert!(from_str::<u32>(text).is_err(), "{text}");
        assert!(from_str::<i64>(text).is_err(), "{text}");
    }
    assert!(from_str::<i64>("-9223372036854775809").is_err());
    assert!(from_str::<i32>("-1e3").is_err());
    assert_eq!(from_str::<u64>("1000").unwrap(), 1000);
    assert_eq!(from_str::<i32>("-1000").unwrap(), -1000);
    assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
    assert_eq!(to_string(&from_str::<Value>("-0").unwrap()).unwrap(), "0");
}

#[test]
fn float_edges() {
    for (text, printed) in [
        ("1.5", "1.5"),
        ("-0.0", "-0"),
        ("2.0", "2"),
        ("1e2", "100"),
        ("1E-2", "0.01"),
        ("0.1", "0.1"),
    ] {
        let v: Value = from_str(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), printed, "{text}");
        let again: Value = from_str(printed).unwrap();
        assert_eq!(again, v, "{text}");
    }
    let max = to_string(&f64::MAX).unwrap();
    assert_eq!(from_str::<f64>(&max).unwrap(), f64::MAX);
    // Subnormals print as a long plain decimal and still come back exactly.
    let tiny = to_string(&5e-324f64).unwrap();
    assert!(tiny.starts_with("0.000") && tiny.ends_with('5'), "{tiny}");
    assert_eq!(from_str::<f64>(&tiny).unwrap(), 5e-324);
    // JSON has no NaN or infinities: they are written as null (and an
    // overflowing literal reads as infinity, so it prints as null too).
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(to_string(&f64::NEG_INFINITY).unwrap(), "null");
    assert_eq!(
        to_string(&from_str::<Value>("1e400").unwrap()).unwrap(),
        "null"
    );
    assert!(from_str::<f64>("null").is_err());
    for bad in ["-", "1-2", "1e", "--1", "+1", ".5", "1.2.3", "0x10", "1e+"] {
        assert!(from_str::<Value>(bad).is_err(), "{bad}");
    }
}

#[test]
fn truncating_a_document_anywhere_is_an_error() {
    let doc =
        r#" {"a":[1,-2.5e3,{"b":"cé\n😀é€"}],"d":null,"e":[true,false],"f":{}} "#.trim_start();
    let full = doc.trim_end().len();
    assert!(from_str::<Value>(doc).is_ok());
    for cut in 0..full {
        // Through bytes, so cuts inside a multi-byte character count too.
        assert!(
            from_slice::<Value>(&doc.as_bytes()[..cut]).is_err(),
            "cut at {cut}"
        );
    }
}

#[test]
fn nesting_is_bounded_not_recursed_into_the_ground() {
    let deep = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
    assert!(from_str::<Value>(&deep("[", "]", 128)).is_ok());
    assert!(from_str::<Value>(&deep("[", "]", 129)).is_err());
    assert!(from_str::<Value>(&deep("{\"k\":", "}", 128).replace(":}", ":0}")).is_ok());
    assert!(from_str::<Value>(&deep("{\"k\":", "}", 129).replace(":}", ":0}")).is_err());
    for n in [100_000, 1_000_000] {
        assert!(from_str::<Value>(&"[".repeat(n)).is_err());
        assert!(from_str::<Value>(&deep("[", "]", n)).is_err());
        assert!(from_str::<Value>(&"{\"k\":".repeat(n)).is_err());
        // The skip path of a typed decoder is bounded by the same counter.
        let unknown = format!("{{\"zzz\":{}}}", deep("[", "]", n));
        assert!(from_str::<BTreeMap<String, u32>>(&unknown).is_err());
    }
}

#[test]
fn invalid_utf8_is_an_error() {
    assert!(from_slice::<Value>(b"\"\xff\"").is_err());
    assert!(from_slice::<Value>(b"\"\xc3\"").is_err());
    assert!(from_slice::<Value>(b"{\"a\":1}\xf0\x9f").is_err());
    assert!(from_slice::<String>(b"\"\xed\xa0\x80\"").is_err()); // UTF-8-encoded surrogate
    assert_eq!(from_slice::<String>("\"é\"".as_bytes()).unwrap(), "é");
}

#[test]
fn duplicate_keys_keep_the_last_value() {
    let v: Value = from_str(r#"{"a":1,"b":2,"a":3}"#).unwrap();
    assert_eq!(to_string(&v).unwrap(), r#"{"a":3,"b":2}"#);
    let m: BTreeMap<String, u32> = from_str(r#"{"a":1,"b":2,"a":3}"#).unwrap();
    assert_eq!(m["a"], 3);
    // An escaped and a raw spelling of one key are the same key.
    let v: Value = from_str(r#"{"k":1,"k":2}"#).unwrap();
    assert_eq!(to_string(&v).unwrap(), r#"{"k":2}"#);
}

#[test]
fn maps_write_keys_in_sorted_string_order() {
    // Integer keys iterate numerically but must print in string order.
    let ints: BTreeMap<u32, &str> = [(9, "nine"), (10, "ten"), (100, "hundred")].into();
    assert_eq!(
        to_string(&ints).unwrap(),
        r#"{"10":"ten","100":"hundred","9":"nine"}"#
    );
    let hashed: std::collections::HashMap<String, u8> = ["b", "a", "c", "\"", "B"]
        .iter()
        .map(|k| (k.to_string(), 1))
        .collect();
    assert_eq!(
        to_string(&hashed).unwrap(),
        r#"{"\"":1,"B":1,"a":1,"b":1,"c":1}"#
    );
    // A key whose escaped form sorts differently from its raw form:
    // raw `"` (0x22) < `#` (0x23), but escaped `\"` (0x5c) > `#`.
    let tricky: BTreeMap<String, u8> = [("\"".to_string(), 1), ("#".to_string(), 2)].into();
    assert_eq!(to_string(&tricky).unwrap(), r##"{"\"":1,"#":2}"##);
    assert_eq!(
        from_str::<BTreeMap<String, u8>>(&to_string(&tricky).unwrap()).unwrap(),
        tricky
    );
}

#[test]
fn whitespace_and_trailing_input() {
    assert_eq!(
        from_str::<Vec<u8>>(" [ 1 ,\t2 ,\r\n3 ] ").unwrap(),
        vec![1, 2, 3]
    );
    for bad in [
        "1 2",
        "[1] ]",
        "{} {}",
        "null,",
        "\u{a0}1",
        "[1,]",
        "[,1]",
        "{,}",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{a:1}",
        "",
        " ",
    ] {
        assert!(from_str::<Value>(bad).is_err(), "{bad:?}");
    }
}

//! One test per container shape and `#[serde(...)]` attribute the offline
//! derive supports: the exact text it writes and what it accepts back.

use serde::{Deserialize, Serialize};
use serde_json::{from_str, json, to_string};
use std::collections::BTreeMap;

fn round_trip<T>(value: &T, text: &str)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    assert_eq!(to_string(value).unwrap(), text);
    assert_eq!(&from_str::<T>(text).unwrap(), value);
}

#[allow(non_snake_case)]
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Named {
    zeta: u32,
    alpha: String,
    mid: Vec<bool>,
    Upper: i8,
}

#[test]
fn named_struct_writes_members_in_sorted_name_order() {
    let v = Named {
        zeta: 7,
        alpha: "a".into(),
        mid: vec![true, false],
        Upper: -1,
    };
    // Byte order, so `Upper` sorts before every lowercase name.
    round_trip(
        &v,
        r#"{"Upper":-1,"alpha":"a","mid":[true,false],"zeta":7}"#,
    );
    // Input order is free, whitespace is skipped, unknown members are ignored.
    let spaced = r#" { "zeta" : 7 , "extra" : {"x":[1,2]} , "mid" : [ true , false ] ,
        "alpha" : "a" , "Upper" : -1 } "#;
    assert_eq!(from_str::<Named>(spaced).unwrap(), v);
}

#[test]
fn named_struct_rejects_what_it_must() {
    let missing = from_str::<Named>(r#"{"alpha":"a","mid":[],"Upper":0}"#).unwrap_err();
    assert!(
        missing.to_string().contains("missing field `zeta`"),
        "{missing}"
    );
    assert!(from_str::<Named>(r#"{"zeta":"7","alpha":"a","mid":[],"Upper":0}"#).is_err());
    assert!(from_str::<Named>(r#"{"zeta":7,"alpha":"a","mid":[],"Upper":200}"#).is_err());
    assert!(from_str::<Named>(r#"[7,"a",[],0]"#).is_err());
    assert!(from_str::<Named>(r#"{"zeta":7,"alpha":"a","mid":[],"Upper":0} x"#).is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[test]
fn empty_named_struct_is_an_empty_object() {
    round_trip(&Empty {}, "{}");
    assert_eq!(from_str::<Empty>(r#"{"anything":1}"#).unwrap(), Empty {});
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
struct Transparent(String);

#[test]
fn newtype_and_transparent_structs_are_their_inner_value() {
    round_trip(&Newtype(u64::MAX), "18446744073709551615");
    round_trip(&Transparent("x\"y".into()), r#""x\"y""#);
    assert!(from_str::<Newtype>("[1]").is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[test]
fn tuple_struct_is_an_array_of_exactly_its_arity() {
    round_trip(&Pair(1, "b".into()), r#"[1,"b"]"#);
    assert!(from_str::<Pair>("[1]").is_err());
    assert!(from_str::<Pair>(r#"[1,"b",2]"#).is_err());
    assert!(from_str::<Pair>(r#"{"0":1,"1":"b"}"#).is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[test]
fn unit_struct_writes_null_and_reads_any_value() {
    round_trip(&Unit, "null");
    assert_eq!(from_str::<Unit>(r#"{"a":[1]}"#).unwrap(), Unit);
    assert!(from_str::<Unit>("{").is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(f64),
    Rect(u32, u32),
    Label { text: String, bold: bool },
}

#[test]
fn unit_variant_is_its_name() {
    round_trip(&Shape::Dot, r#""Dot""#);
    // The tagged form is accepted too, whatever the payload.
    assert_eq!(from_str::<Shape>(r#"{"Dot":null}"#).unwrap(), Shape::Dot);
    assert_eq!(from_str::<Shape>(r#"{"Dot":[1,2]}"#).unwrap(), Shape::Dot);
}

#[test]
fn tuple_variants_are_externally_tagged() {
    round_trip(&Shape::Circle(1.5), r#"{"Circle":1.5}"#);
    round_trip(&Shape::Circle(2.0), r#"{"Circle":2}"#);
    round_trip(&Shape::Rect(3, 4), r#"{"Rect":[3,4]}"#);
    assert!(from_str::<Shape>(r#"{"Rect":[3]}"#).is_err());
    assert!(from_str::<Shape>(r#"{"Rect":[3,4,5]}"#).is_err());
    assert!(from_str::<Shape>(r#""Circle""#).is_err());
}

#[test]
fn struct_variant_members_are_sorted_too() {
    round_trip(
        &Shape::Label {
            text: "t".into(),
            bold: true,
        },
        r#"{"Label":{"bold":true,"text":"t"}}"#,
    );
    assert!(from_str::<Shape>(r#"{"Label":{"text":"t"}}"#).is_err());
}

#[test]
fn enum_rejects_unknown_variants_and_multi_key_objects() {
    let e = from_str::<Shape>(r#""Blob""#).unwrap_err();
    assert!(e.to_string().contains("unknown variant `Blob`"), "{e}");
    assert!(from_str::<Shape>(r#"{"Blob":1}"#).is_err());
    assert!(from_str::<Shape>("{}").is_err());
    assert!(from_str::<Shape>(r#"{"Circle":1,"Dot":null}"#).is_err());
    assert!(from_str::<Shape>("7").is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Mode {
    FastPoll,
    SteadyState { max_rps: u32 },
    Off,
}

#[test]
fn rename_all_snake_case_renames_variants_not_fields() {
    round_trip(&Mode::FastPoll, r#""fast_poll""#);
    round_trip(
        &Mode::SteadyState { max_rps: 9 },
        r#"{"steady_state":{"max_rps":9}}"#,
    );
    round_trip(&Mode::Off, r#""off""#);
    assert!(from_str::<Mode>(r#""FastPoll""#).is_err());
}

fn seven() -> u32 {
    7
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Defaults {
    required: u32,
    #[serde(default)]
    plain: Vec<String>,
    #[serde(default = "seven")]
    path: u32,
    maybe: Option<String>,
    #[serde(default)]
    map: BTreeMap<String, u32>,
}

#[test]
fn defaults_and_absent_options_fill_in() {
    let v: Defaults = from_str(r#"{"required":1}"#).unwrap();
    assert_eq!(
        v,
        Defaults {
            required: 1,
            plain: vec![],
            path: 7,
            maybe: None,
            map: BTreeMap::new(),
        }
    );
    // Defaults are still written: the encoder never omits a member.
    round_trip(
        &v,
        r#"{"map":{},"maybe":null,"path":7,"plain":[],"required":1}"#,
    );
    let full: Defaults =
        from_str(r#"{"required":1,"plain":["p"],"path":2,"maybe":"m","map":{"k":3}}"#).unwrap();
    assert_eq!(full.path, 2);
    assert_eq!(full.maybe.as_deref(), Some("m"));
    assert_eq!(full.map["k"], 3);
    // An explicit null is `None` as well; a default does not excuse a bad value.
    assert_eq!(
        from_str::<Defaults>(r#"{"required":1,"maybe":null}"#)
            .unwrap()
            .maybe,
        None
    );
    assert!(from_str::<Defaults>(r#"{"required":1,"path":"2"}"#).is_err());
    assert!(from_str::<Defaults>(r#"{"plain":[]}"#).is_err());
}

#[test]
fn repeated_member_keeps_its_last_value() {
    let v: Defaults = from_str(r#"{"required":1,"path":2,"required":5,"path":3}"#).unwrap();
    assert_eq!((v.required, v.path), (5, 3));
}

#[test]
fn unknown_member_holding_malformed_json_fails_the_decode() {
    for bad in [
        r#"{"required":1,"zzz":[1,]}"#,
        r#"{"required":1,"zzz":{"a":}}"#,
        r#"{"required":1,"zzz":"\x"}"#,
        r#"{"required":1,"zzz":"\ud800"}"#,
        r#"{"required":1,"zzz":1-2}"#,
        r#"{"required":1,"zzz":nul}"#,
        r#"{"required":1,"zzz":tru}"#,
        r#"{"required":1,"zzz"}"#,
    ] {
        assert!(from_str::<Defaults>(bad).is_err(), "{bad}");
    }
    assert!(from_str::<Defaults>(r#"{"required":1,"zzz":[1,{"a":"é"}]}"#).is_ok());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    #[serde(default)]
    known: Option<u32>,
}

#[test]
fn deny_unknown_fields_turns_an_unknown_member_into_an_error() {
    round_trip(&Strict { known: Some(3) }, r#"{"known":3}"#);
    assert_eq!(from_str::<Strict>("{}").unwrap(), Strict { known: None });
    let err = from_str::<Strict>(r#"{"known":3,"knwon":4}"#).unwrap_err();
    assert!(err.to_string().contains("unknown field `knwon`"), "{err}");
    // Without the attribute the same member is skipped.
    assert!(from_str::<Defaults>(r#"{"required":1,"knwon":4}"#).is_ok());
}

#[test]
fn derived_types_convert_through_value() {
    let v = Shape::Label {
        text: "t".into(),
        bold: false,
    };
    let tree = v.to_value();
    assert_eq!(tree, json!({"Label": {"bold": false, "text": "t"}}));
    assert_eq!(Shape::from_value(&tree).unwrap(), v);
    assert!(Shape::from_value(&json!({"Label": {"bold": 1, "text": "t"}})).is_err());
}

//! The decoding contract of [`serde_json::from_str`], one table row (or
//! more) per rule: fields in any order, unknown fields skipped but
//! still validated, the first of a repeated key winning, a missing field
//! decoding as `null`, number classification, externally tagged enums,
//! the nesting bound, trailing input, and a syntax error anywhere in the
//! text winning over a type error.

use std::fmt::Debug;

use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Cell {
    index: u64,
    label: String,
    tag: Option<u32>,
    kind: Kind,
    xs: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Kind {
    Unit,
    Newtype(u8),
    Pair(u8, String),
    Named { a: u8, b: Option<bool> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Holder {
    v: Value,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Point(i32, i32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

/// Decodes every row's text, comparing successes by value and failures
/// by a fragment of the error message.
fn check<T: Deserialize + PartialEq + Debug>(rows: &[(&str, Result<T, &str>)]) {
    for (text, want) in rows {
        match (from_str::<T>(text), want) {
            (Ok(got), Ok(want)) => assert_eq!(&got, want, "{text}"),
            (Err(got), Err(fragment)) => {
                assert!(got.to_string().contains(fragment), "{text}: {got}");
            }
            (got, want) => panic!("{text}: got {got:?}, want {want:?}"),
        }
    }
}

fn cell(index: u64, tag: Option<u32>, kind: Kind) -> Cell {
    Cell {
        index,
        label: "a".into(),
        tag,
        kind,
        xs: vec![],
    }
}

fn nest(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn struct_fields_follow_the_contract() {
    let deep = nest(200);
    let rows: Vec<(String, Result<Cell, &str>)> = vec![
        // declaration order and any other order
        (
            r#"{"index":1,"label":"a","tag":null,"kind":"Unit","xs":[]}"#.into(),
            Ok(cell(1, None, Kind::Unit)),
        ),
        (
            r#"{"xs":[],"kind":"Unit","tag":7,"label":"a","index":1}"#.into(),
            Ok(cell(1, Some(7), Kind::Unit)),
        ),
        // whitespace between every token
        (
            " { \"index\" : 1 ,\n\"label\"\t:\r\"a\" , \"tag\" : null , \"kind\" : \"Unit\" , \"xs\" : [ ] } "
                .into(),
            Ok(cell(1, None, Kind::Unit)),
        ),
        // unknown fields holding objects, arrays and escaped strings
        (
            r#"{"zz":{"a":[1,{"b":"\"}\\\u00e9\n"}],"c":null},"index":1,"label":"a","tag":null,"yy":[[],{},"]"],"kind":"Unit","xs":[],"ww":-2.5e3}"#.into(),
            Ok(cell(1, None, Kind::Unit)),
        ),
        // an unknown field nested past the bound is an error
        (
            format!(r#"{{"index":1,"label":"a","tag":null,"kind":"Unit","xs":[],"deep":{deep}}}"#),
            Err("nesting deeper"),
        ),
        // a repeated key: the first value wins ...
        (
            r#"{"index":1,"index":2,"label":"a","tag":null,"kind":"Unit","xs":[]}"#.into(),
            Ok(cell(1, None, Kind::Unit)),
        ),
        // ... even when the second has the wrong type ...
        (
            r#"{"index":1,"label":"a","index":"two","tag":null,"kind":"Unit","xs":[]}"#.into(),
            Ok(cell(1, None, Kind::Unit)),
        ),
        // ... but the second must still be valid JSON
        (
            r#"{"index":1,"label":"a","index":[1,,2],"tag":null,"kind":"Unit","xs":[]}"#.into(),
            Err("unexpected input"),
        ),
        // a missing field decodes as a literal null would
        (
            r#"{"index":1,"label":"a","kind":"Unit","xs":[]}"#.into(),
            Ok(cell(1, None, Kind::Unit)),
        ),
        (
            r#"{"label":"a","tag":null,"kind":"Unit","xs":[]}"#.into(),
            Err("expected unsigned integer, found null"),
        ),
        (
            r#"{"index":null,"label":"a","tag":null,"kind":"Unit","xs":[]}"#.into(),
            Err("expected unsigned integer, found null"),
        ),
        // a type error
        (
            r#"{"index":1,"label":"a","tag":null,"kind":"Unit","xs":{}}"#.into(),
            Err("expected array, found object"),
        ),
        // a syntax error after a type error wins
        (
            r#"{"index":"x","label":"a","tag":null,"kind":"Unit","xs":[1,]}"#.into(),
            Err("unexpected input"),
        ),
        (
            r#"{"index":"x","label":"a","tag":null,"kind":"Unit","xs":[]"#.into(),
            Err("bad object"),
        ),
        // trailing input after the document
        (
            r#"{"index":1,"label":"a","tag":null,"kind":"Unit","xs":[]} x"#.into(),
            Err("trailing input"),
        ),
        (
            r#"{"index":1,"label":"a","tag":null,"kind":"Unit","xs":[]}{}"#.into(),
            Err("trailing input"),
        ),
        // a trailing comma in the object
        (
            r#"{"index":1,"label":"a","tag":null,"kind":"Unit","xs":[],}"#.into(),
            Err("expected '\"'"),
        ),
        // not an object at all
        ("[1]".into(), Err("expected object, found array")),
        ("".into(), Err("unexpected input")),
    ];
    let rows: Vec<(&str, Result<Cell, &str>)> =
        rows.iter().map(|(t, w)| (t.as_str(), w.clone())).collect();
    check(&rows);
}

#[test]
fn enums_are_externally_tagged() {
    let named = |a, b| Ok(Kind::Named { a, b });
    let rows: [(&str, Result<Kind, &str>); 19] = [
        (r#""Unit""#, Ok(Kind::Unit)),
        (r#"{"Newtype":3}"#, Ok(Kind::Newtype(3))),
        (r#"{"Pair":[4,"x"]}"#, Ok(Kind::Pair(4, "x".into()))),
        (r#"{ "Pair" : [ 4 , "x" ] }"#, Ok(Kind::Pair(4, "x".into()))),
        (r#"{"Named":{"b":true,"a":5}}"#, named(5, Some(true))),
        (r#"{"Named":{"a":5}}"#, named(5, None)),
        (r#"{"Named":{"a":5,"c":[]}}"#, named(5, None)),
        // a unit variant is never an object, nor a tagged one a string
        (r#"{"Unit":null}"#, Err("no variant of Kind")),
        (r#""Newtype""#, Err("no variant of Kind")),
        (r#""Nope""#, Err("no variant of Kind")),
        (r#"{"Nope":1}"#, Err("no variant of Kind")),
        // the tag object holds exactly one key
        (r#"{}"#, Err("no variant of Kind")),
        (r#"{"Newtype":3,"Pair":[4,"x"]}"#, Err("no variant of Kind")),
        (r#"{"Newtype":3,"Newtype":3}"#, Err("no variant of Kind")),
        (r#"7"#, Err("no variant of Kind")),
        // payload shape errors
        (r#"{"Newtype":300}"#, Err("out of range")),
        (r#"{"Pair":[4]}"#, Err("")),
        (r#"{"Pair":[4,"x",5]}"#, Err("")),
        (r#"{"Named":{"b":true}}"#, Err("found null")),
    ];
    let rows: Vec<(String, Result<Cell, &str>)> = rows
        .into_iter()
        .map(|(kind_text, want)| {
            let text =
                format!(r#"{{"index":1,"label":"a","tag":null,"kind":{kind_text},"xs":[]}}"#);
            (text, want.map(|kind| cell(1, None, kind)))
        })
        .collect();
    let rows: Vec<(&str, Result<Cell, &str>)> =
        rows.iter().map(|(t, w)| (t.as_str(), w.clone())).collect();
    check(&rows);
}

#[test]
fn newtype_and_tuple_structs_read_their_inner_shapes() {
    check::<Wrapper>(&[
        ("7", Ok(Wrapper(7))),
        ("[7]", Err("expected unsigned integer, found array")),
    ]);
    // a unit struct accepts any well-formed value
    check::<Marker>(&[
        ("null", Ok(Marker)),
        (r#"[1,{"a":"\n"}]"#, Ok(Marker)),
        ("[1,", Err("unexpected input")),
    ]);
    check::<Point>(&[
        ("[1,-2]", Ok(Point(1, -2))),
        (" [ 1 , -2 ] ", Ok(Point(1, -2))),
        ("[1]", Err("")),
        ("[1,2,3]", Err("")),
        ("{}", Err("")),
    ]);
    check::<(u8, String, bool)>(&[
        (r#"[1,"x",true]"#, Ok((1, "x".into(), true))),
        (r#"[1,"x"]"#, Err("")),
        (r#"[1,"x",true,null]"#, Err("")),
    ]);
    check::<[u8; 2]>(&[
        ("[1,2]", Ok([1, 2])),
        ("[1]", Err("")),
        ("[1,2,3]", Err("")),
    ]);
    check::<Vec<Option<u8>>>(&[
        ("[]", Ok(vec![])),
        ("[1,null,3]", Ok(vec![Some(1), None, Some(3)])),
        ("[1,]", Err("unexpected input")),
        ("[,1]", Err("unexpected input")),
        ("[1 2]", Err("bad array")),
        ("[1", Err("bad array")),
    ]);
}

#[test]
fn numbers_keep_their_classification() {
    check::<u64>(&[
        ("3", Ok(3)),
        ("3.0", Ok(3)),
        ("3e0", Ok(3)),
        ("0", Ok(0)),
        ("-0", Ok(0)),
        ("18446744073709551615", Ok(u64::MAX)),
        ("-1", Err("expected unsigned integer, found number")),
        (
            "18446744073709551616",
            Err("expected unsigned integer, found number"),
        ),
        ("3.5", Err("expected unsigned integer, found number")),
        ("\"3\"", Err("expected unsigned integer, found string")),
        ("true", Err("expected unsigned integer, found bool")),
        ("null", Err("expected unsigned integer, found null")),
        ("1-", Err("bad number")),
    ]);
    check::<u8>(&[("255", Ok(255)), ("256", Err("256 out of range for u8"))]);
    check::<i64>(&[
        ("-3", Ok(-3)),
        ("-3.0", Ok(-3)),
        ("-0", Ok(0)),
        ("-9223372036854775808", Ok(i64::MIN)),
        ("9223372036854775807", Ok(i64::MAX)),
        ("9223372036854775808", Err("expected integer, found number")),
    ]);
    check::<f64>(&[
        ("3", Ok(3.0)),
        ("-2.5e-11", Ok(-2.5e-11)),
        ("1E3", Ok(1000.0)),
        ("18446744073709551616", Ok(18_446_744_073_709_551_616.0)),
        ("null", Err("expected number, found null")),
    ]);
    check::<bool>(&[
        ("true", Ok(true)),
        ("false", Ok(false)),
        ("tru", Err("invalid literal")),
    ]);
}

#[test]
fn negative_zero_round_trips_as_a_float() {
    let text = to_string(&-0.0f64).unwrap();
    assert_eq!(text, "-0");
    let back: f64 = from_str(&text).unwrap();
    assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    let tree: Value = from_str(&text).unwrap();
    assert_eq!(tree.as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
    assert_eq!(tree.to_json(), "-0");
    // integer targets still read plain zero
    assert_eq!(from_str::<u64>(&text).unwrap(), 0);
    assert_eq!(from_str::<i32>(&text).unwrap(), 0);
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_are_errors() {
    let rows: [(&str, Result<&str, &str>); 7] = [
        (r#""\ud83d\ude42""#, Ok("🙂")),
        (r#""quick \uD83D\uDE42!""#, Ok("quick 🙂!")),
        (r#""\ud83d""#, Err("")),
        (r#""\ud83dx""#, Err("")),
        (r#""\ude42""#, Err("")),
        (r#""\ude42\ud83d""#, Err("")),
        (r#""\ud83d\u0041""#, Err("")),
    ];
    for (text, want) in rows {
        let typed = from_str::<String>(text);
        let tree = Value::parse(text);
        match want {
            Ok(decoded) => {
                assert_eq!(typed.unwrap(), decoded, "{text}");
                assert_eq!(tree.unwrap(), Value::String(decoded.into()), "{text}");
            }
            Err(_) => {
                assert!(typed.is_err(), "{text}");
                assert!(tree.is_err(), "{text}");
            }
        }
    }
}

#[test]
fn nesting_is_bounded_in_value_fields() {
    // the struct's own object is one level, so its `Value` field holds
    // at most 127 more
    let holder = |depth| format!(r#"{{"v":{}}}"#, nest(depth));
    let ok = from_str::<Holder>(&holder(127)).unwrap();
    assert_eq!(ok.v.to_json(), nest(127));
    let err = from_str::<Holder>(&holder(128)).unwrap_err();
    assert!(err.to_string().contains("nesting deeper"), "{err}");
    // a hostile body answers the nesting error even though the first
    // problem in document order is a type error
    let hostile = format!(r#"{{"index":{}"#, "[".repeat(200_000));
    let err = std::thread::spawn(move || from_str::<Cell>(&hostile).unwrap_err())
        .join()
        .unwrap();
    assert!(err.to_string().contains("nesting deeper"), "{err}");
}

#[test]
fn value_targets_keep_the_tree() {
    let text = r#"{"b":[1,-2,3.5,"x",null,true],"a":{"c":{}}}"#;
    let v: Value = from_str(text).unwrap();
    assert_eq!(v, Value::parse(text).unwrap());
    assert_eq!(v.to_json(), text);
    let rows: Vec<(&str, Result<Value, &str>)> = vec![
        ("[1,]", Err("unexpected input")),
        ("{} {}", Err("trailing input")),
    ];
    check(&rows);
}

//! The workspace's `serde_derive` attributes, checked on the derive
//! output itself: `deny_unknown_fields` turns a stray member into an
//! error naming it, and a struct without the attribute ignores it.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    a: u64,
    #[serde(default)]
    b: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Lenient {
    a: u64,
    #[serde(default)]
    b: String,
}

fn object(members: &[(&str, Value)]) -> Value {
    Value::Object(
        members
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

#[test]
fn deny_unknown_fields_rejects_a_stray_member() {
    let doc = object(&[("a", Value::UInt(1)), ("surprise", Value::UInt(1))]);
    let err = Strict::from_value(&doc).unwrap_err().to_string();
    assert_eq!(err, "unknown field `surprise` in Strict");
}

#[test]
fn without_the_attribute_a_stray_member_is_ignored() {
    let doc = object(&[("a", Value::UInt(1)), ("surprise", Value::UInt(1))]);
    let parsed = Lenient::from_value(&doc).unwrap();
    assert_eq!(
        parsed,
        Lenient {
            a: 1,
            b: String::new()
        }
    );
}

#[test]
fn deny_unknown_fields_keeps_order_and_defaults() {
    let strict = Strict::from_value(&object(&[("a", Value::UInt(7))])).unwrap();
    assert_eq!(strict.b, "", "default-on-missing still applies");
    assert_eq!(
        strict.to_value(),
        object(&[("a", Value::UInt(7)), ("b", Value::Str(String::new()))]),
        "members serialize in declaration order"
    );
    let err = Strict::from_value(&object(&[])).unwrap_err().to_string();
    assert_eq!(err, "missing field `a` in Strict");
}

//! Offline stand-in for `serde`.
//!
//! Instead of the real serde's visitor architecture, this shim routes
//! everything through one self-describing [`Value`] model (a superset of
//! JSON: unsigned/signed 128-bit integers are first-class so histograms
//! with `u128` sums round-trip losslessly). [`Serialize`] converts into a
//! `Value`; [`Deserialize`] converts out of one. `serde_json` supplies
//! the text format on top.
//!
//! The derive macros (`#[derive(Serialize, Deserialize)]`) come from the
//! companion `serde_derive` shim and support the attribute subset gadget
//! uses: `#[serde(tag = "...")]`, `#[serde(rename_all = "snake_case")]`,
//! `#[serde(deny_unknown_fields)]`, `#[serde(default)]`, and
//! `#[serde(default = "path")]`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Self-describing data model used by the shim's serialization traits.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (covers every uint type up to `u128`).
    UInt(u128),
    /// Signed integer (only used for negative values in practice).
    Int(i128),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered members.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The members of an object, if this is one.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric contents as `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => u64::try_from(*u).ok(),
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Numeric contents as `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Member lookup for objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| find_field(m, key))
    }

    /// One-word description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Finds an object member by name.
pub fn find_field<'a>(members: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    members.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    message: String,
}

impl Error {
    /// Builds an error from any message.
    pub fn custom(message: impl fmt::Display) -> Self {
        Error {
            message: message.to_string(),
        }
    }

    /// Type mismatch while deserializing `context`.
    pub fn expected(what: &str, got: &Value, context: &str) -> Self {
        Error::custom(format!(
            "expected {what} for {context}, found {}",
            got.kind()
        ))
    }

    /// Required object member absent.
    pub fn missing_field(field: &str, context: &str) -> Self {
        Error::custom(format!("missing field `{field}` in {context}"))
    }

    /// Object member outside the field list of a type that rejects
    /// unknown fields.
    pub fn unknown_field(field: &str, context: &str) -> Self {
        Error::custom(format!("unknown field `{field}` in {context}"))
    }

    /// Enum tag did not match any variant.
    pub fn unknown_variant(tag: &str, context: &str) -> Self {
        Error::custom(format!("unknown variant `{tag}` for {context}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Conversion into the shim's [`Value`] model.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Conversion out of the shim's [`Value`] model.
pub trait Deserialize: Sized {
    /// Deserializes a [`Value`] into `Self`.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u128)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => Ok(*f as $t),
                    other => Err(Error::expected("unsigned integer", other, stringify!($t))),
                }
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 {
                    Value::UInt(*self as u128)
                } else {
                    Value::Int(*self as i128)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(Error::expected("integer", other, stringify!($t))),
                }
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, i128, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::expected("number", value, "f64"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| Error::expected("number", value, "f32"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other, "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other, "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for std::path::PathBuf {
    fn to_value(&self) -> Value {
        Value::Str(self.display().to_string())
    }
}

impl Deserialize for std::path::PathBuf {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(std::path::PathBuf::from(String::from_value(value)?))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("array", other, "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match value {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::expected("tuple array", other, "tuple")),
                }
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(members) => members
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error::expected("object", other, "BTreeMap")),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort members so serialized maps are deterministic.
        let mut members: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        members.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(members)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(members) => members
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            other => Err(Error::expected("object", other, "HashMap")),
        }
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::UInt(self.as_secs() as u128)),
            (
                "nanos".to_string(),
                Value::UInt(self.subsec_nanos() as u128),
            ),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| Error::expected("object", value, "Duration"))?;
        let secs = find_field(obj, "secs")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::missing_field("secs", "Duration"))?;
        let nanos = find_field(obj, "nanos")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::missing_field("nanos", "Duration"))?;
        Ok(std::time::Duration::new(secs, nanos as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(u128::from_value(&u128::MAX.to_value()).unwrap(), u128::MAX);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&0.99f64.to_value()).unwrap(), 0.99);
        // Integral JSON numbers deserialize as floats too.
        assert_eq!(f64::from_value(&Value::UInt(3)).unwrap(), 3.0);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u64, 0.5f64), (2, 1.5)];
        assert_eq!(Vec::<(u64, f64)>::from_value(&v.to_value()).unwrap(), v);
        let opt: Option<String> = Some("x".into());
        assert_eq!(Option::<String>::from_value(&opt.to_value()).unwrap(), opt);
        assert_eq!(Option::<String>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn object_lookup() {
        let v = Value::Object(vec![("a".into(), Value::UInt(1))]);
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("b"), None);
    }
}

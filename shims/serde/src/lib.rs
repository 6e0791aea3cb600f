//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so this crate supplies
//! the small serialization surface the workspace actually uses: a JSON
//! [`Value`] tree, a [`Serialize`] trait producing it (the only bound
//! `serde_json::to_string_pretty` needs), a no-op [`Deserialize`]
//! marker that mirrors serde's API, and — behind the `derive` feature —
//! the derive macros from the sibling `serde_derive` shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};

/// A JSON value tree (the serialization target of the shim).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON null.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (all Rust numerics widen to f64; u64 values above
    /// 2^53 lose precision exactly as they would in JavaScript).
    Number(f64),
    /// Exact unsigned integer (kept separate so u64 counters print
    /// without float formatting).
    UInt(u64),
    /// Exact signed integer.
    Int(i64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

/// Types serializable into a [`Value`] tree.
///
/// This is the trait `#[derive(Serialize)]` implements via the
/// `serde_derive` shim, and the bound generic `--json` dumpers use.
pub trait Serialize {
    /// The value tree for `self`.
    fn to_value(&self) -> Value;
}

/// No-op marker mirroring serde's API: the workspace never deserializes
/// through serde (it has its own codecs).
pub trait Deserialize {}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
    )*};
}
impl_serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
    )*};
}
impl_serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (*self).to_value()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<K: ToString, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort keys.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(42u64.to_value(), Value::UInt(42));
        assert_eq!((-3i64).to_value(), Value::Int(-3));
        assert_eq!(1.5f64.to_value(), Value::Number(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::String("x".into()));
        assert_eq!(Option::<u32>::None.to_value(), Value::Null);
    }

    #[test]
    fn collections_nest() {
        let v = vec![1u32, 2, 3].to_value();
        assert_eq!(
            v,
            Value::Array(vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)])
        );
        let arr = [7u64; 2].to_value();
        assert_eq!(arr, Value::Array(vec![Value::UInt(7), Value::UInt(7)]));
        let pair = ("k", 9usize).to_value();
        assert_eq!(
            pair,
            Value::Array(vec![Value::String("k".into()), Value::UInt(9)])
        );
    }
}

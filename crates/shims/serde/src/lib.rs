//! Minimal in-tree stand-in for `serde` (+ the JSON value model shared
//! with the `serde_json` shim).
//!
//! The build environment has no registry access, so this shim implements
//! the small slice of serde the workspace uses: `#[derive(Serialize,
//! Deserialize)]` on plain structs and enums (externally tagged, with
//! newtype/`#[serde(transparent)]` structs collapsing to their inner
//! value), serialization to a JSON [`Value`] tree, and deserialization
//! back from it. There is no zero-copy layer, no visitor machinery and no
//! attribute zoo — just enough for trace persistence and report export.
//!
//! [`Value::parse`] reads untrusted text (archive records, leases, HTTP
//! request bodies) in time linear in its length, and rejects documents
//! nested deeper than 128 arrays/objects with an [`Error`] instead of
//! recursing until the stack overflows.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

mod value;

pub use value::{Error, Number, Value};

/// Conversion into the JSON [`Value`] tree.
pub trait Serialize {
    /// The value as a JSON tree.
    fn to_value(&self) -> Value;
}

/// Conversion back from a JSON [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self`, reporting shape mismatches as [`Error`]s.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---- primitive impls -------------------------------------------------

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::type_mismatch("unsigned integer", v))?;
                <$t>::try_from(n).map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::I64(*self as i64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_i64().ok_or_else(|| Error::type_mismatch("integer", v))?;
                <$t>::try_from(n).map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::type_mismatch("number", v))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self as f64))
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::type_mismatch("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::type_mismatch("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::type_mismatch("array", other)),
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
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| Error::msg(format!("expected array of {N} elements, found {n}")))
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Array(items) => {
                        let expected = [$($idx),+].len();
                        if items.len() != expected {
                            return Err(Error::msg(format!(
                                "expected array of {expected} elements, found {}",
                                items.len()
                            )));
                        }
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::type_mismatch("array", other)),
                }
            }
        }
    )*};
}
tuple_impls! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

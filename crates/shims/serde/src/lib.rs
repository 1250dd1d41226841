//! Minimal in-tree stand-in for `serde` (+ the JSON value model shared
//! with the `serde_json` shim).
//!
//! The build environment has no registry access, so this shim implements
//! the small slice of serde the workspace uses: `#[derive(Serialize,
//! Deserialize)]` on plain structs and enums (externally tagged, with
//! newtype/`#[serde(transparent)]` structs collapsing to their inner
//! value), serialization to a JSON [`Value`] tree, and deserialization
//! straight from JSON text. There is no visitor machinery and no
//! attribute zoo — just enough for trace persistence, archive records
//! and report export.
//!
//! [`Deserialize`] impls read their value from a [`Decoder`], a cursor
//! over the text, without building a tree first; only a [`Value`] target
//! builds one. The decoder reads untrusted text (archive records and
//! HTTP request bodies) in time linear in its length, and rejects
//! documents nested deeper than 128 arrays/objects with an [`Error`]
//! instead of recursing until the stack overflows.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

mod value;

pub use value::{Decoder, Error, Number, Value};

/// Conversion into the JSON [`Value`] tree.
pub trait Serialize {
    /// The value as a JSON tree.
    fn to_value(&self) -> Value;
}

/// Decoding from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value at the decoder's position, reporting shape
    /// mismatches as [`Error`]s.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] on malformed input or a shape mismatch.
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error>;
}

/// A struct field's decoded value, or — when the field was missing from
/// its object — whatever a literal `null` decodes to: `None` for an
/// `Option`, an error for most other types.
///
/// # Errors
///
/// Returns an [`Error`] when the field is missing and `T` rejects `null`.
pub fn or_null<T: Deserialize>(field: Option<T>) -> Result<T, Error> {
    match field {
        Some(v) => Ok(v),
        None => T::deserialize(&mut Decoder::new("null")),
    }
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
            fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
                let n = d.number("unsigned integer")?;
                let n = n.as_u64().ok_or_else(|| Error::type_mismatch("unsigned integer", "number"))?;
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
            fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
                let n = d.number("integer")?;
                let n = n.as_i64().ok_or_else(|| Error::type_mismatch("integer", "number"))?;
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
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
        d.number("number").map(Number::as_f64)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::F64(*self as f64))
    }
}
impl Deserialize for f32 {
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
        Ok(f64::deserialize(d)? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
        d.boolean()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}
impl Deserialize for String {
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
        d.string("string").map(std::borrow::Cow::into_owned)
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
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
        if d.null()? {
            Ok(None)
        } else {
            T::deserialize(d).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
        d.begin_array()?;
        let mut items = Vec::new();
        while d.next_element()? {
            items.push(T::deserialize(d)?);
        }
        Ok(items)
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
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(d)?;
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
            fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
                let arity = [$($idx),+].len();
                d.begin_array()?;
                let v = ($({
                    d.element(arity)?;
                    $name::deserialize(d)?
                },)+);
                d.end_tuple(arity)?;
                Ok(v)
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
    fn deserialize(d: &mut Decoder<'_>) -> Result<Self, Error> {
        d.value()
    }
}

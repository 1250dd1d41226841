//! Minimal in-tree stand-in for `serde_json`, backed by the `serde` shim:
//! serialization goes through its value tree, and [`from_str`] decodes
//! text straight into the target type, building a tree only when the
//! target is [`Value`] itself.

#![forbid(unsafe_code)]

pub use serde::{Error, Number, Value};

/// Serializes to compact JSON.
///
/// # Errors
///
/// Never fails in this shim (non-finite floats render as `null`); the
/// `Result` mirrors serde_json's signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json())
}

/// Serializes to pretty JSON (two-space indent).
///
/// # Errors
///
/// Never fails in this shim; the `Result` mirrors serde_json's signature.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_pretty())
}

/// Parses JSON text into any shim-`Deserialize` type.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or a shape mismatch. A syntax
/// error anywhere in the text is reported over a type error met
/// earlier in it, as if the whole text had been parsed first.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let mut decoder = serde::Decoder::new(text);
    T::deserialize(&mut decoder)
        .and_then(|value| decoder.end().map(|()| value))
        .map_err(|e| Value::parse(text).err().unwrap_or(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_of_pairs_round_trips() {
        let xs: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.0 / 3.0)];
        let json = to_string(&xs).unwrap();
        let back: Vec<(u64, f64)> = from_str(&json).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn value_indexing_matches_serde_json() {
        let v: Value = from_str(r#"[{"id": "A1", "x": 39.0}]"#).unwrap();
        assert_eq!(v[0]["id"], "A1");
        assert_eq!(v[0]["x"], 39.0);
        assert_eq!(v[0]["missing"], Value::Null);
    }
}

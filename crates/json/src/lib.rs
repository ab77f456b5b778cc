#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # mm-json — a minimal in-tree JSON codec
//!
//! The workspace's real serialization surface is small — JSONL dataset
//! export/import, the `SignalingLog` round trip, the `CellConfig` round
//! trip, and bench reports — so instead of pulling `serde`/`serde_json`
//! from a registry the workspace carries this self-contained module.
//!
//! Conventions mirror serde's derive output so exported artifacts keep the
//! same shape they had under serde:
//!
//! * struct → object with field names,
//! * newtype (e.g. `CellId(u32)`) → the inner value,
//! * unit enum variant → `"VariantName"`,
//! * struct enum variant → `{"VariantName": {..fields..}}`,
//! * tuple → array, `Option` → `null` or the value.
//!
//! Output is compact (no whitespace); `f64` values are written with Rust's
//! shortest round-trip formatting, so parse(serialize(x)) is bit-exact for
//! finite values.

mod parse;
mod value;

pub use parse::ParseError;
pub use value::Json;

/// Error produced when converting a [`Json`] value into a typed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Convenience constructor.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }
}

/// Serialize a value into a [`Json`] tree.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;

    /// Compact JSON text (shorthand for `self.to_json().to_string()`).
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

/// Reconstruct a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Parse the typed value out of a JSON tree.
    fn from_json(v: &Json) -> Result<Self, JsonError>;

    /// Parse from JSON text.
    fn from_json_str(s: &str) -> Result<Self, JsonError> {
        let v = Json::parse(s).map_err(|e| JsonError(e.to_string()))?;
        Self::from_json(&v)
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let n = v.as_f64().ok_or_else(|| JsonError::new("expected integer"))?;
                if n.fract() != 0.0 {
                    return Err(JsonError::new(format!("expected integer, got {n}")));
                }
                if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(JsonError::new(format!(
                        "integer {n} out of range for {}", stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}
impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let a = v
            .as_array()
            .ok_or_else(|| JsonError::new("expected 2-tuple array"))?;
        if a.len() != 2 {
            return Err(JsonError::new(format!(
                "expected 2-tuple, got {} items",
                a.len()
            )));
        }
        Ok((A::from_json(&a[0])?, B::from_json(&a[1])?))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0.0f64, -1.5, 4.0, 1e300, 0.1, f64::MIN_POSITIVE] {
            let js = v.to_json_string();
            assert_eq!(
                f64::from_json_str(&js).unwrap().to_bits(),
                v.to_bits(),
                "{js}"
            );
        }
        assert_eq!(u32::from_json_str("850").unwrap(), 850);
        assert!(bool::from_json_str("true").unwrap());
        assert_eq!(String::from_json_str("\"a\\nb\"").unwrap(), "a\nb");
        assert_eq!(Option::<f64>::from_json_str("null").unwrap(), None);
        assert_eq!(Option::<f64>::from_json_str("2.5").unwrap(), Some(2.5));
        assert_eq!(Vec::<u8>::from_json_str("[1,2,3]").unwrap(), vec![1, 2, 3]);
        assert_eq!(<(u32, f64)>::from_json_str("[7,2.0]").unwrap(), (7, 2.0));
    }

    #[test]
    fn int_parsing_rejects_fractions_and_overflow() {
        assert!(u8::from_json_str("1.5").is_err());
        assert!(u8::from_json_str("300").is_err());
        assert!(u32::from_json_str("-1").is_err());
        assert!(i64::from_json_str("\"7\"").is_err());
    }

    #[test]
    fn tuple_arity_is_checked() {
        assert!(<(u32, u32)>::from_json_str("[1]").is_err());
        assert!(<(u32, u32)>::from_json_str("[1,2,3]").is_err());
    }
}

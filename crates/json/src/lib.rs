#![deny(clippy::unwrap_used, clippy::expect_used)]
//! # mm-json — a minimal in-tree JSON codec
//!
//! The workspace's serialization surface is small — the D1/D2 JSONL
//! export, telemetry snapshots, bench reports and mmqd's wire documents —
//! so instead of `serde`/`serde_json` the workspace carries this module.
//! Typed values are write-only ([`ToJson`]); the one reader is the strict
//! [`Json::parse`], which mmqd runs on untrusted request bytes.
//!
//! Conventions mirror serde's derive output so exported artifacts keep the
//! same shape they had under serde:
//!
//! * struct → object with field names,
//! * newtype (e.g. `CellId(u32)`) → the inner value,
//! * unit enum variant → `"VariantName"`,
//! * struct enum variant → `{"VariantName": {..fields..}}`,
//! * `Vec` → array, `Option` → `null` or the value.
//!
//! Output is compact (no whitespace); `f64` values are written with Rust's
//! shortest round-trip formatting, so parse(serialize(x)) is bit-exact for
//! finite values.

mod parse;
mod value;

pub use parse::ParseError;
pub use value::Json;

/// Serialize a value into a [`Json`] tree.
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;

    /// Compact JSON text (shorthand for `self.to_json().to_string()`).
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
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

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
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
            let back = Json::parse(&js).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{js}");
        }
        assert_eq!(850u32.to_json_string(), "850");
        assert_eq!(true.to_json_string(), "true");
        assert_eq!("a\nb".to_json_string(), "\"a\\nb\"");
        assert_eq!(None::<f64>.to_json_string(), "null");
        assert_eq!(Some(2.5f64).to_json_string(), "2.5");
        assert_eq!(vec![1u8, 2, 3].to_json_string(), "[1,2,3]");
    }
}

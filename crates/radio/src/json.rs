//! JSON representations of the radio primitives (mm-json impls).
//!
//! Shapes match what `serde` derives used to emit so exported datasets keep
//! their schema: `CellId` is a bare number, `Rat` is a variant-name string,
//! structs are field-name objects.

use crate::band::{ChannelNumber, Rat};
use crate::cell::CellId;
use crate::geom::Point;
use mm_json::{Json, ToJson};

impl ToJson for CellId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl ToJson for Rat {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Rat::Lte => "Lte",
                Rat::Umts => "Umts",
                Rat::Gsm => "Gsm",
                Rat::Evdo => "Evdo",
                Rat::Cdma1x => "Cdma1x",
            }
            .to_string(),
        )
    }
}

impl ToJson for ChannelNumber {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rat", self.rat.to_json()),
            ("number", self.number.to_json()),
        ])
    }
}

impl ToJson for Point {
    fn to_json(&self) -> Json {
        Json::obj([("x", self.x.to_json()), ("y", self.y.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radio_primitives_serialize_to_their_pinned_text() {
        assert_eq!(CellId(5).to_json_string(), "5");
        assert_eq!(
            ChannelNumber::earfcn(9820).to_json_string(),
            r#"{"rat":"Lte","number":9820}"#
        );
        assert_eq!(
            Point::new(-12.5, 340.0).to_json_string(),
            r#"{"x":-12.5,"y":340}"#
        );
        let rats: Vec<String> = Rat::ALL.iter().map(ToJson::to_json_string).collect();
        assert_eq!(
            rats,
            [
                r#""Lte""#,
                r#""Umts""#,
                r#""Gsm""#,
                r#""Evdo""#,
                r#""Cdma1x""#
            ]
        );
    }
}

//! JSON representations of the handoff-engine types (mm-json impls).
//!
//! Shapes follow serde-derive conventions: unit enum variants are strings
//! (`"Rsrp"`), data-carrying variants are single-key objects
//! (`{"A3":{"offset_db":3.0}}`), structs are field-name objects. This keeps
//! the exported datasets byte-compatible with what the serde-based exporter
//! produced.

use crate::config::Quantity;
use crate::events::{EventKind, ReportConfig};
use crate::reselect::PriorityRelation;
use mm_json::{Json, ToJson};

impl ToJson for Quantity {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Quantity::Rsrp => "Rsrp",
                Quantity::Rsrq => "Rsrq",
            }
            .to_string(),
        )
    }
}

impl ToJson for PriorityRelation {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                PriorityRelation::IntraFreq => "IntraFreq",
                PriorityRelation::NonIntraHigher => "NonIntraHigher",
                PriorityRelation::NonIntraEqual => "NonIntraEqual",
                PriorityRelation::NonIntraLower => "NonIntraLower",
            }
            .to_string(),
        )
    }
}

impl ToJson for EventKind {
    fn to_json(&self) -> Json {
        let variant = |name: &str, fields: Vec<(&str, Json)>| {
            Json::Obj(vec![(
                name.to_string(),
                Json::Obj(
                    fields
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                ),
            )])
        };
        match self {
            EventKind::A1 { threshold } => variant("A1", vec![("threshold", threshold.to_json())]),
            EventKind::A2 { threshold } => variant("A2", vec![("threshold", threshold.to_json())]),
            EventKind::A3 { offset_db } => variant("A3", vec![("offset_db", offset_db.to_json())]),
            EventKind::A4 { threshold } => variant("A4", vec![("threshold", threshold.to_json())]),
            EventKind::A5 {
                threshold1,
                threshold2,
            } => variant(
                "A5",
                vec![
                    ("threshold1", threshold1.to_json()),
                    ("threshold2", threshold2.to_json()),
                ],
            ),
            EventKind::A6 { offset_db } => variant("A6", vec![("offset_db", offset_db.to_json())]),
            EventKind::B1 { threshold } => variant("B1", vec![("threshold", threshold.to_json())]),
            EventKind::B2 {
                threshold1,
                threshold2,
            } => variant(
                "B2",
                vec![
                    ("threshold1", threshold1.to_json()),
                    ("threshold2", threshold2.to_json()),
                ],
            ),
            EventKind::Periodic => Json::Str("Periodic".to_string()),
        }
    }
}

impl ToJson for ReportConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("event", self.event.to_json()),
            ("quantity", self.quantity.to_json()),
            ("hysteresis_db", self.hysteresis_db.to_json()),
            ("time_to_trigger_ms", self.time_to_trigger_ms.to_json()),
            ("report_interval_ms", self.report_interval_ms.to_json()),
            ("report_amount", self.report_amount.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The released-dataset schema: every `EventKind` variant's exact text.
    #[test]
    fn every_event_kind_serializes_to_its_pinned_text() {
        for (e, want) in [
            (
                EventKind::A1 { threshold: -100.0 },
                r#"{"A1":{"threshold":-100}}"#,
            ),
            (
                EventKind::A2 { threshold: -110.25 },
                r#"{"A2":{"threshold":-110.25}}"#,
            ),
            (
                EventKind::A3 { offset_db: -1.0 },
                r#"{"A3":{"offset_db":-1}}"#,
            ),
            (
                EventKind::A4 { threshold: -102.5 },
                r#"{"A4":{"threshold":-102.5}}"#,
            ),
            (
                EventKind::A5 {
                    threshold1: -44.0,
                    threshold2: -114.0,
                },
                r#"{"A5":{"threshold1":-44,"threshold2":-114}}"#,
            ),
            (
                EventKind::A6 { offset_db: 2.0 },
                r#"{"A6":{"offset_db":2}}"#,
            ),
            (
                EventKind::B1 { threshold: -100.0 },
                r#"{"B1":{"threshold":-100}}"#,
            ),
            (
                EventKind::B2 {
                    threshold1: -121.0,
                    threshold2: -87.0,
                },
                r#"{"B2":{"threshold1":-121,"threshold2":-87}}"#,
            ),
            (EventKind::Periodic, r#""Periodic""#),
        ] {
            assert_eq!(e.to_json_string(), want);
        }
    }
}

//! JSON representations of drive-run records (mm-json impls).
//!
//! [`HandoffRecord`] is the row type of dataset D1, so its JSON shape is
//! part of the released-dataset schema: serde-derive conventions, with
//! enum variants as single-key objects.

use crate::run::{HandoffKind, HandoffRecord};
use mm_json::{Json, ToJson};

impl ToJson for HandoffKind {
    fn to_json(&self) -> Json {
        match self {
            HandoffKind::Active {
                decisive,
                quantity,
                report_config,
                report_t_ms,
                command_delay_ms,
            } => Json::Obj(vec![(
                "Active".to_string(),
                Json::obj([
                    ("decisive", decisive.to_json()),
                    ("quantity", quantity.to_json()),
                    ("report_config", report_config.to_json()),
                    ("report_t_ms", report_t_ms.to_json()),
                    ("command_delay_ms", command_delay_ms.to_json()),
                ]),
            )]),
            HandoffKind::Idle { relation } => Json::Obj(vec![(
                "Idle".to_string(),
                Json::obj([("relation", relation.to_json())]),
            )]),
        }
    }
}

impl ToJson for HandoffRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("t_ms", self.t_ms.to_json()),
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
            ("kind", self.kind.to_json()),
            ("rsrp_old_dbm", self.rsrp_old_dbm.to_json()),
            ("rsrp_new_dbm", self.rsrp_new_dbm.to_json()),
            ("rsrq_old_db", self.rsrq_old_db.to_json()),
            ("rsrq_new_db", self.rsrq_new_db.to_json()),
            ("min_thpt_before_bps", self.min_thpt_before_bps.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcore::config::Quantity;
    use mmcore::events::{EventKind, ReportConfig};
    use mmcore::reselect::PriorityRelation;
    use mmradio::cell::CellId;

    #[test]
    fn handoff_records_serialize_to_their_pinned_text() {
        let rec = HandoffRecord {
            t_ms: 4200,
            from: CellId(3),
            to: CellId(9),
            kind: HandoffKind::Active {
                decisive: EventKind::A3 { offset_db: 3.0 },
                quantity: Quantity::Rsrp,
                report_config: Some(ReportConfig::a3(3.0)),
                report_t_ms: 4100,
                command_delay_ms: 60,
            },
            rsrp_old_dbm: -104.5,
            rsrp_new_dbm: -98.0,
            rsrq_old_db: -13.0,
            rsrq_new_db: -9.5,
            min_thpt_before_bps: Some(2.25e6),
        };
        assert_eq!(
            rec.to_json_string(),
            concat!(
                r#"{"t_ms":4200,"from":3,"to":9,"kind":{"Active":{"decisive":{"A3":{"offset_db":3}},"#,
                r#""quantity":"Rsrp","report_config":{"event":{"A3":{"offset_db":3}},"quantity":"Rsrp","#,
                r#""hysteresis_db":1,"time_to_trigger_ms":320,"report_interval_ms":480,"report_amount":1},"#,
                r#""report_t_ms":4100,"command_delay_ms":60}},"rsrp_old_dbm":-104.5,"rsrp_new_dbm":-98,"#,
                r#""rsrq_old_db":-13,"rsrq_new_db":-9.5,"min_thpt_before_bps":2250000}"#
            )
        );

        let idle = HandoffRecord {
            kind: HandoffKind::Idle {
                relation: PriorityRelation::NonIntraHigher,
            },
            min_thpt_before_bps: None,
            ..rec
        };
        assert_eq!(
            idle.to_json_string(),
            concat!(
                r#"{"t_ms":4200,"from":3,"to":9,"kind":{"Idle":{"relation":"NonIntraHigher"}},"#,
                r#""rsrp_old_dbm":-104.5,"rsrp_new_dbm":-98,"rsrq_old_db":-13,"rsrq_new_db":-9.5,"#,
                r#""min_thpt_before_bps":null}"#
            )
        );
    }
}

//! Dataset export — the paper releases its mobility-configuration dataset;
//! this module writes D1/D2 as JSON-lines files with a self-describing
//! header record. Nothing reads the records back: the format is
//! write-only, and its bytes are pinned by the tests below.

use crate::dataset::{D1, D2};
use mm_json::{Json, ToJson};
use mmcore::MmError;
use std::io::Write;

/// Schema version stamped into every export.
pub const SCHEMA_VERSION: u32 = 1;

fn header_json(kind: &str, records: usize) -> Json {
    Json::obj([
        ("schema", SCHEMA_VERSION.to_json()),
        ("kind", kind.to_json()),
        ("records", records.to_json()),
    ])
}

fn write_jsonl<W: Write, T: ToJson>(
    mut w: W,
    kind: &str,
    records: impl ExactSizeIterator<Item = T>,
) -> Result<(), MmError> {
    writeln!(w, "{}", header_json(kind, records.len()))?;
    for r in records {
        writeln!(w, "{}", r.to_json())?;
    }
    Ok(())
}

/// Write dataset D2 as JSON lines.
pub fn export_d2<W: Write>(w: W, d2: &D2) -> Result<(), MmError> {
    write_jsonl(w, "d2-config-samples", d2.iter())
}

/// Write dataset D1 as JSON lines.
pub fn export_d1<W: Write>(w: W, d1: &D1) -> Result<(), MmError> {
    write_jsonl(w, "d1-handoff-instances", d1.iter_handoffs())
}

/// Quick line-count/kind check of an exported file body against its
/// header, without parsing the records.
///
/// Malformed bodies (missing/unparsable header) come back as
/// [`MmError::Json`]; a record-count mismatch — a valid file that doesn't
/// describe its own campaign output — as [`MmError::Campaign`].
pub fn validate_export(body: &str) -> Result<(String, usize), MmError> {
    let mut lines = body.lines();
    let header = Json::parse(
        lines
            .next()
            .ok_or_else(|| MmError::Json("empty export".to_string()))?,
    )?;
    let kind = header["kind"]
        .as_str()
        .ok_or_else(|| MmError::Json("missing kind".to_string()))?
        .to_string();
    let declared = header["records"]
        .as_u64()
        .ok_or_else(|| MmError::Json("missing records".to_string()))? as usize;
    let actual = lines.count();
    if declared != actual {
        return Err(MmError::Campaign(format!(
            "header declares {declared} records, found {actual}"
        )));
    }
    Ok((kind, actual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::crawl;
    use crate::dataset::HandoffInstance;
    use mmcarriers::city::City;
    use mmcarriers::world::World;
    use mmcore::reselect::PriorityRelation;
    use mmnetsim::run::{HandoffKind, HandoffRecord};
    use mmradio::cell::CellId;

    #[test]
    fn d2_export_round_trips_counts() {
        let world = World::generate(3, 0.005);
        let d2 = crawl(&world, 1);
        let mut buf = Vec::new();
        export_d2(&mut buf, &d2).unwrap();
        let body = String::from_utf8(buf).unwrap();
        let (kind, n) = validate_export(&body).unwrap();
        assert_eq!(kind, "d2-config-samples");
        assert_eq!(n, d2.len());
    }

    /// The released D2 schema, byte for byte: the FNV-1a of a small
    /// crawl's export and its first record line.
    #[test]
    fn d2_export_bytes_are_pinned() {
        let d2 = crawl(&World::generate(3, 0.005), 1);
        let mut buf = Vec::new();
        export_d2(&mut buf, &d2).unwrap();
        assert_eq!(mm_store::fnv1a64(&buf), 0xe770_64c2_13fa_e0e8);
        let body = String::from_utf8(buf).unwrap();
        assert_eq!(
            body.lines().nth(1).unwrap(),
            concat!(
                r#"{"cell":1,"carrier":"A","city":"C1","rat":"Lte","channel":{"rat":"Lte","number":1975},"#,
                r#""pos":{"x":9606387.412922423,"y":1516171.1889802013},"round":1,"#,
                r#""param":"cellReselectionPriority","value":3}"#
            )
        );
    }

    /// The released D1 schema, byte for byte: header plus one idle-state
    /// handoff instance (netsim pins the active record's text).
    #[test]
    fn d1_export_bytes_are_pinned() {
        let record = HandoffRecord {
            t_ms: 4200,
            from: CellId(3),
            to: CellId(9),
            kind: HandoffKind::Idle {
                relation: PriorityRelation::NonIntraHigher,
            },
            rsrp_old_dbm: -104.5,
            rsrp_new_dbm: -98.0,
            rsrq_old_db: -13.0,
            rsrq_new_db: -9.5,
            min_thpt_before_bps: None,
        };
        let inst = HandoffInstance {
            carrier: "A",
            city: City::C1,
            record,
        };
        let mut buf = Vec::new();
        export_d1(&mut buf, &D1::from_instances(vec![inst])).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            concat!(
                r#"{"schema":1,"kind":"d1-handoff-instances","records":1}"#,
                "\n",
                r#"{"carrier":"A","city":"C1","record":{"t_ms":4200,"from":3,"to":9,"#,
                r#""kind":{"Idle":{"relation":"NonIntraHigher"}},"rsrp_old_dbm":-104.5,"#,
                r#""rsrp_new_dbm":-98,"rsrq_old_db":-13,"rsrq_new_db":-9.5,"min_thpt_before_bps":null}}"#,
                "\n"
            )
        );
    }

    #[test]
    fn empty_d1_exports_header_only() {
        let mut buf = Vec::new();
        export_d1(&mut buf, &D1::default()).unwrap();
        let body = String::from_utf8(buf).unwrap();
        let (kind, n) = validate_export(&body).unwrap();
        assert_eq!(kind, "d1-handoff-instances");
        assert_eq!(n, 0);
    }

    #[test]
    fn validation_catches_truncation() {
        let world = World::generate(3, 0.005);
        let d2 = crawl(&world, 1);
        let mut buf = Vec::new();
        export_d2(&mut buf, &d2).unwrap();
        let body = String::from_utf8(buf).unwrap();
        let truncated: String = body.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            validate_export(&truncated),
            Err(MmError::Campaign(_))
        ));
    }

    #[test]
    fn validation_flags_malformed_headers_as_json_errors() {
        assert!(matches!(validate_export(""), Err(MmError::Json(_))));
        assert!(matches!(
            validate_export("{not json"),
            Err(MmError::Json(_))
        ));
        assert!(matches!(
            validate_export("{\"schema\":1,\"records\":0}"),
            Err(MmError::Json(m)) if m.contains("kind")
        ));
    }
}

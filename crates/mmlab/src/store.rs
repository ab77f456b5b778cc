//! Binary columnar persistence of D1/D2 (DESIGN.md §9).
//!
//! This module owns the dataset *schemas* on top of the `mm-store` codec:
//! which columns a [`ConfigSample`] or [`HandoffInstance`] decomposes into,
//! and how interned vocabulary strings (carrier codes, parameter names,
//! city codes) come back as the `&'static str` values the rest of the
//! workspace expects. The byte-level framing (magic, version, CRC) is
//! `mm-store`'s job.
//!
//! A file is one dictionary block followed by row-group blocks of
//! [`BLOCK_ROWS`] rows each. Both datasets share that format, one writer
//! and one streaming reader, [`GroupReader`], which never holds more than
//! one group in memory. What differs per dataset (row type, columns, group
//! stats, predicate matching) is a [`GroupCodec`]: [`D2Codec`] and
//! [`D1Codec`], read through the [`D2StoreReader`]/[`D1StoreReader`]
//! aliases.
//!
//! Format v2 row groups carry a small prefix before the columns: the
//! declared column count (checked against the schema *before* any column
//! is decoded, so a mismatched file fails fast with a typed error) and
//! per-group vocabulary stats — the sorted dictionary ids of the carriers,
//! cities, parameters (D2 also RAT tags) present in the group. A reader
//! configured [`with_predicate`](GroupReader::with_predicate) consults
//! the stats to *skip whole groups* whose vocabulary cannot satisfy the
//! predicate, without touching their column bytes — predicate pushdown.

use crate::dataset::{ConfigSample, HandoffInstance, D1, D2};
use crate::predicate::Predicate;
use mm_store::{
    write_varint, Cursor, Dict, DictBuilder, F64Decoder, F64Encoder, StoreReader, StoreWriter,
    UIntDecoder, UIntEncoder,
};
use mmcore::config::Quantity;
use mmcore::events::{EventKind, ReportConfig};
use mmcore::reselect::PriorityRelation;
use mmcore::{MmError, StoreError};
use mmnetsim::run::{HandoffKind, HandoffRecord};
use mmradio::band::{ChannelNumber, Rat};
use mmradio::cell::CellId;
use mmradio::geom::Point;
use std::collections::BTreeSet;
use std::io::{Read, Write};

/// Dataset kind stamped in D2 store headers (same id the JSONL export uses).
pub const KIND_D2: &str = "d2-config-samples";
/// Dataset kind stamped in D1 store headers.
pub const KIND_D1: &str = "d1-handoff-instances";

/// Block tag: the string dictionary table.
const TAG_DICT: u8 = 1;
/// Block tag: a row group.
const TAG_ROWS: u8 = 2;

/// Rows per row-group block. Small enough that a streaming reader's
/// working set stays bounded, large enough that per-block overhead (frame,
/// column length prefixes) is noise.
pub const BLOCK_ROWS: usize = 4096;

// ---------------------------------------------------------------------------
// Enum tags (stable wire values — append-only; never renumber)
// ---------------------------------------------------------------------------

fn rat_tag(rat: Rat) -> u64 {
    match rat {
        Rat::Lte => 0,
        Rat::Umts => 1,
        Rat::Gsm => 2,
        Rat::Evdo => 3,
        Rat::Cdma1x => 4,
    }
}

fn quantity_tag(q: Quantity) -> u64 {
    match q {
        Quantity::Rsrp => 0,
        Quantity::Rsrq => 1,
    }
}

fn relation_tag(r: PriorityRelation) -> u64 {
    match r {
        PriorityRelation::IntraFreq => 0,
        PriorityRelation::NonIntraHigher => 1,
        PriorityRelation::NonIntraEqual => 2,
        PriorityRelation::NonIntraLower => 3,
    }
}

const QUANTITIES: [Quantity; 2] = [Quantity::Rsrp, Quantity::Rsrq];
const RELATIONS: [PriorityRelation; 4] = [
    PriorityRelation::IntraFreq,
    PriorityRelation::NonIntraHigher,
    PriorityRelation::NonIntraEqual,
    PriorityRelation::NonIntraLower,
];

/// Decode an enum wire tag: the one variant of `all` that `tag_of` maps to
/// `tag`. Decoding by search keeps each exhaustive `*_tag` match the single
/// source of the wire values.
fn from_tag<T: Copy>(
    all: &[T],
    tag_of: fn(T) -> u64,
    tag: u64,
    what: &str,
) -> Result<T, StoreError> {
    all.iter()
        .copied()
        .find(|&v| tag_of(v) == tag)
        .ok_or_else(|| StoreError::Schema(format!("unknown {what} tag {tag}")))
}

/// Split an [`EventKind`] into its tag and parameter list.
fn event_parts(e: &EventKind) -> (u64, [Option<f64>; 2]) {
    // The wire tag is the typed decisive-event code (mmcore::DecisiveEvent),
    // so the store registry and the figure labels share one source of truth.
    let tag = e.decisive().code();
    let params = match *e {
        EventKind::A1 { threshold }
        | EventKind::A2 { threshold }
        | EventKind::A4 { threshold }
        | EventKind::B1 { threshold } => [Some(threshold), None],
        EventKind::A3 { offset_db } | EventKind::A6 { offset_db } => [Some(offset_db), None],
        EventKind::A5 {
            threshold1,
            threshold2,
        }
        | EventKind::B2 {
            threshold1,
            threshold2,
        } => [Some(threshold1), Some(threshold2)],
        EventKind::Periodic => [None, None],
    };
    (tag, params)
}

fn event_from(tag: u64, params: &mut F64Decoder<'_>) -> Result<EventKind, StoreError> {
    let mut p = || params.read();
    Ok(match tag {
        0 => EventKind::A1 { threshold: p()? },
        1 => EventKind::A2 { threshold: p()? },
        2 => EventKind::A3 { offset_db: p()? },
        3 => EventKind::A4 { threshold: p()? },
        4 => EventKind::A5 {
            threshold1: p()?,
            threshold2: p()?,
        },
        5 => EventKind::A6 { offset_db: p()? },
        6 => EventKind::B1 { threshold: p()? },
        7 => EventKind::B2 {
            threshold1: p()?,
            threshold2: p()?,
        },
        8 => EventKind::Periodic,
        t => return Err(StoreError::Schema(format!("unknown event tag {t}"))),
    })
}

fn push_event(e: &EventKind, tags: &mut UIntEncoder, params: &mut F64Encoder) {
    let (tag, ps) = event_parts(e);
    tags.push(tag);
    for p in ps.into_iter().flatten() {
        params.push(p);
    }
}

// ---------------------------------------------------------------------------
// Vocabulary interning
// ---------------------------------------------------------------------------

/// Re-intern a carrier code into the `&'static str` the carrier profiles
/// own — dataset rows carry `&'static str`, so a decoded string must map
/// back into the fixed vocabulary.
fn intern_carrier(code: &str) -> Option<&'static str> {
    mmcarriers::builtin::by_code(code).map(|p| p.code)
}

/// Parameter names the LTE crawler emits as string literals rather than
/// through the core params tables (derived/pseudo-parameters of
/// `crawler::extract_samples`). Reader-side interning falls back to this
/// vocabulary after the per-RAT tables.
const CRAWLER_PARAMS: &[&str] = &[
    "cellReselectionPriority",
    "q-Hyst",
    "q-RxLevMin",
    "s-IntraSearchP",
    "s-NonIntraSearchP",
    "threshServingLowP",
    "t-ReselectionEUTRA",
    "interFreqCellReselectionPriority",
    "threshX-High",
    "threshX-Low",
    "a3-Offset",
    "hysteresis",
    "a5-Threshold1",
    "a5-Threshold2",
    "a5-TriggerQuantity",
    "a2-Threshold",
    "timeToTrigger",
    "reportInterval",
    "reportAmount",
    "q-QualMin",
    "q-OffsetCell",
    "interFreq-q-RxLevMin",
    "interFreq-q-OffsetFreq",
    "t-ReselectionInterFreq",
    "allowedMeasBandwidth",
    "utra-CellReselectionPriority",
    "utra-threshX-High",
    "utra-threshX-Low",
    "utra-q-RxLevMin",
    "t-ReselectionUTRA",
    "geran-CellReselectionPriority",
    "geran-threshX-High",
    "geran-threshX-Low",
    "geran-q-RxLevMin",
    "t-ReselectionGERAN",
    "hrpd-CellReselectionPriority",
    "threshX-HighHRPD",
    "threshX-LowHRPD",
    "1xrtt-CellReselectionPriority",
    "threshX-High1XRTT",
    "threshX-Low1XRTT",
    "t-ReselectionCDMA2000",
];

/// Re-intern a parameter name (any RAT's table — SIB5/6/7/8 rows can
/// reference neighbour-layer parameters — then the crawler's literal
/// vocabulary). `&'static str` comparisons downstream are by value, so any
/// static string with the right content is the right answer.
fn intern_param(name: &str) -> Option<&'static str> {
    for r in Rat::ALL {
        if let Some(spec) = mmcore::params::lookup(r, name) {
            return Some(spec.name);
        }
    }
    CRAWLER_PARAMS.iter().find(|&&s| s == name).copied()
}

/// A decoded dictionary with its entries pre-resolved against the static
/// vocabularies, once per file — carrier lookups rebuild every profile, so
/// doing them per row would dominate decode time. An entry that resolves
/// to nothing only becomes an error when a row actually references it in
/// that role.
pub struct ResolvedDict {
    dict: Dict,
    carriers: Vec<Option<&'static str>>,
    params: Vec<Option<&'static str>>,
}

impl ResolvedDict {
    fn new(dict: Dict) -> ResolvedDict {
        let entries = 0..dict.len() as u64;
        let carriers = entries
            .clone()
            .map(|i| dict.get(i).ok().and_then(intern_carrier))
            .collect();
        let params = entries
            .map(|i| dict.get(i).ok().and_then(intern_param))
            .collect();
        ResolvedDict {
            dict,
            carriers,
            params,
        }
    }

    fn carrier(&self, id: u64) -> Result<&'static str, StoreError> {
        let s = self.dict.get(id)?;
        self.carriers
            .get(id as usize)
            .copied()
            .flatten()
            .ok_or_else(|| StoreError::Schema(format!("unknown carrier code {s:?}")))
    }

    fn city(&self, id: u64) -> Result<mmcarriers::city::City, StoreError> {
        Ok(mmcarriers::city::City::intern(self.dict.get(id)?))
    }

    fn param(&self, id: u64) -> Result<&'static str, StoreError> {
        let s = self.dict.get(id)?;
        self.params
            .get(id as usize)
            .copied()
            .flatten()
            .ok_or_else(|| StoreError::Schema(format!("unknown parameter name {s:?}")))
    }

    /// The dictionary id of `s`, if this file's vocabulary contains it.
    /// Dictionaries are small (a few hundred entries), so a linear probe
    /// once per file is noise next to block decode.
    fn find(&self, s: &str) -> Option<u64> {
        (0..self.dict.len() as u64).find(|&i| self.dict.get(i).is_ok_and(|e| e == s))
    }
}

// ---------------------------------------------------------------------------
// Row-group plumbing (format v2: prefix + stats + columns)
// ---------------------------------------------------------------------------

/// Serialize a v2 row group: row count, column count, the per-group
/// vocabulary stat lists (each a sorted run of varint ids), then the
/// `len`-prefixed column byte strings.
fn encode_group(n_rows: u64, stats: &[BTreeSet<u64>], cols: Vec<Vec<u8>>) -> Vec<u8> {
    let mut stats_buf = Vec::new();
    for set in stats {
        write_varint(&mut stats_buf, set.len() as u64);
        for &id in set {
            write_varint(&mut stats_buf, id);
        }
    }
    let mut payload = Vec::new();
    write_varint(&mut payload, n_rows);
    write_varint(&mut payload, cols.len() as u64);
    write_varint(&mut payload, stats_buf.len() as u64);
    payload.extend_from_slice(&stats_buf);
    for col in cols {
        write_varint(&mut payload, col.len() as u64);
        payload.extend_from_slice(&col);
    }
    payload
}

/// The decoded v2 group prefix: what a reader learns about a row group
/// *before* committing to decode its columns.
struct GroupPrefix<'a> {
    n_rows: u64,
    /// Sorted dictionary-id (or enum-tag) lists, one per stat dimension.
    stats: Vec<Vec<u64>>,
    /// Cursor positioned at the first column length.
    cols: Cursor<'a>,
}

/// Parse a v2 group prefix. The declared column count is checked against
/// the schema here — before any column byte is touched — so a file written
/// under a different schema fails fast with a typed error instead of
/// misdecoding columns.
fn decode_group_prefix<'a>(
    payload: &'a [u8],
    expect_cols: usize,
    n_stats: usize,
) -> Result<GroupPrefix<'a>, StoreError> {
    let mut c = Cursor::new(payload);
    let n_rows = c.read_varint()?;
    let n_cols = c.read_varint()?;
    if n_cols != expect_cols as u64 {
        return Err(StoreError::Schema(format!(
            "row group declares {n_cols} columns, schema expects {expect_cols}"
        )));
    }
    let stats_len = c.read_varint()?;
    let stats_raw = c.read_bytes(stats_len as usize)?;
    let mut sc = Cursor::new(stats_raw);
    let mut stats = Vec::with_capacity(n_stats);
    for _ in 0..n_stats {
        let n = sc.read_varint()?;
        if n > stats_len {
            return Err(StoreError::Schema(format!(
                "group stats list declares {n} ids in a {stats_len}-byte prefix"
            )));
        }
        let mut list = Vec::with_capacity(n as usize);
        for _ in 0..n {
            list.push(sc.read_varint()?);
        }
        stats.push(list);
    }
    if !sc.is_empty() {
        return Err(StoreError::Schema(
            "trailing bytes after group stats".to_string(),
        ));
    }
    Ok(GroupPrefix {
        n_rows,
        stats,
        cols: c,
    })
}

/// Read the column byte strings after a decoded prefix.
fn read_columns<'a>(c: &mut Cursor<'a>, expect: usize) -> Result<Vec<&'a [u8]>, StoreError> {
    let mut cols = Vec::with_capacity(expect);
    for _ in 0..expect {
        let len = c.read_varint()?;
        cols.push(c.read_bytes(len as usize)?);
    }
    if !c.is_empty() {
        return Err(StoreError::Schema(
            "trailing bytes after columns".to_string(),
        ));
    }
    Ok(cols)
}

// ---------------------------------------------------------------------------
// Predicate pushdown
// ---------------------------------------------------------------------------

/// Per-scan accounting of what a pushdown reader did: how many row groups
/// it decoded, how many it skipped on their stats alone, and how many rows
/// those skipped groups held. Trailer accounting covers both paths —
/// `declared == decoded + rows_skipped` — so a skip can never silently eat
/// data.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Row groups whose columns were decoded.
    pub groups_decoded: u64,
    /// Row groups skipped via their vocabulary stats, columns untouched.
    pub groups_skipped: u64,
    /// Rows contained in the skipped groups.
    pub rows_skipped: u64,
}

/// One resolved predicate dimension against a file's dictionary.
#[derive(Debug, Clone, Copy)]
enum IdSel {
    /// Unconstrained: every group admits.
    Any,
    /// Constrained to a value the file's vocabulary does not contain:
    /// no group can admit.
    Absent,
    /// Constrained to this dictionary id / enum tag.
    One(u64),
}

impl IdSel {
    fn admits(self, sorted_ids: &[u64]) -> bool {
        match self {
            IdSel::Any => true,
            IdSel::Absent => false,
            IdSel::One(id) => sorted_ids.binary_search(&id).is_ok(),
        }
    }
}

/// A predicate resolved against one file's dictionary into per-stat
/// dimension id selectors, aligned with the group stats lists. Built by
/// [`GroupCodec::filter`].
pub struct GroupFilter {
    sels: Vec<IdSel>,
}

impl GroupFilter {
    /// `None` when no selector constrains anything: every group admits, so
    /// there is nothing to push down.
    fn new(sels: Vec<IdSel>) -> Option<GroupFilter> {
        sels.iter()
            .any(|s| !matches!(s, IdSel::Any))
            .then_some(GroupFilter { sels })
    }

    fn admits(&self, stats: &[Vec<u64>]) -> bool {
        self.sels
            .iter()
            .zip(stats)
            .all(|(sel, ids)| sel.admits(ids))
    }
}

fn sel_str(want: Option<&str>, dict: &ResolvedDict) -> IdSel {
    match want {
        None => IdSel::Any,
        Some(s) => dict.find(s).map_or(IdSel::Absent, IdSel::One),
    }
}

/// Push a vocabulary id to its column and record it in the group's stats.
fn push_stat(col: &mut UIntEncoder, stat: &mut BTreeSet<u64>, id: u64) {
    col.push(id);
    stat.insert(id);
}

/// The carrier and city selectors both datasets' stats start with.
fn carrier_city_sels(pred: &Predicate, dict: &ResolvedDict) -> Vec<IdSel> {
    vec![
        sel_str(pred.carrier.as_deref(), dict),
        sel_str(pred.city.map(mmcarriers::city::City::as_str), dict),
    ]
}

/// Publish one finished scan's group accounting to the `store` telemetry
/// section (mirrors the blocks_read/bytes_read counters a layer down).
fn publish_scan_stats(dataset: &str, stats: ScanStats) {
    let t = mm_telemetry::global();
    for (what, n) in [
        ("decoded", stats.groups_decoded),
        ("skipped", stats.groups_skipped),
    ] {
        let name = format!("{dataset}_groups_{what}");
        t.counter_scoped("store", &name, mm_telemetry::Scope::Sim)
            .add(n);
    }
}

// ---------------------------------------------------------------------------
// The per-dataset seam
// ---------------------------------------------------------------------------

/// What one stored dataset adds to the shared format: its row type, its
/// columns and group stats, and how a predicate applies to it. Everything
/// else — header checks, the dictionary, pushdown, trailer accounting —
/// is [`GroupReader`]'s and the shared writer's, once for every dataset.
pub trait GroupCodec {
    /// The dataset row.
    type Row;
    /// Dataset kind stamped in (and required of) the store header.
    const KIND: &'static str;
    /// Columns per row group.
    const COLS: usize;
    /// Vocabulary stat lists per row group.
    const STATS: usize;
    /// Dataset name in the `store/<name>_groups_*` telemetry counters.
    const DATASET: &'static str;

    /// Resolve `pred` into group-stat selectors against a file's
    /// dictionary; `None` when it constrains no stat dimension.
    fn filter(pred: &Predicate, dict: &ResolvedDict) -> Option<GroupFilter>;

    /// Encode one row group, interning its strings into `dict`: the
    /// [`STATS`](Self::STATS) stat sets and the [`COLS`](Self::COLS)
    /// column byte strings.
    fn encode(dict: &mut DictBuilder, rows: &[&Self::Row]) -> (Vec<BTreeSet<u64>>, Vec<Vec<u8>>);

    /// Decode `n_rows` rows from one group's columns.
    fn decode(
        dict: &ResolvedDict,
        n_rows: u64,
        cols: &[&[u8]],
    ) -> Result<Vec<Self::Row>, StoreError>;

    /// Whether a decoded row satisfies `pred`.
    fn matches(pred: &Predicate, row: &Self::Row) -> bool;

    /// Reject, before anything is written, a row the reader would refuse.
    fn check(_row: &Self::Row) -> Result<(), MmError> {
        Ok(())
    }

    /// Shift a decoded row's campaign round by `rounds` (rows without a
    /// round ignore it).
    fn shift_round(_row: &mut Self::Row, _rounds: u32) {}
}

/// Encode `rows` into the dictionary block and the row-group blocks of
/// `block_rows` rows each. Every string is interned while the groups are
/// built, which is why the dictionary is finished last but written first.
fn encode_blocks<C: GroupCodec>(rows: &[&C::Row], block_rows: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut dict = DictBuilder::new();
    let groups = rows
        .chunks(block_rows.max(1))
        .map(|chunk| {
            let (stats, cols) = C::encode(&mut dict, chunk);
            encode_group(chunk.len() as u64, &stats, cols)
        })
        .collect();
    (dict.encode(), groups)
}

/// Write `rows` as one store file: header, dictionary, row groups, and a
/// trailer declaring the row count.
fn write_rows<'a, C: GroupCodec + 'a, W: Write>(
    w: W,
    rows: impl Iterator<Item = &'a C::Row>,
    block_rows: usize,
) -> Result<(), MmError> {
    let rows: Vec<&C::Row> = rows.collect();
    // Enforce the ingest contract at the write boundary too, so a file can
    // never be produced that the reader would reject.
    for row in &rows {
        C::check(row)?;
    }
    let (dict, groups) = encode_blocks::<C>(&rows, block_rows);
    let mut writer = StoreWriter::new(w, C::KIND)?;
    writer.write_block(TAG_DICT, &dict)?;
    for g in &groups {
        writer.write_block(TAG_ROWS, g)?;
    }
    writer.finish(rows.len() as u64)
}

/// Read every row of a file written by [`write_rows`].
fn read_rows<C: GroupCodec, R: Read>(r: R) -> Result<Vec<C::Row>, MmError> {
    GroupReader::<R, C>::new(r)?.collect()
}

/// Streaming reader over one stored dataset: yields one row at a time,
/// decoding one row group per block — the whole dataset is never
/// materialized here. [`D2StoreReader`] and [`D1StoreReader`] name its
/// two instances.
///
/// Configure before iterating:
/// [`with_predicate`](Self::with_predicate) skips whole row groups via
/// their vocabulary stats and row-filters the rest;
/// [`scan_with_predicate`](Self::scan_with_predicate) row-filters only
/// (the full-scan baseline); [`with_round_offset`](Self::with_round_offset)
/// shifts decoded rounds for appended campaign rounds.
pub struct GroupReader<R: Read, C: GroupCodec> {
    inner: StoreReader<R>,
    dict: Option<ResolvedDict>,
    buf: std::vec::IntoIter<C::Row>,
    decoded: u64,
    done: bool,
    pred: Predicate,
    pushdown: bool,
    filter: Option<GroupFilter>,
    round_offset: u32,
    stats: ScanStats,
}

/// Streaming D2 reader: [`ConfigSample`] rows.
pub type D2StoreReader<R> = GroupReader<R, D2Codec>;

/// Streaming D1 reader: [`HandoffInstance`] rows. Pushdown covers carrier
/// and city only; D1 rows have no parameter or RAT columns.
pub type D1StoreReader<R> = GroupReader<R, D1Codec>;

impl<R: Read, C: GroupCodec> GroupReader<R, C> {
    /// Open a store stream and validate its header.
    pub fn new(r: R) -> Result<Self, MmError> {
        let inner = StoreReader::new(r)?;
        if inner.kind() != C::KIND {
            return Err(StoreError::Schema(format!(
                "expected kind {:?}, found {:?}",
                C::KIND,
                inner.kind()
            ))
            .into());
        }
        // Pre-v2 row groups lack the column count and stats prefix;
        // decoding them under the v2 layout would misparse columns, so a
        // clear schema error up front beats a garbled one mid-file.
        if inner.version() < 2 {
            return Err(StoreError::Schema(format!(
                "store format v{} predates per-group column stats; re-crawl to refresh the store",
                inner.version()
            ))
            .into());
        }
        Ok(GroupReader {
            inner,
            dict: None,
            buf: Vec::new().into_iter(),
            decoded: 0,
            done: false,
            pred: Predicate::any(),
            pushdown: false,
            filter: None,
            round_offset: 0,
            stats: ScanStats::default(),
        })
    }

    /// Yield only rows matching `pred`, skipping whole row groups whose
    /// vocabulary stats rule the predicate out — their column bytes are
    /// never decoded, and (like any column store that prunes on page
    /// stats) their checksums are not verified either; only groups that
    /// contribute rows pay the CRC pass. Call before iterating.
    pub fn with_predicate(mut self, pred: &Predicate) -> Self {
        self.pred = pred.clone();
        self.pushdown = true;
        self
    }

    /// Yield only rows matching `pred`, decoding *every* group (no block
    /// skipping) — the full-scan baseline pushdown is measured against.
    pub fn scan_with_predicate(mut self, pred: &Predicate) -> Self {
        self.pred = pred.clone();
        self.pushdown = false;
        self
    }

    /// Shift every decoded row's round by `rounds` — how appended campaign
    /// rounds (stored with local rounds starting at 0) surface under the
    /// global round index.
    pub fn with_round_offset(mut self, rounds: u32) -> Self {
        self.round_offset = rounds;
        self
    }

    /// What this scan decoded vs skipped so far (complete once iteration
    /// has finished).
    pub fn scan_stats(&self) -> ScanStats {
        self.stats
    }

    fn refill(&mut self) -> Result<bool, MmError> {
        loop {
            // With a pushdown filter armed, each row group's stats prefix
            // is consulted before the checksum pass: a rejected group's
            // column bytes and CRC are never touched. A prefix that fails
            // to parse is admitted so the verified path below reports the
            // real (typed) error.
            let next = match &self.filter {
                Some(f) => self.inner.next_block_if(&mut |tag, payload| {
                    if tag != TAG_ROWS {
                        return true;
                    }
                    let Ok(prefix) = decode_group_prefix(payload, C::COLS, C::STATS) else {
                        return true;
                    };
                    if f.admits(&prefix.stats) {
                        return true;
                    }
                    self.stats.groups_skipped += 1;
                    self.stats.rows_skipped += prefix.n_rows;
                    false
                })?,
                None => self.inner.next_block()?,
            };
            let Some(block) = next else {
                let declared = self.inner.records().unwrap_or(0);
                let seen = self.decoded + self.stats.rows_skipped;
                if declared != seen {
                    return Err(StoreError::Schema(format!(
                        "trailer declares {declared} rows, saw {seen}"
                    ))
                    .into());
                }
                publish_scan_stats(C::DATASET, self.stats);
                return Ok(false);
            };
            match block.tag {
                TAG_DICT => {
                    let dict = ResolvedDict::new(Dict::decode(&block.payload)?);
                    if self.pushdown {
                        self.filter = C::filter(&self.pred, &dict);
                    }
                    self.dict = Some(dict);
                }
                TAG_ROWS => {
                    let dict = self.dict.as_ref().ok_or_else(|| {
                        StoreError::Schema("row group before dictionary".to_string())
                    })?;
                    let mut prefix = decode_group_prefix(&block.payload, C::COLS, C::STATS)?;
                    let cols = read_columns(&mut prefix.cols, C::COLS)?;
                    let mut rows = C::decode(dict, prefix.n_rows, &cols)?;
                    self.stats.groups_decoded += 1;
                    self.decoded += rows.len() as u64;
                    if self.round_offset != 0 {
                        for row in &mut rows {
                            C::shift_round(row, self.round_offset);
                        }
                    }
                    if !self.pred.is_any() {
                        let pred = &self.pred;
                        rows.retain(|row| C::matches(pred, row));
                    }
                    self.buf = rows.into_iter();
                    return Ok(true);
                }
                t => {
                    return Err(StoreError::Schema(format!("unknown block tag {t}")).into());
                }
            }
        }
    }
}

impl<R: Read, C: GroupCodec> Iterator for GroupReader<R, C> {
    type Item = Result<C::Row, MmError>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            if let Some(row) = self.buf.next() {
                return Some(Ok(row));
            }
            match self.refill() {
                Ok(more) => self.done = !more,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// D2
// ---------------------------------------------------------------------------

/// The D2 schema: one [`ConfigSample`] per row; group stats over carriers,
/// cities, parameters and RAT tags.
pub struct D2Codec;

impl GroupCodec for D2Codec {
    type Row = ConfigSample;
    const KIND: &'static str = KIND_D2;
    const COLS: usize = 11;
    const STATS: usize = 4;
    const DATASET: &'static str = "d2";

    fn filter(pred: &Predicate, dict: &ResolvedDict) -> Option<GroupFilter> {
        let mut sels = carrier_city_sels(pred, dict);
        sels.push(sel_str(pred.param.as_deref(), dict));
        sels.push(pred.rat.map_or(IdSel::Any, |r| IdSel::One(rat_tag(r))));
        GroupFilter::new(sels)
    }

    fn encode(
        dict: &mut DictBuilder,
        rows: &[&ConfigSample],
    ) -> (Vec<BTreeSet<u64>>, Vec<Vec<u8>>) {
        let mut cell = UIntEncoder::new();
        let mut carrier = UIntEncoder::new();
        let mut city = UIntEncoder::new();
        let mut rat = UIntEncoder::new();
        let mut chan_rat = UIntEncoder::new();
        let mut chan_num = UIntEncoder::new();
        let mut pos_x = F64Encoder::new();
        let mut pos_y = F64Encoder::new();
        let mut round = UIntEncoder::new();
        let mut param = UIntEncoder::new();
        let mut value = F64Encoder::new();
        let mut st_carrier = BTreeSet::new();
        let mut st_city = BTreeSet::new();
        let mut st_param = BTreeSet::new();
        let mut st_rat = BTreeSet::new();
        for s in rows {
            cell.push(u64::from(s.cell.0));
            push_stat(&mut carrier, &mut st_carrier, dict.intern(s.carrier));
            push_stat(&mut city, &mut st_city, dict.intern(s.city.as_str()));
            push_stat(&mut rat, &mut st_rat, rat_tag(s.rat));
            chan_rat.push(rat_tag(s.channel.rat));
            chan_num.push(u64::from(s.channel.number));
            pos_x.push(s.pos.x);
            pos_y.push(s.pos.y);
            round.push(u64::from(s.round));
            push_stat(&mut param, &mut st_param, dict.intern(s.param));
            value.push(s.value);
        }
        (
            vec![st_carrier, st_city, st_param, st_rat],
            vec![
                cell.finish(),
                carrier.finish(),
                city.finish(),
                rat.finish(),
                chan_rat.finish(),
                chan_num.finish(),
                pos_x.finish(),
                pos_y.finish(),
                round.finish(),
                param.finish(),
                value.finish(),
            ],
        )
    }

    fn decode(
        dict: &ResolvedDict,
        n_rows: u64,
        cols: &[&[u8]],
    ) -> Result<Vec<ConfigSample>, StoreError> {
        let mut cell = UIntDecoder::new(cols[0]);
        let mut carrier = UIntDecoder::new(cols[1]);
        let mut city = UIntDecoder::new(cols[2]);
        let mut rat = UIntDecoder::new(cols[3]);
        let mut chan_rat = UIntDecoder::new(cols[4]);
        let mut chan_num = UIntDecoder::new(cols[5]);
        let mut pos_x = F64Decoder::new(cols[6]);
        let mut pos_y = F64Decoder::new(cols[7]);
        let mut round = UIntDecoder::new(cols[8]);
        let mut param = UIntDecoder::new(cols[9]);
        let mut value = F64Decoder::new(cols[10]);
        let mut out = Vec::with_capacity(n_rows as usize);
        for _ in 0..n_rows {
            let rat_v = from_tag(&Rat::ALL, rat_tag, rat.read()?, "RAT")?;
            let carrier_v = dict.carrier(carrier.read()?)?;
            let city_v = dict.city(city.read()?)?;
            let param_v = dict.param(param.read()?)?;
            let s = ConfigSample {
                cell: CellId(cell.read_u32()?),
                carrier: carrier_v,
                city: city_v,
                rat: rat_v,
                channel: ChannelNumber {
                    rat: from_tag(&Rat::ALL, rat_tag, chan_rat.read()?, "RAT")?,
                    number: chan_num.read_u32()?,
                },
                pos: Point::new(pos_x.read()?, pos_y.read()?),
                round: round.read_u32()?,
                param: param_v,
                value: value.read()?,
            };
            // A decoded value outside the ingest contract is a malformed
            // file, not a usage error: surface it as a schema failure.
            s.check().map_err(|e| StoreError::Schema(e.to_string()))?;
            out.push(s);
        }
        Ok(out)
    }

    fn matches(pred: &Predicate, row: &ConfigSample) -> bool {
        pred.matches(row)
    }

    fn check(row: &ConfigSample) -> Result<(), MmError> {
        row.check()
    }

    fn shift_round(row: &mut ConfigSample, rounds: u32) {
        row.round += rounds;
    }
}

impl D2 {
    /// Write the dataset in the binary columnar store format with the
    /// default row-group size.
    pub fn write_store<W: Write>(&self, w: W) -> Result<(), MmError> {
        self.write_store_with(w, BLOCK_ROWS)
    }

    /// Write with an explicit row-group size (tests use small groups to
    /// exercise multi-block streaming).
    pub fn write_store_with<W: Write>(&self, w: W, block_rows: usize) -> Result<(), MmError> {
        write_rows::<D2Codec, W>(w, self.iter(), block_rows)
    }

    /// Read a dataset written by [`write_store`](D2::write_store),
    /// streaming block by block.
    pub fn read_store<R: Read>(r: R) -> Result<D2, MmError> {
        read_rows::<D2Codec, R>(r).map(D2::from_samples)
    }
}

// ---------------------------------------------------------------------------
// D1
// ---------------------------------------------------------------------------

/// The D1 schema: one [`HandoffInstance`] per row; group stats over
/// carriers and cities (handoff instances carry no parameter or RAT field).
pub struct D1Codec;

impl GroupCodec for D1Codec {
    type Row = HandoffInstance;
    const KIND: &'static str = KIND_D1;
    const COLS: usize = 26;
    const STATS: usize = 2;
    const DATASET: &'static str = "d1";

    /// Parameter/RAT constraints have no D1 column to match against, so
    /// (as in [`Predicate::matches_d1`]) they do not constrain the scan.
    fn filter(pred: &Predicate, dict: &ResolvedDict) -> Option<GroupFilter> {
        GroupFilter::new(carrier_city_sels(pred, dict))
    }

    fn encode(
        dict: &mut DictBuilder,
        rows: &[&HandoffInstance],
    ) -> (Vec<BTreeSet<u64>>, Vec<Vec<u8>>) {
        let mut carrier = UIntEncoder::new();
        let mut city = UIntEncoder::new();
        let mut t_ms = UIntEncoder::new();
        let mut from = UIntEncoder::new();
        let mut to = UIntEncoder::new();
        let mut kind = UIntEncoder::new();
        let mut idle_rel = UIntEncoder::new();
        let mut evt_tag = UIntEncoder::new();
        let mut evt_params = F64Encoder::new();
        let mut quantity = UIntEncoder::new();
        let mut has_rc = UIntEncoder::new();
        let mut rc_evt_tag = UIntEncoder::new();
        let mut rc_evt_params = F64Encoder::new();
        let mut rc_quantity = UIntEncoder::new();
        let mut rc_hyst = F64Encoder::new();
        let mut rc_ttt = UIntEncoder::new();
        let mut rc_interval = UIntEncoder::new();
        let mut rc_amount = UIntEncoder::new();
        let mut report_t = UIntEncoder::new();
        let mut cmd_delay = UIntEncoder::new();
        let mut rsrp_old = F64Encoder::new();
        let mut rsrp_new = F64Encoder::new();
        let mut rsrq_old = F64Encoder::new();
        let mut rsrq_new = F64Encoder::new();
        let mut has_thpt = UIntEncoder::new();
        let mut thpt = F64Encoder::new();
        let mut st_carrier = BTreeSet::new();
        let mut st_city = BTreeSet::new();
        for i in rows {
            let r = &i.record;
            push_stat(&mut carrier, &mut st_carrier, dict.intern(i.carrier));
            push_stat(&mut city, &mut st_city, dict.intern(i.city.as_str()));
            t_ms.push(r.t_ms);
            from.push(u64::from(r.from.0));
            to.push(u64::from(r.to.0));
            match &r.kind {
                HandoffKind::Idle { relation } => {
                    kind.push(0);
                    idle_rel.push(relation_tag(*relation));
                }
                HandoffKind::Active {
                    decisive,
                    quantity: q,
                    report_config,
                    report_t_ms,
                    command_delay_ms,
                } => {
                    kind.push(1);
                    push_event(decisive, &mut evt_tag, &mut evt_params);
                    quantity.push(quantity_tag(*q));
                    match report_config {
                        None => has_rc.push(0),
                        Some(rc) => {
                            has_rc.push(1);
                            push_event(&rc.event, &mut rc_evt_tag, &mut rc_evt_params);
                            rc_quantity.push(quantity_tag(rc.quantity));
                            rc_hyst.push(rc.hysteresis_db);
                            rc_ttt.push(u64::from(rc.time_to_trigger_ms));
                            rc_interval.push(u64::from(rc.report_interval_ms));
                            rc_amount.push(u64::from(rc.report_amount));
                        }
                    }
                    report_t.push(*report_t_ms);
                    cmd_delay.push(*command_delay_ms);
                }
            }
            rsrp_old.push(r.rsrp_old_dbm);
            rsrp_new.push(r.rsrp_new_dbm);
            rsrq_old.push(r.rsrq_old_db);
            rsrq_new.push(r.rsrq_new_db);
            match r.min_thpt_before_bps {
                None => has_thpt.push(0),
                Some(v) => {
                    has_thpt.push(1);
                    thpt.push(v);
                }
            }
        }
        (
            vec![st_carrier, st_city],
            vec![
                carrier.finish(),
                city.finish(),
                t_ms.finish(),
                from.finish(),
                to.finish(),
                kind.finish(),
                idle_rel.finish(),
                evt_tag.finish(),
                evt_params.finish(),
                quantity.finish(),
                has_rc.finish(),
                rc_evt_tag.finish(),
                rc_evt_params.finish(),
                rc_quantity.finish(),
                rc_hyst.finish(),
                rc_ttt.finish(),
                rc_interval.finish(),
                rc_amount.finish(),
                report_t.finish(),
                cmd_delay.finish(),
                rsrp_old.finish(),
                rsrp_new.finish(),
                rsrq_old.finish(),
                rsrq_new.finish(),
                has_thpt.finish(),
                thpt.finish(),
            ],
        )
    }

    fn decode(
        dict: &ResolvedDict,
        n_rows: u64,
        cols: &[&[u8]],
    ) -> Result<Vec<HandoffInstance>, StoreError> {
        let mut carrier = UIntDecoder::new(cols[0]);
        let mut city = UIntDecoder::new(cols[1]);
        let mut t_ms = UIntDecoder::new(cols[2]);
        let mut from = UIntDecoder::new(cols[3]);
        let mut to = UIntDecoder::new(cols[4]);
        let mut kind = UIntDecoder::new(cols[5]);
        let mut idle_rel = UIntDecoder::new(cols[6]);
        let mut evt_tag = UIntDecoder::new(cols[7]);
        let mut evt_params = F64Decoder::new(cols[8]);
        let mut quantity = UIntDecoder::new(cols[9]);
        let mut has_rc = UIntDecoder::new(cols[10]);
        let mut rc_evt_tag = UIntDecoder::new(cols[11]);
        let mut rc_evt_params = F64Decoder::new(cols[12]);
        let mut rc_quantity = UIntDecoder::new(cols[13]);
        let mut rc_hyst = F64Decoder::new(cols[14]);
        let mut rc_ttt = UIntDecoder::new(cols[15]);
        let mut rc_interval = UIntDecoder::new(cols[16]);
        let mut rc_amount = UIntDecoder::new(cols[17]);
        let mut report_t = UIntDecoder::new(cols[18]);
        let mut cmd_delay = UIntDecoder::new(cols[19]);
        let mut rsrp_old = F64Decoder::new(cols[20]);
        let mut rsrp_new = F64Decoder::new(cols[21]);
        let mut rsrq_old = F64Decoder::new(cols[22]);
        let mut rsrq_new = F64Decoder::new(cols[23]);
        let mut has_thpt = UIntDecoder::new(cols[24]);
        let mut thpt = F64Decoder::new(cols[25]);
        let mut out = Vec::with_capacity(n_rows as usize);
        for _ in 0..n_rows {
            let carrier_v = dict.carrier(carrier.read()?)?;
            let city_v = dict.city(city.read()?)?;
            let t = t_ms.read()?;
            let from_v = CellId(from.read_u32()?);
            let to_v = CellId(to.read_u32()?);
            let kind_v = match kind.read()? {
                0 => HandoffKind::Idle {
                    relation: from_tag(&RELATIONS, relation_tag, idle_rel.read()?, "relation")?,
                },
                1 => {
                    let decisive = event_from(evt_tag.read()?, &mut evt_params)?;
                    let q = from_tag(&QUANTITIES, quantity_tag, quantity.read()?, "quantity")?;
                    let report_config = match has_rc.read()? {
                        0 => None,
                        1 => Some(ReportConfig {
                            event: event_from(rc_evt_tag.read()?, &mut rc_evt_params)?,
                            quantity: from_tag(
                                &QUANTITIES,
                                quantity_tag,
                                rc_quantity.read()?,
                                "quantity",
                            )?,
                            hysteresis_db: rc_hyst.read()?,
                            time_to_trigger_ms: rc_ttt.read_u32()?,
                            report_interval_ms: rc_interval.read_u32()?,
                            report_amount: rc_amount.read_u8()?,
                        }),
                        t => {
                            return Err(StoreError::Schema(format!("bad option flag {t}")));
                        }
                    };
                    HandoffKind::Active {
                        decisive,
                        quantity: q,
                        report_config,
                        report_t_ms: report_t.read()?,
                        command_delay_ms: cmd_delay.read()?,
                    }
                }
                t => return Err(StoreError::Schema(format!("unknown handoff kind tag {t}"))),
            };
            let record = HandoffRecord {
                t_ms: t,
                from: from_v,
                to: to_v,
                kind: kind_v,
                rsrp_old_dbm: rsrp_old.read()?,
                rsrp_new_dbm: rsrp_new.read()?,
                rsrq_old_db: rsrq_old.read()?,
                rsrq_new_db: rsrq_new.read()?,
                min_thpt_before_bps: match has_thpt.read()? {
                    0 => None,
                    1 => Some(thpt.read()?),
                    t => return Err(StoreError::Schema(format!("bad option flag {t}"))),
                },
            };
            out.push(HandoffInstance {
                carrier: carrier_v,
                city: city_v,
                record,
            });
        }
        Ok(out)
    }

    fn matches(pred: &Predicate, row: &HandoffInstance) -> bool {
        pred.matches_d1(row)
    }
}

impl D1 {
    /// Write the dataset in the binary columnar store format with the
    /// default row-group size.
    pub fn write_store<W: Write>(&self, w: W) -> Result<(), MmError> {
        self.write_store_with(w, BLOCK_ROWS)
    }

    /// Write with an explicit row-group size.
    pub fn write_store_with<W: Write>(&self, w: W, block_rows: usize) -> Result<(), MmError> {
        write_rows::<D1Codec, W>(w, self.iter_handoffs(), block_rows)
    }

    /// Read a dataset written by [`write_store`](D1::write_store).
    pub fn read_store<R: Read>(r: R) -> Result<D1, MmError> {
        read_rows::<D1Codec, R>(r).map(D1::from_instances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaigns_parallel, CampaignConfig};
    use crate::crawler::crawl;
    use mmcarriers::city::City;
    use mmcarriers::world::World;

    fn small_d2() -> D2 {
        let world = World::generate(3, 0.01);
        crawl(&world, 1)
    }

    fn small_d1() -> D1 {
        let world = World::generate(3, 0.02);
        let cfg = CampaignConfig::active(6)
            .runs(1)
            .duration_ms(180_000)
            .cities(&[City::C1, City::C3]);
        run_campaigns_parallel(&world, &["A", "T"], &cfg)
    }

    #[test]
    fn event_wire_tags_are_the_typed_decisive_codes() {
        use mmcore::DecisiveEvent;
        let kinds = [
            EventKind::A1 { threshold: -100.0 },
            EventKind::A2 { threshold: -90.0 },
            EventKind::A3 { offset_db: 3.0 },
            EventKind::A4 { threshold: -80.0 },
            EventKind::A5 {
                threshold1: -70.0,
                threshold2: -95.0,
            },
            EventKind::A6 { offset_db: 2.0 },
            EventKind::B1 { threshold: -85.0 },
            EventKind::B2 {
                threshold1: -75.0,
                threshold2: -92.0,
            },
            EventKind::Periodic,
        ];
        for kind in &kinds {
            // The wire tag IS the typed code: the store format and the
            // figure labels cannot drift apart.
            let (tag, params) = event_parts(kind);
            assert_eq!(tag, kind.decisive().code(), "{kind:?}");
            // And the tag decodes back to the same variant with the same
            // payload through the real column codecs.
            let mut enc = F64Encoder::new();
            for p in params.into_iter().flatten() {
                enc.push(p);
            }
            let bytes = enc.finish();
            let mut dec = F64Decoder::new(&bytes);
            assert_eq!(&event_from(tag, &mut dec).unwrap(), kind);
        }
        // Every decisive code round-trips, and the EventKind tags cover
        // exactly the non-Idle codes (Idle never appears in a D1 row).
        for e in DecisiveEvent::ALL {
            assert_eq!(DecisiveEvent::from_code(e.code()), Some(e), "{e:?}");
            assert!(!e.label().is_empty());
        }
        assert_eq!(
            DecisiveEvent::from_code(DecisiveEvent::Idle.code() + 1),
            None
        );
        let tags: Vec<u64> = kinds.iter().map(|k| event_parts(k).0).collect();
        let codes: Vec<u64> = DecisiveEvent::ALL
            .into_iter()
            .filter(|e| *e != DecisiveEvent::Idle)
            .map(|e| e.code())
            .collect();
        assert_eq!(tags, codes);
    }

    #[test]
    fn d2_streams_across_many_small_blocks() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        d2.write_store_with(&mut buf, 7).unwrap();
        let rows: Result<Vec<ConfigSample>, MmError> =
            D2StoreReader::new(buf.as_slice()).unwrap().collect();
        let rows = rows.unwrap();
        assert_eq!(rows.len(), d2.len());
        assert_eq!(D2::from_samples(rows), d2);
        // More than one row group actually made it to disk.
        let mut r = mm_store::StoreReader::new(buf.as_slice()).unwrap();
        let mut blocks = 0;
        while r.next_block().unwrap().is_some() {
            blocks += 1;
        }
        assert!(blocks > d2.len() / 7, "expected many row groups");
    }

    #[test]
    fn d1_idle_runs_round_trip_too() {
        let world = World::generate(5, 0.02);
        let cfg = CampaignConfig::idle(9)
            .runs(1)
            .duration_ms(180_000)
            .cities(&[City::C1]);
        let d1 = run_campaigns_parallel(&world, &["A", "V"], &cfg);
        let mut buf = Vec::new();
        d1.write_store_with(&mut buf, 13).unwrap();
        assert_eq!(D1::read_store(buf.as_slice()).unwrap(), d1);
    }

    #[test]
    fn empty_datasets_round_trip() {
        let mut buf = Vec::new();
        D2::default().write_store(&mut buf).unwrap();
        assert!(D2::read_store(buf.as_slice()).unwrap().is_empty());
        let mut buf = Vec::new();
        D1::default().write_store(&mut buf).unwrap();
        assert!(D1::read_store(buf.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn truncation_and_corruption_are_typed_not_panics() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        d2.write_store_with(&mut buf, 50).unwrap();
        // Truncate at many points through the file.
        for cut in [0, 3, 10, buf.len() / 2, buf.len() - 1] {
            let got = D2::read_store(&buf[..cut]);
            assert!(matches!(got, Err(MmError::Store(_))), "cut {cut}: {got:?}");
        }
        // Bit-flip in the middle (some payload byte).
        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            D2::read_store(flipped.as_slice()),
            Err(MmError::Store(_))
        ));
    }

    #[test]
    fn pushdown_matches_full_scan_and_skips_groups() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        // Small groups so carrier clustering gives skippable blocks.
        d2.write_store_with(&mut buf, 32).unwrap();
        let pred = Predicate::any().carrier("A");
        let expect: Vec<ConfigSample> = d2.filter(&pred).cloned().collect();
        assert!(!expect.is_empty());
        assert!(expect.len() < d2.len());

        let mut pushed = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .with_predicate(&pred);
        let rows: Vec<ConfigSample> = pushed.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(rows, expect, "pushdown yields exactly the matching rows");
        let stats = pushed.scan_stats();
        assert!(
            stats.groups_skipped > 0,
            "carrier-clustered crawl must skip blocks: {stats:?}"
        );
        assert!(stats.rows_skipped > 0);

        // Full-scan baseline: identical rows, zero skipped groups.
        let mut scanned = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .scan_with_predicate(&pred);
        let scan_rows: Vec<ConfigSample> = scanned.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(scan_rows, expect);
        assert_eq!(scanned.scan_stats().groups_skipped, 0);
        assert!(scanned.scan_stats().groups_decoded > stats.groups_decoded);
    }

    #[test]
    fn absent_vocabulary_predicate_skips_every_group() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        d2.write_store_with(&mut buf, 32).unwrap();
        let pred = Predicate::any().param("no-such-parameter");
        let mut r = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .with_predicate(&pred);
        assert_eq!(r.by_ref().count(), 0);
        let stats = r.scan_stats();
        assert_eq!(stats.groups_decoded, 0, "{stats:?}");
        assert_eq!(stats.rows_skipped, d2.len() as u64);
    }

    #[test]
    fn round_offset_shifts_every_decoded_round() {
        let d2 = small_d2();
        let mut buf = Vec::new();
        d2.write_store_with(&mut buf, 64).unwrap();
        let rows: Vec<ConfigSample> = D2StoreReader::new(buf.as_slice())
            .unwrap()
            .with_round_offset(20)
            .map(|r| r.unwrap())
            .collect();
        let plain: Vec<ConfigSample> = d2.iter().cloned().collect();
        assert_eq!(rows.len(), plain.len());
        for (got, want) in rows.iter().zip(&plain) {
            assert_eq!(got.round, want.round + 20);
            assert_eq!((got.cell, got.param, got.value.to_bits()), {
                (want.cell, want.param, want.value.to_bits())
            });
        }
    }

    #[test]
    fn d1_pushdown_matches_filtered_view() {
        let d1 = small_d1();
        let mut buf = Vec::new();
        d1.write_store_with(&mut buf, 16).unwrap();
        let pred = Predicate::any().carrier("A").city(City::C1);
        let expect: Vec<HandoffInstance> = d1.filter(&pred).cloned().collect();
        assert!(!expect.is_empty());
        let mut r = D1StoreReader::new(buf.as_slice())
            .unwrap()
            .with_predicate(&pred);
        let rows: Vec<HandoffInstance> = r.by_ref().map(|x| x.unwrap()).collect();
        assert_eq!(rows, expect);
        assert!(r.scan_stats().groups_skipped > 0, "{:?}", r.scan_stats());
    }

    #[test]
    fn unknown_vocabulary_is_a_schema_error() {
        // Hand-build a file whose dictionary holds a carrier code the
        // workspace does not know.
        let mut sample = small_d2().iter().next().cloned().unwrap();
        sample.round = 0;
        let d2 = D2::from_samples(vec![sample]);
        let mut buf = Vec::new();
        d2.write_store(&mut buf).unwrap();
        // The dictionary block is the first frame; its first entry is the
        // carrier code. Rewrite it through the framing layer to keep CRCs
        // valid.
        let mut reader = mm_store::StoreReader::new(buf.as_slice()).unwrap();
        let dict_block = reader.next_block().unwrap().unwrap();
        let mut rest = Vec::new();
        while let Some(b) = reader.next_block().unwrap() {
            rest.push(b);
        }
        let records = reader.records().unwrap();
        let mut dict = DictBuilder::new();
        dict.intern("ZZ-no-such-carrier");
        // Re-intern the remaining entries so only entry 0 changes.
        let old = Dict::decode(&dict_block.payload).unwrap();
        for i in 1..old.len() {
            dict.intern(old.get(i as u64).unwrap());
        }
        let mut out = Vec::new();
        let mut w = StoreWriter::new(&mut out, KIND_D2).unwrap();
        w.write_block(TAG_DICT, &dict.encode()).unwrap();
        for b in &rest {
            w.write_block(b.tag, &b.payload).unwrap();
        }
        w.finish(records).unwrap();
        assert!(matches!(
            D2::read_store(out.as_slice()),
            Err(MmError::Store(StoreError::Schema(_)))
        ));
    }

    #[test]
    fn enum_tags_decode_back() {
        for rat in Rat::ALL {
            assert_eq!(
                from_tag(&Rat::ALL, rat_tag, rat_tag(rat), "RAT").unwrap(),
                rat
            );
        }
        for q in QUANTITIES {
            assert_eq!(
                from_tag(&QUANTITIES, quantity_tag, quantity_tag(q), "q").unwrap(),
                q
            );
        }
        for r in RELATIONS {
            assert_eq!(
                from_tag(&RELATIONS, relation_tag, relation_tag(r), "r").unwrap(),
                r
            );
        }
    }

    #[test]
    fn stored_bytes_are_pinned_and_round_trip() {
        // FNV-1a of each dataset's store file: any change to the stored
        // bytes, in either codec or the shared framing, fails here.
        let (d1, d2) = (small_d1(), small_d2());
        assert!(
            !d1.is_empty() && d2.len() > 100,
            "need non-trivial datasets"
        );
        let mut d1_file = Vec::new();
        d1.write_store_with(&mut d1_file, 50).unwrap();
        let mut d2_file = Vec::new();
        d2.write_store_with(&mut d2_file, 50).unwrap();
        assert_eq!(mm_store::fnv1a64(&d1_file), 0xbda6_fa84_edec_b51c);
        assert_eq!(mm_store::fnv1a64(&d2_file), 0x9735_f6e4_60ae_fa42);
        assert_eq!(D1::read_store(d1_file.as_slice()).unwrap(), d1);
        assert_eq!(D2::read_store(d2_file.as_slice()).unwrap(), d2);
    }

    /// A store file of `kind` holding `blocks` in order, whose trailer
    /// declares `records` rows.
    fn frame(kind: &str, blocks: &[(u8, &[u8])], records: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = StoreWriter::new(&mut out, kind).unwrap();
        for &(tag, payload) in blocks {
            w.write_block(tag, payload).unwrap();
        }
        w.finish(records).unwrap();
        out
    }

    /// Read every row of `bytes` as dataset `C` (under pushdown when `pred`
    /// is given) and require the schema error `want`; returns the scan's
    /// group accounting.
    fn expect_schema_error<C: GroupCodec>(
        bytes: &[u8],
        pred: Option<&Predicate>,
        want: &str,
    ) -> ScanStats {
        let (got, stats) = match GroupReader::<&[u8], C>::new(bytes) {
            Err(e) => (Err(e), ScanStats::default()),
            Ok(r) => {
                let mut r = match pred {
                    Some(pred) => r.with_predicate(pred),
                    None => r,
                };
                let rows: Result<Vec<C::Row>, MmError> = r.by_ref().collect();
                (rows.map(|rows| rows.len()), r.scan_stats())
            }
        };
        match got {
            Err(MmError::Store(StoreError::Schema(msg))) if msg.contains(want) => stats,
            other => panic!(
                "{}: want a schema error containing {want:?}, got {other:?}",
                C::DATASET
            ),
        }
    }

    /// Run one codec's rows through every hostile framing of its blocks.
    /// `pred` must let pushdown skip some groups of `block_rows` rows.
    fn hostile_framings<C: GroupCodec>(rows: &[&C::Row], block_rows: usize, pred: &Predicate) {
        let (dict, groups) = encode_blocks::<C>(rows, block_rows);
        assert!(groups.len() > 2, "{}: need several row groups", C::DATASET);
        let n = rows.len() as u64;
        let mut ordered: Vec<(u8, &[u8])> = vec![(TAG_DICT, &dict)];
        ordered.extend(groups.iter().map(|g| (TAG_ROWS, g.as_slice())));
        let mut late_dict = ordered.clone();
        late_dict.swap(0, 1);
        let mut junk = ordered.clone();
        junk.insert(1, (9, &b"junk"[..]));
        // A group declaring one column too many fails before any column
        // byte is decoded.
        let wide = encode_group(
            1,
            &vec![BTreeSet::new(); C::STATS],
            vec![vec![]; C::COLS + 1],
        );
        let wide = [(TAG_DICT, &dict[..]), (TAG_ROWS, &wide[..])];
        let cases = [
            (
                frame(C::KIND, &late_dict, n),
                None,
                "row group before dictionary",
            ),
            (frame(C::KIND, &junk, n), None, "unknown block tag 9"),
            (frame(C::KIND, &wide, 1), None, "columns, schema expects"),
            (frame(C::KIND, &ordered, n + 1), None, "trailer declares"),
            (frame(C::KIND, &ordered, n - 1), None, "trailer declares"),
            (
                frame(C::KIND, &ordered, n + 1),
                Some(pred),
                "trailer declares",
            ),
            (
                frame(C::KIND, &ordered, n - 1),
                Some(pred),
                "trailer declares",
            ),
        ];
        for (bytes, pred, want) in cases {
            let stats = expect_schema_error::<C>(&bytes, pred, want);
            assert!(
                pred.is_none() || stats.groups_skipped > 0,
                "pushdown skipped nothing"
            );
        }
    }

    #[test]
    fn hostile_framing_is_a_typed_error_for_both_codecs() {
        let (d1, d2) = (small_d1(), small_d2());
        let d1_rows: Vec<&HandoffInstance> = d1.iter_handoffs().collect();
        let d1_pred = Predicate::any().carrier("A").city(City::C1);
        hostile_framings::<D1Codec>(&d1_rows, 4, &d1_pred);
        let d2_rows: Vec<&ConfigSample> = d2.iter().collect();
        hostile_framings::<D2Codec>(&d2_rows, 32, &Predicate::any().carrier("A"));
        // A well-formed file of one dataset opened as the other.
        let mut d1_file = Vec::new();
        d1.write_store(&mut d1_file).unwrap();
        let mut d2_file = Vec::new();
        d2.write_store(&mut d2_file).unwrap();
        expect_schema_error::<D2Codec>(&d1_file, None, "expected kind");
        expect_schema_error::<D1Codec>(&d2_file, None, "expected kind");
    }
}

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
//! # mm-telemetry — structured metrics and span tracing
//!
//! The workspace's observability layer: named [`Registry`] sections hold
//! lock-free atomic [`Counter`]s, fixed-bucket integer [`Histogram`]s and
//! hierarchical [`Span`](SpanGuard) timers. A [`Snapshot`] captures the
//! whole registry as plain data, serializable via `mm-json` and diffable
//! for before/after comparisons in bench reports.
//!
//! ## Determinism
//!
//! The repo's scheduler contract — parallel output byte-identical to the
//! sequential path for any `MM_THREADS` — extends to telemetry:
//!
//! * Every metric carries a [`Scope`]. [`Scope::Sim`] metrics describe the
//!   *simulated* system (handoffs executed, cells crawled, tasks run) and
//!   must not depend on the host scheduler; [`Scope::Sched`] metrics
//!   (steals, queue depths, wall-clock) inherently do.
//! * Counters and histograms observe `u64` values only, so totals are sums
//!   of integers — associative, and therefore independent of the order in
//!   which worker threads contribute.
//! * Span timings accumulate per thread and merge into the registry under
//!   `BTreeMap` ordering when the thread's root span exits, so snapshot
//!   iteration order never depends on thread interleaving.
//!
//! [`Snapshot::deterministic`] projects a snapshot down to the part that
//! honours the contract: `Sim`-scoped metrics and span paths/counts with
//! nanosecond timings zeroed. `mmx --metrics` emits exactly that view, and
//! `scripts/verify.sh` diffs it across `MM_THREADS=1` vs `8`.
//!
//! ## Span hierarchy
//!
//! [`Registry::span`] pushes a name onto a thread-local stack and returns
//! an exit guard; the full path (`"f7/drive"`) is the stack joined with
//! `/`. `mm-exec` runs every task under [`detached`], which swaps the
//! caller's stack out for an empty one, so a task's spans root at the same
//! paths whether the task runs inline (1 thread) or on a worker.

mod snapshot;
mod span;

pub use snapshot::{CounterSnap, HistogramSnap, SectionSnap, Snapshot, SpanSnap};
pub use span::{detached, SpanGuard};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Whether a metric is deterministic in the simulation inputs ([`Sim`](Scope::Sim)),
/// reflects host scheduling ([`Sched`](Scope::Sched)), or counts the load a
/// query server observed ([`Serve`](Scope::Serve)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Simulation-domain: identical for any thread count / scheduler.
    Sim,
    /// Scheduler-domain: steals, queue depths, wall-clock durations.
    Sched,
    /// Serving-domain: connections, requests, cache hits, service times —
    /// a function of client traffic, so excluded (like [`Scope::Sched`])
    /// from the deterministic projection.
    Serve,
}

impl Scope {
    /// Wire form used in snapshots (`"sim"` / `"sched"` / `"serve"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::Sim => "sim",
            Scope::Sched => "sched",
            Scope::Serve => "serve",
        }
    }
}

/// A lock-free monotonic counter handle. Cloning shares the same cell;
/// handles stay live (and visible to snapshots) for the registry's
/// lifetime.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // relaxed-ok: independent monotonic adds; totals are commutative and
        // snapshots read after the owning scope joins its workers
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the value to at least `v` (high-watermark gauges).
    pub fn record_max(&self, v: u64) {
        // relaxed-ok: fetch_max is order-insensitive; the final watermark is
        // the same whatever interleaving the threads saw
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed-ok: monotonic counter read; readers tolerate staleness
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    /// Upper bounds of the finite buckets, strictly increasing. Bucket `i`
    /// counts observations `v <= bounds[i]`; one extra overflow bucket
    /// catches everything above the last bound.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A lock-free fixed-bucket histogram of `u64` observations.
///
/// Integer-only by design: integer sums are associative, so the totals are
/// independent of which thread recorded what first.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        let i = self.core.bounds.partition_point(|&b| b < v);
        // relaxed-ok: integer adds commute; bucket/count/sum totals are
        // interleaving-independent and snapshots read quiescent state
        self.core.buckets[i].fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: see above — commutative integer add
        self.core.count.fetch_add(1, Ordering::Relaxed);
        // relaxed-ok: see above — commutative integer add
        self.core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        // relaxed-ok: monotonic counter read; readers tolerate staleness
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        // relaxed-ok: monotonic counter read; readers tolerate staleness
        self.core.sum.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
}

#[derive(Debug, Default)]
struct SectionData {
    counters: BTreeMap<String, (Scope, Arc<AtomicU64>)>,
    histograms: BTreeMap<String, (Scope, Arc<HistCore>)>,
    /// Keyed by full span path ("f7/drive").
    spans: BTreeMap<String, SpanStat>,
}

/// A set of metric sections. Use [`global()`] for the process-wide registry
/// everything instruments into, or [`Registry::new`] for an isolated one in
/// tests.
#[derive(Debug, Default)]
pub struct Registry {
    sections: Mutex<BTreeMap<String, SectionData>>,
}

impl Registry {
    /// Lock the section table, propagating a poisoned-mutex panic.
    fn locked(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, SectionData>> {
        #[expect(
            clippy::expect_used,
            reason = "a poisoned mutex means another thread panicked mid-update; propagating is the only sound option"
        )]
        self.sections.lock().expect("telemetry registry poisoned")
    }

    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-register a counter. Registration is idempotent: the first
    /// call fixes the scope, later calls return a handle to the same cell.
    pub fn counter_scoped(&self, section: &str, name: &str, scope: Scope) -> Counter {
        let mut sections = self.locked();
        let cell = sections
            .entry(section.to_string())
            .or_default()
            .counters
            .entry(name.to_string())
            .or_insert_with(|| (scope, Arc::new(AtomicU64::new(0))))
            .1
            .clone();
        Counter { cell }
    }

    /// Get-or-register a [`Scope::Sim`] counter.
    pub fn counter(&self, section: &str, name: &str) -> Counter {
        self.counter_scoped(section, name, Scope::Sim)
    }

    /// Get-or-register a histogram with the given finite bucket bounds
    /// (strictly increasing; an overflow bucket is added implicitly). The
    /// first registration fixes scope and bounds.
    pub fn histogram_scoped(
        &self,
        section: &str,
        name: &str,
        scope: Scope,
        bounds: &[u64],
    ) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must increase"
        );
        let mut sections = self.locked();
        let core = sections
            .entry(section.to_string())
            .or_default()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| {
                let core = HistCore {
                    bounds: bounds.to_vec(),
                    buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                };
                (scope, Arc::new(core))
            })
            .1
            .clone();
        Histogram { core }
    }

    /// Get-or-register a [`Scope::Sim`] histogram.
    pub fn histogram(&self, section: &str, name: &str, bounds: &[u64]) -> Histogram {
        self.histogram_scoped(section, name, Scope::Sim, bounds)
    }

    /// Enter a span. The returned guard times the enclosed work and records
    /// one `(path, duration)` observation on drop; nesting spans on the same
    /// thread builds `/`-joined paths. Guards must be dropped in LIFO order
    /// (the natural scoping).
    pub fn span(&self, section: &'static str, name: &'static str) -> SpanGuard<'_> {
        span::enter(self, section, name)
    }

    /// Merge a batch of finished span observations in (called by the span
    /// machinery when a thread's root span exits).
    pub(crate) fn record_spans(&self, entries: &[(&'static str, String, u64)]) {
        let mut sections = self.locked();
        for (section, path, ns) in entries {
            let stat = sections
                .entry(section.to_string())
                .or_default()
                .spans
                .entry(path.clone())
                .or_default();
            stat.count += 1;
            stat.total_ns += ns;
        }
    }

    /// Capture the registry as plain data, in `BTreeMap` (name) order.
    pub fn snapshot(&self) -> Snapshot {
        let sections = self.locked();
        Snapshot {
            sections: sections
                .iter()
                .map(|(name, data)| SectionSnap {
                    name: name.clone(),
                    counters: data
                        .counters
                        .iter()
                        .map(|(n, (scope, cell))| CounterSnap {
                            name: n.clone(),
                            scope: *scope,
                            // relaxed-ok: snapshot runs after scatter/gather
                            // joins; deterministic readers see quiescent values
                            value: cell.load(Ordering::Relaxed),
                        })
                        .collect(),
                    histograms: data
                        .histograms
                        .iter()
                        .map(|(n, (scope, core))| HistogramSnap {
                            name: n.clone(),
                            scope: *scope,
                            bounds: core.bounds.clone(),
                            buckets: core
                                .buckets
                                .iter()
                                // relaxed-ok: quiescent at snapshot time
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            // relaxed-ok: quiescent at snapshot time
                            count: core.count.load(Ordering::Relaxed),
                            // relaxed-ok: quiescent at snapshot time
                            sum: core.sum.load(Ordering::Relaxed),
                        })
                        .collect(),
                    spans: data
                        .spans
                        .iter()
                        .map(|(path, stat)| SpanSnap {
                            path: path.clone(),
                            count: stat.count,
                            total_ns: stat.total_ns,
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Zero every counter/histogram and clear span accumulations, keeping
    /// registrations (outstanding handles stay live). For tests.
    pub fn reset(&self) {
        let mut sections = self.locked();
        for data in sections.values_mut() {
            for (_, cell) in data.counters.values() {
                // relaxed-ok: reset is a test-only quiescent-state operation
                cell.store(0, Ordering::Relaxed);
            }
            for (_, core) in data.histograms.values() {
                for b in &core.buckets {
                    // relaxed-ok: reset is a test-only quiescent-state operation
                    b.store(0, Ordering::Relaxed);
                }
                // relaxed-ok: reset is a test-only quiescent-state operation
                core.count.store(0, Ordering::Relaxed);
                // relaxed-ok: reset is a test-only quiescent-state operation
                core.sum.store(0, Ordering::Relaxed);
            }
            data.spans.clear();
        }
    }
}

/// The process-wide registry every subsystem instruments into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_json::ToJson;

    #[test]
    fn counter_accumulates_and_shares_cell() {
        let reg = Registry::new();
        let a = reg.counter("s", "c");
        let b = reg.counter("s", "c");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("s", "c"), Some(5));
    }

    #[test]
    fn counter_record_max_is_a_high_watermark() {
        let reg = Registry::new();
        let c = reg.counter("s", "peak");
        c.record_max(7);
        c.record_max(3);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn first_registration_fixes_scope() {
        let reg = Registry::new();
        reg.counter_scoped("s", "c", Scope::Sched).inc();
        reg.counter_scoped("s", "c", Scope::Sim).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.sections[0].counters[0].scope, Scope::Sched);
        assert_eq!(snap.counter("s", "c"), Some(2));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let reg = Registry::new();
        let h = reg.histogram("s", "h", &[10, 20]);
        for v in [0, 10, 11, 20, 21, 1000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.sections[0].histograms[0];
        // <=10: {0,10}; <=20: {11,20}; overflow: {21,1000}.
        assert_eq!(hs.buckets, vec![2, 2, 2]);
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1062);
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        // The same multiset of observations recorded in different orders
        // (and from different threads) must produce identical snapshots.
        let values: Vec<u64> = (0..1000).map(|i| (i * 37) % 250).collect();
        let serial = Registry::new();
        let h = serial.histogram("s", "h", &[50, 100, 150, 200]);
        for &v in &values {
            h.record(v);
        }
        let threaded = Registry::new();
        let h2 = threaded.histogram("s", "h", &[50, 100, 150, 200]);
        std::thread::scope(|scope| {
            for chunk in values.chunks(100).rev() {
                let h2 = h2.clone();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the test races real threads on one histogram to prove the merge is order-free"
                )]
                scope.spawn(move || {
                    for &v in chunk {
                        h2.record(v);
                    }
                });
            }
        });
        assert_eq!(serial.snapshot().to_json(), threaded.snapshot().to_json());
    }

    #[test]
    fn reset_keeps_registrations_live() {
        let reg = Registry::new();
        let c = reg.counter("s", "c");
        c.add(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.snapshot().counter("s", "c"), Some(1));
    }

    #[test]
    fn snapshot_orders_sections_and_names() {
        let reg = Registry::new();
        reg.counter("zeta", "b").inc();
        reg.counter("alpha", "z").inc();
        reg.counter("alpha", "a").inc();
        let snap = reg.snapshot();
        assert_eq!(
            snap.sections
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>(),
            vec!["alpha", "zeta"]
        );
        assert_eq!(snap.sections[0].counters[0].name, "a");
        assert_eq!(snap.sections[0].counters[1].name, "z");
    }
}

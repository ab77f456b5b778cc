//! In-memory spans recorded around calls into the workspace crates.
//!
//! Every span has a name, a start, an end and a parent; spans that belong
//! to one served request share a request id. Spans stay in memory and are
//! written out once, when the benchmark ends. A disabled tracer runs the
//! wrapped call and records nothing.

use crate::stats::{bucket_growth, highest_bucket, self_time, union_len, Stat};
use mm_json::Json;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Registry counter growth over the span, for layer spans.
    pub counters: Option<Counters>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread and its request id.
    static CURRENT: Cell<(Option<u64>, Option<u64>)> = const { Cell::new((None, None)) };
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of this thread's current
    /// span, inheriting its request id.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.span_with(name, None, false, f)
    }

    /// Like [`Tracer::span`], and also records how much each of the
    /// program's [`COUNTERS`] grew over the call.
    pub fn layer<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.span_with(name, None, true, f)
    }

    /// Like [`Tracer::span`], but starts a request: the span and every
    /// span opened inside it carry `req`.
    pub fn request<R>(&self, name: &str, req: u64, f: impl FnOnce() -> R) -> R {
        self.span_with(name, Some(req), false, f)
    }

    fn span_with<R>(&self, name: &str, req: Option<u64>, count: bool, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let before = count.then(Counters::read);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, parent_req) = CURRENT.with(Cell::get);
        let req = req.or(parent_req);
        CURRENT.with(|c| c.set((Some(id), req)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let counters = before.map(|b| Counters::read().since(&b));
        CURRENT.with(|c| c.set((parent, parent_req)));
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                req,
                name: name.to_string(),
                start_ns,
                end_ns,
                counters,
            });
        out
    }

    /// The calling thread's open span, to hand to work on other threads.
    pub fn current(&self) -> Option<u64> {
        CURRENT.with(Cell::get).0
    }

    /// Run `f` on this thread as if inside span `parent` (opened on
    /// another thread), so spans `f` opens become its children.
    pub fn adopt<R>(&self, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let saved = CURRENT.with(Cell::get);
        CURRENT.with(|c| c.set((parent, None)));
        let out = f();
        CURRENT.with(|c| c.set(saved));
        out
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Durations and self times over one finished span list.
pub struct SpanTree {
    spans: Vec<Span>,
}

impl SpanTree {
    pub fn new(spans: Vec<Span>) -> SpanTree {
        SpanTree { spans }
    }

    fn children(&self, id: u64) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// The first span with this name.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Summed duration of every span with this name, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// [`SpanTree::total_ms`] with the number of spans behind it.
    pub fn ms(&self, name: &str) -> Stat {
        Stat::Value {
            v: self.total_ms(name),
            n: self.spans.iter().filter(|s| s.name == name).count(),
        }
    }

    /// Summed growth of one program counter over every span with this name.
    pub fn counter(&self, span: &str, section: &str, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == span)
            .filter_map(|s| s.counters.as_ref())
            .map(|c| c.get(section, name))
            .sum()
    }

    /// The deepest worker deque of any scatter run inside the spans with
    /// this name (as the upper bound of its histogram bucket).
    pub fn queue_depth_max(&self, span: &str) -> Stat {
        let mut bounds: &[u64] = &[];
        let mut grown: Vec<u64> = Vec::new();
        for c in self
            .spans
            .iter()
            .filter(|s| s.name == span)
            .filter_map(|s| s.counters.as_ref())
        {
            bounds = &c.depth_bounds;
            grown.resize(grown.len().max(c.depth.len()), 0);
            for (g, d) in grown.iter_mut().zip(&c.depth) {
                *g += d;
            }
        }
        highest_bucket(bounds, &grown)
    }

    /// A span's duration minus the union of its children's intervals.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let kids: Vec<(u64, u64)> = self
            .children(span.id)
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        self_time((span.start_ns, span.end_ns), &kids)
    }

    /// Share of `root`'s wall time covered by its named child spans.
    pub fn coverage(&self, root: &Span) -> f64 {
        let kids: Vec<(u64, u64)> = self
            .children(root.id)
            .map(|c| (c.start_ns.max(root.start_ns), c.end_ns.min(root.end_ns)))
            .collect();
        union_len(&kids) as f64 / root.dur_ns().max(1) as f64
    }

    /// Every span as JSON, with its self time.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::Num(x as f64));
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", opt(s.parent)),
                        ("req", opt(s.req)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self.self_ns(s) as f64)),
                        (
                            "counters",
                            s.counters.as_ref().map_or(Json::Null, Counters::to_json),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// The program's own registry counters the traced run diffs around each
/// layer call.
pub const COUNTERS: [(&str, &str); 13] = [
    ("sched", "events_processed"),
    ("store", "blocks_read"),
    ("store", "bytes_read"),
    ("store", "bytes_written"),
    ("store", "d2_groups_decoded"),
    ("store", "d2_groups_skipped"),
    ("crawl", "samples_emitted"),
    ("campaign", "drives_completed"),
    ("exec", "tasks_stolen"),
    ("exec", "busy_ns"),
    ("exec", "wall_ns"),
    ("serve", "queries"),
    ("serve", "cache_hits"),
];

/// The program's per-run deque-depth histogram. Its growth over a span
/// bounds the depth of the scatters inside the span alone; the registry's
/// `exec.max_queue_depth` keeps the deepest scatter of the whole process.
const QUEUE_DEPTH: (&str, &str) = ("exec", "queue_depth_per_run");

/// A reading of [`COUNTERS`] and of the [`QUEUE_DEPTH`] histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    values: [u64; COUNTERS.len()],
    depth_bounds: Vec<u64>,
    depth: Vec<u64>,
}

impl Counters {
    pub fn read() -> Counters {
        let reg = mm_telemetry::global();
        let mut values = [0; COUNTERS.len()];
        for (slot, (section, name)) in values.iter_mut().zip(COUNTERS) {
            // The first registration fixes a counter's scope: read each
            // through the scope the program registers it with.
            *slot = if section == "serve" {
                reg.counter_scoped(section, name, mm_telemetry::Scope::Serve)
                    .get()
            } else if section == "exec" {
                reg.counter_scoped(section, name, mm_telemetry::Scope::Sched)
                    .get()
            } else {
                reg.counter(section, name).get()
            };
        }
        let snap = reg.snapshot();
        let hist = snap
            .section(QUEUE_DEPTH.0)
            .and_then(|s| s.histograms.iter().find(|h| h.name == QUEUE_DEPTH.1));
        Counters {
            values,
            depth_bounds: hist.map(|h| h.bounds.clone()).unwrap_or_default(),
            depth: hist.map(|h| h.buckets.clone()).unwrap_or_default(),
        }
    }

    /// How much each counter and histogram bucket grew since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        let mut values = [0; COUNTERS.len()];
        for (i, slot) in values.iter_mut().enumerate() {
            *slot = self.values[i].saturating_sub(before.values[i]);
        }
        Counters {
            values,
            depth_bounds: self.depth_bounds.clone(),
            depth: bucket_growth(&before.depth, &self.depth),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = COUNTERS
            .iter()
            .zip(self.values)
            .filter(|(_, v)| *v > 0)
            .map(|((s, n), v)| (format!("{s}.{n}"), Json::Num(v as f64)))
            .collect();
        if self.depth.iter().any(|&c| c > 0) {
            fields.push((
                format!("{}.{}", QUEUE_DEPTH.0, QUEUE_DEPTH.1),
                Json::Arr(self.depth.iter().map(|&c| Json::Num(c as f64)).collect()),
            ));
        }
        Json::Obj(fields)
    }

    pub fn get(&self, section: &str, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|&(s, n)| s == section && n == name)
            .map_or(0, |i| self.values[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_request_ids() {
        let tr = Tracer::new(true);
        tr.span("root", || {
            tr.request("req", 7, || {
                tr.span("inner", || {});
            });
            let parent = tr.current();
            std::thread::scope(|s| {
                s.spawn(|| tr.adopt(parent, || tr.span("worker", || {})));
            });
        });
        let spans = tr.spans();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, req, inner, worker) = (by("root"), by("req"), by("inner"), by("worker"));
        assert_eq!(root.parent, None);
        assert_eq!(req.parent, Some(root.id));
        assert_eq!(inner.parent, Some(req.id));
        assert_eq!((req.req, inner.req), (Some(7), Some(7)));
        assert_eq!(worker.parent, Some(root.id));
        assert_eq!(worker.req, None);
        let tree = SpanTree::new(spans);
        assert!(tree.coverage(&root) <= 1.0);
        assert!(tree.self_ns(&root) <= root.dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 3), 3);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.current(), None);
    }
}

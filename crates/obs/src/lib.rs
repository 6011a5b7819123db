//! `ens-obs` — the deterministic instrumentation layer.
//!
//! The crawl engine already proves a strong property: its *results* are
//! byte-identical at any thread count. This crate extends that guarantee to
//! the pipeline's *telemetry*, so a metrics snapshot can be diffed across
//! runs, thread counts and machines the same way a [`Dataset`]-style report
//! can. Three primitives:
//!
//! - **monotonic counters** — named `u64` totals. Addition commutes, so
//!   concurrent increments from sharded workers produce the same final
//!   value regardless of interleaving.
//! - **fixed-boundary histograms** — bucket edges are fixed at first
//!   observation (or registered explicitly), so two runs that observe the
//!   same multiset of values produce identical bucket vectors. Ordered
//!   inputs should be observed in a deterministic order anyway (the
//!   analysis passes observe per-shard outputs in input order).
//! - **hierarchical spans** — nested named scopes. Each span accumulates a
//!   *call count*, a *virtual-clock duration* (milliseconds accounted by
//!   deterministic simulation, e.g. retry backoff — never slept) and a
//!   *wall-clock duration*.
//!
//! # The deterministic / wall-clock split
//!
//! A snapshot has two sections. The `deterministic` section (counters,
//! histograms, span call counts and virtual durations) must be
//! byte-identical for any `threads` value — the same rule `CrawlTimings`
//! vs. `CrawlReport` established for the crawl. Wall-clock durations are
//! real time and therefore nondeterministic; they live in a separate
//! `wall_clock_ms` section that is never diffed and never serialized into
//! datasets. [`MetricsSnapshot::deterministic_json`] renders only the
//! diffable section; [`MetricsSnapshot::to_json`] appends the wall section.
//!
//! # Spans across threads
//!
//! A handle and its clones share one stack of open spans, so they must
//! open and close spans from one thread at a time. Work that runs beside
//! the caller and records spans of its own (a join's worker arm) takes a
//! [`Metrics::fork`]: the same registry, but its own stack, seeded with
//! the spans open at the fork. Its spans then nest under those, exactly
//! as they would had the work run inline, so span paths, call counts and
//! virtual milliseconds are the same at any thread count. Wall clocks are
//! not: two sibling spans that ran side by side may add up to more wall
//! time than their parent. Counters and histograms may be touched from
//! anywhere.
//!
//! [`Dataset`]: https://example.invalid/ens-dropcatch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shared, cheaply clonable handle to a metrics registry — or a no-op
/// shell (see [`Metrics::disabled`]) so uninstrumented call paths pay one
/// branch and no allocation.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Option<Live>,
}

#[derive(Clone, Debug)]
struct Live {
    registry: Arc<Mutex<Inner>>,
    /// The open spans of this handle and its clones, outermost first;
    /// [`Metrics::fork`] starts a new stack.
    stack: Arc<Mutex<Vec<String>>>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histo>,
    spans: BTreeMap<String, SpanStat>,
}

#[derive(Debug)]
struct Histo {
    edges: Vec<u64>,
    counts: Vec<u64>,
    /// Observations below `edges[0]` — kept out of bucket 0 so real low
    /// samples and out-of-range ones stay distinguishable (the same split
    /// the analysis-side `stats::Histogram` makes).
    underflow: u64,
}

#[derive(Debug, Default)]
struct SpanStat {
    calls: u64,
    virtual_ms: u64,
    wall: Duration,
}

/// Default histogram boundaries: 0, then powers of two up to 2^40 — wide
/// enough for item counts and virtual milliseconds alike.
fn default_edges() -> Vec<u64> {
    let mut edges = vec![0u64];
    edges.extend((0..=40).map(|p| 1u64 << p));
    edges
}

impl Metrics {
    /// A live registry.
    pub fn new() -> Metrics {
        Metrics {
            inner: Some(Live {
                registry: Arc::new(Mutex::new(Inner::default())),
                stack: Arc::new(Mutex::new(Vec::new())),
            }),
        }
    }

    /// A handle on the same registry with a span stack of its own, seeded
    /// with the spans open on this one: spans opened through it nest under
    /// those, whichever thread opens them (see the module docs). A disabled
    /// handle forks into a disabled one.
    pub fn fork(&self) -> Metrics {
        Metrics {
            inner: self.inner.as_ref().map(|live| Live {
                registry: Arc::clone(&live.registry),
                stack: Arc::new(Mutex::new(
                    live.stack.lock().expect("span stack poisoned").clone(),
                )),
            }),
        }
    }

    /// A disabled handle: every operation is a no-op, snapshots are empty.
    /// Existing entry points thread this through so uninstrumented callers
    /// keep their exact behaviour (and allocation profile).
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_inner<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|live| f(&mut live.registry.lock().expect("metrics poisoned")))
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        self.with_inner(|i| *i.counters.entry(name.to_string()).or_default() += delta);
    }

    /// Increments the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Registers a histogram with explicit bucket boundaries (ascending;
    /// bucket `i` counts values in `[edges[i], edges[i+1])`, the last
    /// bucket is unbounded above, values below `edges[0]` land in a
    /// separate `underflow` counter rather than polluting bucket 0).
    /// Re-registering an existing name is a no-op, so the first
    /// registration fixes the boundaries for the run.
    pub fn register_histogram(&self, name: &str, edges: &[u64]) {
        assert!(
            !edges.is_empty() && edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be non-empty and strictly ascending"
        );
        self.with_inner(|i| {
            i.histograms
                .entry(name.to_string())
                .or_insert_with(|| Histo {
                    edges: edges.to_vec(),
                    counts: vec![0; edges.len()],
                    underflow: 0,
                });
        });
    }

    /// Records one value into the named histogram, creating it with the
    /// default power-of-two boundaries if it was never registered.
    pub fn observe(&self, name: &str, value: u64) {
        self.with_inner(|i| {
            let h = i.histograms.entry(name.to_string()).or_insert_with(|| {
                let edges = default_edges();
                let counts = vec![0; edges.len()];
                Histo {
                    edges,
                    counts,
                    underflow: 0,
                }
            });
            // partition_point gives the first edge > value; the bucket
            // holding `value` is the one before it. A value below every
            // edge is out of range and counts as underflow, not bucket 0.
            match h.edges.partition_point(|&e| e <= value) {
                0 => h.underflow += 1,
                pos => h.counts[pos - 1] += 1,
            }
        });
    }

    /// Opens a nested span. The returned guard closes it on drop,
    /// accumulating one call, the wall-clock elapsed time and any
    /// virtual-clock milliseconds attributed via
    /// [`SpanGuard::add_virtual_ms`]. Spans nest by path: a span opened
    /// while `study` is open on this handle's stack records as
    /// `study/losses`.
    pub fn span(&self, name: &str) -> SpanGuard {
        let path = self.inner.as_ref().map(|live| {
            let mut stack = live.stack.lock().expect("span stack poisoned");
            stack.push(name.to_string());
            stack.join("/")
        });
        SpanGuard {
            metrics: self.clone(),
            path,
            start: Instant::now(),
        }
    }

    /// Records one call of the span `name`, nested under the open spans
    /// like [`Metrics::span`], that took `wall`: for work done in pieces
    /// between other work, timed piece by piece and recorded once.
    pub fn record_span(&self, name: &str, wall: Duration) {
        if let Some(live) = &self.inner {
            let path = {
                let stack = live.stack.lock().expect("span stack poisoned");
                let mut parts: Vec<&str> = stack.iter().map(String::as_str).collect();
                parts.push(name);
                parts.join("/")
            };
            self.with_inner(|i| {
                let s = i.spans.entry(path).or_default();
                s.calls += 1;
                s.wall += wall;
            });
        }
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.with_inner(|i| MetricsSnapshot {
            counters: i.counters.clone(),
            histograms: i
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            edges: h.edges.clone(),
                            counts: h.counts.clone(),
                            underflow: h.underflow,
                        },
                    )
                })
                .collect(),
            spans: i
                .spans
                .iter()
                .map(|(path, s)| SpanSnapshot {
                    path: path.clone(),
                    calls: s.calls,
                    virtual_ms: s.virtual_ms,
                })
                .collect(),
            wall_ms: i
                .spans
                .iter()
                .map(|(path, s)| (path.clone(), s.wall.as_secs_f64() * 1e3))
                .collect(),
        })
        .unwrap_or_default()
    }
}

/// RAII guard for an open span; see [`Metrics::span`].
#[derive(Debug)]
pub struct SpanGuard {
    metrics: Metrics,
    /// `None` when the handle is disabled.
    path: Option<String>,
    start: Instant,
}

impl SpanGuard {
    /// Attributes deterministic virtual-clock milliseconds (e.g. accounted
    /// retry backoff) to this span.
    pub fn add_virtual_ms(&self, ms: u64) {
        if let Some(path) = &self.path {
            self.metrics.with_inner(|i| {
                i.spans.entry(path.clone()).or_default().virtual_ms += ms;
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let elapsed = self.start.elapsed();
            self.metrics.with_inner(|i| {
                let s = i.spans.entry(path).or_default();
                s.calls += 1;
                s.wall += elapsed;
            });
            if let Some(live) = &self.metrics.inner {
                live.stack.lock().expect("span stack poisoned").pop();
            }
        }
    }
}

/// A frozen copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket boundaries, ascending.
    pub edges: Vec<u64>,
    /// Per-bucket counts (`counts[i]` covers `[edges[i], edges[i+1])`).
    pub counts: Vec<u64>,
    /// Observations below `edges[0]`, kept out of bucket 0.
    pub underflow: u64,
}

impl HistogramSnapshot {
    /// Total observations, including out-of-range (underflow) ones.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow
    }
}

/// A frozen copy of one span's deterministic fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Slash-joined nesting path, e.g. `study/losses`.
    pub path: String,
    /// Times the span was opened and closed.
    pub calls: u64,
    /// Accumulated virtual-clock milliseconds.
    pub virtual_ms: u64,
}

/// A point-in-time copy of a registry; see the module docs for the
/// deterministic / wall-clock split.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All counters, name-sorted.
    pub counters: BTreeMap<String, u64>,
    /// All histograms, name-sorted.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// All spans, path-sorted — deterministic fields only.
    pub spans: Vec<SpanSnapshot>,
    /// Wall-clock milliseconds per span path. Nondeterministic: never
    /// diffed, never serialized into datasets, excluded from
    /// [`deterministic_json`](MetricsSnapshot::deterministic_json). Sibling
    /// spans that ran side by side (see [`Metrics::fork`]) may add up to
    /// more than their parent.
    pub wall_ms: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// Looks a counter up (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The diffable section only: counters, histograms, spans without wall
    /// clocks. Byte-identical across thread counts for an instrumented
    /// pipeline run on identical inputs.
    pub fn deterministic_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_deterministic(&mut w);
        w.out
    }

    /// The full snapshot: the deterministic section plus `wall_clock_ms`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.out.push_str("{\n  \"deterministic\": ");
        w.indent = 1;
        self.write_deterministic(&mut w);
        w.out.push_str(",\n  \"wall_clock_ms\": {");
        for (i, (path, ms)) in self.wall_ms.iter().enumerate() {
            if i > 0 {
                w.out.push(',');
            }
            w.out.push_str("\n    ");
            w.string(path);
            // Fixed precision keeps the (never-diffed) section readable.
            w.out.push_str(&format!(": {ms:.3}"));
        }
        if !self.wall_ms.is_empty() {
            w.out.push_str("\n  ");
        }
        w.out.push_str("}\n}");
        w.out
    }

    fn write_deterministic(&self, w: &mut JsonWriter) {
        w.open('{');
        w.key("counters");
        w.open('{');
        for (i, (k, v)) in self.counters.iter().enumerate() {
            w.comma(i);
            w.string(k);
            w.out.push_str(&format!(": {v}"));
        }
        w.close('}', !self.counters.is_empty());
        w.out.push(',');
        w.key("histograms");
        w.open('{');
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            w.comma(i);
            w.string(k);
            w.out.push_str(": {\"edges\": ");
            w.u64_array(&h.edges);
            w.out.push_str(", \"counts\": ");
            w.u64_array(&h.counts);
            w.out.push_str(&format!(", \"underflow\": {}", h.underflow));
            w.out.push('}');
        }
        w.close('}', !self.histograms.is_empty());
        w.out.push(',');
        w.key("spans");
        w.open('[');
        for (i, s) in self.spans.iter().enumerate() {
            w.comma(i);
            w.out.push_str("{\"path\": ");
            w.string(&s.path);
            w.out.push_str(&format!(
                ", \"calls\": {}, \"virtual_ms\": {}}}",
                s.calls, s.virtual_ms
            ));
        }
        w.close(']', !self.spans.is_empty());
        w.close_obj();
    }
}

/// A minimal indenting JSON writer — this crate is zero-dependency by
/// design, so the snapshot bytes are fully under its control.
struct JsonWriter {
    out: String,
    indent: usize,
}

impl JsonWriter {
    fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            indent: 0,
        }
    }

    fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, c: char) {
        self.out.push(c);
        self.indent += 1;
    }

    fn close(&mut self, c: char, had_items: bool) {
        self.indent -= 1;
        if had_items {
            self.out.push('\n');
            self.pad();
        }
        self.out.push(c);
    }

    fn close_obj(&mut self) {
        self.indent -= 1;
        self.out.push('\n');
        self.pad();
        self.out.push('}');
    }

    fn key(&mut self, k: &str) {
        self.out.push('\n');
        self.pad();
        self.string(k);
        self.out.push_str(": ");
    }

    fn comma(&mut self, i: usize) {
        if i > 0 {
            self.out.push(',');
        }
        self.out.push('\n');
        self.pad();
    }

    fn string(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn u64_array(&mut self, vals: &[u64]) {
        self.out.push('[');
        for (i, v) in vals.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(&v.to_string());
        }
        self.out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        m.add("a", 5);
        m.observe("h", 3);
        let g = m.span("s");
        g.add_virtual_ms(10);
        drop(g);
        let snap = m.snapshot();
        assert!(!m.is_enabled());
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counter("a"), 0);
    }

    #[test]
    fn counters_accumulate_and_sort_by_name() {
        let m = Metrics::new();
        m.add("b", 2);
        m.incr("a");
        m.add("b", 3);
        let snap = m.snapshot();
        assert_eq!(snap.counter("a"), 1);
        assert_eq!(snap.counter("b"), 5);
        let names: Vec<&str> = snap.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn concurrent_counter_adds_are_deterministic() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.incr("hits");
                    }
                });
            }
        });
        assert_eq!(m.snapshot().counter("hits"), 8000);
    }

    #[test]
    fn histogram_buckets_follow_fixed_edges() {
        let m = Metrics::new();
        m.register_histogram("h", &[0, 10, 100]);
        for v in [0, 5, 9, 10, 99, 100, 5000] {
            m.observe("h", v);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.edges, vec![0, 10, 100]);
        assert_eq!(h.counts, vec![3, 2, 2]);
        assert_eq!(h.underflow, 0);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn values_below_the_first_edge_count_as_underflow_not_bucket_zero() {
        let m = Metrics::new();
        m.register_histogram("h", &[10, 100]);
        for v in [0, 9, 10, 50, 200] {
            m.observe("h", v);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.underflow, 2, "0 and 9 are below edges[0]");
        assert_eq!(h.counts, vec![2, 1]);
        assert_eq!(h.total(), 5, "underflow still counts toward the total");
        // The deterministic snapshot carries the underflow explicitly.
        let json = snap.deterministic_json();
        assert!(json.contains("\"underflow\": 2"), "{json}");
    }

    #[test]
    fn unregistered_histogram_gets_default_edges() {
        let m = Metrics::new();
        m.observe("h", 3);
        m.observe("h", 1 << 20);
        let snap = m.snapshot();
        assert_eq!(snap.histograms["h"].total(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_edges_are_rejected() {
        Metrics::new().register_histogram("h", &[5, 1]);
    }

    #[test]
    fn spans_nest_by_path_and_accumulate_virtual_ms() {
        let m = Metrics::new();
        {
            let outer = m.span("study");
            outer.add_virtual_ms(7);
            {
                let inner = m.span("losses");
                inner.add_virtual_ms(3);
            }
            let again = m.span("losses");
            drop(again);
        }
        let snap = m.snapshot();
        let by_path: BTreeMap<&str, (u64, u64)> = snap
            .spans
            .iter()
            .map(|s| (s.path.as_str(), (s.calls, s.virtual_ms)))
            .collect();
        assert_eq!(by_path["study"], (1, 7));
        assert_eq!(by_path["study/losses"], (2, 3));
        // Wall section carries the same paths.
        let wall_paths: Vec<&str> = snap.wall_ms.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(wall_paths, ["study", "study/losses"]);
    }

    #[test]
    fn a_recorded_span_nests_and_counts_like_an_opened_one() {
        let opened = Metrics::new();
        {
            let _outer = opened.span("sources");
            drop(opened.span("subgraph"));
        }
        let recorded = Metrics::new();
        {
            let _outer = recorded.span("sources");
            recorded.record_span("subgraph", Duration::from_millis(5));
        }
        let snap = recorded.snapshot();
        assert_eq!(
            snap.deterministic_json(),
            opened.snapshot().deterministic_json()
        );
        let wall: BTreeMap<&str, f64> =
            snap.wall_ms.iter().map(|(p, w)| (p.as_str(), *w)).collect();
        assert_eq!(wall["sources/subgraph"], 5.0);
        Metrics::disabled().record_span("x", Duration::from_millis(1));
    }

    #[test]
    fn deterministic_json_is_stable_and_excludes_wall_clock() {
        let build = || {
            let m = Metrics::new();
            let g = m.span("root");
            g.add_virtual_ms(42);
            m.add("z/count", 9);
            m.add("a/count", 1);
            m.register_histogram("sizes", &[0, 4, 16]);
            m.observe("sizes", 5);
            drop(g);
            m.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        assert!(!a.deterministic_json().contains("wall"));
        let full = a.to_json();
        assert!(full.contains("\"deterministic\""));
        assert!(full.contains("\"wall_clock_ms\""));
        assert!(full.contains("\"a/count\": 1"));
        assert!(full.contains("\"virtual_ms\": 42"));
    }

    #[test]
    fn json_strings_are_escaped() {
        let m = Metrics::new();
        m.incr("weird\"name\\with\ncontrol\u{1}");
        let json = m.snapshot().deterministic_json();
        assert!(json.contains("weird\\\"name\\\\with\\ncontrol\\u0001"));
    }

    #[test]
    fn empty_snapshot_renders_valid_skeleton() {
        let json = Metrics::new().snapshot().deterministic_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(json.contains("\"spans\": []"));
    }

    /// The spans, counters and histograms a small pass records, holding
    /// its span open across `meet`.
    fn record_pass(m: &Metrics, name: &str, value: u64, meet: &dyn Fn()) {
        let span = m.span(name);
        meet();
        span.add_virtual_ms(value);
        let _inner = m.span("inner");
        m.add(&format!("{name}/count"), value);
        m.observe("sizes", value);
    }

    #[test]
    fn two_threads_holding_sibling_spans_record_the_sequential_section() {
        let sequential = Metrics::new();
        {
            let _study = sequential.span("study");
            record_pass(&sequential, "features", 3, &|| {});
            record_pass(&sequential, "losses", 5, &|| {});
        }
        let parallel = Metrics::new();
        {
            let _study = parallel.span("study");
            // Each thread waits inside its span until the other is inside
            // its own: both children of `study` are open at once.
            let barrier = std::sync::Barrier::new(2);
            let meet = || {
                barrier.wait();
            };
            let side = parallel.fork();
            std::thread::scope(|s| {
                s.spawn(|| record_pass(&side, "losses", 5, &meet));
                record_pass(&parallel, "features", 3, &meet);
            });
        }
        let snap = parallel.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "study",
                "study/features",
                "study/features/inner",
                "study/losses",
                "study/losses/inner"
            ]
        );
        assert_eq!(
            snap.deterministic_json(),
            sequential.snapshot().deterministic_json()
        );
    }

    #[test]
    fn a_fork_records_the_same_section_on_a_worker_as_inline() {
        let run = |threaded: bool| {
            let m = Metrics::new();
            {
                let _study = m.span("study");
                let side = m.fork();
                if threaded {
                    std::thread::scope(|s| {
                        s.spawn(|| record_pass(&side, "losses", 5, &|| {}));
                        record_pass(&m, "features", 3, &|| {});
                    });
                } else {
                    record_pass(&m, "features", 3, &|| {});
                    record_pass(&side, "losses", 5, &|| {});
                }
                record_pass(&m, "resale", 1, &|| {});
            }
            m.snapshot().deterministic_json()
        };
        let inline = run(false);
        assert!(inline.contains("\"study/losses/inner\""), "{inline}");
        assert!(inline.contains("\"study/resale\""), "{inline}");
        for _ in 0..20 {
            assert_eq!(run(true), inline);
        }
    }

    #[test]
    fn a_disabled_handle_forks_into_a_disabled_one() {
        let side = Metrics::disabled().fork();
        assert!(!side.is_enabled());
        drop(side.span("x"));
        assert!(side.snapshot().spans.is_empty());
    }
}

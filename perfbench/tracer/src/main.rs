//! The traced run: calls each layer's public entry points in the order the
//! matching `ens-dropcatch` command runs them, with a span around each call.
//!
//! ```text
//! perfbench-tracer simulate --names N --seed S --threads T --page-size P
//!     --checkpoint FILE --out DATASET --spans SPANS
//! perfbench-tracer analyze --dataset FILE --threads T --out REPORT --spans SPANS
//! perfbench-tracer serve --dataset FILE --threads T --targets FILE --start I
//!     --count K --out RECORDS --spans SPANS
//! ```
//!
//! Spans (name, start, end, parent, request id) stay in memory and are
//! written to `SPANS` as JSON lines at the end. A span's self time is its
//! duration minus its children's. Counts come from the calls' return values,
//! or, for checkpoint writes, from a live `Metrics` handle. One JSON object
//! goes to stdout: the traced total, each layer's self time, the root's own
//! (unattributed) time, the per-layer metrics this command measures (no two
//! commands emit the same name), and for `serve` the replayed parts of
//! `ServeState::build`.
//!
//! Each command writes what the CLI would (`simulate` the dataset,
//! `analyze` the report, `serve` the reply to every replayed request), so
//! the benchmark can check the traced output against the untraced one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ens_dropcatch::countermeasures::{evaluate_countermeasure_with, CountermeasureReport};
use ens_dropcatch::{
    analyze_losses_with, analyze_resales, compare_features_with, overview_from, AnalysisIndex,
    CheckpointSpec, CrawlConfig, Dataset, FailurePolicy, Format, Metrics, NameDirectory,
    OutgoingIndex, RetryPolicy, StudyConfig, StudyReport, DEFAULT_CHECKPOINT_EVERY,
};
use ens_serve::{Request, ServeHandle, ServeState};
use ens_subgraph::SubgraphConfig;
use ens_types::FaultProfile;
use perfbench_reference::{fnv1a, query_type, QUERY_TYPES};
use price_oracle::PriceOracle;
use workload::WorldConfig;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
}

/// The in-memory span recorder.
struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, request: Option<u64>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` under a span named `name`; returns its result and the span.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, usize) {
        let id = self.enter(name, None);
        let out = f();
        self.exit(id);
        (out, id)
    }

    fn ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    fn seconds(&self, id: usize) -> f64 {
        self.ns(id) as f64 / 1e9
    }

    /// Each span's duration minus the time its direct children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = (0..self.spans.len()).map(|id| self.ns(id)).collect();
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                own[parent] -= self.ns(id);
            }
        }
        own
    }

    /// Self seconds per span name over the direct children of `root`.
    fn layers(&self, root: usize) -> Vec<(&'static str, f64)> {
        let own = self.self_ns();
        let mut by_name: Vec<(&'static str, f64)> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.parent == Some(root) {
                match by_name.iter_mut().find(|(n, _)| *n == span.name) {
                    Some((_, s)) => *s += own[id] as f64 / 1e9,
                    None => by_name.push((span.name, own[id] as f64 / 1e9)),
                }
            }
        }
        by_name
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        std::fs::write(path, out)
    }
}

/// What one traced command prints: the traced total, the layer self times
/// under the root, the root's own time, named per-layer metrics, and the
/// self times of a replayed subtree (empty unless `serve`).
struct Outcome {
    total_s: f64,
    layers: Vec<(&'static str, f64)>,
    unattributed_s: f64,
    metrics: Vec<(String, f64)>,
    parts: Vec<(&'static str, f64)>,
}

impl Outcome {
    fn from_root(trace: &Trace, root: usize, metrics: Vec<(String, f64)>) -> Outcome {
        Outcome {
            total_s: trace.seconds(root),
            layers: trace.layers(root),
            unattributed_s: trace.self_ns()[root] as f64 / 1e9,
            metrics,
            parts: Vec::new(),
        }
    }

    fn to_json(&self) -> String {
        let pairs = |items: &mut dyn Iterator<Item = (&str, f64)>| {
            items
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"total_s\": {}, \"unattributed_s\": {}, \"layers\": {{{}}}, \"metrics\": {{{}}}, \
             \"parts\": {{{}}}}}",
            self.total_s,
            self.unattributed_s,
            pairs(&mut self.layers.iter().map(|(k, v)| (*k, *v))),
            pairs(&mut self.metrics.iter().map(|(k, v)| (k.as_str(), *v))),
            pairs(&mut self.parts.iter().map(|(k, v)| (*k, *v))),
        )
    }
}

fn metric(name: &str, value: impl Into<f64>) -> (String, f64) {
    (name.to_string(), value.into())
}

/// Misdirected plus legitimate transactions evaluated, summed over the four
/// warning policies.
fn txs_evaluated(report: &CountermeasureReport) -> f64 {
    [
        report.risk_policy,
        report.rereg_policy,
        report.reverse_policy,
        report.combined_policy,
    ]
    .iter()
    .map(|p| (p.misdirected_txs + p.legit_txs) as f64)
    .sum()
}

/// The study passes over a built index, in the order
/// `run_study_with_index` runs them, each under its own span.
fn study_passes(
    trace: &mut Trace,
    dataset: &Dataset,
    oracle: &PriceOracle,
    index: &AnalysisIndex,
    threads: usize,
) -> (StudyReport, Vec<(String, f64)>) {
    let config = StudyConfig {
        threads,
        ..StudyConfig::default()
    };
    let (overview, overview_span) = trace.time("overview", || {
        overview_from(
            &dataset.domains,
            dataset.observation_end,
            index.reregistrations().to_vec(),
        )
    });
    let (features, features_span) = trace.time("features", || {
        compare_features_with(dataset, config.control_seed, index, threads)
    });
    let (losses, losses_span) =
        trace.time("losses", || analyze_losses_with(dataset, oracle, index, threads));
    let (resale, resale_span) = trace.time("resale", || {
        analyze_resales(&overview.reregistrations, &dataset.market)
    });
    let (countermeasures, countermeasures_span) = trace.time("countermeasures", || {
        evaluate_countermeasure_with(&losses, dataset, index, config.warning_window)
    });
    let metrics = vec![
        metric("overview.s", trace.seconds(overview_span)),
        metric("features.s", trace.seconds(features_span)),
        metric("losses.s", trace.seconds(losses_span)),
        metric("resale.s", trace.seconds(resale_span)),
        metric("countermeasures.s", trace.seconds(countermeasures_span)),
        metric("countermeasures.txs_evaluated", txs_evaluated(&countermeasures)),
        metric("index.transfers", index.indexed_transfers() as f64),
        metric("index.reregistrations", index.reregistrations().len() as f64),
    ];
    let report = StudyReport {
        crawl: dataset.crawl_report.clone(),
        overview,
        features,
        losses,
        resale,
        countermeasures,
    };
    (report, metrics)
}

type Flags = BTreeMap<String, String>;

fn flag<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<T, String> {
    let value = flags.get(name).ok_or_else(|| format!("{name} is required"))?;
    value.parse().map_err(|_| format!("bad {name} {value:?}"))
}

/// `ens-dropcatch simulate --preset paper-scale --chaos mixed:S
/// --fail-policy degrade --checkpoint ...`.
fn simulate(trace: &mut Trace, flags: &Flags) -> Result<Outcome, String> {
    let names: usize = flag(flags, "--names")?;
    let seed: u64 = flag(flags, "--seed")?;
    let threads: usize = flag(flags, "--threads")?;
    let page_size: usize = flag(flags, "--page-size")?;
    let checkpoint: String = flag(flags, "--checkpoint")?;
    let out: String = flag(flags, "--out")?;

    let root = trace.enter("simulate", None);
    let (world, world_span) = trace.time("workload.world", || {
        WorldConfig::paper_scale()
            .with_names(names)
            .with_seed(seed)
            .build()
    });
    let (subgraph, subgraph_span) =
        trace.time("subgraph.index", || world.subgraph(SubgraphConfig::default()));
    let (etherscan, etherscan_span) = trace.time("etherscan.index", || world.etherscan());
    let config = CrawlConfig {
        threads,
        retry: RetryPolicy::with_max_retries(RetryPolicy::default().max_retries),
        failure: FailurePolicy::degrade(),
        min_recovery: 0.0,
        chaos: FaultProfile::named("mixed", seed),
        subgraph_page_size: page_size,
        txlist_page_size: page_size,
        market_page_size: page_size,
    };
    // The CLI folds the world identity into the checkpoint fingerprint.
    let spec = CheckpointSpec::new(&checkpoint[..])
        .every(DEFAULT_CHECKPOINT_EVERY)
        .with_fingerprint_extra((names as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
    let counters = Metrics::new();
    let (collected, crawl_span) = trace.time("crawl", || {
        Dataset::try_collect_checkpointed(
            &subgraph,
            &etherscan,
            world.opensea(),
            world.observation_end(),
            &config,
            &counters,
            &spec,
            None,
        )
    });
    let (dataset, timings) = collected.map_err(|e| format!("crawl failed: {e}"))?;
    let (bytes, encode_span) = trace.time("storage.encode", || dataset.to_bytes(Format::Columnar));
    let bytes = bytes.map_err(|e| format!("encode failed: {e}"))?;
    let (written, write_span) = trace.time("storage.write", || {
        ens_dropcatch::export::write_atomic(Path::new(&out), &bytes)
    });
    written.map_err(|e| format!("cannot write {out}: {e}"))?;
    trace.exit(root);

    // Outside the replay: the same crawl without a checkpoint, so the
    // difference is what checkpointing costs.
    let (plain, plain_span) = trace.time("crawl.uncheckpointed", || {
        Dataset::try_collect_with(
            &subgraph,
            &etherscan,
            world.opensea(),
            world.observation_end(),
            &config,
        )
    });
    plain.map_err(|e| format!("uncheckpointed crawl failed: {e}"))?;

    let report = &dataset.crawl_report;
    let pages = report.total_pages() as f64;
    let retries = report.retries_by_kind().total() as f64;
    let metrics = vec![
        metric("workload.world_s", trace.seconds(world_span)),
        metric("subgraph.index_s", trace.seconds(subgraph_span)),
        metric("etherscan.index_s", trace.seconds(etherscan_span)),
        metric("crawl.subgraph_s", timings.subgraph.as_secs_f64()),
        metric("crawl.txlist_s", timings.txlist.as_secs_f64()),
        metric("crawl.market_s", timings.market.as_secs_f64()),
        metric("crawl.pages", pages),
        metric("crawl.retries", retries),
        metric("crawl.fetch_yield", pages / (pages + retries)),
        metric("crawl.gaps", report.gaps.len() as f64),
        metric("crawl.item_recovery", report.item_recovery_rate()),
        metric(
            "checkpoint.writes",
            counters.snapshot().counter("checkpoint/writes") as f64,
        ),
        metric(
            "checkpoint.overhead_s",
            trace.seconds(crawl_span) - trace.seconds(plain_span),
        ),
        metric("storage.encode_s", trace.seconds(encode_span)),
        metric("storage.write_s", trace.seconds(write_span)),
    ];
    Ok(Outcome::from_root(trace, root, metrics))
}

/// `ens-dropcatch analyze --dataset FILE`.
fn analyze(trace: &mut Trace, flags: &Flags) -> Result<Outcome, String> {
    let path: String = flag(flags, "--dataset")?;
    let threads: usize = flag(flags, "--threads")?;
    let out: String = flag(flags, "--out")?;

    let root = trace.enter("analyze", None);
    let (bytes, read_span) = trace.time("storage.read", || std::fs::read(&path));
    let bytes = bytes.map_err(|e| format!("cannot read {path}: {e}"))?;
    let (dataset, decode_span) = trace.time("storage.decode", || Dataset::from_bytes(&bytes));
    let dataset = dataset.map_err(|e| format!("cannot parse {path}: {e}"))?;
    let size = bytes.len();
    drop(bytes);
    let oracle = PriceOracle::new();
    let (index, index_span) = trace.time("index.build", || {
        AnalysisIndex::build_with_threads(&dataset, &oracle, threads)
    });
    let (report, mut metrics) = study_passes(trace, &dataset, &oracle, &index, threads);
    let (text, render_span) = trace.time("report.render", || report.render());
    std::fs::write(&out, format!("{text}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
    trace.exit(root);

    metrics.extend([
        metric("storage.read_s", trace.seconds(read_span)),
        metric("storage.decode_s", trace.seconds(decode_span)),
        metric("storage.bytes", size as f64),
        metric("index.build_s", trace.seconds(index_span)),
        metric("report.render_s", trace.seconds(render_span)),
    ]);
    Ok(Outcome::from_root(trace, root, metrics))
}

/// Nearest-rank percentile of an unsorted sample, in µs.
fn percentile_us(ns: &mut [u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((p * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64 / 1e3
}

/// `ens-dropcatch serve --dataset FILE`: the startup calls, a replay of the
/// calls `ServeState::build` makes (to split its time), then every request
/// the load generator sent, parsed and answered in-process. Decode, index
/// and study-pass metrics are left to `analyze`, which measures the same
/// calls on the same file.
fn serve(trace: &mut Trace, flags: &Flags) -> Result<Outcome, String> {
    let path: String = flag(flags, "--dataset")?;
    let threads: usize = flag(flags, "--threads")?;
    let targets_path: String = flag(flags, "--targets")?;
    let start: usize = flag(flags, "--start")?;
    let count: usize = flag(flags, "--count")?;
    let out: String = flag(flags, "--out")?;
    let targets: Vec<String> = std::fs::read_to_string(&targets_path)
        .map_err(|e| format!("cannot read {targets_path}: {e}"))?
        .lines()
        .map(str::to_string)
        .collect();
    if targets.is_empty() {
        return Err(format!("{targets_path} holds no targets"));
    }

    let root = trace.enter("serve.startup", None);
    let (bytes, _) = trace.time("storage.read", || std::fs::read(&path));
    let bytes = bytes.map_err(|e| format!("cannot read {path}: {e}"))?;
    let (dataset, _) = trace.time("storage.decode", || Dataset::from_bytes(&bytes));
    let dataset = dataset.map_err(|e| format!("cannot parse {path}: {e}"))?;
    drop(bytes);
    let (state, build_span) =
        trace.time("serve.state_build", || ServeState::build(dataset, threads));
    trace.exit(root);
    let handle = ServeHandle::new(Arc::new(state));

    // The calls inside `ServeState::build`, in its order, on the same data.
    let parts = trace.enter("serve.state_parts", None);
    let dataset = &handle.state().dataset;
    let oracle = PriceOracle::new();
    let (index, _) = trace.time("index.build", || {
        AnalysisIndex::build_with_threads(dataset, &oracle, threads)
    });
    let (_, outgoing_span) = trace.time("index.outgoing_build", || {
        OutgoingIndex::build_with_threads(dataset, &oracle, threads)
    });
    let (_, directory_span) =
        trace.time("query.directory_build", || NameDirectory::build(&dataset.domains));
    study_passes(trace, dataset, &oracle, &index, threads);
    trace.exit(parts);

    let mut parse_ns = Vec::with_capacity(count);
    let mut request_ns = Vec::with_capacity(count);
    let mut query_ns: [Vec<u64>; 4] = Default::default();
    let mut records = Vec::with_capacity(count * 14);
    for i in start..start + count {
        let target = &targets[i % targets.len()];
        let request = trace.enter("request", Some(i as u64));
        let parse = trace.enter("serve.parse", Some(i as u64));
        let parsed = Request::from_target(target);
        trace.exit(parse);
        let answered = match parsed {
            Ok(req) => {
                let query = trace.enter("serve.query", Some(i as u64));
                let answered = handle.query(&req);
                trace.exit(query);
                if let Some(t) = query_type(target) {
                    query_ns[t].push(trace.ns(query));
                }
                answered
            }
            Err(e) => Err(e),
        };
        trace.exit(request);
        parse_ns.push(trace.ns(parse));
        request_ns.push(trace.ns(request));
        let (status, body) = match answered {
            Ok(body) => (200u16, body),
            Err(e) => (
                if e.is_not_found() { 404 } else { 400 },
                ServeHandle::error_body(&e),
            ),
        };
        records.extend_from_slice(&status.to_le_bytes());
        records.extend_from_slice(&(body.len() as u32).to_le_bytes());
        records.extend_from_slice(&fnv1a(body.as_bytes()).to_le_bytes());
    }
    std::fs::write(&out, records).map_err(|e| format!("cannot write {out}: {e}"))?;

    let mut metrics = vec![
        metric("serve.state_build_s", trace.seconds(build_span)),
        metric("index.outgoing_build_s", trace.seconds(outgoing_span)),
        metric("query.directory_build_s", trace.seconds(directory_span)),
        metric("serve.parse_us", percentile_us(&mut parse_ns, 0.50)),
        metric("serve.inprocess_us", percentile_us(&mut request_ns, 0.50)),
    ];
    for (t, name) in QUERY_TYPES.iter().enumerate() {
        for (label, p) in [("p50", 0.50), ("p99", 0.99)] {
            metrics.push(metric(
                &format!("serve.query_us.{name}.{label}"),
                percentile_us(&mut query_ns[t], p),
            ));
        }
    }

    // The startup tree; `serve.state_build` stays one row, and the replay
    // of its calls goes alongside as `parts`.
    let mut outcome = Outcome::from_root(trace, root, metrics);
    outcome.parts = trace.layers(parts);
    Ok(outcome)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let mut flags = Flags::new();
    while let Some(name) = args.next() {
        match args.next() {
            Some(value) => flags.insert(name, value),
            None => {
                eprintln!("perfbench-tracer: {name} needs a value");
                return ExitCode::from(2);
            }
        };
    }
    let spans: String = match flag(&flags, "--spans") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            return ExitCode::from(2);
        }
    };
    let mut trace = Trace::new();
    let outcome = match command.as_str() {
        "simulate" => simulate(&mut trace, &flags),
        "analyze" => analyze(&mut trace, &flags),
        "serve" => serve(&mut trace, &flags),
        other => Err(format!("unknown command {other:?} (simulate, analyze or serve)")),
    };
    match outcome.and_then(|o| {
        trace
            .write(&spans)
            .map_err(|e| format!("cannot write {spans}: {e}"))?;
        Ok(o)
    }) {
        Ok(o) => {
            println!("{}", o.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}

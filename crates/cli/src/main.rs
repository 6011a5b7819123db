//! `ens-dropcatch` — the command-line face of the reproduction, mirroring
//! the paper's availability statement ("we are making our dataset of ENS
//! domains and code to crawl ENS registration data and Ethereum
//! transactions publicly available"):
//!
//! ```text
//! ens-dropcatch run      --names 20000 --seed 1 [--threads N] [--csv DIR] [--dataset F]
//! ens-dropcatch simulate --names 20000 --seed 1 [--threads N] --dataset dataset.ensc
//! ens-dropcatch analyze  --dataset dataset.ensc [--threads N] [--csv DIR]
//! ens-dropcatch serve    --dataset dataset.ensc [--addr HOST:PORT] [--workers N]
//! ```
//!
//! `simulate` builds a world and writes the *crawled dataset* (domains,
//! per-address transactions, labels, reverse claims, marketplace events);
//! `analyze` re-runs the full study from such a file — no simulator
//! required, exactly how a third party would re-analyze the released data.
//! `serve` loads such a file once, indexes it, and stays resident behind
//! a minimal HTTP/1.1 endpoint answering name-risk / address-forensics /
//! loss-findings / report-slice queries (see the `ens-serve` crate).
//! `--threads` shards the crawl, the `AnalysisIndex` build and the
//! internally parallel loss/feature passes across worker threads; the
//! dataset and report are byte-identical for any value.
//!
//! Datasets exist in two on-disk formats (see `ens_dropcatch::export`):
//! JSON (interchange) and the native columnar container (`.ensc`). Export
//! paths pick the format from `--format json|columnar` or the `--dataset`
//! extension (the two must agree; unknown values are rejected); every
//! input path auto-detects the format from the file's magic bytes, so
//! `analyze` opens either transparently. `--verbose` prints the detected
//! input format and the read/written byte counts.
//!
//! Fault-tolerance knobs (for `run` and `simulate`):
//!
//! - `--chaos PROFILE[:SEED]` wraps every endpoint in a deterministic
//!   fault-injecting [`ChaosSource`](ens_types::ChaosSource). Profiles:
//!   `none`, `flaky`, `rate-limit-storm`, `timeouts`, `holes`, `mixed`.
//! - `--fail-policy fail-fast|degrade` picks what happens when a page stays
//!   unfetchable past the retry budget: abort with partial stats, or record
//!   a gap and continue.
//! - `--loss-budget N` caps estimated lost items per source under
//!   `degrade` before the crawl escalates to an error.
//! - `--max-retries N` sets the per-page retry budget (default 3).
//! - `--min-recovery R` (0..=1) rejects a degraded dataset that recovered
//!   less than the given fraction of items.
//! - `--page-size N` requests N items per page from every endpoint
//!   (server-side caps still apply). Smaller pages mean more shards — and
//!   under chaos, faults that hit single pages instead of the whole crawl.
//!
//! Crash-safety knobs (for `run` and `simulate`):
//!
//! - `--checkpoint FILE` persists a resume watermark — every fully
//!   committed page of every crawl phase — to FILE at a configurable
//!   cadence (`--checkpoint-every N` pages), each write an atomic
//!   temp-file + rename.
//! - `--resume` loads a matching checkpoint and splices its committed
//!   shards instead of refetching them; the resumed dataset and crawl
//!   report are byte-identical to an uninterrupted run. Corrupt or stale
//!   checkpoints are discarded (counted in the metrics snapshot) and the
//!   crawl starts clean.
//! - `--kill-after N` injects a deterministic process death after N served
//!   pages — the crash-recovery test harness, exercised by the CI
//!   kill-point matrix.

use std::path::PathBuf;
use std::process::ExitCode;

use ens_dropcatch::checkpoint::fnv1a;
use ens_dropcatch::{
    run_study_on, CheckpointSpec, CollectError, CrawlConfig, CrawlTimings, DataSources, Dataset,
    FailurePolicy, Format, Metrics, RetryPolicy, StudyConfig, DEFAULT_CHECKPOINT_EVERY,
};
use ens_subgraph::SubgraphConfig;
use ens_types::{FaultKind, FaultProfile, KillSwitch};
use price_oracle::PriceOracle;
use workload::{build_plan, World, WorldConfig};

/// The base world configuration `--names`/`--seed` are applied on top of.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Preset {
    Default,
    PaperScale,
}

impl Preset {
    fn base(self) -> WorldConfig {
        match self {
            Preset::Default => WorldConfig::default(),
            Preset::PaperScale => WorldConfig::paper_scale(),
        }
    }
}

struct Args {
    preset: Preset,
    names: Option<usize>,
    seed: u64,
    threads: usize,
    dataset: Option<PathBuf>,
    csv: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    format: Option<Format>,
    verbose: bool,
    chaos: Option<FaultProfile>,
    failure: FailurePolicy,
    max_retries: usize,
    min_recovery: f64,
    page_size: Option<usize>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    resume: bool,
    kill_after: Option<u64>,
    addr: Option<String>,
    workers: Option<usize>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ens-dropcatch run      [--preset P] [--names N] [--seed S] [--threads N] [--csv DIR] [--dataset FILE] [--metrics-json FILE] [FAULT OPTS]\n  \
         ens-dropcatch simulate [--preset P] [--names N] [--seed S] [--threads N] --dataset FILE [--metrics-json FILE] [FAULT OPTS]\n  \
         ens-dropcatch analyze  --dataset FILE [--threads N] [--csv DIR] [--metrics-json FILE]\n  \
         ens-dropcatch serve    --dataset FILE [--addr HOST:PORT] [--workers N] [--threads N]\n\
         serve options:\n  \
         --addr HOST:PORT         listen address (default 127.0.0.1:8417; use :0 for an\n                           OS-assigned port, printed at startup)\n  \
         --workers N              HTTP worker threads (default: --threads)\n\
         common options:\n  \
         --preset default|paper-scale\n                           base world configuration; paper-scale is the\n                           3.1M-name / ~9.7M-transaction world calibrated to the\n                           paper's dataset (an explicit --names overrides its size)\n  \
         --format json|columnar   dataset export format (default: from the --dataset\n                           extension — .json/.ensc — else json); inputs always\n                           auto-detect from the file's magic bytes\n  \
         --verbose                print detected formats and byte counts\n  \
         --metrics-json FILE      write the instrumentation snapshot (spans, counters,\n                           histograms; deterministic + wall-clock sections) as JSON\n\
         fault options:\n  \
         --chaos PROFILE[:SEED]   inject deterministic faults (none|flaky|rate-limit-storm|timeouts|holes|mixed)\n  \
         --fail-policy POLICY     fail-fast (default) or degrade\n  \
         --loss-budget N          max estimated lost items per source under degrade\n  \
         --max-retries N          per-page retry budget (default 3)\n  \
         --min-recovery R         minimum acceptable item recovery rate in [0,1]\n  \
         --page-size N            items requested per page from every endpoint\n\
         checkpoint options (run/simulate):\n  \
         --checkpoint FILE        persist a crash-safe resume watermark to FILE (atomic\n                           temp-file + rename at every cadence)\n  \
         --checkpoint-every N     pages between checkpoint writes (default {DEFAULT_CHECKPOINT_EVERY})\n  \
         --resume                 splice a matching checkpoint at FILE instead of\n                           refetching committed pages (corrupt/stale files are\n                           discarded and the crawl starts clean)\n  \
         --kill-after N           inject a deterministic process death after N served\n                           pages (crash-recovery testing)"
    );
    ExitCode::from(2)
}

/// The most `--threads` or `--workers` a run may ask for: far above any
/// host's core count, and low enough that a typo cannot start 100,000.
const MAX_THREADS: usize = 1024;

/// Parses a count flag's value, rejecting `0` (a typo must not pass as 1)
/// and anything above `max`.
fn parse_count(flag: &str, value: Option<String>, max: usize) -> Option<usize> {
    let n = value?.parse::<usize>().ok()?;
    if n == 0 {
        eprintln!("error: {flag} must be >= 1 (got 0)");
        return None;
    }
    if n > max {
        eprintln!("error: {flag} must be <= {max} (got {n})");
        return None;
    }
    Some(n)
}

/// Parses `PROFILE` or `PROFILE:SEED` into a fault profile.
fn parse_chaos(spec: &str) -> Option<FaultProfile> {
    let (name, seed) = match spec.split_once(':') {
        Some((name, seed)) => (name, seed.parse().ok()?),
        None => (spec, 0),
    };
    FaultProfile::named(name, seed)
}

fn parse(mut args: impl Iterator<Item = String>) -> Option<Args> {
    let mut out = Args {
        preset: Preset::Default,
        names: None,
        seed: 1,
        threads: 1,
        dataset: None,
        csv: None,
        metrics_json: None,
        format: None,
        verbose: false,
        chaos: None,
        failure: FailurePolicy::FailFast,
        max_retries: RetryPolicy::default().max_retries,
        min_recovery: 0.0,
        page_size: None,
        checkpoint: None,
        checkpoint_every: None,
        resume: false,
        kill_after: None,
        addr: None,
        workers: None,
    };
    let mut loss_budget: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--names" => out.names = Some(args.next()?.parse().ok()?),
            "--preset" => {
                let value = args.next()?;
                out.preset = match value.as_str() {
                    "default" => Preset::Default,
                    "paper-scale" => Preset::PaperScale,
                    _ => {
                        eprintln!(
                            "error: unknown --preset {value:?} (expected default or paper-scale)"
                        );
                        return None;
                    }
                };
            }
            "--seed" => out.seed = args.next()?.parse().ok()?,
            "--threads" => out.threads = parse_count("--threads", args.next(), MAX_THREADS)?,
            "--dataset" => out.dataset = Some(PathBuf::from(args.next()?)),
            "--csv" => out.csv = Some(PathBuf::from(args.next()?)),
            "--metrics-json" => out.metrics_json = Some(PathBuf::from(args.next()?)),
            "--format" => {
                let value = args.next()?;
                match Format::parse(&value) {
                    Some(f) => out.format = Some(f),
                    None => {
                        eprintln!("error: unknown --format {value:?} (expected json or columnar)");
                        return None;
                    }
                }
            }
            "--verbose" | "-v" => out.verbose = true,
            "--chaos" => {
                let spec = args.next()?;
                match parse_chaos(&spec) {
                    Some(p) => out.chaos = Some(p),
                    None => {
                        eprintln!(
                            "error: unknown --chaos profile {spec:?} (expected one of: {}; \
                             optionally PROFILE:SEED with an integer seed)",
                            FaultProfile::NAMED.join(", ")
                        );
                        return None;
                    }
                }
            }
            "--checkpoint" => out.checkpoint = Some(PathBuf::from(args.next()?)),
            "--checkpoint-every" => {
                out.checkpoint_every =
                    Some(parse_count("--checkpoint-every", args.next(), usize::MAX)?)
            }
            "--resume" => out.resume = true,
            "--kill-after" => out.kill_after = Some(args.next()?.parse().ok()?),
            "--addr" => out.addr = Some(args.next()?),
            "--workers" => out.workers = Some(parse_count("--workers", args.next(), MAX_THREADS)?),
            "--fail-policy" => {
                out.failure = match args.next()?.as_str() {
                    "fail-fast" => FailurePolicy::FailFast,
                    "degrade" => FailurePolicy::degrade(),
                    _ => return None,
                }
            }
            "--loss-budget" => loss_budget = Some(args.next()?.parse().ok()?),
            "--max-retries" => out.max_retries = args.next()?.parse().ok()?,
            "--page-size" => {
                out.page_size = Some(parse_count("--page-size", args.next(), usize::MAX)?)
            }
            "--min-recovery" => {
                out.min_recovery = args.next()?.parse().ok()?;
                if !(0.0..=1.0).contains(&out.min_recovery) {
                    return None;
                }
            }
            _ => return None,
        }
    }
    if let Some(budget) = loss_budget {
        out.failure = match out.failure {
            // A loss budget only means something when the crawl degrades.
            FailurePolicy::FailFast => return None,
            FailurePolicy::Degrade { .. } => FailurePolicy::Degrade {
                max_lost_items: budget,
            },
        };
    }
    if out.checkpoint.is_none()
        && (out.resume || out.checkpoint_every.is_some() || out.kill_after.is_some())
    {
        eprintln!("error: --resume, --checkpoint-every and --kill-after require --checkpoint FILE");
        return None;
    }
    Some(out)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        return usage();
    };
    let Some(args) = parse(argv) else {
        return usage();
    };
    match command.as_str() {
        "run" => run(args, true),
        "simulate" => run(args, false),
        "analyze" => analyze(args),
        "serve" => serve(args),
        "--help" | "-h" | "help" => {
            usage();
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

impl Args {
    /// A live [`Metrics`] handle when `--metrics-json` was given, the
    /// zero-cost disabled handle otherwise.
    fn metrics(&self) -> Metrics {
        if self.metrics_json.is_some() {
            Metrics::new()
        } else {
            Metrics::disabled()
        }
    }

    /// The dataset export format: an explicit `--format` wins but must
    /// agree with the `--dataset` extension when that names a format;
    /// otherwise the extension decides; JSON is the default. A
    /// contradiction (e.g. `--format columnar` with a `.json` path) is
    /// rejected rather than silently writing bytes the extension lies
    /// about.
    fn export_format(&self) -> Result<Format, String> {
        let from_ext = self.dataset.as_deref().and_then(Format::from_extension);
        match (self.format, from_ext) {
            (Some(flag), Some(ext)) if flag != ext => Err(format!(
                "--format {flag} contradicts the .{} extension of {}; \
                 use --format {ext} or rename the file",
                self.dataset
                    .as_deref()
                    .and_then(|p| p.extension())
                    .and_then(|e| e.to_str())
                    .unwrap_or(""),
                self.dataset
                    .as_deref()
                    .unwrap_or(std::path::Path::new(""))
                    .display(),
            )),
            (Some(flag), _) => Ok(flag),
            (None, Some(ext)) => Ok(ext),
            (None, None) => Ok(Format::Json),
        }
    }

    /// The checkpoint spec when `--checkpoint` was given. A stable hash of
    /// the whole world configuration (the preset with `--names`/`--seed`
    /// applied; equal configurations build identical worlds) folds into the
    /// fingerprint, so a checkpoint from one world is never spliced into
    /// another.
    fn checkpoint_spec(&self) -> Option<CheckpointSpec> {
        let path = self.checkpoint.as_ref()?;
        let world = serde_json::to_string(&self.world_config()).expect("a world config serializes");
        let mut spec = CheckpointSpec::new(path)
            .every(self.checkpoint_every.unwrap_or(DEFAULT_CHECKPOINT_EVERY))
            .with_fingerprint_extra(fnv1a(world.as_bytes()));
        if self.resume {
            spec = spec.resuming();
        }
        Some(spec)
    }

    /// The world size: an explicit `--names` wins over the preset's own.
    fn n_names(&self) -> usize {
        self.names.unwrap_or_else(|| self.preset.base().n_names)
    }

    /// The `--preset` base with `--names`/`--seed` applied on top.
    fn world_config(&self) -> WorldConfig {
        self.preset
            .base()
            .with_names(self.n_names())
            .with_seed(self.seed)
    }

    fn crawl_config(&self) -> CrawlConfig {
        let defaults = CrawlConfig::default();
        CrawlConfig {
            threads: self.threads,
            retry: RetryPolicy::with_max_retries(self.max_retries),
            failure: self.failure,
            min_recovery: self.min_recovery,
            chaos: self.chaos.clone(),
            subgraph_page_size: self.page_size.unwrap_or(defaults.subgraph_page_size),
            txlist_page_size: self.page_size.unwrap_or(defaults.txlist_page_size),
            market_page_size: self.page_size.unwrap_or(defaults.market_page_size),
        }
    }
}

/// Writes the metrics snapshot if `--metrics-json` was given. Returns an
/// exit code only on a write failure.
fn write_metrics(args: &Args, metrics: &Metrics) -> Option<ExitCode> {
    let path = args.metrics_json.as_ref()?;
    match std::fs::write(path, metrics.snapshot().to_json()) {
        Ok(()) => {
            eprintln!("metrics written to {}", path.display());
            None
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            Some(ExitCode::FAILURE)
        }
    }
}

/// Builds the world and both source indexes, then crawls them. Each layer
/// is freed once its consumer is done: the world once both indexes exist
/// (the crawl needs only its marketplace and observation end, the study
/// its oracle, and those are kept), the indexes when the crawl returns. So
/// encode, write and study run with only the dataset alive; it shares the
/// explorer's labels and the subgraph's reverse history, which it needs.
fn collect(
    args: &Args,
    metrics: &Metrics,
    spec: Option<&CheckpointSpec>,
) -> (Result<(Dataset, CrawlTimings), CollectError>, PriceOracle) {
    eprintln!(
        "building world: {} names, seed {}...",
        args.n_names(),
        args.seed
    );
    let world = {
        let _world = metrics.span("world");
        let config = args.world_config();
        let plan = {
            let _span = metrics.span("plan");
            build_plan(&config)
        };
        let _span = metrics.span("execute");
        World::from_plan(config, plan)
    };
    let subgraph = {
        let _span = metrics.span("sources/subgraph");
        world.subgraph(SubgraphConfig::default())
    };
    let etherscan = {
        let _span = metrics.span("sources/explorer");
        world.etherscan()
    };
    let opensea = world.opensea().clone();
    let oracle = world.oracle().clone();
    let observation_end = world.observation_end();
    drop(world);

    eprintln!(
        "crawling (subgraph + txlists + market) on {} thread(s){}...",
        args.threads,
        match &args.chaos {
            Some(p) => format!(" under chaos (seed {})", p.seed),
            None => String::new(),
        }
    );
    if let Some(spec) = spec.filter(|spec| spec.resume) {
        eprintln!(
            "resuming from checkpoint {} (if present)...",
            spec.path.display()
        );
    }
    let sources = DataSources {
        subgraph: &subgraph,
        etherscan: &etherscan,
        opensea: &opensea,
        observation_end,
        crawl: args.crawl_config(),
    };
    let kill = args.kill_after.map(KillSwitch::new);
    (sources.collect(metrics, spec, kill), oracle)
}

/// Builds a world; with `full_study` also analyzes and prints the report,
/// otherwise just exports the dataset.
fn run(args: Args, full_study: bool) -> ExitCode {
    // Resolve (and validate) the export format before spending minutes
    // building a world whose export would then be rejected.
    let format = match args.export_format() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = args.metrics();
    let spec = args.checkpoint_spec();
    let (collected, oracle) = collect(&args, &metrics, spec.as_ref());
    let (dataset, timings) = match collected {
        Ok(out) => out,
        Err(CollectError::Crawl(e)) => {
            if matches!(e.kind, FaultKind::Killed { .. }) {
                eprintln!("crawl killed (injected process death): {e}");
            } else {
                eprintln!("crawl failed: {e}");
            }
            eprintln!(
                "partial accounting: {} pages, {} items, {} retries before the failure",
                e.stats.pages, e.stats.items, e.stats.retries
            );
            if let Some(path) = args.checkpoint.as_ref().filter(|p| p.exists()) {
                eprintln!(
                    "checkpoint retained at {}; rerun with --resume to continue from it",
                    path.display()
                );
            }
            // The snapshot still carries the partial crawl accounting.
            write_metrics(&args, &metrics);
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("{e}");
            write_metrics(&args, &metrics);
            return ExitCode::FAILURE;
        }
    };
    let report = &dataset.crawl_report;
    eprintln!(
        "collected {} domains, {} transactions (recovery {:.2}%)",
        report.domains,
        report.transactions,
        report.recovery_rate() * 100.0
    );
    // Crawl health goes to stderr only, like the timings: stdout must be
    // identical across thread counts, and the rendered report already
    // carries the same facts.
    if report.degraded {
        eprintln!(
            "DEGRADED: {} gaps, ~{} items lost, item recovery {:.3}%",
            report.gaps.len(),
            report.lost_items_estimate,
            report.item_recovery_rate() * 100.0
        );
    }
    let retries = report.retries_by_kind();
    if retries.total() > 0 {
        eprintln!(
            "retries: {} (rate-limited {}, timeout {}, server-error {}, malformed {}); virtual backoff {} ms",
            retries.total(),
            retries.rate_limited,
            retries.timeout,
            retries.server_error,
            retries.malformed,
            report.backoff_virtual_ms()
        );
    }
    eprintln!(
        "crawl took {:.1?} (subgraph {:.1?}, txlist {:.1?}, market {:.1?})",
        timings.total(),
        timings.subgraph,
        timings.txlist,
        timings.market
    );

    if let Some(path) = &args.dataset {
        match dataset.save(path, format, &metrics) {
            Ok(()) => {
                if args.verbose {
                    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                    eprintln!(
                        "dataset written to {} as {format} ({bytes} bytes)",
                        path.display()
                    );
                } else {
                    eprintln!("dataset written to {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else if !full_study {
        eprintln!("simulate requires --dataset FILE");
        return ExitCode::from(2);
    }

    if full_study {
        let config = StudyConfig {
            threads: args.threads,
            ..StudyConfig::default()
        };
        let report = run_study_on(&dataset, &oracle, &config, None, &metrics);
        println!("{}", report.render());
        if let Some(code) = write_metrics(&args, &metrics) {
            return code;
        }
        if let Some(dir) = &args.csv {
            return write_csv(&report, dir);
        }
    } else if let Some(code) = write_metrics(&args, &metrics) {
        return code;
    }
    ExitCode::SUCCESS
}

/// Reads `--dataset` for `command`: detects the format from the file's
/// magic bytes (never the extension), checks it against `--format`, and
/// decodes it under `metrics`. On failure the error is already reported
/// and the exit code is returned.
fn load_dataset(args: &Args, command: &str, metrics: &Metrics) -> Result<Dataset, ExitCode> {
    let Some(path) = &args.dataset else {
        eprintln!("{command} requires --dataset FILE");
        return Err(ExitCode::from(2));
    };
    let bytes = std::fs::read(path).map_err(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    let detected = Format::detect(&bytes);
    if let Some(flag) = args.format.filter(|&flag| flag != detected) {
        eprintln!(
            "error: --format {flag} contradicts {}, which is a {detected} file \
             ({command} auto-detects the input format; the flag is only a check)",
            path.display()
        );
        return Err(ExitCode::from(2));
    }
    if args.verbose {
        eprintln!(
            "detected {detected} dataset: {} ({} bytes)",
            path.display(),
            bytes.len()
        );
    }
    let dataset = Dataset::from_bytes_metered(&bytes, metrics).map_err(|e| {
        eprintln!("cannot parse dataset: {e}");
        ExitCode::FAILURE
    })?;
    eprintln!(
        "loaded {} domains, {} transactions ({detected})",
        dataset.domains.len(),
        dataset.crawl_report.transactions
    );
    if dataset.crawl_report.degraded {
        eprintln!(
            "note: dataset is degraded ({} gaps, ~{} items lost)",
            dataset.crawl_report.gaps.len(),
            dataset.crawl_report.lost_items_estimate
        );
    }
    Ok(dataset)
}

/// Re-analyzes a previously exported dataset file (JSON or columnar).
fn analyze(args: Args) -> ExitCode {
    let metrics = args.metrics();
    let dataset = match load_dataset(&args, "analyze", &metrics) {
        Ok(d) => d,
        Err(code) => return code,
    };

    // Offline re-analysis is fully self-contained: the dataset carries its
    // own labels, reverse claims and marketplace events, so every section
    // (including §4.2's resale join) reproduces from the file alone.
    let config = StudyConfig {
        threads: args.threads,
        ..StudyConfig::default()
    };
    let report = run_study_on(&dataset, &PriceOracle::new(), &config, None, &metrics);
    println!("{}", report.render());
    if let Some(code) = write_metrics(&args, &metrics) {
        return code;
    }
    if let Some(dir) = &args.csv {
        return write_csv(&report, dir);
    }
    ExitCode::SUCCESS
}

/// Loads a dataset file, builds the resident serving state (index, study,
/// name directory) once, and serves queries over HTTP until killed.
fn serve(args: Args) -> ExitCode {
    let dataset = match load_dataset(&args, "serve", &Metrics::disabled()) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let state = ens_serve::ServeState::build(dataset, args.threads);
    eprintln!(
        "resident: {} incoming / {} outgoing transfers indexed, {} names resolvable, \
         {} re-registrations, study complete",
        state.index.indexed_transfers(),
        state.outgoing.indexed_transfers(),
        state.names.len(),
        state.index.reregistrations().len(),
    );
    let handle = ens_serve::ServeHandle::new(std::sync::Arc::new(state));
    let addr = args.addr.as_deref().unwrap_or("127.0.0.1:8417");
    let workers = args.workers.unwrap_or(args.threads);
    let server = match ens_serve::http::Server::start(handle, addr, workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "serving on http://{} with {workers} worker(s); endpoints: /name-risk?name= \
         /address-forensics?address=[&from=&to=] /loss-findings?victim= \
         /report-slice?section= /healthz",
        server.local_addr()
    );
    // A daemon: resident until the process is killed. The parked loop
    // keeps `server` (and its threads) alive without burning a core.
    loop {
        std::thread::park();
    }
}

fn write_csv(report: &ens_dropcatch::StudyReport, dir: &std::path::Path) -> ExitCode {
    match report.write_csv_bundle(dir) {
        Ok(files) => {
            eprintln!("wrote {} CSV artifacts to {}", files.len(), dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("CSV export failed: {e}");
            ExitCode::FAILURE
        }
    }
}

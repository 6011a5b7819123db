//! The checkpoint-cadence bench: measures what crash-safe collection costs
//! at several `--checkpoint-every` cadences, verifies every cadence still
//! produces byte-identical data, and exercises one kill/resume cycle end
//! to end. Writes `BENCH_resume.json`.
//!
//! # The throughput model
//!
//! The simulated endpoints answer from memory in microseconds, which no
//! real crawl does — the paper's own measurement pulled 9.7M transactions
//! through rate-limited HTTP APIs where a page costs tens to hundreds of
//! milliseconds. Checkpoint overhead relative to a zero-latency crawl is
//! therefore meaningless as a throughput number, so the cadence sweep
//! drives the crawl engine through a [`PagedSource`] adapter that models a
//! conservative per-page service time (default 2 ms — one to two orders
//! of magnitude *below* real API latency, biasing the overhead estimate
//! high). Each cadence is also timed on the zero-latency source, beside
//! the raw uncheckpointed baseline, so the in-process cost — what a
//! checkpointed crawl over the simulated sources pays — stays visible.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ens_dropcatch::{
    remove_chain, CheckpointJournal, CheckpointSpec, CollectError, CrawlCheckpoint, CrawlConfig,
    Crawled, Crawler, Dataset, FailurePolicy, Metrics,
};
use ens_subgraph::{DomainRecord, Subgraph, SubgraphConfig};
use ens_types::{FaultKind, KillSwitch, PageError, PagedBatch, PagedSource};
use serde::Serialize;
use workload::{World, WorldConfig};

use crate::harness::{best_of, time_ms};

/// A [`PagedSource`] adapter that charges a fixed service time per page
/// request (busy-wait, so the cost is paid on the fetching worker exactly
/// like blocking network I/O) before delegating to the wrapped source.
struct LatencySource<'a> {
    inner: &'a Subgraph,
    service: Duration,
}

impl PagedSource for LatencySource<'_> {
    type Item = DomainRecord;
    fn source_name(&self) -> &'static str {
        self.inner.source_name()
    }
    fn total_hint(&self) -> Option<usize> {
        self.inner.total_hint()
    }
    fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<DomainRecord>, PageError> {
        let t = Instant::now();
        while t.elapsed() < self.service {
            std::hint::spin_loop();
        }
        self.inner.fetch(offset, limit)
    }
}

/// One cadence point of the sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CadenceRun {
    /// Checkpoint save cadence (pages per delta segment).
    pub every: usize,
    /// Checkpointed crawl wall time at the modeled page latency, ms (min
    /// over repeats).
    pub crawl_ms: f64,
    /// `(crawl_ms - baseline_ms) / baseline_ms`, percent.
    pub overhead_pct: f64,
    /// Checkpointed crawl wall time with the latency model disabled, ms
    /// (min over repeats): the in-process cost, beside `raw_baseline_ms`.
    pub raw_crawl_ms: f64,
    /// `(raw_crawl_ms - raw_baseline_ms) / raw_baseline_ms`, percent.
    pub raw_overhead_pct: f64,
    /// Delta segments written during the (uninterrupted) crawl.
    pub checkpoint_writes: u64,
    /// Whether the checkpointed crawl's items and stats matched the
    /// uncheckpointed baseline exactly.
    pub identical: bool,
}

/// The engine-level cadence sweep.
#[derive(Clone, Debug, Serialize)]
pub struct CadenceSweep {
    /// Pages the swept crawl fetches.
    pub pages: u64,
    /// Modeled per-page service time, microseconds (see module docs).
    pub page_service_time_us: u64,
    /// Uncheckpointed crawl at the modeled latency, ms (min over repeats).
    pub baseline_ms: f64,
    /// Uncheckpointed crawl with the latency model disabled, ms — the raw
    /// engine speed the service-time model is protecting the number from.
    pub raw_baseline_ms: f64,
    /// One run per requested cadence.
    pub runs: Vec<CadenceRun>,
}

/// The end-to-end kill/resume cycle through the full collection pipeline.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ResumeCycle {
    /// Pages an uninterrupted collection fetches across all three phases.
    pub total_pages: u64,
    /// Page budget the kill switch allowed before simulated death.
    pub killed_after_pages: u64,
    /// Wall time of the killed attempt, ms.
    pub killed_attempt_ms: f64,
    /// Wall time of the resumed completion, ms.
    pub resume_ms: f64,
    /// Committed pages the resume spliced instead of refetching.
    pub pages_spliced: u64,
    /// Whether the resumed dataset matched the uninterrupted bytes.
    pub identical: bool,
}

/// The `BENCH_resume.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct ResumeBenchReport {
    /// World size (names).
    pub names: usize,
    /// World seed.
    pub seed: u64,
    /// Timing repeats (min is reported).
    pub repeats: usize,
    /// The engine-level cadence sweep.
    pub sweep: CadenceSweep,
    /// The default cadence shipped in `CheckpointSpec`.
    pub default_every: usize,
    /// Overhead at the default cadence, percent — the acceptance gate
    /// requires this to stay under 5%.
    pub default_overhead_pct: f64,
    /// In-process overhead at the default cadence (zero-latency source),
    /// percent.
    pub default_raw_overhead_pct: f64,
    /// One kill-at-midpoint / resume cycle through the full pipeline.
    pub resume: ResumeCycle,
    /// True iff every cadence and the resume produced identical output.
    pub outputs_identical: bool,
}

/// Sweeps checkpoint cadences over a latency-modeled subgraph crawl.
fn cadence_sweep(
    world: &World,
    cadences: &[usize],
    repeats: usize,
    service_time_us: u64,
    scratch: &Path,
) -> CadenceSweep {
    let subgraph = world.subgraph(SubgraphConfig::default());
    // One shard per page so the cadence governs real segment traffic.
    let crawler = Crawler {
        page_size: 8,
        threads: 4,
        ..Crawler::default()
    };
    let source = LatencySource {
        inner: &subgraph,
        service: Duration::from_micros(service_time_us),
    };
    let instant = LatencySource {
        inner: &subgraph,
        service: Duration::ZERO,
    };

    let (raw_baseline_ms, _) = best_of(repeats, || {
        crawler
            .crawl_resumable(&instant, BTreeMap::new(), |_, _| {})
            .expect("clean crawl")
    });
    let (baseline_ms, baseline) = best_of(repeats, || {
        crawler
            .crawl_resumable(&source, BTreeMap::new(), |_, _| {})
            .expect("clean crawl")
    });
    let expected = (
        serde_json::to_string(&baseline.items).expect("serializes"),
        serde_json::to_string(&baseline.stats).expect("serializes"),
    );

    let fingerprint = 0xB57C;
    let mut runs = Vec::new();
    for &every in cadences {
        let path = scratch.join(format!("cadence-{every}.ckpt"));
        let spec = CheckpointSpec::new(&path).every(every);
        let checkpointed = |source: &LatencySource<'_>| {
            let journal = CheckpointJournal::new(&spec, fingerprint, &CrawlCheckpoint::default())
                .expect("journal initializes");
            let crawled = crawler
                .crawl_resumable(source, BTreeMap::new(), |shard, c| {
                    journal.commit_subgraph(shard, c);
                })
                .expect("clean crawl");
            journal.flush();
            assert!(journal.take_error().is_none(), "checkpoint save failed");
            (crawled, journal.writes())
        };
        let (crawl_ms, (crawled, writes)) = best_of(repeats, || checkpointed(&source));
        let (raw_crawl_ms, (raw, _)) = best_of(repeats, || checkpointed(&instant));
        remove_chain(&path);
        let matches = |c: &Crawled<DomainRecord>| {
            serde_json::to_string(&c.items).expect("serializes") == expected.0
                && serde_json::to_string(&c.stats).expect("serializes") == expected.1
        };
        runs.push(CadenceRun {
            every,
            crawl_ms,
            overhead_pct: (crawl_ms - baseline_ms) / baseline_ms * 100.0,
            raw_crawl_ms,
            raw_overhead_pct: (raw_crawl_ms - raw_baseline_ms) / raw_baseline_ms * 100.0,
            checkpoint_writes: writes,
            identical: matches(&crawled) && matches(&raw),
        });
    }

    CadenceSweep {
        pages: baseline.stats.pages as u64,
        page_service_time_us: service_time_us,
        baseline_ms,
        raw_baseline_ms,
        runs,
    }
}

/// One kill-at-midpoint / resume cycle through the full three-phase
/// collection pipeline, gated on byte identity with an uninterrupted run.
fn resume_cycle(world: &World, scratch: &Path) -> ResumeCycle {
    let subgraph = world.subgraph(SubgraphConfig::default());
    let etherscan = world.etherscan();
    let config = CrawlConfig {
        failure: FailurePolicy::degrade(),
        threads: 4,
        subgraph_page_size: 64,
        txlist_page_size: 32,
        market_page_size: 16,
        ..CrawlConfig::default()
    };
    // The fat Err mirrors `CollectError` itself: the crawl error carries
    // the full partial accounting, and every construction is a cold path.
    #[allow(clippy::result_large_err)]
    let collect = |spec: &CheckpointSpec, kill: Option<u64>, metrics: &Metrics| {
        Dataset::try_collect_checkpointed(
            &subgraph,
            &etherscan,
            world.opensea(),
            world.observation_end(),
            &config,
            metrics,
            spec,
            kill.map(KillSwitch::new),
        )
        .map(|(ds, _)| ds)
    };

    let (baseline, _) = Dataset::try_collect_with(
        &subgraph,
        &etherscan,
        world.opensea(),
        world.observation_end(),
        &config,
    )
    .expect("clean world collects");
    let expected = baseline.to_json().expect("serializes");
    let total_pages = (baseline.crawl_report.subgraph.pages
        + baseline.crawl_report.txlist.pages
        + baseline.crawl_report.market.pages) as u64;

    let path = scratch.join("kill-resume.ckpt");
    let spec = CheckpointSpec::new(&path);
    let budget = total_pages / 2;
    let (killed_attempt_ms, killed) =
        time_ms(|| collect(&spec, Some(budget), &Metrics::disabled()).err());
    match killed {
        Some(CollectError::Crawl(e)) if matches!(e.kind, FaultKind::Killed { .. }) => {}
        other => panic!("expected an injected kill, got {other:?}"),
    }
    let metrics = Metrics::new();
    let (resume_ms, resumed) =
        time_ms(|| collect(&spec.clone().resuming(), None, &metrics).expect("resume completes"));
    ResumeCycle {
        total_pages,
        killed_after_pages: budget,
        killed_attempt_ms,
        resume_ms,
        pages_spliced: metrics.snapshot().counter("checkpoint/skipped_pages"),
        identical: resumed.to_json().expect("serializes") == expected,
    }
}

/// Runs the cadence sweep plus one kill/resume cycle and returns the
/// report for `BENCH_resume.json`.
pub fn run_resume_bench(
    names: usize,
    seed: u64,
    cadences: &[usize],
    repeats: usize,
    service_time_us: u64,
    scratch: &Path,
) -> ResumeBenchReport {
    let world = WorldConfig::default()
        .with_names(names)
        .with_seed(seed)
        .build();

    let sweep = cadence_sweep(&world, cadences, repeats, service_time_us, scratch);
    let resume = resume_cycle(&world, scratch);

    let default_run = sweep
        .runs
        .iter()
        .find(|r| r.every == ens_dropcatch::DEFAULT_CHECKPOINT_EVERY);
    let default_overhead_pct = default_run.map_or(f64::NAN, |r| r.overhead_pct);
    let default_raw_overhead_pct = default_run.map_or(f64::NAN, |r| r.raw_overhead_pct);
    let outputs_identical = sweep.runs.iter().all(|r| r.identical) && resume.identical;

    ResumeBenchReport {
        names,
        seed,
        repeats,
        sweep,
        default_every: ens_dropcatch::DEFAULT_CHECKPOINT_EVERY,
        default_overhead_pct,
        default_raw_overhead_pct,
        resume,
        outputs_identical,
    }
}

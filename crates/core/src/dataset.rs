//! The assembled study dataset: domain histories + per-address transaction
//! lists + the crawled marketplace events, with the observation window.
//!
//! # Ownership
//!
//! The dataset *owns* everything the analyses read, so a serialized export
//! is self-contained and an offline `analyze` run needs no simulator. The
//! two pieces of backend state that used to be deep-cloned on every
//! collection — the explorer's label directory and the subgraph's
//! reverse-claim history — are now shared snapshots (`Arc`): the sources
//! hand out an owned handle once and collection never copies them.
//!
//! # Failure handling
//!
//! Collection is fallible: every endpoint crawl can fail past its retry
//! budget, and [`DataSources::collect`] propagates that as a
//! [`CollectError`]. Under a `Degrade` [`FailurePolicy`] the crawl records
//! [`CrawlGap`](crate::crawl::CrawlGap)s instead of aborting, the report is
//! marked `degraded`, and [`CrawlConfig::min_recovery`] gates whether a
//! lossy dataset is still acceptable for the study. A [`FaultProfile`]
//! in [`CrawlConfig::chaos`] wraps every endpoint in a deterministic
//! [`ChaosSource`] — the chaos harness used by tests, the CI chaos job and
//! the `--chaos` CLI flag.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ens_obs::Metrics;
use ens_subgraph::{DomainRecord, Subgraph};
use ens_types::paged::{
    ChaosSource, FaultProfile, KillSwitch, PageError, PagedBatch, PagedSource, ShardKey,
};
use ens_types::{Address, Timestamp, UsdCents};
use etherscan_sim::{Etherscan, LabelService};
use opensea_sim::{MarketEvent, OpenSea};
use price_oracle::PriceOracle;
use serde::{Deserialize, Serialize};
use sim_chain::{Transaction, TxKind};

use crate::checkpoint::{
    config_fingerprint, load_for_resume, remove_chain, CheckpointJournal, CheckpointLoad,
    CheckpointSpec, CrawlCheckpoint,
};
use crate::crawl::{
    relevant_addresses, CrawlError, CrawlGap, CrawlReport, CrawlTimings, Crawled, Crawler,
    FailurePolicy, KeyedCrawl, RetryPolicy, SourceStats,
};

/// Knobs for one collection run — thread count, retry/failure policies, the
/// minimum acceptable recovery rate, an optional chaos profile, and the
/// page size used against each endpoint (each endpoint additionally
/// enforces its own server-side cap).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrawlConfig {
    /// Worker threads for the sharded crawls (and nothing else); `1` is
    /// fully sequential. Any value produces a byte-identical dataset.
    pub threads: usize,
    /// Retry schedule per page.
    pub retry: RetryPolicy,
    /// What to do when a page stays unfetchable: abort (`FailFast`) or
    /// record a gap and continue (`Degrade`).
    pub failure: FailurePolicy,
    /// Minimum acceptable item recovery rate in `[0, 1]`. A degraded crawl
    /// whose [`CrawlReport::item_recovery_rate`] falls below this fails
    /// collection with [`CollectError::RecoveryBelowMinimum`]. `0.0`
    /// accepts any completed crawl.
    pub min_recovery: f64,
    /// Optional fault-injection profile. When set, every endpoint is
    /// wrapped in a [`ChaosSource`] seeded per source (and per address for
    /// the `txlist` crawl), so runs are deterministically faulty.
    pub chaos: Option<FaultProfile>,
    /// Page size against the subgraph (server cap 1000).
    pub subgraph_page_size: usize,
    /// Page size against the explorer `txlist` (server cap 10,000).
    pub txlist_page_size: usize,
    /// Page size against the marketplace event stream (server cap 50).
    pub market_page_size: usize,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            threads: 1,
            retry: RetryPolicy::default(),
            failure: FailurePolicy::FailFast,
            min_recovery: 0.0,
            chaos: None,
            subgraph_page_size: 1000,
            txlist_page_size: 10_000,
            market_page_size: opensea_sim::MAX_EVENTS_PAGE,
        }
    }
}

impl CrawlConfig {
    /// A default configuration with the given thread count.
    pub fn with_threads(threads: usize) -> CrawlConfig {
        CrawlConfig {
            threads,
            ..CrawlConfig::default()
        }
    }

    fn crawler(&self, page_size: usize) -> Crawler {
        Crawler {
            page_size,
            threads: self.threads,
            retry: self.retry,
            failure: self.failure,
        }
    }
}

/// Why a collection run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum CollectError {
    /// A crawl gave up (retry budget exhausted under `FailFast`, or a
    /// `Degrade` loss budget was exceeded). An injected process death
    /// ([`FaultKind::Killed`](ens_types::FaultKind::Killed)) also lands
    /// here — the checkpoint file, if any, stays on disk for `--resume`.
    Crawl(CrawlError),
    /// A checkpointed collection could not persist its resume state
    /// (serialization or atomic-write failure). The crawl itself may have
    /// been healthy; the durability guarantee was not.
    Checkpoint(String),
    /// The crawl completed, but recovered too little of the data.
    RecoveryBelowMinimum {
        /// The recovery the crawl achieved.
        achieved: f64,
        /// The configured [`CrawlConfig::min_recovery`].
        required: f64,
        /// Estimated items lost across all gaps.
        lost_items: usize,
    },
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::Crawl(e) => write!(f, "collection failed: {e}"),
            CollectError::Checkpoint(msg) => write!(f, "checkpointing failed: {msg}"),
            CollectError::RecoveryBelowMinimum {
                achieved,
                required,
                lost_items,
            } => write!(
                f,
                "collection recovered too little: {:.4} < required {:.4} (~{lost_items} items lost)",
                achieved, required
            ),
        }
    }
}

impl std::error::Error for CollectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollectError::Crawl(e) => Some(e),
            CollectError::Checkpoint(_) | CollectError::RecoveryBelowMinimum { .. } => None,
        }
    }
}

impl From<CrawlError> for CollectError {
    fn from(e: CrawlError) -> Self {
        CollectError::Crawl(e)
    }
}

/// The dataset every analysis module reads. The default is the empty
/// dataset: no domains, no transactions, no catches.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// All crawled domain records.
    pub domains: Vec<DomainRecord>,
    /// Per-address transaction histories (in and out, chain order), keyed
    /// in address order so iteration and serialization are deterministic.
    pub transactions: BTreeMap<Address, Vec<Transaction>>,
    /// End of the observation window.
    pub observation_end: Timestamp,
    /// Address labels pulled from the explorer (custodial exchange and
    /// Coinbase sets — the paper's 558 + 25 addresses). A shared snapshot
    /// of the explorer's directory, not a copy.
    pub labels: Arc<LabelService>,
    /// Primary-name (reverse) claim history per address, a shared snapshot
    /// of the subgraph's history.
    pub reverse_claims: Arc<HashMap<Address, Vec<(Timestamp, String)>>>,
    /// The marketplace, rebuilt from the crawled event stream — this is
    /// what makes §4.2's resale join reproducible from the export alone.
    pub market: OpenSea,
    /// What the crawl recovered.
    pub crawl_report: CrawlReport,
}

impl Dataset {
    /// [`DataSources::collect`] over separately held endpoints: unmetered,
    /// without a checkpoint.
    pub fn try_collect_with(
        subgraph: &Subgraph,
        etherscan: &Etherscan,
        opensea: &OpenSea,
        observation_end: Timestamp,
        config: &CrawlConfig,
    ) -> Result<(Dataset, CrawlTimings), CollectError> {
        let sources = DataSources {
            subgraph,
            etherscan,
            opensea,
            observation_end,
            crawl: config.clone(),
        };
        sources.collect(&Metrics::disabled(), None, None)
    }

    /// [`DataSources::collect`] over separately held endpoints, with a
    /// checkpoint and an optional kill switch.
    #[allow(clippy::too_many_arguments)]
    pub fn try_collect_checkpointed(
        subgraph: &Subgraph,
        etherscan: &Etherscan,
        opensea: &OpenSea,
        observation_end: Timestamp,
        config: &CrawlConfig,
        metrics: &Metrics,
        spec: &CheckpointSpec,
        kill: Option<Arc<KillSwitch>>,
    ) -> Result<(Dataset, CrawlTimings), CollectError> {
        let sources = DataSources {
            subgraph,
            etherscan,
            opensea,
            observation_end,
            crawl: config.clone(),
        };
        sources.collect(metrics, Some(spec), kill)
    }

    /// Incoming value transfers to `address` (mints and contract payments
    /// excluded), optionally bounded to `[from, to)`.
    pub fn incoming(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> impl Iterator<Item = &Transaction> {
        self.transactions
            .get(&address)
            .into_iter()
            .flatten()
            .filter(move |tx| {
                tx.to == address
                    && tx.from != address
                    && matches!(tx.kind, TxKind::Transfer)
                    && window.is_none_or(|(a, b)| tx.timestamp >= a && tx.timestamp < b)
            })
    }

    /// Total USD received by `address` in a window, valued at the day of
    /// each transaction (the paper's income definition).
    pub fn income_usd(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
        oracle: &PriceOracle,
    ) -> UsdCents {
        self.incoming(address, window)
            .map(|tx| oracle.to_usd(tx.value, tx.timestamp))
            .sum()
    }

    /// The primary name `address` had claimed as of time `t`.
    pub fn primary_name_at(&self, address: Address, t: Timestamp) -> Option<&str> {
        primary_name_in(self.reverse_claims_of(address), t)
    }

    /// `address`'s primary-name claims in time order — empty if it never
    /// claimed one.
    pub(crate) fn reverse_claims_of(&self, address: Address) -> &[(Timestamp, String)] {
        self.reverse_claims.get(&address).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct senders to `address` in a window.
    pub fn unique_senders(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> usize {
        let mut senders: Vec<Address> = self.incoming(address, window).map(|t| t.from).collect();
        senders.sort_unstable();
        senders.dedup();
        senders.len()
    }

    /// JSON export of the whole dataset (the paper releases its dataset;
    /// so do we). Byte-identical for any [`CrawlConfig::threads`].
    ///
    /// JSON is the *interchange* form; the native on-disk form is the
    /// columnar container (see [`crate::storage`]). File-level consumers
    /// should go through the format-dispatching [`Dataset::save`] /
    /// [`Dataset::load`] seam in [`crate::export`] rather than calling
    /// either serializer directly.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Inverse of [`Dataset::to_json`]. Streaming and linear in input
    /// size: deserialization is driven from parser events (no
    /// intermediate `Value` tree), so multi-GB paper-scale exports
    /// ingest at memory-bandwidth-bound rates (~250 MB/s; see
    /// `json_bench` / `BENCH_json.json`). For files of unknown format,
    /// prefer [`Dataset::load`], which auto-detects columnar vs JSON.
    pub fn from_json(s: &str) -> serde_json::Result<Dataset> {
        serde_json::from_str(s)
    }
}

/// The primary name in force at `t` in one address's time-ordered claims
/// ([`Dataset::reverse_claims_of`]) — [`Dataset::primary_name_at`] for a
/// caller that looked the claims up once and probes many times.
pub(crate) fn primary_name_in(claims: &[(Timestamp, String)], t: Timestamp) -> Option<&str> {
    claims
        .iter()
        .rfind(|(at, _)| *at <= t)
        .map(|(_, name)| name.as_str())
}

/// The endpoints one collection run crawls, and the knobs it crawls them
/// with.
pub struct DataSources<'a> {
    /// The ENS subgraph endpoint.
    pub subgraph: &'a Subgraph,
    /// The transaction explorer.
    pub etherscan: &'a Etherscan,
    /// The NFT marketplace.
    pub opensea: &'a OpenSea,
    /// End of the observation window.
    pub observation_end: Timestamp,
    /// Collection knobs (threads, retry/failure policies, chaos profile,
    /// page sizes). Any thread count yields a byte-identical dataset.
    pub crawl: CrawlConfig,
}

impl DataSources<'_> {
    /// Runs the full collection pipeline of the paper's Fig 1 under a
    /// `collect` span: the subgraph, then the `txlist` of every address it
    /// names, then the marketplace events. Crawl failures propagate, the
    /// configured minimum recovery rate is enforced, and the per-source
    /// wall-clock timings come back beside the dataset (they are *not* part
    /// of it — see [`CrawlTimings`]). Instrumentation never changes the
    /// dataset, and the deterministic part of what lands in `metrics` is
    /// identical at any thread count.
    ///
    /// With a `checkpoint`, the run persists its resume watermark — every
    /// fully-committed shard of every phase — to `spec.path` at the
    /// configured page cadence (atomic temp-file + rename, so a crash never
    /// leaves a torn file), and when `spec.resume` is set, a valid
    /// checkpoint with a matching [`config_fingerprint`] is *spliced*:
    /// committed shards are restored from disk instead of refetched, and
    /// the dataset and [`CrawlReport`] are byte-identical to an
    /// uninterrupted run at any thread count. A corrupt or stale checkpoint
    /// is discarded (counted in `checkpoint/corrupt_fallback` /
    /// `checkpoint/stale_fallback`) and the crawl starts clean. When a
    /// crawl failure aborts collection, the chain keeps its last committed
    /// state for a later resume; once every phase completes, it is deleted.
    ///
    /// `kill` injects a deterministic process death
    /// ([`FaultKind::Killed`](ens_types::FaultKind::Killed)) after the
    /// switch's page budget, shared across *all* endpoints of the run — the
    /// crash-recovery test harness. Nothing is flushed at the moment of
    /// death, exactly like a real crash.
    pub fn collect(
        &self,
        metrics: &Metrics,
        checkpoint: Option<&CheckpointSpec>,
        kill: Option<Arc<KillSwitch>>,
    ) -> Result<(Dataset, CrawlTimings), CollectError> {
        let _span = metrics.span("collect");
        let (done, journal) = self.open_checkpoint(checkpoint, metrics)?;
        let crawls = self.crawl_sources(metrics, done, journal.as_ref(), kill);
        if let (Some(spec), Some(journal)) = (checkpoint, &journal) {
            // Recorded on every exit: a killed or failed run's snapshot
            // still counts the segments it left on disk.
            metrics.add("checkpoint/writes", journal.writes());
            if crawls.is_ok() {
                // Every phase completed: the resume point is obsolete.
                // Best-effort cleanup — a leftover chain would only ever be
                // discarded as stale.
                remove_chain(&spec.path);
            }
        }
        let (subgraph, txlist, market, timings) = crawls?;

        // Gaps concatenate in collection order (subgraph, txlist, market)
        // — deterministic because each crawl's gaps already merge in
        // canonical shard/key order.
        let mut gaps = subgraph.gaps;
        gaps.extend(txlist.gaps);
        gaps.extend(market.gaps);
        let lost_items_estimate = gaps.iter().map(|g| g.lost_estimate).sum();
        let stats = self.subgraph.stats();
        let crawl_report = CrawlReport {
            domains: subgraph.items.len(),
            unrecoverable_names: stats.unrecoverable_names,
            subdomains: stats.subdomains,
            addresses_crawled: txlist.map.len(),
            transactions: txlist.map.values().map(Vec::len).sum(),
            subgraph: subgraph.stats,
            txlist: txlist.stats,
            market: market.stats,
            degraded: !gaps.is_empty(),
            gaps,
            lost_items_estimate,
        };
        if metrics.is_enabled() {
            metrics.add("collect/domains", crawl_report.domains as u64);
            metrics.add(
                "collect/unrecoverable_names",
                crawl_report.unrecoverable_names as u64,
            );
            metrics.add(
                "collect/addresses_crawled",
                crawl_report.addresses_crawled as u64,
            );
            metrics.add("collect/transactions", crawl_report.transactions as u64);
            metrics.add("collect/gaps", crawl_report.gaps.len() as u64);
            metrics.add(
                "collect/lost_items_estimate",
                crawl_report.lost_items_estimate as u64,
            );
        }
        if crawl_report.item_recovery_rate() < self.crawl.min_recovery {
            return Err(CollectError::RecoveryBelowMinimum {
                achieved: crawl_report.item_recovery_rate(),
                required: self.crawl.min_recovery,
                lost_items: crawl_report.lost_items_estimate,
            });
        }
        let dataset = Dataset {
            domains: subgraph.items,
            transactions: txlist.map,
            observation_end: self.observation_end,
            labels: self.etherscan.labels_snapshot(),
            reverse_claims: self.subgraph.reverse_history_snapshot(),
            market: OpenSea::from_events(market.items),
            crawl_report,
        };
        Ok((dataset, timings))
    }

    /// Loads the resume state a checkpoint `spec` asks for (counting what
    /// happened to it) and opens the journal that persists newly committed
    /// shards. Without a spec nothing is committed and nothing journaled.
    fn open_checkpoint(
        &self,
        spec: Option<&CheckpointSpec>,
        metrics: &Metrics,
    ) -> Result<(CrawlCheckpoint, Option<CheckpointJournal>), CollectError> {
        let Some(spec) = spec else {
            return Ok((CrawlCheckpoint::default(), None));
        };
        let fingerprint =
            config_fingerprint(&self.crawl, self.observation_end, spec.fingerprint_extra);
        let resumed = if spec.resume {
            match load_for_resume(&spec.path, fingerprint) {
                CheckpointLoad::Fresh => CrawlCheckpoint::new(fingerprint),
                CheckpointLoad::Resumed(ckpt) => {
                    metrics.incr("checkpoint/loads");
                    metrics.add("checkpoint/skipped_pages", ckpt.committed_pages());
                    *ckpt
                }
                CheckpointLoad::DiscardedCorrupt(_) => {
                    metrics.incr("checkpoint/corrupt_fallback");
                    CrawlCheckpoint::new(fingerprint)
                }
                CheckpointLoad::DiscardedStale => {
                    metrics.incr("checkpoint/stale_fallback");
                    CrawlCheckpoint::new(fingerprint)
                }
            }
        } else {
            CrawlCheckpoint::new(fingerprint)
        };
        let journal = CheckpointJournal::new(spec, fingerprint, &resumed)
            .map_err(|e| CollectError::Checkpoint(e.to_string()))?;
        Ok((resumed, Some(journal)))
    }

    /// The three crawls, in collection order, and their wall times. Shards
    /// in `done` are spliced instead of refetched, and every newly
    /// completed shard goes to the `journal`, whose errors abort collection
    /// at the next phase boundary (commit hooks cannot propagate them
    /// through the crawler).
    #[allow(clippy::type_complexity)]
    fn crawl_sources(
        &self,
        metrics: &Metrics,
        done: CrawlCheckpoint,
        journal: Option<&CheckpointJournal>,
        kill: Option<Arc<KillSwitch>>,
    ) -> Result<
        (
            Crawled<DomainRecord>,
            KeyedCrawl<Address, Transaction>,
            Crawled<MarketEvent>,
            CrawlTimings,
        ),
        CollectError,
    > {
        let config = &self.crawl;
        // Each endpoint gets its own derived chaos profile (and each
        // address its own, for the keyed txlist crawl) so injected faults
        // never land in lockstep across sources. A kill switch needs a
        // `ChaosSource` host even when no chaos was asked for; an all-zero
        // profile injects nothing, so wrapping is byte-transparent.
        let profile = config
            .chaos
            .clone()
            .or_else(|| kill.as_ref().map(|_| FaultProfile::new(0)));
        let derive = |tag: &str| profile.as_ref().map(|p| p.derive(tag));
        let phase_done = |flush: bool| match journal {
            Some(journal) => {
                if flush {
                    journal.flush();
                }
                journal
                    .take_error()
                    .map_or(Ok(()), |msg| Err(CollectError::Checkpoint(msg)))
            }
            None => Ok(()),
        };

        let subgraph = Endpoint::new(self.subgraph, derive("subgraph"), kill.clone());
        let (subgraph, subgraph_time) = metered_crawl(
            metrics,
            "subgraph",
            |c: &Crawled<_>| (&c.stats, &c.gaps),
            || {
                config.crawler(config.subgraph_page_size).crawl_resumable(
                    &subgraph,
                    done.subgraph,
                    |shard, c| {
                        if let Some(journal) = journal {
                            journal.commit_subgraph(shard, c);
                        }
                    },
                )
            },
        )?;
        phase_done(true)?;

        let tx_sources: Vec<_> = relevant_addresses(&subgraph.items)
            .into_iter()
            .map(|a| {
                let profile = profile
                    .as_ref()
                    .map(|p| p.derive_keyed("txlist", a.shard_hash()));
                let source = self.etherscan.txlist_source(a);
                (a, Endpoint::new(source, profile, kill.clone()))
            })
            .collect();
        let (txlist, txlist_time) = metered_crawl(
            metrics,
            "txlist",
            |c: &KeyedCrawl<_, _>| (&c.stats, &c.gaps),
            || {
                config
                    .crawler(config.txlist_page_size)
                    .crawl_keyed_resumable(&tx_sources, done.txlist, |addr, c| {
                        if let Some(journal) = journal {
                            journal.commit_txlist(*addr, c);
                        }
                    })
            },
        )?;
        metrics.add("crawl/txlist/keys", tx_sources.len() as u64);
        phase_done(true)?;

        let market = Endpoint::new(self.opensea, derive("market"), kill.clone());
        let (market, market_time) = metered_crawl(
            metrics,
            "market",
            |c: &Crawled<_>| (&c.stats, &c.gaps),
            || {
                config.crawler(config.market_page_size).crawl_resumable(
                    &market,
                    done.market,
                    |shard, c| {
                        if let Some(journal) = journal {
                            journal.commit_market(shard, c);
                        }
                    },
                )
            },
        )?;
        phase_done(false)?;
        let timings = CrawlTimings {
            subgraph: subgraph_time,
            txlist: txlist_time,
            market: market_time,
        };
        Ok((subgraph, txlist, market, timings))
    }
}

/// Runs one source's crawl under its `crawl/<source>` span, returning it
/// with its wall time, and records its merged accounting (pages, items,
/// retries by kind, virtual backoff, gaps, lost-item estimates) into
/// `metrics` — from the error's partial accounting when the crawl failed.
/// The recording happens once, from the post-merge totals, so the recorded
/// values inherit the crawl's thread-count independence.
fn metered_crawl<R>(
    metrics: &Metrics,
    source: &str,
    accounting: impl Fn(&R) -> (&SourceStats, &Vec<CrawlGap>),
    crawl: impl FnOnce() -> Result<R, CrawlError>,
) -> Result<(R, Duration), CrawlError> {
    let span = metrics.span(&format!("crawl/{source}"));
    let started = Instant::now();
    let result = crawl();
    let elapsed = started.elapsed();
    let (stats, gaps) = match &result {
        Ok(crawled) => accounting(crawled),
        Err(e) => (&e.stats, &e.gaps),
    };
    span.add_virtual_ms(stats.backoff_virtual_ms);
    if metrics.is_enabled() {
        let key = |suffix: &str| format!("crawl/{source}/{suffix}");
        metrics.add(&key("pages"), stats.pages as u64);
        metrics.add(&key("items"), stats.items as u64);
        metrics.add(&key("backoff_virtual_ms"), stats.backoff_virtual_ms);
        let by_kind = [
            ("retries/rate_limited", stats.retries_by_kind.rate_limited),
            ("retries/timeout", stats.retries_by_kind.timeout),
            ("retries/server_error", stats.retries_by_kind.server_error),
            ("retries/malformed", stats.retries_by_kind.malformed),
        ];
        for (suffix, count) in by_kind {
            if count > 0 {
                metrics.add(&key(suffix), count as u64);
            }
        }
        metrics.add(&key("gaps"), gaps.len() as u64);
        let lost: usize = gaps.iter().map(|g| g.lost_estimate).sum();
        metrics.add(&key("lost_items_estimate"), lost as u64);
        for gap in gaps {
            metrics.incr(&key(&format!("gaps_by_kind/{}", gap.kind.metric_key())));
        }
    }
    result.map(|crawled| (crawled, elapsed))
}

/// An endpoint as one collection run crawls it: bare, or wrapped in a
/// [`ChaosSource`] when a fault profile or kill switch is set. Clean crawls
/// stay bare because the wrapper keeps per-offset burst state behind a
/// lock.
enum Endpoint<S> {
    Clean(S),
    Chaotic(ChaosSource<S>),
}

impl<S: PagedSource> Endpoint<S> {
    fn new(source: S, profile: Option<FaultProfile>, kill: Option<Arc<KillSwitch>>) -> Self {
        match profile {
            Some(profile) => {
                Endpoint::Chaotic(ChaosSource::with_kill_switch(source, profile, kill))
            }
            None => Endpoint::Clean(source),
        }
    }

    fn source(&self) -> &dyn PagedSource<Item = S::Item> {
        match self {
            Endpoint::Clean(s) => s,
            Endpoint::Chaotic(s) => s,
        }
    }
}

impl<S: PagedSource> PagedSource for Endpoint<S> {
    type Item = S::Item;

    fn source_name(&self) -> &'static str {
        self.source().source_name()
    }

    fn total_hint(&self) -> Option<usize> {
        self.source().total_hint()
    }

    fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<S::Item>, PageError> {
        self.source().fetch(offset, limit)
    }
}

/// A clean, sequential collection from `world`'s endpoints, its subgraph
/// indexed under `subgraph` — the dataset most unit tests start from.
#[cfg(test)]
pub(crate) fn collect_clean(
    world: &workload::World,
    subgraph: ens_subgraph::SubgraphConfig,
) -> Dataset {
    let sg = world.subgraph(subgraph);
    let scan = world.etherscan();
    let (ds, _) = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail");
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::FailurePolicy;
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    fn dataset() -> (workload::World, Dataset) {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let ds = collect_clean(&world, SubgraphConfig::lossless());
        (world, ds)
    }

    #[test]
    fn collect_produces_a_complete_dataset() {
        let (world, ds) = dataset();
        assert_eq!(ds.domains.len(), 200);
        assert!(ds.crawl_report.transactions > 500);
        // Lossless subgraph: only the hash-only legacy residue is missing.
        assert!(ds.crawl_report.recovery_rate() > 0.95);
        assert_eq!(ds.observation_end, world.observation_end());
        // The marketplace came through the paged crawl intact.
        assert_eq!(ds.market.event_count(), world.opensea().event_count());
        assert_eq!(ds.crawl_report.market.items, ds.market.event_count());
        // A clean crawl is not degraded and recovered everything.
        assert!(!ds.crawl_report.degraded);
        assert!(ds.crawl_report.gaps.is_empty());
        assert_eq!(ds.crawl_report.item_recovery_rate(), 1.0);
    }

    #[test]
    fn collection_matches_direct_endpoint_queries() {
        // The paged crawl must reproduce exactly what naive, unpaged
        // queries against each endpoint return.
        let (world, ds) = dataset();
        let scan = world.etherscan();
        for (addr, txs) in &ds.transactions {
            assert_eq!(txs, &scan.txlist(*addr, 1, 10_000), "txs for {addr:?}");
        }
        let sg = world.subgraph(SubgraphConfig::lossless());
        let direct = sg.domains(ens_subgraph::PageRequest::first(1000));
        assert_eq!(ds.domains, direct.items);
    }

    #[test]
    fn threaded_collection_is_byte_identical() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let collect = |threads| {
            Dataset::try_collect_with(
                &sg,
                &scan,
                world.opensea(),
                world.observation_end(),
                &CrawlConfig::with_threads(threads),
            )
            .unwrap()
            .0
        };
        let a = collect(1).to_json().unwrap();
        let b = collect(4).to_json().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chaotic_degraded_collection_reports_gaps() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let config = CrawlConfig {
            chaos: Some(FaultProfile::new(77).with_hole(16, 48)),
            failure: FailurePolicy::degrade(),
            subgraph_page_size: 16,
            ..CrawlConfig::default()
        };
        let (ds, _) = Dataset::try_collect_with(
            &sg,
            &scan,
            world.opensea(),
            world.observation_end(),
            &config,
        )
        .unwrap();
        assert!(ds.crawl_report.degraded);
        assert!(!ds.crawl_report.gaps.is_empty());
        assert!(ds.crawl_report.lost_items_estimate > 0);
        assert!(ds.crawl_report.item_recovery_rate() < 1.0);
        assert!(ds.domains.len() < 200, "the hole cost some domains");
    }

    #[test]
    fn min_recovery_gates_lossy_collections() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let config = CrawlConfig {
            chaos: Some(FaultProfile::new(77).with_hole(0, 128)),
            failure: FailurePolicy::degrade(),
            min_recovery: 0.9999,
            subgraph_page_size: 16,
            ..CrawlConfig::default()
        };
        let err = Dataset::try_collect_with(
            &sg,
            &scan,
            world.opensea(),
            world.observation_end(),
            &config,
        )
        .unwrap_err();
        match err {
            CollectError::RecoveryBelowMinimum {
                achieved, required, ..
            } => {
                assert!(achieved < required);
            }
            other => panic!("expected RecoveryBelowMinimum, got {other:?}"),
        }
    }

    #[test]
    fn chaotic_fail_fast_surfaces_the_crawl_error() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let scan = world.etherscan();
        let config = CrawlConfig {
            chaos: Some(FaultProfile::new(77).with_hole(16, 48)),
            subgraph_page_size: 16,
            ..CrawlConfig::default()
        };
        let err = Dataset::try_collect_with(
            &sg,
            &scan,
            world.opensea(),
            world.observation_end(),
            &config,
        )
        .unwrap_err();
        match err {
            CollectError::Crawl(e) => {
                assert_eq!(e.source, "subgraph");
                assert!(e.stats.pages > 0, "partial stats attached");
            }
            other => panic!("expected Crawl, got {other:?}"),
        }
    }

    #[test]
    fn income_is_positive_for_organic_owners_and_counts_no_mints() {
        let (world, ds) = dataset();
        let rich = world
            .truth()
            .iter()
            .find(|t| t.first_income_usd > 1_000.0)
            .expect("some name earns over $1k");
        let owner = rich.periods[0].owner;
        let income = ds.income_usd(owner, None, world.oracle());
        assert!(!income.is_zero());
        // Mints (from the zero address) are excluded from income.
        for tx in ds.incoming(owner, None) {
            assert_ne!(tx.from, Address::ZERO);
        }
    }

    #[test]
    fn unique_senders_window_bounds_apply() {
        let (world, ds) = dataset();
        let t = world
            .truth()
            .iter()
            .find(|t| t.first_income_usd > 0.0)
            .unwrap();
        let owner = t.periods[0].owner;
        let all = ds.unique_senders(owner, None);
        let none = ds.unique_senders(owner, Some((Timestamp(0), Timestamp(1))));
        assert!(all >= 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn json_round_trip() {
        let (_, ds) = dataset();
        let json = ds.to_json().unwrap();
        let back = Dataset::from_json(&json).unwrap();
        assert_eq!(back.domains.len(), ds.domains.len());
        assert_eq!(back.crawl_report, ds.crawl_report);
        assert_eq!(back.market.event_count(), ds.market.event_count());
        assert_eq!(back.labels.len(), ds.labels.len());
    }
}

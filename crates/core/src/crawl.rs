//! Data collection (the paper's §3 / Fig 1): one generic, sharded crawl
//! engine drives every paged data source — the ENS subgraph for domain
//! histories, the explorer's per-address `txlist`, and the marketplace
//! event stream — through the [`PagedSource`] trait.
//!
//! Pagination, typed-fault retry and partial-failure recovery live in
//! exactly one place: `drain`, the workspace's single pagination loop. On
//! top of it, [`Crawler`] runs one shard engine on [`shard_map`](crate::shard_map)
//! workers — a source with a known total is split into fixed page ranges,
//! a set of keyed sources (addresses) into one shard per key — claiming
//! shards in canonical order and merging their results in that order, so
//! every output (items, page/retry counts, recorded [`CrawlGap`]s, the
//! assembled [`Dataset`](crate::dataset::Dataset)) is byte-identical for
//! any thread count.
//!
//! ## Failure model
//!
//! Every [`PageError`] carries a [`FaultKind`]. The [`RetryPolicy`] retries
//! the transient kinds with exponential backoff plus seeded jitter computed
//! against a *virtual clock* (accounted in
//! [`SourceStats::backoff_virtual_ms`], never slept away — so chaos runs
//! are both fast and byte-reproducible, and honoring a server's
//! `retry_after` is an accounting fact rather than a wall-clock one).
//! Permanent faults and exhausted budgets are resolved by the
//! [`FailurePolicy`]: `FailFast` returns a [`CrawlError`] that carries the
//! partial [`SourceStats`] accumulated up to the failure, `Degrade` records
//! a [`CrawlGap`] for the unfetchable range and keeps crawling, subject to
//! a per-source loss budget — mirroring how the paper ships its study with
//! 34K unrecoverable names rather than aborting at 99.9% recovery.
//!
//! The crawlers consume *only* the public query APIs of the data-source
//! crates — never simulator internals — so the pipeline has exactly the
//! same visibility as the paper's.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ens_subgraph::DomainRecord;
use ens_types::paged::{FaultKind, PageError, PagedSource};
use ens_types::Address;
use serde::{Deserialize, Serialize};

use crate::shard::shard_map;

/// Retries broken down by the [`FaultKind`] that caused them. Part of
/// [`SourceStats`], so per-kind pressure (how often was this endpoint
/// throttling vs timing out?) survives into the serialized dataset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryCounts {
    /// Retries after a rate limit.
    pub rate_limited: usize,
    /// Retries after a timeout.
    pub timeout: usize,
    /// Retries after a transient server error.
    pub server_error: usize,
    /// Retries after a malformed response.
    pub malformed: usize,
}

impl RetryCounts {
    fn count(&mut self, kind: &FaultKind) {
        match kind {
            FaultKind::RateLimited { .. } => self.rate_limited += 1,
            FaultKind::Timeout => self.timeout += 1,
            FaultKind::ServerError => self.server_error += 1,
            FaultKind::Malformed => self.malformed += 1,
            // Permanent holes and process death are never retried, so they
            // never count here.
            FaultKind::PermanentHole | FaultKind::Killed { .. } => {}
        }
    }

    fn absorb(&mut self, other: RetryCounts) {
        self.rate_limited += other.rate_limited;
        self.timeout += other.timeout;
        self.server_error += other.server_error;
        self.malformed += other.malformed;
    }

    /// Total retries across all kinds.
    pub fn total(&self) -> usize {
        self.rate_limited + self.timeout + self.server_error + self.malformed
    }
}

/// Per-source crawl accounting: how many pages were fetched, how many items
/// they carried, how many transient failures were retried away (by fault
/// kind), and how much virtual-clock backoff the retry policy scheduled.
/// All of it is deterministic — independent of thread count and
/// interleaving — so it is safe to serialize inside the dataset.
/// (Wall-clock timings are deliberately kept out of this struct; see
/// [`CrawlTimings`].)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceStats {
    /// Pages fetched (including the single probe page of an empty source).
    pub pages: usize,
    /// Items returned across all pages.
    pub items: usize,
    /// Transient page failures that were retried.
    pub retries: usize,
    /// Retries broken down by fault kind.
    pub retries_by_kind: RetryCounts,
    /// Backoff the retry policy scheduled, in *virtual* milliseconds — a
    /// deterministic accounting of waiting, never actually slept.
    pub backoff_virtual_ms: u64,
}

impl SourceStats {
    fn absorb(&mut self, other: SourceStats) {
        self.pages += other.pages;
        self.items += other.items;
        self.retries += other.retries;
        self.retries_by_kind.absorb(other.retries_by_kind);
        self.backoff_virtual_ms = self
            .backoff_virtual_ms
            .saturating_add(other.backoff_virtual_ms);
    }
}

/// A contiguous range of one source that the crawl could not recover: the
/// page kept failing past the retry budget (or hit a permanent hole), and
/// the `Degrade` failure policy chose to record the loss and continue —
/// the engine's equivalent of the paper's 34K unrecoverable names.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlGap {
    /// Which source lost data.
    pub source: String,
    /// For keyed crawls, which key's source (e.g. the address whose
    /// `txlist` has the hole).
    pub key: Option<String>,
    /// First unrecovered item offset.
    pub start: usize,
    /// One past the last unrecovered offset, when the source's total made
    /// the extent knowable; `None` for a cursor-only walk that had to stop.
    pub end: Option<usize>,
    /// Estimated items lost in this gap (the requested page size when the
    /// true extent is unknowable).
    pub lost_estimate: usize,
    /// Attempts made on the failing page (1 initial + retries).
    pub attempts: usize,
    /// The fault that exhausted the page.
    pub kind: FaultKind,
}

impl fmt::Display for CrawlGap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)?;
        if let Some(key) = &self.key {
            write!(f, "[{key}]")?;
        }
        match self.end {
            Some(end) => write!(f, " offsets {}..{}", self.start, end)?,
            None => write!(f, " offsets {}.. (extent unknown)", self.start)?,
        }
        write!(
            f,
            ": ~{} items lost to {} after {} attempts",
            self.lost_estimate,
            self.kind.label(),
            self.attempts
        )
    }
}

/// What the crawl recovered, mirroring the paper's §3 reporting
/// ("data recovery rate of 99.9%", "9,725,874 transactions"), with
/// per-source page/retry accounting and — when the crawl ran under a
/// `Degrade` failure policy — the exact gaps it could not recover.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CrawlReport {
    /// Domains returned by the subgraph.
    pub domains: usize,
    /// Domains whose readable name could not be recovered.
    pub unrecoverable_names: usize,
    /// Subdomains reported by the subgraph.
    pub subdomains: usize,
    /// Wallet addresses whose transaction lists were crawled.
    pub addresses_crawled: usize,
    /// Total transactions collected.
    pub transactions: usize,
    /// Subgraph paging statistics.
    pub subgraph: SourceStats,
    /// Explorer `txlist` paging statistics (summed over all addresses).
    pub txlist: SourceStats,
    /// Marketplace event-stream paging statistics.
    pub market: SourceStats,
    /// Ranges the crawl gave up on (empty unless a `Degrade` policy rode
    /// over failures).
    pub gaps: Vec<CrawlGap>,
    /// Estimated items lost across all gaps.
    pub lost_items_estimate: usize,
    /// True if the crawl completed with at least one gap.
    pub degraded: bool,
}

impl CrawlReport {
    /// Name recovery rate (paper: 99.9%).
    pub fn recovery_rate(&self) -> f64 {
        if self.domains == 0 {
            return 1.0;
        }
        1.0 - self.unrecoverable_names as f64 / self.domains as f64
    }

    /// Item recovery rate across every source: recovered items over
    /// recovered plus estimated-lost. `1.0` for a clean crawl; this is what
    /// the collection gate (`CrawlConfig::min_recovery`) checks.
    pub fn item_recovery_rate(&self) -> f64 {
        let recovered = self.subgraph.items + self.txlist.items + self.market.items;
        let expected = recovered + self.lost_items_estimate;
        if expected == 0 {
            return 1.0;
        }
        recovered as f64 / expected as f64
    }

    /// Retries summed across all sources, by fault kind.
    pub fn retries_by_kind(&self) -> RetryCounts {
        let mut total = self.subgraph.retries_by_kind;
        total.absorb(self.txlist.retries_by_kind);
        total.absorb(self.market.retries_by_kind);
        total
    }

    /// Virtual-clock backoff summed across all sources.
    pub fn backoff_virtual_ms(&self) -> u64 {
        self.subgraph
            .backoff_virtual_ms
            .saturating_add(self.txlist.backoff_virtual_ms)
            .saturating_add(self.market.backoff_virtual_ms)
    }

    /// Total pages fetched across all sources.
    pub fn total_pages(&self) -> usize {
        self.subgraph.pages + self.txlist.pages + self.market.pages
    }
}

/// Wall-clock time spent per source. Kept separate from [`CrawlReport`]
/// because timings vary run to run and thread count to thread count — they
/// must never leak into the (byte-reproducible) dataset export.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrawlTimings {
    /// Time draining the subgraph.
    pub subgraph: Duration,
    /// Time draining every address's `txlist`.
    pub txlist: Duration,
    /// Time draining the marketplace event stream.
    pub market: Duration,
}

impl CrawlTimings {
    /// Total collection wall-clock.
    pub fn total(&self) -> Duration {
        self.subgraph + self.txlist + self.market
    }
}

/// A page request that kept failing after every retry (or exceeded the
/// degrade policy's loss budget). Carries the deterministic partial
/// accounting — stats and gaps accumulated up to the failure, merged in
/// canonical shard order — so a failed crawl never undercounts the work it
/// did.
#[derive(Clone, Debug, PartialEq)]
pub struct CrawlError {
    /// Which source failed.
    pub source: &'static str,
    /// For keyed crawls, which key's source failed.
    pub key: Option<String>,
    /// The item offset of the failed request.
    pub offset: usize,
    /// Attempts made (1 initial + retries).
    pub attempts: usize,
    /// The fault that exhausted the page (or tripped the loss budget).
    pub kind: FaultKind,
    /// The last failure's message.
    pub message: String,
    /// Deterministic accounting accumulated before the failure.
    pub stats: SourceStats,
    /// Gaps recorded before the failure (non-empty only when a `Degrade`
    /// policy failed late, e.g. on an exhausted loss budget).
    pub gaps: Vec<CrawlGap>,
}

impl fmt::Display for CrawlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.source)?;
        if let Some(key) = &self.key {
            write!(f, "[{key}]")?;
        }
        write!(
            f,
            " crawl gave up at offset {} after {} attempts ({}): {}",
            self.offset,
            self.attempts,
            self.kind.label(),
            self.message
        )
    }
}

impl std::error::Error for CrawlError {}

/// How the crawler schedules retries: up to `max_retries` per page, with
/// exponential backoff (base doubling per attempt, capped) plus jitter
/// hashed from `(seed, source, offset, attempt)` — and a floor of any
/// server-requested `retry_after`. All of it runs against a *virtual
/// clock*: the schedule is accounted in [`SourceStats::backoff_virtual_ms`]
/// but never slept, so backoff is byte-reproducible across thread counts
/// and visible in reports instead of vanishing into wall time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries per page before the page is declared exhausted.
    pub max_retries: usize,
    /// Backoff before the first retry, in virtual milliseconds.
    pub base_backoff_ms: u64,
    /// Cap on the exponential component.
    pub max_backoff_ms: u64,
    /// Upper bound on the per-attempt jitter (inclusive).
    pub jitter_ms: u64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 100,
            max_backoff_ms: 10_000,
            jitter_ms: 100,
            seed: 0x5EED_BACC,
        }
    }
}

impl RetryPolicy {
    /// The default policy with a different retry budget.
    pub fn with_max_retries(max_retries: usize) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::default()
        }
    }

    /// The virtual-clock wait scheduled before retry number `attempt`
    /// (1-based) of the page at `offset`, honoring the fault's
    /// `retry_after` as a floor.
    pub fn backoff_virtual_ms(
        &self,
        source: &str,
        offset: usize,
        attempt: usize,
        kind: &FaultKind,
    ) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << (attempt - 1).min(20))
            .min(self.max_backoff_ms);
        let jitter = if self.jitter_ms == 0 {
            0
        } else {
            // FNV-1a over (seed, source, offset, attempt): stable across
            // platforms, independent of thread interleaving.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
            for &b in source.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= offset as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            h ^= attempt as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            h % (self.jitter_ms + 1)
        };
        exp.saturating_add(jitter)
            .max(kind.retry_after_ms().unwrap_or(0))
    }
}

/// What the crawler does when a page stays unfetchable after every retry
/// (or hits a permanent fault).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Abort the crawl with a [`CrawlError`] carrying partial stats — the
    /// pre-existing behavior, and the default.
    #[default]
    FailFast,
    /// Record a [`CrawlGap`] for the unfetchable range and keep crawling,
    /// up to an estimated-items loss budget per source; exceeding the
    /// budget escalates to a [`CrawlError`].
    Degrade {
        /// Maximum estimated items a single source may lose before the
        /// degraded crawl escalates to an error.
        max_lost_items: usize,
    },
}

impl FailurePolicy {
    /// A degrade policy with an unbounded loss budget.
    pub fn degrade() -> FailurePolicy {
        FailurePolicy::Degrade {
            max_lost_items: usize::MAX,
        }
    }
}

/// The result of draining one source, or one shard of it: items in the
/// endpoint's stable order, deterministic accounting, and recorded gaps
/// (under a `Degrade` policy).
///
/// A shard's result is the unit of checkpoint durability: everything a
/// resumed crawl needs to splice the shard's contribution back in without
/// refetching it. Because each shard's drain is a pure function of
/// `(source, profile, shard range)` — chaos burst state is tracked per
/// offset and shard offset ranges are disjoint — a spliced shard is
/// byte-identical to a refetched one, which is what makes resumed crawls
/// indistinguishable from uninterrupted ones.
#[derive(Clone, Debug, PartialEq)]
pub struct Crawled<T> {
    /// All recovered items, in the source's stable order.
    pub items: Vec<T>,
    /// Page/item/retry/backoff accounting.
    pub stats: SourceStats,
    /// Ranges the crawl gave up on (empty for a clean crawl).
    pub gaps: Vec<CrawlGap>,
}

/// The result of draining a family of keyed sources (one `txlist` per
/// address): a key-ordered map plus summed accounting and gaps.
#[derive(Clone, Debug)]
pub struct KeyedCrawl<K, T> {
    /// Per-key items, in each source's stable order.
    pub map: BTreeMap<K, Vec<T>>,
    /// Accounting summed over every key's crawl.
    pub stats: SourceStats,
    /// Gaps across all keys (empty for a clean crawl).
    pub gaps: Vec<CrawlGap>,
}

/// What the shard engine merged: every shard's items in canonical shard
/// order, with the accounting and gaps summed in that same order.
struct Merged<T> {
    shards: Vec<Vec<T>>,
    stats: SourceStats,
    gaps: Vec<CrawlGap>,
}

/// The generic crawl engine. One instance drives any [`PagedSource`]:
///
/// - [`Crawler::crawl`] drains a single source. If the source reports a
///   total, the page space is split into fixed `page_size` shards; without
///   a total the whole cursor walk is one shard.
/// - [`Crawler::crawl_keyed`] drains one source per key (the per-address
///   `txlist`s), one shard per key, merged into a [`BTreeMap`].
///
/// Both run on one shard engine: `threads` workers (the calling thread
/// among them) claim shards in canonical order and the results merge in
/// that order, so items, accounting, gaps — and the partial accounting of
/// a failed crawl — are identical for any thread count.
#[derive(Clone, Copy, Debug)]
pub struct Crawler {
    /// Items requested per page (endpoints may cap lower server-side).
    pub page_size: usize,
    /// Worker threads; `1` crawls inline on the calling thread.
    pub threads: usize,
    /// Retry schedule per page.
    pub retry: RetryPolicy,
    /// What to do when a page stays unfetchable.
    pub failure: FailurePolicy,
}

impl Default for Crawler {
    fn default() -> Self {
        Crawler {
            page_size: 1000,
            threads: 1,
            retry: RetryPolicy::default(),
            failure: FailurePolicy::FailFast,
        }
    }
}

/// The workspace's single pagination loop: drains `source` from item
/// `start` up to `end` (when the total is known) or until the cursor runs
/// dry. Transient faults are retried per the [`RetryPolicy`] (every extra
/// attempt counted, every virtual millisecond of backoff accounted);
/// exhausted pages and permanent faults are resolved per the
/// [`FailurePolicy`] — fail fast with partial stats, or record a
/// [`CrawlGap`] and continue. A batch larger than the requested limit is a
/// [`FaultKind::Malformed`] fault, never accepted: accepting it would
/// over-advance the cursor and duplicate items across shard boundaries.
fn drain<S: PagedSource>(
    source: &S,
    key: Option<&str>,
    start: usize,
    end: Option<usize>,
    page_size: usize,
    retry: &RetryPolicy,
    failure: &FailurePolicy,
) -> Result<Crawled<S::Item>, CrawlError> {
    let name = source.source_name();
    let mut out = Vec::new();
    let mut stats = SourceStats::default();
    let mut gaps: Vec<CrawlGap> = Vec::new();
    let mut offset = start;
    loop {
        let limit = match end {
            // An empty range still costs one probe request — a crawler
            // cannot know a source is empty without asking it.
            Some(e) if e > offset => (e - offset).min(page_size),
            _ => page_size,
        };
        let mut attempt = 0usize;
        let outcome = loop {
            attempt += 1;
            let fetched = match source.fetch(offset, limit) {
                Ok(batch) if batch.items.len() > limit => Err(PageError::malformed(
                    name,
                    offset,
                    format!(
                        "endpoint returned {} items for a limit of {limit}",
                        batch.items.len()
                    ),
                )),
                other => other,
            };
            match fetched {
                Ok(batch) => break Ok(batch),
                Err(err) => {
                    if !err.kind.is_retryable() || attempt > retry.max_retries {
                        break Err(err);
                    }
                    stats.retries += 1;
                    stats.retries_by_kind.count(&err.kind);
                    stats.backoff_virtual_ms = stats
                        .backoff_virtual_ms
                        .saturating_add(retry.backoff_virtual_ms(name, offset, attempt, &err.kind));
                }
            }
        };
        match outcome {
            Ok(batch) => {
                stats.pages += 1;
                stats.items += batch.items.len();
                let got = batch.items.len();
                out.extend(batch.items);
                offset += got;
                let done = match end {
                    Some(e) => offset >= e || got == 0,
                    None => got == 0 || !batch.has_more,
                };
                if done {
                    return Ok(Crawled {
                        items: out,
                        stats,
                        gaps,
                    });
                }
            }
            Err(err) => {
                // A simulated process death aborts unconditionally: a dead
                // process cannot record a gap and keep crawling, whatever
                // the failure policy says. The checkpoint/resume layer —
                // not the degrade machinery — is what recovers from it.
                if matches!(err.kind, FaultKind::Killed { .. }) {
                    return Err(CrawlError {
                        source: name,
                        key: key.map(str::to_string),
                        offset,
                        attempts: attempt,
                        kind: err.kind,
                        message: err.message,
                        stats,
                        gaps,
                    });
                }
                match failure {
                    FailurePolicy::FailFast => {
                        return Err(CrawlError {
                            source: name,
                            key: key.map(str::to_string),
                            offset,
                            attempts: attempt,
                            kind: err.kind,
                            message: err.message,
                            stats,
                            gaps,
                        });
                    }
                    FailurePolicy::Degrade { .. } => {
                        let gap_end = end.map(|e| (offset + limit).min(e));
                        gaps.push(CrawlGap {
                            source: name.to_string(),
                            key: key.map(str::to_string),
                            start: offset,
                            end: gap_end,
                            lost_estimate: gap_end.map_or(limit, |e| e - offset),
                            attempts: attempt,
                            kind: err.kind,
                        });
                        match end {
                            // Skip the unfetchable page and keep going — the
                            // rest of the range is still addressable.
                            Some(e) => {
                                offset += limit;
                                if offset >= e {
                                    return Ok(Crawled {
                                        items: out,
                                        stats,
                                        gaps,
                                    });
                                }
                            }
                            // A cursor-only walk cannot know what lies past a
                            // dead page; stop with an open-ended gap.
                            None => {
                                return Ok(Crawled {
                                    items: out,
                                    stats,
                                    gaps,
                                })
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Enforces a `Degrade` policy's per-source loss budget after shard merge
/// (individual shards cannot see each other's losses).
fn enforce_loss_budget<T>(
    failure: &FailurePolicy,
    source: &'static str,
    merged: Merged<T>,
) -> Result<Merged<T>, CrawlError> {
    if let FailurePolicy::Degrade { max_lost_items } = failure {
        let lost: usize = merged.gaps.iter().map(|g| g.lost_estimate).sum();
        if lost > *max_lost_items {
            let first = merged
                .gaps
                .first()
                .expect("a positive loss implies at least one gap");
            return Err(CrawlError {
                source,
                key: first.key.clone(),
                offset: first.start,
                attempts: first.attempts,
                kind: first.kind,
                message: format!(
                    "loss budget exceeded: ~{lost} items lost across {} gaps (budget {max_lost_items})",
                    merged.gaps.len()
                ),
                stats: merged.stats,
                gaps: merged.gaps,
            });
        }
    }
    Ok(merged)
}

impl Crawler {
    /// A crawler with the given page size (threads and policies default).
    pub fn with_page_size(page_size: usize) -> Crawler {
        Crawler {
            page_size,
            ..Crawler::default()
        }
    }

    /// Fetches every item of `source`.
    pub fn crawl<S>(&self, source: &S) -> Result<Crawled<S::Item>, CrawlError>
    where
        S: PagedSource + Sync,
        S::Item: Send + Sync,
    {
        self.crawl_resumable(source, BTreeMap::new(), |_, _| {})
    }

    /// [`Crawler::crawl`] with checkpoint/resume hooks: shards present in
    /// `committed` are *spliced* from their stored results instead of
    /// refetched, and every newly completed shard is handed to `commit`
    /// (from whichever worker finished it) so a checkpoint journal can
    /// persist it.
    ///
    /// Because shard boundaries depend only on the total and the page size,
    /// and each shard's drain is independent of every other shard's, the
    /// merged output is byte-identical to an uninterrupted [`Crawler::crawl`]
    /// no matter which subset of shards came from the checkpoint, at any
    /// thread count. `commit` is never called for spliced shards or failed
    /// shards.
    pub fn crawl_resumable<S, F>(
        &self,
        source: &S,
        mut committed: BTreeMap<u64, Crawled<S::Item>>,
        commit: F,
    ) -> Result<Crawled<S::Item>, CrawlError>
    where
        S: PagedSource + Sync,
        S::Item: Send + Sync,
        F: Fn(u64, &Crawled<S::Item>) + Sync,
    {
        let page_size = self.page_size.max(1);
        // Fixed page-range shards: boundaries depend only on the total and
        // the page size — never on the thread count — so every page is
        // fetched exactly once. A cursor-only walk has no intermediate
        // watermark the crawler can trust (the extent past the cursor is
        // unknowable), so the whole walk is one shard: committed only when
        // it completes.
        let total = source.total_hint();
        let shards = total.map_or(1, |t| t.div_ceil(page_size).max(1));
        let spliced = (0..shards)
            .map(|shard| committed.remove(&(shard as u64)))
            .collect();
        let merged = self.run_shards(
            source.source_name(),
            spliced,
            |shard| {
                let (start, end) = match total {
                    Some(t) => (shard * page_size, Some(((shard + 1) * page_size).min(t))),
                    None => (0, None),
                };
                drain(
                    source,
                    None,
                    start,
                    end,
                    page_size,
                    &self.retry,
                    &self.failure,
                )
            },
            |shard, c| commit(shard as u64, c),
        )?;
        let mut items = Vec::with_capacity(merged.shards.iter().map(Vec::len).sum());
        for shard in merged.shards {
            items.extend(shard);
        }
        Ok(Crawled {
            items,
            stats: merged.stats,
            gaps: merged.gaps,
        })
    }

    /// Fetches every item of every keyed source, one shard per key. The
    /// merged map, the summed stats and the recorded gaps are independent
    /// of the thread count.
    pub fn crawl_keyed<K, S>(
        &self,
        sources: &[(K, S)],
    ) -> Result<KeyedCrawl<K, S::Item>, CrawlError>
    where
        K: Ord + Clone + Sync + fmt::Display,
        S: PagedSource + Sync,
        S::Item: Send + Sync,
    {
        self.crawl_keyed_resumable(sources, BTreeMap::new(), |_, _| {})
    }

    /// [`Crawler::crawl_keyed`] with checkpoint/resume hooks, at per-key
    /// granularity: keys present in `committed` are spliced from their
    /// stored results, every newly completed key is handed to `commit`.
    /// Per-key drains are independent and the merge is in key-source order,
    /// so — exactly as for [`Crawler::crawl_resumable`] — the output is
    /// byte-identical to an uninterrupted crawl for any committed subset
    /// and any thread count.
    pub fn crawl_keyed_resumable<K, S, F>(
        &self,
        sources: &[(K, S)],
        mut committed: BTreeMap<K, Crawled<S::Item>>,
        commit: F,
    ) -> Result<KeyedCrawl<K, S::Item>, CrawlError>
    where
        K: Ord + Clone + Sync + fmt::Display,
        S: PagedSource + Sync,
        S::Item: Send + Sync,
        F: Fn(&K, &Crawled<S::Item>) + Sync,
    {
        let page_size = self.page_size.max(1);
        let spliced = sources
            .iter()
            .map(|(key, _)| committed.remove(key))
            .collect();
        let merged = self.run_shards(
            sources.first().map_or("keyed", |(_, s)| s.source_name()),
            spliced,
            |i| {
                let (key, source) = &sources[i];
                let label = key.to_string();
                let end = source.total_hint();
                drain(
                    source,
                    Some(&label),
                    0,
                    end,
                    page_size,
                    &self.retry,
                    &self.failure,
                )
            },
            |i, c| commit(&sources[i].0, c),
        )?;
        Ok(KeyedCrawl {
            map: sources
                .iter()
                .map(|(key, _)| key.clone())
                .zip(merged.shards)
                .collect(),
            stats: merged.stats,
            gaps: merged.gaps,
        })
    }

    /// The one shard engine under every crawl. Shard `i` is drained by
    /// `drain_shard(i)` unless `spliced[i]` holds its committed result.
    /// [`shard_map`] runs the drains on `threads` workers, which claim
    /// shards in canonical order; each newly drained shard goes to `commit`
    /// on the worker that drained it. A shard past the lowest failed one is
    /// not drained: the merge would discard it anyway.
    ///
    /// The merge walks the shards in canonical order and stops at the first
    /// failure, folding everything merged before it into the error, so a
    /// failed crawl reports the same partial accounting at any thread
    /// count. Claims are in order, so every shard before the first failure
    /// was drained. The loss budget is checked last, on the merged gaps.
    fn run_shards<T, D, C>(
        &self,
        source: &'static str,
        spliced: Vec<Option<Crawled<T>>>,
        drain_shard: D,
        commit: C,
    ) -> Result<Merged<T>, CrawlError>
    where
        T: Send + Sync,
        D: Fn(usize) -> Result<Crawled<T>, CrawlError> + Sync,
        C: Fn(usize, &Crawled<T>) + Sync,
    {
        let shards = spliced.len();
        // The lowest failed shard so far. It publishes no data — results
        // reach the merge through `shard_map` — so `Relaxed` suffices.
        let failed = AtomicUsize::new(usize::MAX);
        let indices: Vec<usize> = (0..shards).collect();
        let drained = shard_map(&indices, self.threads, |&shard| {
            if spliced[shard].is_some() || shard > failed.load(Ordering::Relaxed) {
                return None;
            }
            let result = drain_shard(shard);
            match &result {
                Ok(c) => commit(shard, c),
                Err(_) => {
                    failed.fetch_min(shard, Ordering::Relaxed);
                }
            }
            Some(result)
        });

        let mut merged = Merged {
            shards: Vec::with_capacity(shards),
            stats: SourceStats::default(),
            gaps: Vec::new(),
        };
        for (spliced, drained) in spliced.into_iter().zip(drained) {
            let outcome = match spliced {
                Some(c) => Ok(c),
                None => drained.expect("every shard before the first failure was drained"),
            };
            match outcome {
                Ok(c) => {
                    merged.stats.absorb(c.stats);
                    merged.gaps.extend(c.gaps);
                    merged.shards.push(c.items);
                }
                // A failed crawl still reports every page and retry it
                // spent before the failure.
                Err(mut e) => {
                    merged.stats.absorb(e.stats);
                    e.stats = merged.stats;
                    merged.gaps.append(&mut e.gaps);
                    e.gaps = merged.gaps;
                    return Err(e);
                }
            }
        }
        enforce_loss_budget(&self.failure, source, merged)
    }
}

/// The wallet addresses the study needs transaction histories for: every
/// registrant and every resolver target of every domain. (The paper crawls
/// the owners of re-registered and control domains; crawling all owners is
/// a superset that leaves the analysis unchanged.)
pub fn relevant_addresses(domains: &[DomainRecord]) -> BTreeSet<Address> {
    let mut set = BTreeSet::new();
    for d in domains {
        for r in &d.registrations {
            set.insert(r.owner);
        }
        for t in &d.transfers {
            set.insert(t.to);
        }
        for a in &d.addr_changes {
            set.insert(a.addr);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_subgraph::SubgraphConfig;
    use ens_types::paged::{ChaosSource, FaultProfile, PageError, PagedBatch, PPM};
    use std::sync::atomic::AtomicBool;
    use workload::WorldConfig;

    #[test]
    fn subgraph_crawl_is_complete_across_pages() {
        let world = WorldConfig::small().with_names(250).with_seed(21).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let crawler = Crawler::with_page_size(64);
        let crawled = crawler.crawl(&sg).unwrap();
        assert_eq!(crawled.items.len(), 250);
        assert_eq!(crawled.stats.pages, 250usize.div_ceil(64));
        assert_eq!(crawled.stats.items, 250);
        assert!(crawled.gaps.is_empty());
        // No duplicates.
        let set: BTreeSet<_> = crawled.items.iter().map(|d| d.label_hash).collect();
        assert_eq!(set.len(), 250);
    }

    #[test]
    fn sharded_crawl_matches_sequential_exactly() {
        let world = WorldConfig::small().with_names(250).with_seed(21).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let sequential = Crawler::with_page_size(64).crawl(&sg).unwrap();
        for threads in [2, 4, 16] {
            let sharded = Crawler {
                page_size: 64,
                threads,
                ..Crawler::default()
            }
            .crawl(&sg)
            .unwrap();
            let a: Vec<_> = sequential.items.iter().map(|d| d.label_hash).collect();
            let b: Vec<_> = sharded.items.iter().map(|d| d.label_hash).collect();
            assert_eq!(a, b, "order differs at {threads} threads");
            assert_eq!(
                sequential.stats, sharded.stats,
                "stats differ at {threads} threads"
            );
        }
    }

    #[test]
    fn tx_crawl_matches_direct_counts() {
        let world = WorldConfig::small().with_names(120).with_seed(22).build();
        let scan = world.etherscan();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let domains = Crawler::default().crawl(&sg).unwrap().items;
        let addresses = relevant_addresses(&domains);
        assert!(!addresses.is_empty());
        let sources: Vec<_> = addresses
            .iter()
            .map(|&a| (a, scan.txlist_source(a)))
            .collect();
        let crawler = Crawler::with_page_size(50);
        let crawled = crawler.crawl_keyed(&sources).unwrap();
        assert!(
            crawled.stats.pages >= addresses.len(),
            "at least one page per address"
        );
        for (addr, txs) in &crawled.map {
            assert_eq!(txs.len(), scan.tx_count(*addr), "address {addr}");
        }
    }

    #[test]
    fn exact_multiple_tx_counts_need_no_extra_probe_page() {
        use ens_types::{Timestamp, Wei};
        use sim_chain::{Chain, TxKind};
        let a = Address::derive(b"payer");
        let b = Address::derive(b"payee");
        let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
        chain.mint(a, Wei::from_eth(100));
        // `b` ends with exactly 6 transactions: an exact multiple of the
        // page size below.
        for i in 0..6u64 {
            chain
                .transfer(a, b, Wei::from_eth(1 + i), TxKind::Transfer)
                .unwrap();
        }
        let scan = etherscan_sim::Etherscan::index(&chain, etherscan_sim::LabelService::new());
        assert_eq!(scan.tx_count(b), 6);
        let crawled = Crawler::with_page_size(3)
            .crawl(&scan.txlist_source(b))
            .unwrap();
        assert_eq!(crawled.items.len(), 6);
        assert_eq!(crawled.stats.pages, 2, "no guaranteed-empty extra page");
        // An address with no history still costs one probe page.
        let empty = Crawler::with_page_size(3)
            .crawl(&scan.txlist_source(Address::derive(b"nobody")))
            .unwrap();
        assert!(empty.items.is_empty());
        assert_eq!(empty.stats.pages, 1);
    }

    #[test]
    fn transient_failures_are_retried_and_counted() {
        let world = WorldConfig::small().with_names(60).with_seed(23).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let flaky = ChaosSource::new(&sg, FaultProfile::new(0).with_server_errors(PPM, 2));
        let crawler = Crawler {
            page_size: 16,
            threads: 2,
            ..Crawler::default()
        };
        let crawled = crawler.crawl(&flaky).unwrap();
        assert_eq!(crawled.items.len(), 60);
        assert_eq!(crawled.stats.retries, 2 * crawled.stats.pages);
        assert_eq!(
            crawled.stats.retries_by_kind.server_error,
            crawled.stats.retries
        );
        assert!(
            crawled.stats.backoff_virtual_ms > 0,
            "backoff was accounted"
        );

        // Exhausting the retry budget surfaces a CrawlError.
        let hopeless = ChaosSource::new(&sg, FaultProfile::new(0).with_server_errors(PPM, 5));
        let err = crawler.crawl(&hopeless).unwrap_err();
        assert_eq!(err.source, "subgraph");
        assert_eq!(err.attempts, 4, "1 initial + max_retries");
        assert_eq!(err.kind, FaultKind::ServerError);
        // The partial accounting survives into the error.
        assert_eq!(err.stats.retries, 3, "the failed page's retries are kept");
    }

    #[test]
    fn permanent_holes_are_not_retried() {
        let world = WorldConfig::small().with_names(60).with_seed(23).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let holed = ChaosSource::new(&sg, FaultProfile::new(0).with_hole(0, 16));
        let err = Crawler::with_page_size(16).crawl(&holed).unwrap_err();
        assert_eq!(err.kind, FaultKind::PermanentHole);
        assert_eq!(err.attempts, 1, "permanent faults are never retried");
        assert_eq!(err.stats.retries, 0);
    }

    #[test]
    fn degrade_records_gaps_and_recovers_the_rest() {
        let world = WorldConfig::small().with_names(100).with_seed(24).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let holed = ChaosSource::new(&sg, FaultProfile::new(0).with_hole(20, 40));
        let crawler = Crawler {
            page_size: 10,
            failure: FailurePolicy::degrade(),
            ..Crawler::default()
        };
        let crawled = crawler.crawl(&holed).unwrap();
        assert_eq!(crawled.gaps.len(), 2, "two pages fall inside the hole");
        let lost: usize = crawled.gaps.iter().map(|g| g.lost_estimate).sum();
        assert_eq!(lost, 20);
        assert_eq!(crawled.items.len(), 80);
        // The recovered items are exactly the clean crawl minus the hole.
        let clean = Crawler::with_page_size(10).crawl(&sg).unwrap();
        let expected: Vec<_> = clean
            .items
            .iter()
            .enumerate()
            .filter(|(i, _)| !(20..40).contains(i))
            .map(|(_, d)| d.label_hash)
            .collect();
        let got: Vec<_> = crawled.items.iter().map(|d| d.label_hash).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn loss_budget_escalates_to_an_error() {
        let world = WorldConfig::small().with_names(100).with_seed(24).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let holed = ChaosSource::new(&sg, FaultProfile::new(0).with_hole(20, 40));
        let crawler = Crawler {
            page_size: 10,
            failure: FailurePolicy::Degrade { max_lost_items: 10 },
            ..Crawler::default()
        };
        let err = crawler.crawl(&holed).unwrap_err();
        assert!(err.message.contains("loss budget exceeded"), "{err}");
        assert_eq!(err.gaps.len(), 2);
        assert!(err.stats.pages > 0, "partial stats attached");
    }

    #[test]
    fn oversized_batches_are_malformed_not_merged() {
        let world = WorldConfig::small().with_names(100).with_seed(25).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let chaotic = ChaosSource::new(&sg, FaultProfile::new(9).with_oversize(ens_types::PPM));
        // FailFast: the over-delivery is a typed error, not silent corruption.
        let err = Crawler::with_page_size(10).crawl(&chaotic).unwrap_err();
        assert_eq!(err.kind, FaultKind::Malformed);
        // Degrade: the page becomes a gap; no duplicates cross the merge.
        let chaotic = ChaosSource::new(&sg, FaultProfile::new(9).with_oversize(ens_types::PPM));
        let crawled = Crawler {
            page_size: 10,
            failure: FailurePolicy::degrade(),
            ..Crawler::default()
        }
        .crawl(&chaotic)
        .unwrap();
        let mut hashes: Vec<_> = crawled.items.iter().map(|d| d.label_hash).collect();
        let unique = {
            let mut u = hashes.clone();
            u.sort();
            u.dedup();
            u.len()
        };
        assert_eq!(unique, hashes.len(), "no duplicated items");
        hashes.sort();
        assert!(!crawled.gaps.is_empty());
        assert!(crawled.gaps.iter().all(|g| g.kind == FaultKind::Malformed));
    }

    /// A cursor-only source (no total hint) exercises the sequential
    /// `has_more` walk of the single pagination loop.
    struct CursorOnly(usize);

    impl PagedSource for CursorOnly {
        type Item = usize;
        fn source_name(&self) -> &'static str {
            "cursor"
        }
        fn total_hint(&self) -> Option<usize> {
            None
        }
        fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<usize>, PageError> {
            let end = (offset + limit).min(self.0);
            Ok(PagedBatch {
                items: (offset..end).collect(),
                has_more: end < self.0,
            })
        }
    }

    #[test]
    fn cursor_only_sources_drain_sequentially() {
        let crawled = Crawler::with_page_size(7).crawl(&CursorOnly(20)).unwrap();
        assert_eq!(crawled.items, (0..20).collect::<Vec<_>>());
        assert_eq!(crawled.stats.pages, 3);
        let empty = Crawler::with_page_size(7).crawl(&CursorOnly(0)).unwrap();
        assert!(empty.items.is_empty());
        assert_eq!(empty.stats.pages, 1, "one probe page");
    }

    #[test]
    fn cursor_only_degrade_stops_with_an_open_gap() {
        let holed = ChaosSource::new(CursorOnly(40), FaultProfile::new(0).with_hole(14, 21));
        let crawled = Crawler {
            page_size: 7,
            failure: FailurePolicy::degrade(),
            ..Crawler::default()
        }
        .crawl(&holed)
        .unwrap();
        assert_eq!(crawled.items, (0..14).collect::<Vec<_>>());
        assert_eq!(crawled.gaps.len(), 1);
        assert_eq!(
            crawled.gaps[0].end, None,
            "extent unknowable without a total"
        );
        assert_eq!(crawled.gaps[0].lost_estimate, 7);
    }

    #[test]
    fn recovery_rates_are_one_for_empty_crawls_never_nan() {
        // A zero-page / zero-item crawl is *clean*, not undefined: both
        // rates must pin to exactly 1.0 (and must never be NaN).
        let empty = CrawlReport::default();
        assert_eq!(empty.recovery_rate(), 1.0);
        assert_eq!(empty.item_recovery_rate(), 1.0);
        assert!(!empty.recovery_rate().is_nan());
        assert!(!empty.item_recovery_rate().is_nan());
        // Losing items from an otherwise-empty crawl still divides safely.
        let lossy = CrawlReport {
            lost_items_estimate: 5,
            ..CrawlReport::default()
        };
        assert_eq!(lossy.item_recovery_rate(), 0.0);
        assert!(!lossy.item_recovery_rate().is_nan());
    }

    #[test]
    fn killed_aborts_even_under_degrade() {
        use ens_types::paged::KillSwitch;
        let world = WorldConfig::small().with_names(100).with_seed(26).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let kill = KillSwitch::new(3);
        let chaos = ChaosSource::with_kill_switch(&sg, FaultProfile::new(0), Some(kill));
        let crawler = Crawler {
            page_size: 10,
            failure: FailurePolicy::degrade(),
            ..Crawler::default()
        };
        let err = crawler.crawl(&chaos).unwrap_err();
        assert_eq!(err.kind, FaultKind::Killed { after_n_pages: 3 });
        assert_eq!(err.attempts, 1, "death is not retried");
        assert_eq!(err.stats.pages, 3, "partial accounting survives");
        assert!(err.gaps.is_empty(), "death never degrades into a gap");
    }

    #[test]
    fn resumable_splice_matches_uninterrupted_at_any_thread_count() {
        use std::sync::Mutex;
        let world = WorldConfig::small().with_names(200).with_seed(27).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let chaos = || {
            ChaosSource::new(
                &sg,
                FaultProfile::new(5)
                    .with_server_errors(200_000, 2)
                    .with_hole(30, 40),
            )
        };
        let crawler = Crawler {
            page_size: 16,
            failure: FailurePolicy::degrade(),
            ..Crawler::default()
        };
        let baseline = crawler.crawl(&chaos()).unwrap();

        // First run commits every shard it completes before "dying".
        let committed = Mutex::new(BTreeMap::new());
        let killed = ChaosSource::with_kill_switch(
            &sg,
            chaos().profile().clone(),
            Some(ens_types::paged::KillSwitch::new(5)),
        );
        let err = crawler
            .crawl_resumable(&killed, BTreeMap::new(), |shard, c| {
                committed.lock().unwrap().insert(shard, c.clone());
            })
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::Killed { after_n_pages: 5 });
        let committed = committed.into_inner().unwrap();
        assert!(!committed.is_empty(), "some shards committed before death");

        // Resume from the committed shards: byte-identical to baseline, at
        // every thread count (16 workers outnumber the 13 shards).
        for threads in [1, 2, 3, 7, 8, 16] {
            let crawler = Crawler { threads, ..crawler };
            let resumed = crawler
                .crawl_resumable(&chaos(), committed.clone(), |_, _| {})
                .unwrap();
            let a: Vec<_> = baseline.items.iter().map(|d| d.label_hash).collect();
            let b: Vec<_> = resumed.items.iter().map(|d| d.label_hash).collect();
            assert_eq!(a, b, "items differ at {threads} threads");
            assert_eq!(baseline.stats, resumed.stats, "stats at {threads}");
            assert_eq!(baseline.gaps, resumed.gaps, "gaps at {threads}");
        }
    }

    /// A source of `pages` one-item pages that counts its fetches, with an
    /// optional permanent hole on page 0. Past the hole, pages are served
    /// only after the hole has been hit, and slowly, so the worker that hit
    /// it has long recorded the failure before any other finishes a shard.
    struct HoledCounter<'a> {
        pages: usize,
        holed: bool,
        fetches: &'a AtomicUsize,
        hole_hit: &'a AtomicBool,
    }

    impl PagedSource for HoledCounter<'_> {
        type Item = usize;
        fn source_name(&self) -> &'static str {
            "counted"
        }
        fn total_hint(&self) -> Option<usize> {
            Some(self.pages)
        }
        fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<usize>, PageError> {
            self.fetches.fetch_add(1, Ordering::SeqCst);
            if self.holed && offset == 0 {
                self.hole_hit.store(true, Ordering::SeqCst);
                return Err(PageError::permanent_hole("counted", 0, "hole on page 0"));
            }
            while !self.hole_hit.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(1));
            let end = (offset + limit).min(self.pages);
            Ok(PagedBatch {
                items: (offset..end).collect(),
                has_more: end < self.pages,
            })
        }
    }

    /// A FailFast crawl whose first shard is a permanent hole: 1,000
    /// one-page shards, or 200 keys of 3 pages each. Returns the error, the
    /// pages fetched and the shards handed to `commit`.
    fn crawl_past_a_hole(threads: usize, keyed: bool) -> (CrawlError, usize, usize) {
        let fetches = AtomicUsize::new(0);
        let hole_hit = AtomicBool::new(false);
        let commits = AtomicUsize::new(0);
        let source = |pages, holed| HoledCounter {
            pages,
            holed,
            fetches: &fetches,
            hole_hit: &hole_hit,
        };
        let crawler = Crawler {
            page_size: 1,
            threads,
            ..Crawler::default()
        };
        let err = if keyed {
            let sources: Vec<_> = (0..200)
                .map(|i| {
                    (
                        Address::derive(format!("key-{i}").as_bytes()),
                        source(3, i == 0),
                    )
                })
                .collect();
            crawler
                .crawl_keyed_resumable(&sources, BTreeMap::new(), |_, _| {
                    commits.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap_err()
        } else {
            crawler
                .crawl_resumable(&source(1000, true), BTreeMap::new(), |_, _| {
                    commits.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap_err()
        };
        (err, fetches.into_inner(), commits.into_inner())
    }

    #[test]
    fn fail_fast_stops_claiming_shards_after_a_failure() {
        let (sequential, fetched, committed) = crawl_past_a_hole(1, false);
        assert_eq!((fetched, committed), (1, 0));
        assert_eq!(sequential.kind, FaultKind::PermanentHole);
        for threads in [2, 4, 8] {
            let (err, fetched, committed) = crawl_past_a_hole(threads, false);
            assert_eq!(err, sequential, "error differs at {threads} threads");
            assert!(
                fetched < 100,
                "{fetched} of 1000 pages fetched at {threads} threads"
            );
            assert!(
                committed < 100,
                "{committed} shards journaled at {threads} threads"
            );
        }
    }

    #[test]
    fn keyed_fail_fast_stops_claiming_keys_after_a_failure() {
        let (sequential, fetched, committed) = crawl_past_a_hole(1, true);
        assert_eq!((fetched, committed), (1, 0));
        assert_eq!(sequential.key, Some(Address::derive(b"key-0").to_string()));
        for threads in [2, 4, 8] {
            let (err, fetched, committed) = crawl_past_a_hole(threads, true);
            assert_eq!(err, sequential, "error differs at {threads} threads");
            assert!(
                fetched < 100,
                "{fetched} of 598 pages fetched at {threads} threads"
            );
            assert!(
                committed < 50,
                "{committed} keys journaled at {threads} threads"
            );
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_honors_retry_after() {
        let policy = RetryPolicy::default();
        let a = policy.backoff_virtual_ms("subgraph", 64, 1, &FaultKind::Timeout);
        let b = policy.backoff_virtual_ms("subgraph", 64, 1, &FaultKind::Timeout);
        assert_eq!(a, b, "same inputs, same schedule");
        let c = policy.backoff_virtual_ms("subgraph", 64, 2, &FaultKind::Timeout);
        assert!(c >= a, "exponential component grows");
        let limited = FaultKind::RateLimited {
            retry_after_ms: 60_000,
        };
        assert_eq!(
            policy.backoff_virtual_ms("subgraph", 64, 1, &limited),
            60_000,
            "retry_after floors the schedule"
        );
    }
}

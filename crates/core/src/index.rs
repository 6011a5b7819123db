//! The shared analysis substrate: a queryable index computed once per
//! [`Dataset`] and reused by every §4 analysis pass.
//!
//! The paper's analyses all ask the same two questions over and over:
//! *which value transfers arrived at address `a` inside window `[t0, t1)`*
//! and *what were they worth in USD on the day they landed*. The naive
//! seed implementation answered both by filtering an address's entire
//! transaction vector on every call and re-pricing every transfer through
//! the [`PriceOracle`] each time — at paper scale (241K re-registrations
//! over 9.7M transactions) that linear rescan is the dominant cost of the
//! study, dwarfing the crawl the earlier PRs already sharded.
//!
//! [`AnalysisIndex`] mirrors the standard measurement-pipeline pattern
//! (build a queryable index once, amortize it across analyses — the same
//! architecture as the subgraph/Etherscan indexers the paper itself crawls):
//!
//! - **per-address incoming slices** — each address's *incoming value
//!   transfers* (transfer-kind, non-self; exactly the filter of
//!   [`Dataset::incoming`]) stored contiguously in timestamp order, so a
//!   window query is two binary searches returning a borrowed slice
//!   instead of a full-vector filter;
//! - **memoized USD valuations** — every indexed transfer is priced
//!   through the oracle exactly once at build time, with per-address
//!   prefix sums so window income is O(log n);
//! - **the re-registration list** —
//!   [`detect_all`](crate::registrations::detect_all) computed exactly once
//!   and shared by the overview, loss, feature, and resale passes (the
//!   seed recomputed it three times per study).
//!
//! # Determinism
//!
//! The index is a pure function of `(dataset, oracle)`. The sharded build
//! maps disjoint addresses through [`shard_map`](crate::shard_map), whose
//! output equals the sequential map's, so any thread count produces the
//! identical index — the same guarantee the crawl engine gives, through
//! the same scheduler.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ens_obs::Metrics;
use ens_types::{Address, LabelHash, Timestamp, UsdCents, Wei};
use price_oracle::{PriceOracle, PriceTable};
use sim_chain::{Transaction, TxKind};

use crate::dataset::Dataset;
use crate::registrations::{detect_all_with_threads, ReRegistration};
use crate::shard::shard_map;

/// One pre-filtered, pre-priced incoming value transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexedTransfer {
    /// When the transfer landed.
    pub timestamp: Timestamp,
    /// The sender.
    pub from: Address,
    /// The amount in wei.
    pub value: Wei,
    /// The amount valued in USD at the day of the transfer — memoized
    /// through the [`PriceOracle`] exactly once, at index build time.
    pub usd: UsdCents,
}

/// The earliest and latest timestamp a price table must cover.
type Span = (Timestamp, Timestamp);

/// The smallest span covering both `span` and `(lo, hi)`.
fn widen(span: Option<Span>, (lo, hi): Span) -> Option<Span> {
    Some(span.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))))
}

/// One oracle close per day of `span` (a single day when nothing was seen).
fn day_table(oracle: &PriceOracle, span: Option<Span>) -> PriceTable {
    let (lo, hi) = span.unwrap_or((Timestamp(0), Timestamp(0)));
    oracle.day_table(lo, hi)
}

/// One address's transfers, timestamp-sorted, with USD prefix sums
/// (`prefix_usd[i]` = total cents of `txs[..i]`). Each row's `from` holds
/// the counterparty: the sender in [`AnalysisIndex`], the recipient in
/// [`OutgoingIndex`].
#[derive(Clone, Debug)]
struct TransferTable {
    txs: Vec<IndexedTransfer>,
    prefix_usd: Vec<u128>,
}

/// The table of an address the index never saw. It has no prefix sums, so
/// `usd_and_count` must answer it before indexing them.
static EMPTY: TransferTable = TransferTable {
    txs: Vec::new(),
    prefix_usd: Vec::new(),
};

impl TransferTable {
    /// Computes the prefix sums over `txs`, which must be timestamp-sorted.
    fn new(txs: Vec<IndexedTransfer>) -> TransferTable {
        let mut prefix_usd = Vec::with_capacity(txs.len() + 1);
        let mut acc: u128 = 0;
        prefix_usd.push(acc);
        for t in &txs {
            acc += t.usd.0;
            prefix_usd.push(acc);
        }
        TransferTable { txs, prefix_usd }
    }

    /// The incoming value transfers to `address` among its txlist `txs`:
    /// transfer-kind and non-self, exactly the filter of
    /// [`Dataset::incoming`].
    fn incoming(address: Address, txs: &[Transaction], prices: &PriceTable) -> TransferTable {
        let matches = move |tx: &&Transaction| {
            tx.to == address && tx.from != address && matches!(tx.kind, TxKind::Transfer)
        };
        // Count first, then fill an exactly-sized vector: hub addresses
        // hold tens of thousands of transfers, and letting the collect
        // grow geometrically both re-copies the bulk of the data ~17
        // times and leaves up to 2x capacity slack live in the index.
        let mut out: Vec<IndexedTransfer> = Vec::with_capacity(txs.iter().filter(matches).count());
        out.extend(txs.iter().filter(matches).map(|tx| IndexedTransfer {
            timestamp: tx.timestamp,
            from: tx.from,
            value: tx.value,
            usd: prices.to_usd(tx.value, tx.timestamp),
        }));
        // Chain order is already time order, so the sortedness check
        // almost always passes and the stable sort only runs when the
        // invariant the binary searches rely on is actually violated —
        // a stable sort of an already-sorted vector would keep iteration
        // order identical to the naive filter's anyway, so skipping it
        // changes nothing observable.
        if !out.windows(2).all(|w| w[0].timestamp <= w[1].timestamp) {
            out.sort_by_key(|t| t.timestamp);
        }
        TransferTable::new(out)
    }

    /// Half-open index range of `[from, to)` within `txs`.
    fn range(&self, window: Option<(Timestamp, Timestamp)>) -> (usize, usize) {
        match window {
            None => (0, self.txs.len()),
            Some((a, b)) => {
                let lo = self.txs.partition_point(|t| t.timestamp < a);
                let hi = self.txs.partition_point(|t| t.timestamp < b);
                (lo, hi.max(lo))
            }
        }
    }

    /// The transfers inside `window`, as a borrowed slice.
    fn window(&self, window: Option<(Timestamp, Timestamp)>) -> &[IndexedTransfer] {
        let (lo, hi) = self.range(window);
        &self.txs[lo..hi]
    }

    /// USD total and transfer count inside `window`, from the prefix sums.
    fn usd_and_count(&self, window: Option<(Timestamp, Timestamp)>) -> (UsdCents, usize) {
        if self.txs.is_empty() {
            return (UsdCents::ZERO, 0);
        }
        let (lo, hi) = self.range(window);
        (UsdCents(self.prefix_usd[hi] - self.prefix_usd[lo]), hi - lo)
    }

    /// Number of distinct counterparties inside `window`.
    fn distinct_counterparties(&self, window: Option<(Timestamp, Timestamp)>) -> usize {
        let mut parties: Vec<Address> = self.window(window).iter().map(|t| t.from).collect();
        parties.sort_unstable();
        parties.dedup();
        parties.len()
    }
}

/// Raw window-query tallies, shared by all clones of an index. Relaxed
/// atomic adds commute, so the totals are deterministic for any thread
/// count even though queries run inside sharded workers;
/// [`AnalysisIndex::flush_query_counters`] drains them into a [`Metrics`]
/// registry at a single deterministic point.
#[derive(Debug, Default)]
struct QueryCounters {
    incoming: AtomicU64,
    income: AtomicU64,
    unique_senders: AtomicU64,
}

/// The analysis substrate. See the module docs.
#[derive(Clone, Debug)]
pub struct AnalysisIndex {
    incoming: BTreeMap<Address, TransferTable>,
    reregistrations: Vec<ReRegistration>,
    /// Positions into `reregistrations`, keyed three ways for the
    /// read-only serving queries: by domain, by catching wallet, and by
    /// the wallet that lost the name.
    rereg_by_label: BTreeMap<LabelHash, Vec<usize>>,
    rereg_by_catcher: BTreeMap<Address, Vec<usize>>,
    rereg_by_victim: BTreeMap<Address, Vec<usize>>,
    transfers_indexed: usize,
    queries: Arc<QueryCounters>,
}

impl AnalysisIndex {
    /// Builds the index on one thread.
    pub fn build(dataset: &Dataset, oracle: &PriceOracle) -> AnalysisIndex {
        AnalysisIndex::build_with_threads(dataset, oracle, 1)
    }

    /// Builds the index with the per-address work (filter, sort, USD
    /// memoization) sharded across `threads` scoped workers. Any thread
    /// count produces the identical index.
    pub fn build_with_threads(
        dataset: &Dataset,
        oracle: &PriceOracle,
        threads: usize,
    ) -> AnalysisIndex {
        AnalysisIndex::build_metered(dataset, oracle, threads, &Metrics::disabled())
    }

    /// [`AnalysisIndex::build_with_threads`] under an `index` span with one
    /// child span per build phase (price-table materialization, sharded
    /// per-address build, re-registration detection), recording size and
    /// price-memoization counters. The index itself is identical to the
    /// unmetered build.
    pub fn build_metered(
        dataset: &Dataset,
        oracle: &PriceOracle,
        threads: usize,
        metrics: &Metrics,
    ) -> AnalysisIndex {
        let build_span = metrics.span("index");
        let entries: Vec<(&Address, &Vec<Transaction>)> = dataset.transactions.iter().collect();
        // One oracle close per day of the dataset's span, instead of one
        // oracle evaluation (noise hash + interpolation) per transfer.
        let prices = {
            let _phase = metrics.span("price_table");
            let span = entries
                .iter()
                .flat_map(|(_, txs)| txs.iter())
                .fold(None, |span, tx| widen(span, (tx.timestamp, tx.timestamp)));
            day_table(oracle, span)
        };
        let prices = &prices;
        let built = {
            let _phase = metrics.span("shard_build");
            shard_map(&entries, threads, |(addr, txs)| {
                TransferTable::incoming(**addr, txs, prices)
            })
        };
        let transfers_indexed: usize = built.iter().map(|a| a.txs.len()).sum();
        if metrics.is_enabled() {
            metrics.add("index/price_table_days", prices.days() as u64);
            // Every indexed transfer was priced exactly once at build time;
            // split those lookups into materialized-table hits and oracle
            // fallbacks (the table spans all tx timestamps, so fallbacks
            // flag a span-computation regression).
            let hits = built
                .iter()
                .flat_map(|entry| &entry.txs)
                .filter(|t| prices.is_materialized(t.timestamp))
                .count();
            metrics.add("index/price_lookups/memoized_hit", hits as u64);
            metrics.add(
                "index/price_lookups/oracle_fallback",
                (transfers_indexed - hits) as u64,
            );
        }
        let incoming: BTreeMap<Address, TransferTable> =
            entries.iter().map(|(addr, _)| **addr).zip(built).collect();
        let reregistrations = {
            let _phase = metrics.span("detect");
            detect_all_with_threads(&dataset.domains, threads)
        };
        if metrics.is_enabled() {
            metrics.add("index/addresses", incoming.len() as u64);
            metrics.add("index/transfers", transfers_indexed as u64);
            metrics.add("index/reregistrations", reregistrations.len() as u64);
        }
        drop(build_span);
        let mut rereg_by_label: BTreeMap<LabelHash, Vec<usize>> = BTreeMap::new();
        let mut rereg_by_catcher: BTreeMap<Address, Vec<usize>> = BTreeMap::new();
        let mut rereg_by_victim: BTreeMap<Address, Vec<usize>> = BTreeMap::new();
        for (i, r) in reregistrations.iter().enumerate() {
            rereg_by_label.entry(r.label_hash).or_default().push(i);
            rereg_by_catcher.entry(r.new_owner).or_default().push(i);
            rereg_by_victim.entry(r.prev_wallet).or_default().push(i);
        }
        AnalysisIndex {
            incoming,
            reregistrations,
            rereg_by_label,
            rereg_by_catcher,
            rereg_by_victim,
            transfers_indexed,
            queries: Arc::new(QueryCounters::default()),
        }
    }

    /// Drains the raw window-query tallies accumulated since the last
    /// flush into `metrics` (`index/queries/...` counters). Call from one
    /// thread at a deterministic point — the metered study pipeline
    /// flushes once after its last pass.
    pub fn flush_query_counters(&self, metrics: &Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        metrics.add(
            "index/queries/incoming",
            self.queries.incoming.swap(0, Ordering::Relaxed),
        );
        metrics.add(
            "index/queries/income",
            self.queries.income.swap(0, Ordering::Relaxed),
        );
        metrics.add(
            "index/queries/unique_senders",
            self.queries.unique_senders.swap(0, Ordering::Relaxed),
        );
    }

    fn entry(&self, address: Address) -> &TransferTable {
        self.incoming.get(&address).unwrap_or(&EMPTY)
    }

    /// Incoming value transfers to `address` (mints, contract payments and
    /// self-sends excluded), optionally bounded to `[from, to)` — the
    /// indexed equivalent of [`Dataset::incoming`], as a borrowed slice.
    pub fn incoming(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> &[IndexedTransfer] {
        self.queries.incoming.fetch_add(1, Ordering::Relaxed);
        self.entry(address).window(window)
    }

    /// Total USD received by `address` in a window, valued at the day of
    /// each transfer — O(log n) via the prefix sums.
    pub fn income_usd(&self, address: Address, window: Option<(Timestamp, Timestamp)>) -> UsdCents {
        self.income_and_count(address, window).0
    }

    /// Window income and transfer count from one range lookup (the seed
    /// scanned the vector twice for these).
    pub fn income_and_count(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> (UsdCents, usize) {
        self.queries.income.fetch_add(1, Ordering::Relaxed);
        self.entry(address).usd_and_count(window)
    }

    /// Number of distinct senders to `address` in a window.
    pub fn unique_senders(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> usize {
        self.queries.unique_senders.fetch_add(1, Ordering::Relaxed);
        self.entry(address).distinct_counterparties(window)
    }

    /// Every re-registration in the dataset —
    /// [`detect_all`](crate::registrations::detect_all), computed exactly
    /// once per index.
    pub fn reregistrations(&self) -> &[ReRegistration] {
        &self.reregistrations
    }

    /// The re-registration history of one domain, in detection order —
    /// an O(log n) map lookup, the read-only accessor behind the serving
    /// layer's `name-risk` query.
    pub fn reregistrations_of(
        &self,
        label_hash: LabelHash,
    ) -> impl Iterator<Item = &ReRegistration> + '_ {
        self.rereg_by_label
            .get(&label_hash)
            .into_iter()
            .flatten()
            .map(|&i| &self.reregistrations[i])
    }

    /// Re-registrations where `address` is the *catching* wallet
    /// (`new_owner`) — empty for an address that never caught a name.
    pub fn catches_by(&self, address: Address) -> impl Iterator<Item = &ReRegistration> + '_ {
        self.rereg_by_catcher
            .get(&address)
            .into_iter()
            .flatten()
            .map(|&i| &self.reregistrations[i])
    }

    /// Re-registrations where `address` is the wallet that lost the name
    /// (`prev_wallet`, the address stray funds keep resolving to).
    pub fn losses_of(&self, address: Address) -> impl Iterator<Item = &ReRegistration> + '_ {
        self.rereg_by_victim
            .get(&address)
            .into_iter()
            .flatten()
            .map(|&i| &self.reregistrations[i])
    }

    /// Addresses with an indexed transfer list (every crawled address).
    pub fn indexed_addresses(&self) -> usize {
        self.incoming.len()
    }

    /// Total transfers held by the index.
    pub fn indexed_transfers(&self) -> usize {
        self.transfers_indexed
    }
}

/// The outgoing-side counterpart of [`AnalysisIndex`]: per-sender
/// *outgoing* value transfers (transfer-kind, non-self), timestamp-sorted
/// with USD prefix sums, so the serving layer's `address-forensics` query
/// answers "what did this address send, and what was it worth" with the
/// same two-binary-searches-plus-prefix-sum shape as the incoming side.
///
/// Unlike the incoming build — which indexes each crawled address's own
/// txlist — the outgoing build attributes **every** transfer found in
/// **any** crawled txlist to its sender. A common sender `c` whose own
/// txlist was never crawled still appears in a victim's list as `c → a1`;
/// keying those rows by `c` is exactly what makes the forensics query
/// able to answer "how much did this sender misdirect". A transaction
/// whose endpoints were both crawled appears in two lists; rows dedup by
/// transaction hash.
///
/// In the returned [`IndexedTransfer`] slices the `from` field carries the
/// **counterparty** — the *recipient* of each outgoing transfer.
///
/// Built once at serve startup; the analysis passes themselves never need
/// the outgoing side, which is why [`AnalysisIndex`] does not carry it.
#[derive(Clone, Debug)]
pub struct OutgoingIndex {
    outgoing: BTreeMap<Address, TransferTable>,
    transfers_indexed: usize,
}

impl OutgoingIndex {
    /// Builds the outgoing index on one thread.
    pub fn build(dataset: &Dataset, oracle: &PriceOracle) -> OutgoingIndex {
        OutgoingIndex::build_with_threads(dataset, oracle, 1)
    }

    /// Builds the outgoing index sharded across `threads` scoped workers;
    /// any thread count produces the identical index (the same
    /// [`shard_map`](crate::shard_map) as the incoming build).
    pub fn build_with_threads(
        dataset: &Dataset,
        oracle: &PriceOracle,
        threads: usize,
    ) -> OutgoingIndex {
        // Attribute every transfer in every crawled txlist to its sender
        // (a sender need not be a crawled address itself), then dedup the
        // double-crawled transactions by hash. BTreeMap iteration keeps
        // the grouping deterministic regardless of list order.
        let mut by_sender: BTreeMap<Address, Vec<&Transaction>> = BTreeMap::new();
        for txs in dataset.transactions.values() {
            for tx in txs {
                if matches!(tx.kind, TxKind::Transfer) && tx.from != tx.to && !tx.from.is_zero() {
                    by_sender.entry(tx.from).or_default().push(tx);
                }
            }
        }
        let mut span = None;
        for txs in by_sender.values_mut() {
            // (timestamp, hash) totally orders each sender's rows, so the
            // sort (and the index) is independent of which txlist a row
            // was discovered in; dedup then removes double-crawled rows.
            txs.sort_unstable_by_key(|tx| (tx.timestamp, tx.hash));
            txs.dedup_by_key(|tx| tx.hash);
            span = txs
                .iter()
                .fold(span, |span, tx| widen(span, (tx.timestamp, tx.timestamp)));
        }
        let prices = &day_table(oracle, span);
        let entries: Vec<(&Address, &Vec<&Transaction>)> = by_sender.iter().collect();
        let built = shard_map(&entries, threads, |(_, txs)| {
            TransferTable::new(
                txs.iter()
                    .map(|tx| IndexedTransfer {
                        timestamp: tx.timestamp,
                        from: tx.to, // counterparty: the recipient
                        value: tx.value,
                        usd: prices.to_usd(tx.value, tx.timestamp),
                    })
                    .collect(),
            )
        });
        let transfers_indexed = built.iter().map(|a| a.txs.len()).sum();
        let outgoing: BTreeMap<Address, TransferTable> =
            entries.iter().map(|(addr, _)| **addr).zip(built).collect();
        OutgoingIndex {
            outgoing,
            transfers_indexed,
        }
    }

    fn entry(&self, address: Address) -> &TransferTable {
        self.outgoing.get(&address).unwrap_or(&EMPTY)
    }

    /// Outgoing value transfers from `address` (mints, contract payments
    /// and self-sends excluded), optionally bounded to `[from, to)`. The
    /// `from` field of each returned transfer holds the recipient.
    pub fn outgoing(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> &[IndexedTransfer] {
        self.entry(address).window(window)
    }

    /// Window spend and transfer count from one range lookup — O(log n)
    /// via the prefix sums.
    pub fn spend_and_count(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> (UsdCents, usize) {
        self.entry(address).usd_and_count(window)
    }

    /// Number of distinct recipients of `address` in a window.
    pub fn unique_recipients(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> usize {
        self.entry(address).distinct_counterparties(window)
    }

    /// Addresses with an indexed outgoing list.
    pub fn indexed_addresses(&self) -> usize {
        self.outgoing.len()
    }

    /// Total outgoing transfers held by the index.
    pub fn indexed_transfers(&self) -> usize {
        self.transfers_indexed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::collect_clean;
    use crate::registrations::detect_all;
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    fn dataset() -> (workload::World, Dataset) {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let ds = collect_clean(&world, SubgraphConfig::lossless());
        (world, ds)
    }

    #[test]
    fn indexed_incoming_matches_naive_for_every_address_and_window() {
        let (world, ds) = dataset();
        let index = AnalysisIndex::build(&ds, world.oracle());
        let end = ds.observation_end;
        let mid = Timestamp(end.0 / 2);
        let windows = [
            None,
            Some((Timestamp(0), end)),
            Some((Timestamp(0), mid)),
            Some((mid, end)),
            Some((mid, mid)), // empty
        ];
        for &addr in ds.transactions.keys() {
            for window in windows {
                let naive: Vec<_> = ds
                    .incoming(addr, window)
                    .map(|tx| (tx.timestamp, tx.from, tx.value))
                    .collect();
                let indexed: Vec<_> = index
                    .incoming(addr, window)
                    .iter()
                    .map(|t| (t.timestamp, t.from, t.value))
                    .collect();
                assert_eq!(naive, indexed, "addr {addr:?} window {window:?}");
                assert_eq!(
                    ds.income_usd(addr, window, world.oracle()),
                    index.income_usd(addr, window),
                    "income for {addr:?} window {window:?}"
                );
                assert_eq!(
                    ds.unique_senders(addr, window),
                    index.unique_senders(addr, window),
                    "senders for {addr:?} window {window:?}"
                );
                let (usd, count) = index.income_and_count(addr, window);
                assert_eq!(usd, index.income_usd(addr, window));
                assert_eq!(count, index.incoming(addr, window).len());
            }
        }
    }

    #[test]
    fn memoized_usd_matches_the_oracle() {
        let (world, ds) = dataset();
        let index = AnalysisIndex::build(&ds, world.oracle());
        for &addr in ds.transactions.keys() {
            for t in index.incoming(addr, None) {
                assert_eq!(t.usd, world.oracle().to_usd(t.value, t.timestamp));
            }
        }
    }

    #[test]
    fn sharded_build_is_identical_to_sequential() {
        let (world, ds) = dataset();
        let a = AnalysisIndex::build_with_threads(&ds, world.oracle(), 1);
        for threads in [2, 3, 8] {
            let b = AnalysisIndex::build_with_threads(&ds, world.oracle(), threads);
            assert_eq!(a.indexed_addresses(), b.indexed_addresses());
            assert_eq!(a.indexed_transfers(), b.indexed_transfers());
            assert_eq!(a.reregistrations(), b.reregistrations());
            for &addr in ds.transactions.keys() {
                assert_eq!(a.incoming(addr, None), b.incoming(addr, None));
            }
        }
    }

    #[test]
    fn reregistrations_match_detect_all() {
        let (world, ds) = dataset();
        let index = AnalysisIndex::build(&ds, world.oracle());
        assert_eq!(index.reregistrations(), detect_all(&ds.domains).as_slice());
    }

    #[test]
    fn rereg_lookups_agree_with_linear_scans() {
        let (world, ds) = dataset();
        let index = AnalysisIndex::build(&ds, world.oracle());
        let all = index.reregistrations();
        assert!(!all.is_empty(), "fixture has catches");
        for r in all {
            let by_label: Vec<_> = index.reregistrations_of(r.label_hash).collect();
            let scan: Vec<_> = all
                .iter()
                .filter(|x| x.label_hash == r.label_hash)
                .collect();
            assert_eq!(by_label, scan);
            let catches: Vec<_> = index.catches_by(r.new_owner).collect();
            let scan: Vec<_> = all.iter().filter(|x| x.new_owner == r.new_owner).collect();
            assert_eq!(catches, scan);
            let losses: Vec<_> = index.losses_of(r.prev_wallet).collect();
            let scan: Vec<_> = all
                .iter()
                .filter(|x| x.prev_wallet == r.prev_wallet)
                .collect();
            assert_eq!(losses, scan);
        }
        // Unknown keys come back empty, never panic.
        let nobody = Address::derive(b"nobody-at-all");
        assert_eq!(index.catches_by(nobody).count(), 0);
        assert_eq!(index.losses_of(nobody).count(), 0);
    }

    #[test]
    fn outgoing_index_matches_a_naive_filter_at_any_thread_count() {
        let (world, ds) = dataset();
        let baseline = OutgoingIndex::build(&ds, world.oracle());
        assert!(
            baseline.indexed_transfers() > 0,
            "the fixture world has outgoing transfer rows"
        );
        // Naive reference: every transfer in every crawled txlist, keyed
        // by sender, deduped by hash, ordered by (timestamp, hash).
        let mut naive_all: BTreeMap<Address, Vec<&Transaction>> = BTreeMap::new();
        for txs in ds.transactions.values() {
            for tx in txs {
                if matches!(tx.kind, TxKind::Transfer) && tx.from != tx.to && !tx.from.is_zero() {
                    naive_all.entry(tx.from).or_default().push(tx);
                }
            }
        }
        for txs in naive_all.values_mut() {
            txs.sort_unstable_by_key(|tx| (tx.timestamp, tx.hash));
            txs.dedup_by_key(|tx| tx.hash);
        }
        assert!(
            naive_all.keys().any(|a| !ds.transactions.contains_key(a)),
            "some senders are not crawled addresses themselves"
        );
        let end = ds.observation_end;
        let mid = Timestamp(end.0 / 2);
        let windows = [None, Some((Timestamp(0), mid)), Some((mid, end))];
        assert_eq!(baseline.indexed_addresses(), naive_all.len());
        for (&addr, txs) in &naive_all {
            for window in windows {
                let naive: Vec<_> = txs
                    .iter()
                    .filter(|tx| match window {
                        None => true,
                        Some((a, b)) => tx.timestamp >= a && tx.timestamp < b,
                    })
                    .map(|tx| (tx.timestamp, tx.to, tx.value))
                    .collect();
                let indexed: Vec<_> = baseline
                    .outgoing(addr, window)
                    .iter()
                    .map(|t| (t.timestamp, t.from, t.value))
                    .collect();
                assert_eq!(naive, indexed, "addr {addr:?} window {window:?}");
                let (usd, count) = baseline.spend_and_count(addr, window);
                assert_eq!(count, naive.len());
                let direct: u128 = baseline
                    .outgoing(addr, window)
                    .iter()
                    .map(|t| t.usd.0)
                    .sum();
                assert_eq!(usd.0, direct, "prefix sums match per-transfer USD");
            }
        }
        for threads in [2, 8] {
            let sharded = OutgoingIndex::build_with_threads(&ds, world.oracle(), threads);
            assert_eq!(sharded.indexed_transfers(), baseline.indexed_transfers());
            for &addr in naive_all.keys() {
                assert_eq!(sharded.outgoing(addr, None), baseline.outgoing(addr, None));
            }
        }
        // Unknown address: empty slice, zero spend, no panic.
        let nobody = Address::derive(b"nobody");
        assert!(baseline.outgoing(nobody, None).is_empty());
        assert_eq!(baseline.spend_and_count(nobody, None), (UsdCents::ZERO, 0));
        assert_eq!(baseline.unique_recipients(nobody, None), 0);
    }

    #[test]
    fn unknown_addresses_are_empty() {
        let (world, ds) = dataset();
        let index = AnalysisIndex::build(&ds, world.oracle());
        let nobody = Address::derive(b"nobody-at-all");
        assert!(index.incoming(nobody, None).is_empty());
        assert_eq!(index.income_usd(nobody, None), UsdCents::ZERO);
        assert_eq!(index.unique_senders(nobody, None), 0);
    }
}

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
//! - **incoming transfers** — each address's *incoming value transfers*
//!   (transfer-kind, non-self; exactly the filter of
//!   [`Dataset::incoming`]), timestamp-sorted, so a window query is two
//!   binary searches returning a borrowed slice instead of a full-vector
//!   filter;
//! - **memoized USD valuations** — every indexed transfer is priced
//!   through the oracle exactly once at build time, with prefix sums so
//!   window income is O(log n);
//! - **the re-registration list** —
//!   [`detect_all`](crate::registrations::detect_all) computed exactly once
//!   and shared by the overview, loss, feature, and resale passes (the
//!   seed recomputed it three times per study), with its positions grouped
//!   by domain, by catching wallet and by losing wallet for the daemon's
//!   point lookups.
//!
//! # Layout
//!
//! Each grouping is one flat table, not a map of per-key vectors:
//!
//! - a sorted column of distinct keys (addresses or label hashes);
//! - a *radix directory* over the keys' leading big-endian bits, with
//!   about as many slots as keys, so a lookup reads one slot and
//!   binary-searches the run of keys that share those bits — about one
//!   key, and never more than one binary search over the whole column,
//!   however the keys cluster;
//! - a `starts` column: key `i` owns rows `starts[i]..starts[i + 1]`;
//! - one row array (timestamp-sorted transfers, or positions into the
//!   re-registration list) and, for transfers, one USD prefix-sum array
//!   over all of it.
//!
//! A build makes a few hundred allocations, not one or two per address,
//! and a lookup compares about one 20-byte key instead of walking a
//! B-tree. Against the former `BTreeMap` of per-address vectors, on the
//! benchmark's three 60 K-name paper-scale worlds of seed 48879 (62,064
//! addresses and ≈124 K window queries each), `analyze --threads 2
//! --metrics-json` span medians over 18 alternating runs on a 2-vCPU host
//! moved: `study/index` 36.7 → 26.4 ms (`shard_build` 11.8 → 9.5 ms),
//! `study/countermeasures` 77.2 → 55.3 ms, `study/losses` 31.4 → 23.0 ms,
//! and `study` 231.6 → 187.2 ms. `study/features` (55.4 → 57.0 ms) is not
//! bound by index lookups.
//!
//! # Determinism
//!
//! The index is a pure function of `(dataset, oracle)`. The build maps
//! blocks of addresses (or of transfers) through
//! [`shard_map`](crate::shard_map), whose output equals the sequential
//! map's, and concatenates the blocks in input order, so any thread count
//! produces the identical index — the same guarantee the crawl engine
//! gives, through the same scheduler.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ens_obs::Metrics;
use ens_types::{Address, LabelHash, Timestamp, UsdCents, Wei};
use price_oracle::{PriceOracle, PriceTable};

use crate::dataset::Dataset;
use crate::registrations::{detect_all_with_threads, ReRegistration};
use crate::shard::shard_map;
use crate::transactions::{TxRow, TxTable};

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

/// Items (addresses, or transfers) per block of a parallel build. Each
/// block fills one vector, so a 60 K-address build allocates a few hundred
/// times, and a block holding a hub address still leaves the other blocks
/// to the other workers.
const BUILD_BLOCK: usize = 256;

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

/// `tx` as an index row whose `from` is `counterparty`, priced once.
fn priced(tx: &TxRow, counterparty: Address, prices: &PriceTable) -> IndexedTransfer {
    IndexedTransfer {
        timestamp: tx.timestamp,
        from: counterparty,
        value: tx.value,
        usd: prices.to_usd(tx.value, tx.timestamp),
    }
}

/// Keys and rows are numbered in `u32`, which halves the directory's cache
/// footprint against `usize`; an index of 2³² rows or keys is refused.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("an index holds fewer than 2^32 rows and keys")
}

/// A key whose first four bytes, read big-endian, order as the key does.
trait RadixKey: Copy + Ord {
    /// The key's first four bytes as a big-endian `u32`.
    fn leading_bits(&self) -> u32;
}

impl RadixKey for Address {
    fn leading_bits(&self) -> u32 {
        u32::from_be_bytes([self.0[0], self.0[1], self.0[2], self.0[3]])
    }
}

impl RadixKey for LabelHash {
    fn leading_bits(&self) -> u32 {
        let bytes = &self.0 .0;
        u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
    }
}

/// The directory slot of `key`: its leading `32 - shift` bits.
fn slot<K: RadixKey>(key: &K, shift: u32) -> usize {
    (u64::from(key.leading_bits()) >> shift) as usize
}

/// A sorted column of distinct keys, each owning a run of rows, with a
/// radix directory over the keys' leading bits. See the module docs.
#[derive(Clone, Debug)]
struct KeyColumn<K> {
    keys: Vec<K>,
    /// Key `i` owns rows `starts[i]..starts[i + 1]`.
    starts: Vec<u32>,
    /// The keys whose leading bits read `p` sit at `radix[p]..radix[p + 1]`.
    radix: Vec<u32>,
    /// 32 minus the number of leading bits the directory resolves.
    shift: u32,
}

impl<K: RadixKey> KeyColumn<K> {
    /// The column over `keys`, strictly ascending, where each key owns the
    /// next `counts` rows in turn.
    fn new(keys: Vec<K>, counts: impl IntoIterator<Item = usize>) -> KeyColumn<K> {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend");
        let mut starts = Vec::with_capacity(keys.len() + 1);
        let mut end = 0;
        starts.push(0);
        for count in counts {
            end += count;
            starts.push(to_u32(end));
        }
        assert_eq!(starts.len(), keys.len() + 1, "one row count per key");
        // At least as many slots as keys, so a run averages at most one key.
        let bits = (to_u32(keys.len()) as usize)
            .next_power_of_two()
            .trailing_zeros();
        let shift = 32 - bits;
        let mut radix = vec![0; (1 << bits) + 1];
        for key in &keys {
            radix[slot(key, shift) + 1] += 1;
        }
        for p in 1..radix.len() {
            radix[p] += radix[p - 1];
        }
        KeyColumn {
            keys,
            starts,
            radix,
            shift,
        }
    }

    /// The column over rows whose keys ascend: each run of equal keys
    /// becomes one key owning those rows.
    fn grouping(row_keys: impl IntoIterator<Item = K>) -> KeyColumn<K> {
        let mut keys: Vec<K> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for key in row_keys {
            match (keys.last(), counts.last_mut()) {
                (Some(last), Some(count)) if *last == key => *count += 1,
                _ => {
                    keys.push(key);
                    counts.push(1);
                }
            }
        }
        KeyColumn::new(keys, counts)
    }

    /// The rows `key` owns; empty for a key the column does not hold.
    fn rows(&self, key: K) -> Range<usize> {
        let slot = slot(&key, self.shift);
        let run = self.radix[slot] as usize..self.radix[slot + 1] as usize;
        match self.keys[run.clone()].binary_search(&key) {
            Ok(i) => {
                let i = run.start + i;
                self.starts[i] as usize..self.starts[i + 1] as usize
            }
            Err(_) => 0..0,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Transfers grouped by address: each address's rows contiguous and
/// timestamp-sorted in one array, with USD prefix sums over the whole
/// array (`prefix_usd[j]` = total cents of `txs[..j]`). Each row's `from`
/// holds the counterparty: the sender in [`AnalysisIndex`], the recipient
/// in [`OutgoingIndex`].
#[derive(Clone, Debug)]
struct TransferTable {
    addresses: KeyColumn<Address>,
    txs: Vec<IndexedTransfer>,
    prefix_usd: Vec<u128>,
}

impl TransferTable {
    /// Computes the prefix sums over `txs`, grouped as `addresses` says.
    fn new(addresses: KeyColumn<Address>, txs: Vec<IndexedTransfer>) -> TransferTable {
        // The whole table's total may wrap where no one window's does; the
        // wrapping difference of two prefixes is still the window's total.
        let mut prefix_usd = Vec::with_capacity(txs.len() + 1);
        let mut acc: u128 = 0;
        prefix_usd.push(acc);
        for t in &txs {
            acc = acc.wrapping_add(t.usd.0);
            prefix_usd.push(acc);
        }
        TransferTable {
            addresses,
            txs,
            prefix_usd,
        }
    }

    /// Positions in `txs` of `address`'s rows inside `window`.
    fn range(&self, address: Address, window: Option<(Timestamp, Timestamp)>) -> Range<usize> {
        let rows = self.addresses.rows(address);
        let Some((a, b)) = window else {
            return rows;
        };
        let own = &self.txs[rows.clone()];
        let lo = rows.start + own.partition_point(|t| t.timestamp < a);
        let hi = rows.start + own.partition_point(|t| t.timestamp < b);
        lo..hi.max(lo)
    }

    /// `address`'s transfers inside `window`, as a borrowed slice.
    fn window(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> &[IndexedTransfer] {
        &self.txs[self.range(address, window)]
    }

    /// USD total and transfer count inside `window`, from the prefix sums.
    fn usd_and_count(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> (UsdCents, usize) {
        let rows = self.range(address, window);
        let usd = self.prefix_usd[rows.end].wrapping_sub(self.prefix_usd[rows.start]);
        (UsdCents(usd), rows.len())
    }

    /// Number of distinct counterparties inside `window`.
    fn distinct_counterparties(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> usize {
        let mut parties: Vec<Address> = self
            .window(address, window)
            .iter()
            .map(|t| t.from)
            .collect();
        parties.sort_unstable();
        parties.dedup();
        parties.len()
    }
}

/// The incoming value transfers of each owner in `block` (positions in
/// `table`) among its own txlist — transfer-kind and non-self, exactly the
/// filter of [`Dataset::incoming`] — priced and timestamp-sorted. Returns
/// the block's rows and each owner's row count.
fn incoming_rows(
    table: &TxTable,
    block: Range<usize>,
    prices: &PriceTable,
) -> (Vec<IndexedTransfer>, Vec<usize>) {
    let mut rows = Vec::new();
    let counts = block
        .map(|i| {
            let (address, txs) = table.history(i);
            let start = rows.len();
            rows.extend(
                txs.iter()
                    .filter(|tx| tx.to == address && tx.from != address && tx.is_transfer())
                    .map(|tx| priced(tx, tx.from, prices)),
            );
            // Chain order is already time order, so the sortedness check
            // almost always passes and the stable sort only runs when the
            // invariant the binary searches rely on is actually violated;
            // it keeps equal timestamps in chain order either way.
            let own = &mut rows[start..];
            if !own.windows(2).all(|w| w[0].timestamp <= w[1].timestamp) {
                own.sort_by_key(|t| t.timestamp);
            }
            own.len()
        })
        .collect();
    (rows, counts)
}

/// Positions into a re-registration list grouped by one key of the catch,
/// each group in detection order.
#[derive(Clone, Debug)]
struct Positions<K> {
    keys: KeyColumn<K>,
    positions: Vec<u32>,
}

impl<K: RadixKey> Positions<K> {
    fn new(catches: &[ReRegistration], key: impl Fn(&ReRegistration) -> K) -> Positions<K> {
        let mut pairs: Vec<(K, u32)> = catches
            .iter()
            .enumerate()
            .map(|(i, r)| (key(r), to_u32(i)))
            .collect();
        pairs.sort_unstable();
        Positions {
            keys: KeyColumn::grouping(pairs.iter().map(|&(k, _)| k)),
            positions: pairs.into_iter().map(|(_, i)| i).collect(),
        }
    }

    /// The positions filed under `key`; empty for an unknown key.
    fn of(&self, key: K) -> &[u32] {
        &self.positions[self.keys.rows(key)]
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
    incoming: TransferTable,
    reregistrations: Vec<ReRegistration>,
    /// Positions into `reregistrations`, keyed three ways for the
    /// read-only serving queries: by domain, by catching wallet, and by
    /// the wallet that lost the name.
    rereg_by_label: Positions<LabelHash>,
    rereg_by_catcher: Positions<Address>,
    rereg_by_victim: Positions<Address>,
    queries: Arc<QueryCounters>,
}

impl AnalysisIndex {
    /// Builds the index with the per-address work (filter, sort, USD
    /// memoization) sharded across `threads` scoped workers, under an
    /// `index` span with one child span per build phase (price-table
    /// materialization, sharded per-address build, re-registration
    /// detection), recording size and price-memoization counters. Any
    /// thread count, with or without live `metrics`, produces the
    /// identical index.
    pub fn build(
        dataset: &Dataset,
        oracle: &PriceOracle,
        threads: usize,
        metrics: &Metrics,
    ) -> AnalysisIndex {
        let build_span = metrics.span("index");
        let table = &dataset.transactions;
        // One oracle close per day of the dataset's span, instead of one
        // oracle evaluation (noise hash + interpolation) per transfer.
        let prices = {
            let _phase = metrics.span("price_table");
            let span = table
                .rows()
                .iter()
                .fold(None, |span, tx| widen(span, (tx.timestamp, tx.timestamp)));
            day_table(oracle, span)
        };
        let prices = &prices;
        let incoming = {
            let _phase = metrics.span("shard_build");
            let blocks: Vec<Range<usize>> = (0..table.len())
                .step_by(BUILD_BLOCK)
                .map(|start| start..(start + BUILD_BLOCK).min(table.len()))
                .collect();
            let (rows, counts): (Vec<_>, Vec<_>) = shard_map(&blocks, threads, |block| {
                incoming_rows(table, block.clone(), prices)
            })
            .into_iter()
            .unzip();
            TransferTable::new(
                KeyColumn::new(table.owners().to_vec(), counts.into_iter().flatten()),
                rows.concat(),
            )
        };
        if metrics.is_enabled() {
            metrics.add("index/price_table_days", prices.days() as u64);
            // Every indexed transfer was priced exactly once at build time;
            // split those lookups into materialized-table hits and oracle
            // fallbacks (the table spans all tx timestamps, so fallbacks
            // flag a span-computation regression).
            let hits = incoming
                .txs
                .iter()
                .filter(|t| prices.is_materialized(t.timestamp))
                .count();
            metrics.add("index/price_lookups/memoized_hit", hits as u64);
            metrics.add(
                "index/price_lookups/oracle_fallback",
                (incoming.txs.len() - hits) as u64,
            );
        }
        let reregistrations = {
            let _phase = metrics.span("detect");
            detect_all_with_threads(&dataset.domains, threads)
        };
        if metrics.is_enabled() {
            metrics.add("index/addresses", incoming.addresses.len() as u64);
            metrics.add("index/transfers", incoming.txs.len() as u64);
            metrics.add("index/reregistrations", reregistrations.len() as u64);
        }
        drop(build_span);
        AnalysisIndex {
            incoming,
            rereg_by_label: Positions::new(&reregistrations, |r| r.label_hash),
            rereg_by_catcher: Positions::new(&reregistrations, |r| r.new_owner),
            rereg_by_victim: Positions::new(&reregistrations, |r| r.prev_wallet),
            reregistrations,
            queries: Arc::new(QueryCounters::default()),
        }
    }

    /// [`AnalysisIndex::build`] without metrics: a forward kept for
    /// `perfbench/tracer`, deleted with ROADMAP item 1b.
    pub fn build_with_threads(
        dataset: &Dataset,
        oracle: &PriceOracle,
        threads: usize,
    ) -> AnalysisIndex {
        AnalysisIndex::build(dataset, oracle, threads, &Metrics::disabled())
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

    /// Incoming value transfers to `address` (mints, contract payments and
    /// self-sends excluded), optionally bounded to `[from, to)` — the
    /// indexed equivalent of [`Dataset::incoming`], as a borrowed slice.
    pub fn incoming(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> &[IndexedTransfer] {
        self.queries.incoming.fetch_add(1, Ordering::Relaxed);
        self.incoming.window(address, window)
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
        self.incoming.usd_and_count(address, window)
    }

    /// Number of distinct senders to `address` in a window.
    pub fn unique_senders(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> usize {
        self.queries.unique_senders.fetch_add(1, Ordering::Relaxed);
        self.incoming.distinct_counterparties(address, window)
    }

    /// Every re-registration in the dataset —
    /// [`detect_all`](crate::registrations::detect_all), computed exactly
    /// once per index.
    pub fn reregistrations(&self) -> &[ReRegistration] {
        &self.reregistrations
    }

    /// The re-registrations at `positions`, in order.
    fn at<'a>(&'a self, positions: &'a [u32]) -> impl Iterator<Item = &'a ReRegistration> + 'a {
        positions.iter().map(|&i| &self.reregistrations[i as usize])
    }

    /// The re-registration history of one domain, in detection order —
    /// one directory lookup, the read-only accessor behind the serving
    /// layer's `name-risk` query.
    pub fn reregistrations_of(
        &self,
        label_hash: LabelHash,
    ) -> impl Iterator<Item = &ReRegistration> + '_ {
        self.at(self.rereg_by_label.of(label_hash))
    }

    /// Re-registrations where `address` is the *catching* wallet
    /// (`new_owner`) — empty for an address that never caught a name.
    pub fn catches_by(&self, address: Address) -> impl Iterator<Item = &ReRegistration> + '_ {
        self.at(self.rereg_by_catcher.of(address))
    }

    /// Re-registrations where `address` is the wallet that lost the name
    /// (`prev_wallet`, the address stray funds keep resolving to).
    pub fn losses_of(&self, address: Address) -> impl Iterator<Item = &ReRegistration> + '_ {
        self.at(self.rereg_by_victim.of(address))
    }

    /// Addresses with an indexed transfer list (every crawled address).
    pub fn indexed_addresses(&self) -> usize {
        self.incoming.addresses.len()
    }

    /// Total transfers held by the index.
    pub fn indexed_transfers(&self) -> usize {
        self.incoming.txs.len()
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
    outgoing: TransferTable,
}

impl OutgoingIndex {
    /// Builds the outgoing index, pricing its rows on `threads` scoped
    /// workers; any thread count produces the identical index (the same
    /// [`shard_map`](crate::shard_map) as the incoming build).
    pub fn build_with_threads(
        dataset: &Dataset,
        oracle: &PriceOracle,
        threads: usize,
    ) -> OutgoingIndex {
        // Attribute every transfer in every crawled txlist to its sender (a
        // sender need not be a crawled address itself), then group the rows
        // by sender with one sort. (sender, timestamp, hash) totally orders
        // them, so the table is independent of which txlist a row was
        // found in; dedup then drops the second copy of a transaction
        // crawled from both ends.
        let mut sent: Vec<&TxRow> = dataset
            .transactions
            .rows()
            .iter()
            .filter(|tx| tx.is_transfer() && tx.from != tx.to && !tx.from.is_zero())
            .collect();
        sent.sort_unstable_by(|a, b| {
            a.from
                .cmp(&b.from)
                .then_with(|| a.timestamp.cmp(&b.timestamp))
                .then_with(|| a.hash.cmp(&b.hash))
        });
        sent.dedup_by(|a, b| a.from == b.from && a.hash == b.hash);
        let span = sent
            .iter()
            .fold(None, |span, tx| widen(span, (tx.timestamp, tx.timestamp)));
        let prices = &day_table(oracle, span);
        let blocks: Vec<_> = sent.chunks(BUILD_BLOCK).collect();
        let rows = shard_map(&blocks, threads, |block| {
            // The counterparty is the recipient.
            block
                .iter()
                .map(|tx| priced(tx, tx.to, prices))
                .collect::<Vec<_>>()
        });
        OutgoingIndex {
            outgoing: TransferTable::new(
                KeyColumn::grouping(sent.iter().map(|tx| tx.from)),
                rows.concat(),
            ),
        }
    }

    /// Outgoing value transfers from `address` (mints, contract payments
    /// and self-sends excluded), optionally bounded to `[from, to)`. The
    /// `from` field of each returned transfer holds the recipient.
    pub fn outgoing(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> &[IndexedTransfer] {
        self.outgoing.window(address, window)
    }

    /// Window spend and transfer count from one range lookup — O(log n)
    /// via the prefix sums.
    pub fn spend_and_count(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> (UsdCents, usize) {
        self.outgoing.usd_and_count(address, window)
    }

    /// Number of distinct recipients of `address` in a window.
    pub fn unique_recipients(
        &self,
        address: Address,
        window: Option<(Timestamp, Timestamp)>,
    ) -> usize {
        self.outgoing.distinct_counterparties(address, window)
    }

    /// Addresses with an indexed outgoing list.
    pub fn indexed_addresses(&self) -> usize {
        self.outgoing.addresses.len()
    }

    /// Total outgoing transfers held by the index.
    pub fn indexed_transfers(&self) -> usize {
        self.outgoing.txs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

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
        let index = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());
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
        let index = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());
        for &addr in ds.transactions.keys() {
            for t in index.incoming(addr, None) {
                assert_eq!(t.usd, world.oracle().to_usd(t.value, t.timestamp));
            }
        }
    }

    #[test]
    fn sharded_build_is_identical_to_sequential() {
        let (world, ds) = dataset();
        let a = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());
        for threads in [2, 3, 8] {
            let b = AnalysisIndex::build(&ds, world.oracle(), threads, &Metrics::disabled());
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
        let index = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());
        assert_eq!(index.reregistrations(), detect_all(&ds.domains).as_slice());
    }

    #[test]
    fn rereg_lookups_agree_with_linear_scans() {
        let (world, ds) = dataset();
        let index = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());
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
        let baseline = OutgoingIndex::build_with_threads(&ds, world.oracle(), 1);
        assert!(
            baseline.indexed_transfers() > 0,
            "the fixture world has outgoing transfer rows"
        );
        // Naive reference: every transfer in every crawled txlist, keyed
        // by sender, deduped by hash, ordered by (timestamp, hash).
        let mut naive_all: BTreeMap<Address, Vec<&TxRow>> = BTreeMap::new();
        for tx in ds.transactions.rows() {
            if tx.is_transfer() && tx.from != tx.to && !tx.from.is_zero() {
                naive_all.entry(tx.from).or_default().push(tx);
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
        let index = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());
        let nobody = Address::derive(b"nobody-at-all");
        assert!(index.incoming(nobody, None).is_empty());
        assert_eq!(index.income_usd(nobody, None), UsdCents::ZERO);
        assert_eq!(index.unique_senders(nobody, None), 0);
    }

    #[test]
    fn keys_sharing_their_leading_bytes_fill_one_radix_run() {
        // Every key has the same first four bytes, so one directory slot
        // holds them all and a lookup is one binary search of the column.
        let keys: Vec<Address> = (0..100u8)
            .map(|i| {
                let mut bytes = [7u8; 20];
                bytes[19] = i;
                Address(bytes)
            })
            .collect();
        let column = KeyColumn::new(keys.clone(), (0..100).map(|i| i % 3));
        assert_eq!(column.radix.windows(2).filter(|w| w[0] < w[1]).count(), 1);
        let mut row = 0;
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(column.rows(key), row..row + i % 3);
            row += i % 3;
        }
        let mut absent = keys[5];
        absent.0[19] = 200;
        assert_eq!(column.rows(absent), 0..0);
    }

    #[test]
    fn an_empty_dataset_answers_every_query_with_nothing() {
        let ds = Dataset::default();
        let oracle = PriceOracle::new();
        let nobody = Address::derive(b"nobody");
        for threads in [1, 2] {
            let index = AnalysisIndex::build(&ds, &oracle, threads, &Metrics::disabled());
            let outgoing = OutgoingIndex::build_with_threads(&ds, &oracle, threads);
            for window in [None, Some((Timestamp(5), Timestamp(9)))] {
                assert!(index.incoming(nobody, window).is_empty());
                assert_eq!(index.income_and_count(nobody, window), (UsdCents::ZERO, 0));
                assert_eq!(index.unique_senders(nobody, window), 0);
                assert!(outgoing.outgoing(nobody, window).is_empty());
                assert_eq!(
                    outgoing.spend_and_count(nobody, window),
                    (UsdCents::ZERO, 0)
                );
                assert_eq!(outgoing.unique_recipients(nobody, window), 0);
            }
            assert_eq!(index.indexed_addresses() + index.indexed_transfers(), 0);
            assert_eq!(
                outgoing.indexed_addresses() + outgoing.indexed_transfers(),
                0
            );
            assert!(index.reregistrations().is_empty());
            assert_eq!(index.reregistrations_of(LabelHash::default()).count(), 0);
            assert_eq!(index.catches_by(nobody).count(), 0);
            assert_eq!(index.losses_of(nobody).count(), 0);
        }
    }

    mod flat_layout {
        //! The flat tables against a `BTreeMap` / naive-filter reference, on
        //! keys that crowd into few radix runs.

        use super::*;
        use ens_subgraph::{DomainRecord, RegistrationEntry};
        use ens_types::{BlockNumber, Hash32, TxHash};
        use proptest::prelude::*;
        use sim_chain::{Transaction, TxKind};

        const DAY: u64 = 86_400;
        const GENESIS: u64 = 1_500_000_000;

        type Row = (Timestamp, Address, Wei, UsdCents);
        type Window = Option<(Timestamp, Timestamp)>;

        /// Key `i` of a pool: keccak bytes whose first `shared` bytes are
        /// overwritten by one of `prefixes` leading patterns. With one
        /// prefix and `shared >= 4`, every key lands in one radix run.
        fn key_bytes<const N: usize>(i: usize, shared: usize, prefixes: usize) -> [u8; N] {
            let hash = ens_types::keccak256(&(i as u64).to_be_bytes());
            let mut out = [0u8; N];
            out.copy_from_slice(&hash[..N]);
            let pattern = [0x00, 0x80, 0xff][i % prefixes];
            for b in out.iter_mut().take(shared) {
                *b = pattern;
            }
            out
        }

        /// A pool of `pool` addresses sharing leading bytes; pick `pool`
        /// (mod `pool + 1`) is the zero address, a mint's sender.
        struct Pool {
            pool: usize,
            shared: usize,
            prefixes: usize,
        }

        impl Pool {
            fn address(&self, i: usize) -> Address {
                Address(key_bytes(i, self.shared, self.prefixes))
            }

            fn pick(&self, i: usize) -> Address {
                match i % (self.pool + 1) {
                    j if j == self.pool => Address::ZERO,
                    j => self.address(j),
                }
            }

            fn label(&self, i: usize) -> LabelHash {
                LabelHash(Hash32(key_bytes(i, self.shared, self.prefixes)))
            }

            /// Transfers `(from, to, day, value, how)`: `how` picks the
            /// kind and which end each was crawled from. Domains are
            /// `(label, owners)`, registered in turn, each lapsing before
            /// the next registration.
            fn dataset(
                &self,
                txs: &[(usize, usize, u64, u64, u8)],
                domains: &[(usize, Vec<usize>)],
            ) -> Dataset {
                let mut transactions: BTreeMap<Address, Vec<Transaction>> = BTreeMap::new();
                // Some crawled addresses have no transactions at all.
                for j in (0..self.pool).step_by(5) {
                    transactions.insert(self.address(j), Vec::new());
                }
                for (n, &(from, to, day, value, how)) in txs.iter().enumerate() {
                    let tx = Transaction {
                        hash: TxHash(Hash32(ens_types::keccak256(&(n as u64).to_le_bytes()))),
                        block: BlockNumber(n as u64),
                        timestamp: Timestamp(GENESIS + day * DAY),
                        from: self.pick(from),
                        to: self.pick(to),
                        value: Wei(u128::from(value) * 1_000_000_000_000),
                        kind: match how % 4 {
                            0 => TxKind::Mint,
                            1 => TxKind::ContractPayment {
                                contract: "c".into(),
                            },
                            _ => TxKind::Transfer,
                        },
                    };
                    // Crawled from the recipient's end, the sender's, or
                    // both (a row the outgoing side must dedup). Lists are
                    // in generation order, so most are not time-sorted.
                    if how % 3 != 1 {
                        transactions.entry(tx.to).or_default().push(tx.clone());
                    }
                    if how % 3 != 0 {
                        transactions.entry(tx.from).or_default().push(tx);
                    }
                }
                let domains = domains
                    .iter()
                    .map(|(label, owners)| DomainRecord {
                        label_hash: self.label(*label),
                        registrations: owners
                            .iter()
                            .enumerate()
                            .map(|(k, &owner)| RegistrationEntry {
                                owner: self.pick(owner),
                                registered_at: Timestamp(1_000 * k as u64),
                                expires: Timestamp(1_000 * k as u64 + 500),
                                base_cost: Wei(5),
                                premium: Wei(0),
                                block: BlockNumber(k as u64),
                                tx: None,
                                legacy: false,
                            })
                            .collect(),
                        ..DomainRecord::default()
                    })
                    .collect();
                Dataset {
                    domains,
                    transactions: TxTable::from_histories(transactions),
                    ..Dataset::default()
                }
            }
        }

        /// The old outgoing layout: a map of per-sender lists, each sorted
        /// by (timestamp, hash) and deduped by hash.
        fn sent_by_sender(ds: &Dataset) -> BTreeMap<Address, Vec<&TxRow>> {
            let mut sent: BTreeMap<Address, Vec<&TxRow>> = BTreeMap::new();
            for tx in ds.transactions.rows() {
                if tx.is_transfer() && tx.from != tx.to && !tx.from.is_zero() {
                    sent.entry(tx.from).or_default().push(tx);
                }
            }
            for list in sent.values_mut() {
                list.sort_unstable_by_key(|tx| (tx.timestamp, tx.hash));
                list.dedup_by_key(|tx| tx.hash);
            }
            sent
        }

        /// `window` as the naive filters read it.
        fn inside(window: Window, t: Timestamp) -> bool {
            window.is_none_or(|(a, b)| t >= a && t < b)
        }

        /// Each transfer as a row with `counterparty`, priced by the oracle.
        fn rows<'a>(
            txs: impl Iterator<Item = &'a TxRow>,
            counterparty: impl Fn(&TxRow) -> Address,
            oracle: &PriceOracle,
        ) -> Vec<Row> {
            txs.map(|tx| {
                let usd = oracle.to_usd(tx.value, tx.timestamp);
                (tx.timestamp, counterparty(tx), tx.value, usd)
            })
            .collect()
        }

        fn indexed(slice: &[IndexedTransfer]) -> Vec<Row> {
            slice
                .iter()
                .map(|t| (t.timestamp, t.from, t.value, t.usd))
                .collect()
        }

        fn distinct(rows: &[Row]) -> usize {
            let mut parties: Vec<Address> = rows.iter().map(|r| r.1).collect();
            parties.sort_unstable();
            parties.dedup();
            parties.len()
        }

        fn total(rows: &[Row]) -> (UsdCents, usize) {
            (UsdCents(rows.iter().map(|r| r.3 .0).sum()), rows.len())
        }

        /// Every query of both indexes built at `threads`, for every probe
        /// address and window, and the three re-registration lookups,
        /// against the reference.
        fn check_against_reference(
            ds: &Dataset,
            threads: usize,
            probes: &[Address],
            labels: &[LabelHash],
            windows: &[Window],
        ) {
            let oracle = PriceOracle::new();
            let index = AnalysisIndex::build(ds, &oracle, threads, &Metrics::disabled());
            let outgoing = OutgoingIndex::build_with_threads(ds, &oracle, threads);
            let sent = sent_by_sender(ds);
            let catches = crate::registrations::detect_all(&ds.domains);
            assert_eq!(index.indexed_addresses(), ds.transactions.len());
            let incoming_total: usize = ds
                .transactions
                .keys()
                .map(|&a| ds.incoming(a, None).count())
                .sum();
            assert_eq!(index.indexed_transfers(), incoming_total);
            assert_eq!(outgoing.indexed_addresses(), sent.len());
            assert_eq!(
                outgoing.indexed_transfers(),
                sent.values().map(Vec::len).sum::<usize>()
            );
            for &addr in probes {
                for &window in windows {
                    // The naive filter, stably sorted by time as the index
                    // keeps it.
                    let mut expect = rows(ds.incoming(addr, window), |tx| tx.from, &oracle);
                    expect.sort_by_key(|r| r.0);
                    assert_eq!(indexed(index.incoming(addr, window)), expect);
                    assert_eq!(index.income_and_count(addr, window), total(&expect));
                    assert_eq!(index.income_usd(addr, window), total(&expect).0);
                    assert_eq!(index.unique_senders(addr, window), distinct(&expect));

                    let listed = sent.get(&addr).into_iter().flatten().copied();
                    let expect = rows(
                        listed.filter(|tx| inside(window, tx.timestamp)),
                        |tx| tx.to,
                        &oracle,
                    );
                    assert_eq!(indexed(outgoing.outgoing(addr, window)), expect);
                    assert_eq!(outgoing.spend_and_count(addr, window), total(&expect));
                    assert_eq!(outgoing.unique_recipients(addr, window), distinct(&expect));
                }
                let scan = |keep: &dyn Fn(&ReRegistration) -> bool| -> Vec<&ReRegistration> {
                    catches.iter().filter(|r| keep(r)).collect()
                };
                let catches_by: Vec<_> = index.catches_by(addr).collect();
                assert_eq!(catches_by, scan(&|r| r.new_owner == addr));
                let losses_of: Vec<_> = index.losses_of(addr).collect();
                assert_eq!(losses_of, scan(&|r| r.prev_wallet == addr));
            }
            assert_eq!(index.reregistrations(), catches.as_slice());
            for &label in labels {
                let history: Vec<_> = index.reregistrations_of(label).collect();
                assert_eq!(history, scan_labels(&catches, label));
            }
        }

        fn scan_labels(catches: &[ReRegistration], label: LabelHash) -> Vec<&ReRegistration> {
            catches.iter().filter(|r| r.label_hash == label).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Every query of both indexes, and the three re-registration
            /// lookups, at 1 and 2 threads, on transfer sets whose keys
            /// share leading bytes (all of them, in about one case in
            /// nine), with random, empty and inverted windows and unknown
            /// keys.
            #[test]
            fn flat_tables_answer_like_a_btreemap_reference(
                (pool, shared, prefixes) in (1usize..24, 0usize..6, 1usize..4),
                txs in proptest::collection::vec(
                    (0usize..64, 0usize..64, 0u64..400, 0u64..4_000_000, 0u8..12),
                    0..160,
                ),
                domains in proptest::collection::vec(
                    (0usize..6, proptest::collection::vec(0usize..64, 1..4)),
                    0..10,
                ),
                windows in proptest::collection::vec((0u64..420, 0u64..420), 1..6),
            ) {
                let pool = Pool { pool, shared, prefixes };
                let ds = pool.dataset(&txs, &domains);
                // Every pool key, plus unknown keys inside the same runs:
                // a pool address with its last byte flipped.
                let mut probes: Vec<Address> = (0..=pool.pool).map(|i| pool.pick(i)).collect();
                probes.extend((0..pool.pool).map(|j| {
                    let mut a = pool.address(j);
                    a.0[19] ^= 0x5a;
                    a
                }));
                let labels: Vec<LabelHash> = (0..8).map(|i| pool.label(i)).collect();
                // Raw order: inverted whenever a > b, empty when equal.
                let mut spans: Vec<Window> = vec![None];
                spans.extend(windows.iter().map(|&(a, b)| {
                    Some((Timestamp(GENESIS + a * DAY), Timestamp(GENESIS + b * DAY)))
                }));
                for threads in [1, 2] {
                    check_against_reference(&ds, threads, &probes, &labels, &spans);
                }
            }
        }
    }
}

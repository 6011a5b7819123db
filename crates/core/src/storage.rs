//! The columnar schema binding: how a [`Dataset`] maps onto the generic
//! sectioned container of `ens-columnar`.
//!
//! The format engine (framing, checksums, cursors, intern tables) lives in
//! the dependency-free `ens-columnar` crate; this module owns the *schema*
//! — which sections exist and what columns each carries. See DESIGN.md
//! §"On-disk formats" for the layout diagram and versioning policy.
//!
//! # Determinism
//!
//! Encoding walks the dataset in one fixed order — domains in crawl order
//! (each domain's fields in struct order), then transactions in owner
//! (address) order, then market events in stream order, then reverse
//! claims and labels in sorted-address order — so intern ids, and with
//! them the entire file, are byte-identical for any
//! [`CrawlConfig::threads`](crate::dataset::CrawlConfig::threads), with or
//! without a live metrics handle.
//!
//! # Equivalence with JSON
//!
//! Columnar is the *native* form; JSON stays the interchange and
//! differential-testing form. The correctness gate (enforced by the
//! round-trip tests and `storage_bench`) is that JSON → columnar → JSON
//! is byte-identical to JSON → JSON: decoding rebuilds a logically equal
//! `Dataset`, and the vendored serde serializes maps in sorted key order,
//! so logical equality implies byte equality of the re-export.
//!
//! # Reading
//!
//! [`Dataset::read_columnar`] is the one columnar decode. It takes each
//! section from an `ens_columnar::FileReader`, over a file on disk or over
//! bytes in memory behind a `std::io::Cursor` ([`Dataset::from_bytes`]), so
//! every read gets the same bounds checks and checksums.

use std::collections::HashMap;
use std::io::{Read, Seek};
use std::ops::Range;
use std::sync::Arc;

use ens_columnar::{
    push_bits, Bits, Column, ColumnarError, Cursor, FileBuilder, FileReader, FixedPool, PutLe,
    ReadError, StrPool, StrTable, NONE_ID,
};
use ens_obs::Metrics;
use ens_subgraph::{
    AddrEntry, DomainRecord, RegistrationEntry, RenewalEntry, SubdomainEntry, TransferEntry,
};
use ens_types::{
    Address, BlockNumber, EnsName, Hash32, Label, LabelHash, NameHash, Timestamp, TxHash, UsdCents,
    Wei,
};
use etherscan_sim::{AddressLabel, LabelKind, LabelService};
use opensea_sim::{MarketEvent, OpenSea};
use sim_chain::Transaction;

use crate::crawl::CrawlReport;
use crate::dataset::Dataset;
use crate::shard::{each_part, join, workers};
use crate::transactions::{ContractId, TxRow, TxTable, TxTag};

pub use ens_columnar::{MAGIC, VERSION};

/// Section ids of the version-1 dataset schema. Ids are stable: a future
/// version may add sections but never reuse or reinterpret an id.
mod section {
    /// Interned string pool (names, subdomain labels, contract tags, ...).
    pub const STRINGS: u32 = 1;
    /// Interned 20-byte address pool.
    pub const ADDRESSES: u32 = 2;
    /// Per-domain scalars and nested-entry counts.
    pub const DOMAINS: u32 = 3;
    /// All registration entries, flattened across domains.
    pub const REGISTRATIONS: u32 = 4;
    /// All renewal entries.
    pub const RENEWALS: u32 = 5;
    /// All NFT transfer entries.
    pub const TRANSFERS: u32 = 6;
    /// All resolver `addr` record changes.
    pub const ADDR_CHANGES: u32 = 7;
    /// All subdomain creations.
    pub const SUBDOMAINS: u32 = 8;
    /// Per-address transaction histories, flattened.
    pub const TRANSACTIONS: u32 = 9;
    /// The marketplace event stream.
    pub const MARKET: u32 = 10;
    /// Primary-name (reverse) claim histories.
    pub const REVERSE: u32 = 11;
    /// The explorer's address-label directory.
    pub const LABELS: u32 = 12;
    /// Observation window end + the crawl report (JSON-embedded).
    pub const META: u32 = 13;
}

/// Market event tags (column values; stable like section ids).
const TAG_LISTED: u8 = 0;
const TAG_SOLD: u8 = 1;
const TAG_CANCELLED: u8 = 2;

/// Transaction kind tags.
const TAG_TX_TRANSFER: u8 = 0;
const TAG_TX_CONTRACT: u8 = 1;
const TAG_TX_MINT: u8 = 2;

/// Label kind tags.
const TAG_LABEL_CUSTODIAL: u8 = 0;
const TAG_LABEL_COINBASE: u8 = 1;
const TAG_LABEL_CONTRACT: u8 = 2;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Shared intern state for one encode pass.
struct Interner {
    strings: StrTable,
    addrs: ens_columnar::BytesTable<20>,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            strings: StrTable::new(),
            addrs: ens_columnar::BytesTable::new(),
        }
    }

    fn addr(&mut self, a: Address) -> u32 {
        self.addrs.intern(a.0)
    }

    fn str(&mut self, s: &str) -> u32 {
        self.strings.intern(s)
    }
}

fn encode_domains(domains: &[DomainRecord], it: &mut Interner) -> [Vec<u8>; 6] {
    let n = domains.len();

    // DOMAINS: per-domain scalars + nested counts.
    let mut dom = Vec::new();
    dom.put_u32(n as u32);
    for d in domains {
        dom.put_bytes(&d.label_hash.0 .0);
    }
    for d in domains {
        dom.put_u32(match &d.name {
            Some(name) => it.str(name.label().as_str()),
            None => NONE_ID,
        });
    }
    for counts in [
        domains
            .iter()
            .map(|d| d.registrations.len())
            .collect::<Vec<_>>(),
        domains.iter().map(|d| d.renewals.len()).collect(),
        domains.iter().map(|d| d.transfers.len()).collect(),
        domains.iter().map(|d| d.addr_changes.len()).collect(),
        domains.iter().map(|d| d.subdomains.len()).collect(),
    ] {
        for c in counts {
            dom.put_u32(c as u32);
        }
    }

    // Flattened nested entries, one struct-of-arrays section each. A
    // single pass per entry type keeps intern-id assignment in the fixed
    // domain-order traversal the module docs promise.
    let regs: Vec<&RegistrationEntry> = domains.iter().flat_map(|d| &d.registrations).collect();
    let mut reg = Vec::new();
    reg.put_u32(regs.len() as u32);
    for e in &regs {
        reg.put_u32(it.addr(e.owner));
    }
    for e in &regs {
        reg.put_u64(e.registered_at.0);
    }
    for e in &regs {
        reg.put_u64(e.expires.0);
    }
    for e in &regs {
        reg.put_u128(e.base_cost.0);
    }
    for e in &regs {
        reg.put_u128(e.premium.0);
    }
    for e in &regs {
        reg.put_u64(e.block.0);
    }
    let legacy: Vec<bool> = regs.iter().map(|e| e.legacy).collect();
    push_bits(&mut reg, &legacy);
    push_tx_column(&mut reg, regs.iter().map(|e| e.tx));

    let rens: Vec<&RenewalEntry> = domains.iter().flat_map(|d| &d.renewals).collect();
    let mut ren = Vec::new();
    ren.put_u32(rens.len() as u32);
    for e in &rens {
        ren.put_u64(e.at.0);
    }
    for e in &rens {
        ren.put_u64(e.new_expiry.0);
    }
    for e in &rens {
        ren.put_u128(e.cost.0);
    }
    for e in &rens {
        ren.put_u64(e.block.0);
    }
    push_tx_column(&mut ren, rens.iter().map(|e| e.tx));

    let xfers: Vec<&TransferEntry> = domains.iter().flat_map(|d| &d.transfers).collect();
    let mut xfer = Vec::new();
    xfer.put_u32(xfers.len() as u32);
    for e in &xfers {
        xfer.put_u64(e.at.0);
    }
    for e in &xfers {
        xfer.put_u32(it.addr(e.from));
    }
    for e in &xfers {
        xfer.put_u32(it.addr(e.to));
    }
    for e in &xfers {
        xfer.put_u64(e.block.0);
    }

    let addrs: Vec<&AddrEntry> = domains.iter().flat_map(|d| &d.addr_changes).collect();
    let mut addr = Vec::new();
    addr.put_u32(addrs.len() as u32);
    for e in &addrs {
        addr.put_u64(e.at.0);
    }
    for e in &addrs {
        addr.put_u32(it.addr(e.addr));
    }

    let subs: Vec<&SubdomainEntry> = domains.iter().flat_map(|d| &d.subdomains).collect();
    let mut sub = Vec::new();
    sub.put_u32(subs.len() as u32);
    for e in &subs {
        sub.put_bytes(&e.node.0 .0);
    }
    for e in &subs {
        sub.put_u32(it.str(&e.label));
    }
    for e in &subs {
        sub.put_u32(it.addr(e.owner));
    }
    for e in &subs {
        sub.put_u64(e.at.0);
    }

    [dom, reg, ren, xfer, addr, sub]
}

/// Presence bitmap + hashes-for-present, the shape every `Option<TxHash>`
/// column shares.
fn push_tx_column(buf: &mut Vec<u8>, txs: impl Iterator<Item = Option<TxHash>> + Clone) {
    let present: Vec<bool> = txs.clone().map(|t| t.is_some()).collect();
    push_bits(buf, &present);
    for tx in txs.flatten() {
        buf.put_bytes(&tx.0 .0);
    }
}

/// The transaction table's TRANSACTIONS section: owners (strictly
/// ascending), row counts, then one column per row field. Addresses intern
/// in that order — every owner, then every `from`, then every `to` — and
/// contract names in row order.
fn encode_transactions(table: &TxTable, it: &mut Interner) -> Vec<u8> {
    let rows = table.rows();
    // Hash, block, timestamp, from, to, value and tag; contract ids extra.
    let mut buf = Vec::with_capacity(4 + 8 * table.len() + 73 * rows.len());
    buf.put_u32(table.len() as u32);
    for owner in table.keys() {
        buf.put_u32(it.addr(*owner));
    }
    for (_, history) in table.iter() {
        buf.put_u32(history.len() as u32);
    }
    for tx in rows {
        buf.put_bytes(&tx.hash.0 .0);
    }
    for tx in rows {
        buf.put_u64(tx.block.0);
    }
    for tx in rows {
        buf.put_u64(tx.timestamp.0);
    }
    for tx in rows {
        buf.put_u32(it.addr(tx.from));
    }
    for tx in rows {
        buf.put_u32(it.addr(tx.to));
    }
    for tx in rows {
        buf.put_u128(tx.value.0);
    }
    for tx in rows {
        buf.put_u8(match tx.tag {
            TxTag::Transfer => TAG_TX_TRANSFER,
            TxTag::ContractCall(_) => TAG_TX_CONTRACT,
            TxTag::Mint => TAG_TX_MINT,
        });
    }
    // Contract names only for the contract-call rows, in row order.
    for tx in rows {
        if let TxTag::ContractCall(id) = tx.tag {
            buf.put_u32(it.str(table.contract(id)));
        }
    }
    buf
}

fn encode_market(events: &[MarketEvent], it: &mut Interner) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u32(events.len() as u32);
    for e in events {
        buf.put_u8(match e {
            MarketEvent::Listed { .. } => TAG_LISTED,
            MarketEvent::Sold { .. } => TAG_SOLD,
            MarketEvent::Cancelled { .. } => TAG_CANCELLED,
        });
    }
    for e in events {
        buf.put_bytes(&e.token().0 .0);
    }
    for e in events {
        let seller = match e {
            MarketEvent::Listed { seller, .. }
            | MarketEvent::Sold { seller, .. }
            | MarketEvent::Cancelled { seller, .. } => *seller,
        };
        buf.put_u32(it.addr(seller));
    }
    for e in events {
        buf.put_u64(e.at().0);
    }
    // Prices for Listed + Sold rows, buyers for Sold rows, in row order.
    for e in events {
        match e {
            MarketEvent::Listed { price, .. } | MarketEvent::Sold { price, .. } => {
                buf.put_u128(price.0)
            }
            MarketEvent::Cancelled { .. } => {}
        }
    }
    for e in events {
        if let MarketEvent::Sold { buyer, .. } = e {
            buf.put_u32(it.addr(*buyer));
        }
    }
    buf
}

fn encode_reverse(
    reverse: &HashMap<Address, Vec<(Timestamp, String)>>,
    it: &mut Interner,
) -> Vec<u8> {
    let mut owners: Vec<&Address> = reverse.keys().collect();
    owners.sort_unstable();
    let mut buf = Vec::new();
    buf.put_u32(owners.len() as u32);
    for owner in &owners {
        buf.put_u32(it.addr(**owner));
    }
    for owner in &owners {
        buf.put_u32(reverse[owner].len() as u32);
    }
    for owner in &owners {
        for (at, _) in &reverse[owner] {
            buf.put_u64(at.0);
        }
    }
    for owner in &owners {
        for (_, name) in &reverse[owner] {
            buf.put_u32(it.str(name));
        }
    }
    buf
}

fn encode_labels(labels: &LabelService, it: &mut Interner) -> Vec<u8> {
    // Kind-major, address-sorted within each kind (the only deterministic
    // enumeration the service's public API offers).
    let kinds = [
        (LabelKind::CustodialExchange, TAG_LABEL_CUSTODIAL),
        (LabelKind::Coinbase, TAG_LABEL_COINBASE),
        (LabelKind::Contract, TAG_LABEL_CONTRACT),
    ];
    let rows: Vec<(Address, &AddressLabel, u8)> = kinds
        .iter()
        .flat_map(|(kind, tag)| {
            labels
                .addresses_of_kind(*kind)
                .into_iter()
                .map(|a| {
                    (
                        a,
                        labels.label(a).expect("listed address has a label"),
                        *tag,
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let mut buf = Vec::new();
    buf.put_u32(rows.len() as u32);
    for (a, _, _) in &rows {
        buf.put_u32(it.addr(*a));
    }
    for (_, l, _) in &rows {
        buf.put_u32(it.str(&l.name));
    }
    for (_, _, tag) in &rows {
        buf.put_u8(*tag);
    }
    buf
}

fn encode_meta(ds: &Dataset) -> serde_json::Result<Vec<u8>> {
    // The crawl report is small, irregular (nested stats, gap lists) and
    // already round-trips byte-exactly through JSON, so it rides along as
    // an embedded JSON blob — the bulky event data is what earns columns.
    let report = serde_json::to_string(&ds.crawl_report)?;
    let mut buf = Vec::new();
    buf.put_u64(ds.observation_end.0);
    buf.put_u64(report.len() as u64);
    buf.put_bytes(report.as_bytes());
    Ok(buf)
}

/// Records the size and the 16-bit fingerprint of a written columnar file.
pub(crate) fn record_file(metrics: &Metrics, bytes: usize, checksum: u64) {
    if metrics.is_enabled() {
        metrics.add("columnar/encode/bytes", bytes as u64);
        metrics.add("columnar/encode/sections", 13);
        metrics.add("columnar/encode/checksum", checksum & 0xFFFF);
    }
}

impl Dataset {
    /// Encodes the dataset into the columnar container format under a
    /// `columnar/encode` span, recording output bytes, per-section bytes
    /// and intern-table hit rates. Byte-identical for any thread count (see
    /// the module docs); instrumentation never changes the encoded bytes.
    pub fn to_columnar(&self, metrics: &Metrics) -> serde_json::Result<Vec<u8>> {
        let _span = metrics.span("columnar/encode");
        let file = self.columnar_sections(metrics)?;
        let mut out = Vec::with_capacity(file.file_len());
        let checksum = file
            .write_to(&mut out)
            .expect("writing into a Vec cannot fail");
        record_file(metrics, out.len(), checksum);
        Ok(out)
    }

    /// Encodes every section of the dataset, recording per-section bytes
    /// and intern-table hit rates; framing them into a file is the
    /// caller's, in memory ([`Dataset::to_columnar`]) or straight into a
    /// file ([`Dataset::save`]).
    pub(crate) fn columnar_sections(&self, metrics: &Metrics) -> serde_json::Result<FileBuilder> {
        let mut it = Interner::new();

        let [dom, reg, ren, xfer, addr, sub] = encode_domains(&self.domains, &mut it);
        let txs = encode_transactions(&self.transactions, &mut it);
        let market = encode_market(self.market.all_events(), &mut it);
        let reverse = encode_reverse(&self.reverse_claims, &mut it);
        let labels = encode_labels(&self.labels, &mut it);
        let meta = encode_meta(self)?;

        // Pools encode last (every id is now assigned) but lead the file,
        // so a reader materializes them first (see `decode_sections`).
        let mut strings = Vec::new();
        it.strings.encode(&mut strings);
        let mut addresses = Vec::new();
        it.addrs.encode(&mut addresses);

        if metrics.is_enabled() {
            metrics.add("columnar/encode/str_lookups", it.strings.lookups());
            metrics.add("columnar/encode/str_hits", it.strings.hits());
            metrics.add("columnar/encode/addr_lookups", it.addrs.lookups());
            metrics.add("columnar/encode/addr_hits", it.addrs.hits());
        }

        let mut file = FileBuilder::new();
        let sections = [
            (section::STRINGS, strings),
            (section::ADDRESSES, addresses),
            (section::DOMAINS, dom),
            (section::REGISTRATIONS, reg),
            (section::RENEWALS, ren),
            (section::TRANSFERS, xfer),
            (section::ADDR_CHANGES, addr),
            (section::SUBDOMAINS, sub),
            (section::TRANSACTIONS, txs),
            (section::MARKET, market),
            (section::REVERSE, reverse),
            (section::LABELS, labels),
            (section::META, meta),
        ];
        for (id, payload) in sections {
            if metrics.is_enabled() {
                metrics.add(
                    &format!("columnar/encode/section_{id}_bytes"),
                    payload.len() as u64,
                );
            }
            file.add(id, payload);
        }
        Ok(file)
    }

    /// Decodes a columnar file read from `file`, one section at a time,
    /// under a `columnar/decode` span: the preamble and directory first,
    /// then each section in turn — read, checksummed, decoded and dropped —
    /// with the intern pools first and kept until the last section. The
    /// inverse of [`Dataset::to_columnar`]: the result is logically equal
    /// to the encoded dataset, and its [`Dataset::to_json`] export is
    /// byte-identical to the original's. A file on disk is never in memory
    /// whole beside its decoded copy; bytes already in memory are read
    /// through a `std::io::Cursor`.
    ///
    /// The domain and transaction stages split their rows into up to
    /// `threads` runs, decoded side by side into disjoint parts of one
    /// preallocated output (DESIGN.md §6, *Self-balancing sharding*). The
    /// dataset, and the error a corrupt file gives, are the same at any
    /// thread count.
    pub fn read_columnar<R: Read + Seek + Send>(
        file: R,
        threads: usize,
        metrics: &Metrics,
    ) -> Result<Dataset, ReadError> {
        let _span = metrics.span("columnar/decode");
        let mut reader = FileReader::open(file)?;
        let dataset = decode_sections(&mut reader, threads, metrics)?;
        reader.finish()?;
        Ok(dataset)
    }
}

/// Decodes every section of the dataset schema from `reader`, one stage
/// at a time under its own child span: `pools`, `domains` (six sections),
/// `transactions`, and `other` (market, reverse claims, labels and meta).
/// Each stage's payloads are dropped when it ends; the pools live until
/// the last.
///
/// The domain and transaction stages split their rows over `threads`,
/// one stage's rows at a time. Above one thread, the transaction payload
/// is read while the domains decode, and the `other` stage runs beside the
/// transactions, on a worker with a forked metrics handle. At one thread
/// the same steps run in that order on the calling thread. Either way a
/// corrupt file fails with the error the earliest step meets.
fn decode_sections<R: Read + Seek + Send>(
    reader: &mut FileReader<R>,
    threads: usize,
    metrics: &Metrics,
) -> Result<Dataset, ReadError> {
    let pools_span = metrics.span("pools");
    let strings = reader.section(section::STRINGS)?;
    let addresses = reader.section(section::ADDRESSES)?;
    let pools = Pools::decode(&strings, &addresses)?;
    drop(pools_span);

    let ((domains, events), tx_payload) = {
        let _stage = metrics.span("domains");
        let mut payloads: [Vec<u8>; 6] = Default::default();
        for (payload, id) in payloads.iter_mut().zip([
            section::DOMAINS,
            section::REGISTRATIONS,
            section::RENEWALS,
            section::TRANSFERS,
            section::ADDR_CHANGES,
            section::SUBDOMAINS,
        ]) {
            *payload = reader.section(id)?;
        }
        let (domains, tx_payload) = join(
            threads,
            || decode_domains(payloads.each_ref().map(|p| &**p), &pools, threads),
            || reader.section(section::TRANSACTIONS),
        );
        (domains?, tx_payload?)
    };

    let side = metrics.fork();
    let (transactions, other) = join(
        threads,
        || {
            let _stage = metrics.span("transactions");
            // Taken by value: the payload goes as soon as its rows are in.
            let payload = tx_payload;
            decode_transactions(&payload, &pools, threads)
        },
        || {
            let _stage = side.span("other");
            let market =
                OpenSea::from_events(decode_market(&reader.section(section::MARKET)?, &pools)?);
            let reverse_claims = decode_reverse(&reader.section(section::REVERSE)?, &pools)?;
            let labels = decode_labels(&reader.section(section::LABELS)?, &pools)?;
            let (observation_end, crawl_report) = decode_meta(&reader.section(section::META)?)?;
            Ok::<_, ReadError>((
                market,
                reverse_claims,
                labels,
                observation_end,
                crawl_report,
            ))
        },
    );
    let transactions = transactions?;
    let (market, reverse_claims, labels, observation_end, crawl_report) = other?;

    if metrics.is_enabled() {
        metrics.add("columnar/decode/bytes", reader.file_len() as u64);
        metrics.add("columnar/decode/sections", reader.section_count() as u64);
        metrics.add("columnar/decode/strings", pools.strings.len() as u64);
        metrics.add("columnar/decode/addresses", pools.addrs.len() as u64);
        metrics.add("columnar/decode/domains", domains.len() as u64);
        metrics.add("columnar/decode/events", events as u64);
    }
    Ok(Dataset {
        domains,
        transactions,
        observation_end,
        labels: Arc::new(labels),
        reverse_claims: Arc::new(reverse_claims),
        market,
        crawl_report,
    })
}

/// Reads what [`encode_meta`] wrote: the observation end and the crawl
/// report.
fn decode_meta(payload: &[u8]) -> Result<(Timestamp, CrawlReport), ColumnarError> {
    let mut cur = Cursor::new(payload, "meta");
    let observation_end = Timestamp(cur.take_u64()?);
    let report_len = cur.take_len()?;
    let report_bytes = cur.take_bytes(report_len)?;
    cur.expect_end()?;
    let report_json = std::str::from_utf8(report_bytes)
        .map_err(|e| ColumnarError::Corrupt(format!("meta: crawl report not UTF-8: {e}")))?;
    let crawl_report: CrawlReport = serde_json::from_str(report_json)
        .map_err(|e| ColumnarError::Corrupt(format!("meta: crawl report: {e}")))?;
    Ok((observation_end, crawl_report))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The two intern pools every section resolves its ids against, both
/// borrowed from their section payloads.
struct Pools<'a> {
    strings: StrPool<'a>,
    addrs: FixedPool<'a, 20>,
}

impl<'a> Pools<'a> {
    /// Decodes the pools from the payloads `StrTable::encode` and
    /// `BytesTable::encode` wrote.
    fn decode(strings: &'a [u8], addrs: &'a [u8]) -> Result<Pools<'a>, ColumnarError> {
        let mut cur = Cursor::new(strings, "strings");
        let strings = StrPool::decode(&mut cur)?;
        cur.expect_end()?;
        let mut cur = Cursor::new(addrs, "addresses");
        let addrs = FixedPool::<20>::decode(&mut cur)?;
        cur.expect_end()?;
        Ok(Pools { strings, addrs })
    }

    fn addr(&self, id: u32) -> Result<Address, ColumnarError> {
        Ok(Address(self.addrs.get(id)?))
    }
}

/// Splits `0..items` into one run per worker of a loop over `items` at
/// `threads` (see [`workers`]). Of `parts` runs, run `k` starts at
/// `start(k, parts)`, which must be 0 at `k = 0` and nondecreasing in `k`;
/// the last run ends at `items`.
fn split_runs(
    items: usize,
    threads: usize,
    start: impl Fn(usize, usize) -> usize,
) -> Vec<Range<usize>> {
    let parts = workers(items, threads);
    let mut cuts: Vec<usize> = (0..parts).map(|k| start(k, parts)).collect();
    cuts.push(items);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The first `k` of `parts` equal shares of `total`.
fn share(total: usize, k: usize, parts: usize) -> usize {
    (total as u128 * k as u128 / parts as u128) as usize
}

/// Cuts `out` into consecutive parts of the given lengths.
fn cut_mut<T>(mut out: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (part, rest) = std::mem::take(&mut out).split_at_mut(len);
        out = rest;
        part
    })
    .collect()
}

/// Builds row `j` of a nested section from `j` and, in a section with an
/// `Option<TxHash>` column, the row's hash.
trait Entry<T>: Fn(usize, Option<TxHash>) -> Result<T, ColumnarError> + Sync {}

impl<T, F: Fn(usize, Option<TxHash>) -> Result<T, ColumnarError> + Sync> Entry<T> for F {}

/// A flattened nested-entry section, read in place: `rows` rows, row `j`
/// built by `entry`.
struct Nested<'a, F> {
    what: &'static str,
    rows: usize,
    txs: Option<TxColumn<'a>>,
    entry: F,
}

impl<'a, T, F: Fn(usize, Option<TxHash>) -> Result<T, ColumnarError>> Nested<'a, F> {
    fn exhausted(&self, wanted: usize) -> ColumnarError {
        ColumnarError::Corrupt(format!(
            "domains: {} column exhausted (wanted {wanted} more)",
            self.what
        ))
    }

    /// Hands the rows from `first` on out to consecutive domains. A run
    /// can only start past the end after a run that fails (see
    /// [`decode_domains`]), whose error is the one reported.
    fn claims(&self, first: usize) -> Result<Claims<'_, 'a, F>, ColumnarError> {
        if first > self.rows {
            return Err(self.exhausted(first - self.rows));
        }
        Ok(Claims {
            nested: self,
            next: first,
            next_hash: self.txs.as_ref().map_or(0, |txs| txs.present.rank(first)),
        })
    }

    /// Fails unless `claimed`, the rows the domains claimed, is every row;
    /// returns the row count.
    fn finish(&self, claimed: usize) -> Result<usize, ColumnarError> {
        let left = self.rows - claimed;
        if left != 0 {
            return Err(ColumnarError::Corrupt(format!(
                "domains: {left} unclaimed {} rows",
                self.what
            )));
        }
        Ok(self.rows)
    }
}

/// Hands a [`Nested`] section's rows out to domains in order: each domain
/// claims the next `k` rows, built straight into a `Vec` of capacity `k`.
struct Claims<'n, 'a, F> {
    nested: &'n Nested<'a, F>,
    next: usize,
    /// The next present hash of the section's transaction column.
    next_hash: usize,
}

impl<T, F: Fn(usize, Option<TxHash>) -> Result<T, ColumnarError>> Claims<'_, '_, F> {
    fn claim(&mut self, k: u32) -> Result<Vec<T>, ColumnarError> {
        let k = k as usize;
        let nested = self.nested;
        // The rows left are backed by column bytes; checking `k` against
        // them first bounds the allocation below.
        if k > nested.rows - self.next {
            return Err(nested.exhausted(k));
        }
        let mut entries = Vec::with_capacity(k);
        for j in self.next..self.next + k {
            let tx = nested.txs.as_ref().and_then(|txs| {
                txs.present.get(j).then(|| {
                    self.next_hash += 1;
                    TxHash(Hash32(txs.hashes.get(self.next_hash - 1)))
                })
            });
            entries.push((nested.entry)(j, tx)?);
        }
        self.next += k;
        Ok(entries)
    }
}

/// Reads the six payloads [`encode_domains`] wrote, in its order. The
/// domains split into up to `threads` runs of equal length, each decoded
/// into its own part of one preallocated vector. A run's first row in each
/// nested section is the sum of the counts before it. The domains are the
/// same at any thread count, and so is the error of a corrupt section:
/// the checks run in one-thread order within a run, and the lowest failing
/// run's error wins. (A run whose first row lies past a section's end can
/// only follow a run that fails, since the domain whose count overruns the
/// section lies before it.)
fn decode_domains<'a>(
    [domains, registrations, renewals, transfers, addr_changes, subdomains]: [&'a [u8]; 6],
    pools: &'a Pools<'a>,
    threads: usize,
) -> Result<(Vec<DomainRecord>, usize), ColumnarError> {
    let mut cur = Cursor::new(domains, "domains");
    let n = cur.take_u32()? as usize;
    let label_hashes = cur.take_column::<[u8; 32]>(n)?;
    let name_ids = cur.take_column::<u32>(n)?;
    let counts: [Column<u32>; 5] = [
        cur.take_column(n)?,
        cur.take_column(n)?,
        cur.take_column(n)?,
        cur.take_column(n)?,
        cur.take_column(n)?,
    ];
    cur.expect_end()?;
    let [reg_counts, ren_counts, xfer_counts, addr_counts, sub_counts] = counts;

    let regs = registration_rows(registrations, pools)?;
    let rens = renewal_rows(renewals)?;
    let xfers = transfer_rows(transfers, pools)?;
    let addrs = addr_change_rows(addr_changes, pools)?;
    let subs = subdomain_rows(subdomains, pools)?;

    let runs = split_runs(n, threads, |k, parts| share(n, k, parts));
    // Each run's first row per nested section; `firsts[runs.len()]` holds
    // the totals. Saturating: a total past `usize` overruns its section.
    let mut firsts = vec![[0usize; 5]; runs.len() + 1];
    let mut sums = [0usize; 5];
    for (run, first) in runs.iter().zip(&mut firsts[1..]) {
        for i in run.clone() {
            for (sum, column) in sums.iter_mut().zip(&counts) {
                *sum = sum.saturating_add(column.get(i) as usize);
            }
        }
        *first = sums;
    }

    let mut out = vec![DomainRecord::default(); n];
    let parts = cut_mut(&mut out, runs.iter().map(|run| run.len()));
    let parts: Vec<_> = parts.into_iter().zip(&runs).zip(&firsts).collect();
    each_part(
        parts,
        threads,
        |((part, run), &[reg, ren, xfer, addr, sub])| {
            let mut regs = regs.claims(reg)?;
            let mut rens = rens.claims(ren)?;
            let mut xfers = xfers.claims(xfer)?;
            let mut addrs = addrs.claims(addr)?;
            let mut subs = subs.claims(sub)?;
            for (i, slot) in run.clone().zip(part) {
                let name = match pools.strings.get_opt(name_ids.get(i))? {
                    None => None,
                    Some(s) => Some(EnsName::from_label(Label::parse_any(s).map_err(|e| {
                        ColumnarError::Corrupt(format!("domains: bad name {s:?}: {e}"))
                    })?)),
                };
                *slot = DomainRecord {
                    label_hash: LabelHash(Hash32(label_hashes.get(i))),
                    name,
                    registrations: regs.claim(reg_counts.get(i))?,
                    renewals: rens.claim(ren_counts.get(i))?,
                    transfers: xfers.claim(xfer_counts.get(i))?,
                    addr_changes: addrs.claim(addr_counts.get(i))?,
                    subdomains: subs.claim(sub_counts.get(i))?,
                };
            }
            Ok(())
        },
    )?;
    let [reg, ren, xfer, addr, sub] = firsts[runs.len()];
    let events = regs.finish(reg)?
        + rens.finish(ren)?
        + xfers.finish(xfer)?
        + addrs.finish(addr)?
        + subs.finish(sub)?;
    Ok((out, events))
}

/// The rows a column of per-owner counts claims in all.
fn total_rows(counts: Column<'_, u32>, section: &str) -> Result<usize, ColumnarError> {
    counts
        .iter()
        .try_fold(0usize, |sum, c| sum.checked_add(c as usize))
        .ok_or_else(|| ColumnarError::Corrupt(format!("{section}: row count overflows")))
}

/// An `Option<TxHash>` column written by [`push_tx_column`]: the presence
/// bitmap, and the hashes of the present rows.
struct TxColumn<'a> {
    present: Bits<'a>,
    hashes: Column<'a, [u8; 32]>,
}

impl<'a> TxColumn<'a> {
    fn take(cur: &mut Cursor<'a>, n: usize) -> Result<TxColumn<'a>, ColumnarError> {
        let present = cur.take_bits(n)?;
        let hashes = cur.take_column(present.count_ones())?;
        Ok(TxColumn { present, hashes })
    }
}

fn registration_rows<'a>(
    payload: &'a [u8],
    pools: &'a Pools<'a>,
) -> Result<Nested<'a, impl Entry<RegistrationEntry> + 'a>, ColumnarError> {
    let mut cur = Cursor::new(payload, "registrations");
    let n = cur.take_u32()? as usize;
    let owners = cur.take_column::<u32>(n)?;
    let registered_at = cur.take_column::<u64>(n)?;
    let expires = cur.take_column::<u64>(n)?;
    let base_cost = cur.take_column::<u128>(n)?;
    let premium = cur.take_column::<u128>(n)?;
    let blocks = cur.take_column::<u64>(n)?;
    let legacy = cur.take_bits(n)?;
    let txs = TxColumn::take(&mut cur, n)?;
    cur.expect_end()?;
    Ok(Nested {
        what: "registration",
        rows: n,
        txs: Some(txs),
        entry: move |j, tx| {
            Ok(RegistrationEntry {
                owner: pools.addr(owners.get(j))?,
                registered_at: Timestamp(registered_at.get(j)),
                expires: Timestamp(expires.get(j)),
                base_cost: Wei(base_cost.get(j)),
                premium: Wei(premium.get(j)),
                block: BlockNumber(blocks.get(j)),
                tx,
                legacy: legacy.get(j),
            })
        },
    })
}
fn renewal_rows(
    payload: &[u8],
) -> Result<Nested<'_, impl Entry<RenewalEntry> + '_>, ColumnarError> {
    let mut cur = Cursor::new(payload, "renewals");
    let n = cur.take_u32()? as usize;
    let at = cur.take_column::<u64>(n)?;
    let new_expiry = cur.take_column::<u64>(n)?;
    let cost = cur.take_column::<u128>(n)?;
    let blocks = cur.take_column::<u64>(n)?;
    let txs = TxColumn::take(&mut cur, n)?;
    cur.expect_end()?;
    Ok(Nested {
        what: "renewal",
        rows: n,
        txs: Some(txs),
        entry: move |j, tx| {
            Ok(RenewalEntry {
                at: Timestamp(at.get(j)),
                new_expiry: Timestamp(new_expiry.get(j)),
                cost: Wei(cost.get(j)),
                block: BlockNumber(blocks.get(j)),
                tx,
            })
        },
    })
}

fn transfer_rows<'a>(
    payload: &'a [u8],
    pools: &'a Pools<'a>,
) -> Result<Nested<'a, impl Entry<TransferEntry> + 'a>, ColumnarError> {
    let mut cur = Cursor::new(payload, "transfers");
    let n = cur.take_u32()? as usize;
    let at = cur.take_column::<u64>(n)?;
    let from = cur.take_column::<u32>(n)?;
    let to = cur.take_column::<u32>(n)?;
    let blocks = cur.take_column::<u64>(n)?;
    cur.expect_end()?;
    Ok(Nested {
        what: "transfer",
        rows: n,
        txs: None,
        entry: move |j, _| {
            Ok(TransferEntry {
                at: Timestamp(at.get(j)),
                from: pools.addr(from.get(j))?,
                to: pools.addr(to.get(j))?,
                block: BlockNumber(blocks.get(j)),
            })
        },
    })
}

fn addr_change_rows<'a>(
    payload: &'a [u8],
    pools: &'a Pools<'a>,
) -> Result<Nested<'a, impl Entry<AddrEntry> + 'a>, ColumnarError> {
    let mut cur = Cursor::new(payload, "addr-changes");
    let n = cur.take_u32()? as usize;
    let at = cur.take_column::<u64>(n)?;
    let addrs = cur.take_column::<u32>(n)?;
    cur.expect_end()?;
    Ok(Nested {
        what: "addr-change",
        rows: n,
        txs: None,
        entry: move |j, _| {
            Ok(AddrEntry {
                at: Timestamp(at.get(j)),
                addr: pools.addr(addrs.get(j))?,
            })
        },
    })
}

fn subdomain_rows<'a>(
    payload: &'a [u8],
    pools: &'a Pools<'a>,
) -> Result<Nested<'a, impl Entry<SubdomainEntry> + 'a>, ColumnarError> {
    let mut cur = Cursor::new(payload, "subdomains");
    let n = cur.take_u32()? as usize;
    let nodes = cur.take_column::<[u8; 32]>(n)?;
    let labels = cur.take_column::<u32>(n)?;
    let owners = cur.take_column::<u32>(n)?;
    let at = cur.take_column::<u64>(n)?;
    cur.expect_end()?;
    Ok(Nested {
        what: "subdomain",
        rows: n,
        txs: None,
        entry: move |j, _| {
            Ok(SubdomainEntry {
                node: NameHash(Hash32(nodes.get(j))),
                label: pools.strings.get(labels.get(j))?.to_string(),
                owner: pools.addr(owners.get(j))?,
                at: Timestamp(at.get(j)),
            })
        },
    })
}

/// Reads the TRANSACTIONS section [`encode_transactions`] wrote. The
/// owners split into up to `threads` runs holding equal shares of the
/// rows, each decoded into its own parts of the table's preallocated
/// owner and row arrays. The contract names are numbered first, in one
/// pass over the contract column, so their ids keep first-seen row order
/// at any thread count. As in [`decode_domains`], the checks run in
/// one-thread order within a run and the lowest failing run's error wins.
fn decode_transactions(
    payload: &[u8],
    pools: &Pools<'_>,
    threads: usize,
) -> Result<TxTable, ColumnarError> {
    let mut cur = Cursor::new(payload, "transactions");
    let owners = cur.take_u32()? as usize;
    let owner_ids = cur.take_column::<u32>(owners)?;
    let tx_counts = cur.take_column::<u32>(owners)?;
    let n = total_rows(tx_counts, "transactions")?;
    if u32::try_from(n).is_err() {
        return Err(ColumnarError::Corrupt(format!(
            "transactions: {n} rows do not fit one table"
        )));
    }
    let hashes = cur.take_column::<[u8; 32]>(n)?;
    let blocks = cur.take_column::<u64>(n)?;
    let timestamps = cur.take_column::<u64>(n)?;
    let from = cur.take_column::<u32>(n)?;
    let to = cur.take_column::<u32>(n)?;
    let values = cur.take_column::<u128>(n)?;
    let tags = cur.take_bytes(n)?;
    let contract_count = tags.iter().filter(|&&t| t == TAG_TX_CONTRACT).count();
    let contracts = cur.take_column::<u32>(contract_count)?;
    cur.expect_end()?;

    // The table numbers its contract names itself, in first-seen row
    // order; `ids` maps each of the file's string ids onto its number, or
    // onto the error the row holding it reports.
    let mut table = TxTable::with_capacity(0, 0);
    let mut ids: HashMap<u32, Result<ContractId, ColumnarError>> = HashMap::new();
    for string in contracts.iter() {
        ids.entry(string).or_insert_with(|| {
            pools
                .strings
                .get(string)
                .map(|name| table.contract_id(name))
        });
    }

    // `n` fits a `u32`, so every running total does.
    let mut starts = Vec::with_capacity(owners + 1);
    starts.push(0u32);
    for count in tx_counts.iter() {
        starts.push(starts[starts.len() - 1] + count);
    }
    // Each run starts at the first owner whose rows start at or past its
    // share of the rows.
    let runs = split_runs(owners, threads, |k, parts| {
        starts[..owners].partition_point(|&start| (start as usize) < share(n, k, parts))
    });
    // Each run's first contract-column entry: the contract rows before it.
    let mut first_contracts = Vec::with_capacity(runs.len());
    let mut contracts_before = 0;
    let mut row = 0;
    for run in &runs {
        first_contracts.push(contracts_before);
        let end = starts[run.end] as usize;
        contracts_before += tags[row..end]
            .iter()
            .filter(|&&t| t == TAG_TX_CONTRACT)
            .count();
        row = end;
    }

    let placeholder = TxRow {
        hash: TxHash(Hash32([0; 32])),
        block: BlockNumber(0),
        timestamp: Timestamp(0),
        from: Address([0; 20]),
        to: Address([0; 20]),
        value: Wei(0),
        tag: TxTag::Transfer,
    };
    let mut owner_out = vec![Address([0; 20]); owners];
    let mut rows = vec![placeholder; n];
    let row_lens = runs
        .iter()
        .map(|run| (starts[run.end] - starts[run.start]) as usize);
    let parts: Vec<_> = cut_mut(&mut owner_out, runs.iter().map(|run| run.len()))
        .into_iter()
        .zip(cut_mut(&mut rows, row_lens))
        .zip(&runs)
        .zip(first_contracts)
        .collect();
    each_part(
        parts,
        threads,
        |(((owner_part, row_part), run), first_contract)| {
            // The run's first owner must lie above the one before it. If that
            // one has no address, the run before this one fails first.
            let mut prev = run
                .start
                .checked_sub(1)
                .and_then(|i| pools.addr(owner_ids.get(i)).ok());
            let mut contract_strings = (first_contract..).map(|k| contracts.get(k));
            let mut slots = row_part.iter_mut();
            for (i, slot) in run.clone().zip(owner_part) {
                let owner = pools.addr(owner_ids.get(i))?;
                // The encoder walks the owners in ascending order; holding the
                // file to that also rules out a duplicate.
                if prev.is_some_and(|prev| prev >= owner) {
                    return Err(ColumnarError::Corrupt(format!(
                    "transactions: owner {owner:?} out of order (owners must be strictly ascending)"
                )));
                }
                *slot = owner;
                prev = Some(owner);
                let run_rows = starts[i] as usize..starts[i + 1] as usize;
                for ((j, &tag), slot) in run_rows.clone().zip(&tags[run_rows]).zip(&mut slots) {
                    let tag = match tag {
                        TAG_TX_TRANSFER => TxTag::Transfer,
                        TAG_TX_CONTRACT => {
                            let string = contract_strings.next().expect("counted");
                            TxTag::ContractCall(ids[&string].clone()?)
                        }
                        TAG_TX_MINT => TxTag::Mint,
                        other => {
                            return Err(ColumnarError::Corrupt(format!(
                                "transactions: unknown kind tag {other}"
                            )))
                        }
                    };
                    *slot = TxRow {
                        hash: TxHash(Hash32(hashes.get(j))),
                        block: BlockNumber(blocks.get(j)),
                        timestamp: Timestamp(timestamps.get(j)),
                        from: pools.addr(from.get(j))?,
                        to: pools.addr(to.get(j))?,
                        value: Wei(values.get(j)),
                        tag,
                    };
                }
            }
            Ok(())
        },
    )?;
    Ok(table.with_rows(owner_out, starts, rows))
}

fn decode_market(payload: &[u8], pools: &Pools<'_>) -> Result<Vec<MarketEvent>, ColumnarError> {
    let mut cur = Cursor::new(payload, "market");
    let n = cur.take_u32()? as usize;
    let tags = cur.take_bytes(n)?;
    let tokens = cur.take_column::<[u8; 32]>(n)?;
    let sellers = cur.take_column::<u32>(n)?;
    let at = cur.take_column::<u64>(n)?;
    let priced = tags
        .iter()
        .filter(|&&t| t == TAG_LISTED || t == TAG_SOLD)
        .count();
    let prices = cur.take_column::<u128>(priced)?;
    let sold = tags.iter().filter(|&&t| t == TAG_SOLD).count();
    let buyers = cur.take_column::<u32>(sold)?;
    cur.expect_end()?;

    let mut prices = prices.iter();
    let mut buyers = buyers.iter();
    let mut events = Vec::with_capacity(n);
    for (i, &tag) in tags.iter().enumerate() {
        let token = LabelHash(Hash32(tokens.get(i)));
        let seller = pools.addr(sellers.get(i))?;
        let at = Timestamp(at.get(i));
        events.push(match tag {
            TAG_LISTED => MarketEvent::Listed {
                token,
                seller,
                price: UsdCents(prices.next().expect("counted")),
                at,
            },
            TAG_SOLD => MarketEvent::Sold {
                token,
                seller,
                buyer: pools.addr(buyers.next().expect("counted"))?,
                price: UsdCents(prices.next().expect("counted")),
                at,
            },
            TAG_CANCELLED => MarketEvent::Cancelled { token, seller, at },
            other => {
                return Err(ColumnarError::Corrupt(format!(
                    "market: unknown event tag {other}"
                )))
            }
        });
    }
    Ok(events)
}

fn decode_reverse(
    payload: &[u8],
    pools: &Pools<'_>,
) -> Result<HashMap<Address, Vec<(Timestamp, String)>>, ColumnarError> {
    let mut cur = Cursor::new(payload, "reverse");
    let owners = cur.take_u32()? as usize;
    let owner_ids = cur.take_column::<u32>(owners)?;
    let claim_counts = cur.take_column::<u32>(owners)?;
    let n = total_rows(claim_counts, "reverse")?;
    let at = cur.take_column::<u64>(n)?;
    let names = cur.take_column::<u32>(n)?;
    cur.expect_end()?;

    let mut row = 0usize;
    let mut map = HashMap::with_capacity(owners);
    for i in 0..owners {
        let owner = pools.addr(owner_ids.get(i))?;
        let count = claim_counts.get(i) as usize;
        let mut claims = Vec::with_capacity(count);
        for j in row..row + count {
            claims.push((
                Timestamp(at.get(j)),
                pools.strings.get(names.get(j))?.to_string(),
            ));
        }
        row += count;
        if map.insert(owner, claims).is_some() {
            return Err(ColumnarError::Corrupt(format!(
                "reverse: duplicate owner {owner:?}"
            )));
        }
    }
    Ok(map)
}

fn decode_labels(payload: &[u8], pools: &Pools<'_>) -> Result<LabelService, ColumnarError> {
    let mut cur = Cursor::new(payload, "labels");
    let n = cur.take_u32()? as usize;
    let addrs = cur.take_column::<u32>(n)?;
    let names = cur.take_column::<u32>(n)?;
    let tags = cur.take_bytes(n)?;
    cur.expect_end()?;

    let mut service = LabelService::new();
    for (i, &tag) in tags.iter().enumerate() {
        let kind = match tag {
            TAG_LABEL_CUSTODIAL => LabelKind::CustodialExchange,
            TAG_LABEL_COINBASE => LabelKind::Coinbase,
            TAG_LABEL_CONTRACT => LabelKind::Contract,
            other => {
                return Err(ColumnarError::Corrupt(format!(
                    "labels: unknown kind tag {other}"
                )))
            }
        };
        service.add(AddressLabel {
            address: pools.addr(addrs.get(i))?,
            name: pools.strings.get(names.get(i))?.to_string(),
            kind,
        });
    }
    Ok(service)
}

// ---------------------------------------------------------------------------
// Crawl shards
// ---------------------------------------------------------------------------

// A committed crawl shard's rows in the dataset's own binary form, for the
// checkpoint segments of `crate::checkpoint`: the shard's intern pools,
// then the sections its rows occupy in a dataset file, each payload behind
// a `u32` byte length. The dataset's column writers produce the payloads
// and its section readers read them back, so a checkpoint has no codec of
// its own. No checksum here: the segment section a shard rides in has one.

/// Appends the pools `it` built and then `sections`, each behind its
/// `u32` byte length.
fn put_framed(it: &Interner, sections: &[Vec<u8>], buf: &mut Vec<u8>) {
    put_sized(buf, |buf| it.strings.encode(buf));
    put_sized(buf, |buf| it.addrs.encode(buf));
    for payload in sections {
        put_sized(buf, |buf| buf.put_bytes(payload));
    }
}

/// Appends what `encode` writes behind its `u32` byte length, encoding in
/// place and patching the length in after.
fn put_sized(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.put_u32(0);
    encode(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Reads what [`put_framed`] wrote: the pools and `N` section payloads.
fn take_framed<'a, const N: usize>(
    cur: &mut Cursor<'a>,
) -> Result<(Pools<'a>, [&'a [u8]; N]), ColumnarError> {
    let mut payload = || -> Result<&'a [u8], ColumnarError> {
        let len = cur.take_u32()? as usize;
        cur.take_bytes(len)
    };
    let strings = payload()?;
    let addrs = payload()?;
    let mut sections = [&[][..]; N];
    for section in &mut sections {
        *section = payload()?;
    }
    Ok((Pools::decode(strings, addrs)?, sections))
}

/// Appends a subgraph shard's domains (the six domain sections).
pub(crate) fn put_domain_rows(domains: &[DomainRecord], buf: &mut Vec<u8>) {
    let mut it = Interner::new();
    let sections = encode_domains(domains, &mut it);
    put_framed(&it, &sections, buf);
}

/// Reads a subgraph shard's domains written by [`put_domain_rows`].
pub(crate) fn take_domain_rows(cur: &mut Cursor<'_>) -> Result<Vec<DomainRecord>, ColumnarError> {
    let (pools, sections) = take_framed(cur)?;
    Ok(decode_domains(sections, &pools, 1)?.0)
}

/// Appends a txlist shard: `owner`'s history as a one-owner transactions
/// section.
pub(crate) fn put_txlist_rows(owner: Address, txs: &[Transaction], buf: &mut Vec<u8>) {
    let mut history = TxTable::with_capacity(1, txs.len());
    history.push_owner(owner);
    for tx in txs {
        history.push_transaction(tx);
    }
    let mut it = Interner::new();
    let section = encode_transactions(&history, &mut it);
    put_framed(&it, &[section], buf);
}

/// Reads a txlist shard written by [`put_txlist_rows`], which must hold
/// exactly `owner`'s history.
pub(crate) fn take_txlist_rows(
    cur: &mut Cursor<'_>,
    owner: Address,
) -> Result<Vec<Transaction>, ColumnarError> {
    let (pools, [section]) = take_framed(cur)?;
    let history = decode_transactions(section, &pools, 1)?;
    if history.owners() != [owner] {
        return Err(ColumnarError::Corrupt(format!(
            "txlist shard: expected exactly the history of {owner:?}"
        )));
    }
    Ok(history
        .rows()
        .iter()
        .map(|row| history.transaction(row))
        .collect())
}

/// Appends a market shard's events (the market section).
pub(crate) fn put_market_rows(events: &[MarketEvent], buf: &mut Vec<u8>) {
    let mut it = Interner::new();
    let section = encode_market(events, &mut it);
    put_framed(&it, &[section], buf);
}

/// Reads a market shard's events written by [`put_market_rows`].
pub(crate) fn take_market_rows(cur: &mut Cursor<'_>) -> Result<Vec<MarketEvent>, ColumnarError> {
    let (pools, [section]) = take_framed(cur)?;
    decode_market(section, &pools)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::FailurePolicy;
    use crate::dataset::{collect_clean, CrawlConfig};
    use ens_subgraph::SubgraphConfig;
    use ens_types::FaultProfile;
    use workload::WorldConfig;

    fn dataset() -> Dataset {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        collect_clean(&world, SubgraphConfig::default())
    }

    #[test]
    fn columnar_round_trip_is_json_byte_identical() {
        let ds = dataset();
        let json = ds.to_json().unwrap();
        let bytes = ds.to_columnar(&Metrics::disabled()).unwrap();
        for threads in [1, 2, 8] {
            let file = std::io::Cursor::new(&bytes);
            let back = Dataset::read_columnar(file, threads, &Metrics::disabled()).unwrap();
            assert_eq!(back.to_json().unwrap(), json, "at {threads} threads");
        }
    }

    #[test]
    fn columnar_is_smaller_than_json() {
        let ds = dataset();
        let json = ds.to_json().unwrap();
        let bytes = ds.to_columnar(&Metrics::disabled()).unwrap();
        assert!(
            bytes.len() * 2 <= json.len(),
            "columnar {} bytes vs JSON {} bytes: footprint above 50%",
            bytes.len(),
            json.len()
        );
    }

    #[test]
    fn encoding_is_deterministic_and_metrics_free() {
        let ds = dataset();
        let a = ds.to_columnar(&Metrics::disabled()).unwrap();
        let b = ds.to_columnar(&Metrics::disabled()).unwrap();
        assert_eq!(a, b, "two encodes differ");
        let metrics = Metrics::new();
        let c = ds.to_columnar(&metrics).unwrap();
        assert_eq!(a, c, "a live metrics handle changed the bytes");
        let snap = metrics.snapshot();
        assert!(snap.counter("columnar/encode/bytes") > 0);
        assert!(
            snap.counter("columnar/encode/addr_hits")
                < snap.counter("columnar/encode/addr_lookups")
        );
    }

    #[test]
    fn thread_count_does_not_change_the_bytes() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::default());
        let scan = world.etherscan();
        let encode = |threads| {
            Dataset::try_collect_with(
                &sg,
                &scan,
                world.opensea(),
                world.observation_end(),
                &CrawlConfig::with_threads(threads),
            )
            .unwrap()
            .0
            .to_columnar(&Metrics::disabled())
            .unwrap()
        };
        assert_eq!(encode(1), encode(4));
    }

    #[test]
    fn chaos_degraded_dataset_round_trips() {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::default());
        let scan = world.etherscan();
        let (ds, _) = Dataset::try_collect_with(
            &sg,
            &scan,
            world.opensea(),
            world.observation_end(),
            &CrawlConfig {
                chaos: Some(FaultProfile::new(77).with_hole(16, 48)),
                failure: FailurePolicy::degrade(),
                subgraph_page_size: 16,
                ..CrawlConfig::default()
            },
        )
        .unwrap();
        assert!(ds.crawl_report.degraded);
        let json = ds.to_json().unwrap();
        let back = Dataset::from_bytes(&ds.to_columnar(&Metrics::disabled()).unwrap()).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
        assert_eq!(back.crawl_report, ds.crawl_report);
    }

    #[test]
    fn truncated_and_flipped_files_fail_typed() {
        let ds = dataset();
        let bytes = ds.to_columnar(&Metrics::disabled()).unwrap();
        let decode = |bytes: &[u8]| {
            Dataset::read_columnar(std::io::Cursor::new(bytes), 1, &Metrics::disabled())
        };
        assert!(matches!(
            decode(&bytes[..bytes.len() / 2]),
            Err(ReadError::Columnar(
                ColumnarError::Truncated { .. } | ColumnarError::DirectoryChecksumMismatch
            ))
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(decode(&flipped).is_err());
        assert!(matches!(
            decode(b"{\"domains\": []}"),
            Err(ReadError::Columnar(ColumnarError::BadMagic))
        ));
    }
}

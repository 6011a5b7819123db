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
//! (each domain's fields in struct order), then transactions in `BTreeMap`
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
//! round-trip tests and `columnar_bench`) is that JSON → columnar → JSON
//! is byte-identical to JSON → JSON: decoding rebuilds a logically equal
//! `Dataset`, and the vendored serde serializes maps in sorted key order,
//! so logical equality implies byte equality of the re-export.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ens_columnar::{
    checksum64, is_columnar, push_bits, ColumnarError, Cursor, FileBuilder, FileView, FixedPool,
    PutLe, StrPool, StrTable, NONE_ID,
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
use sim_chain::{Transaction, TxKind};

use crate::crawl::CrawlReport;
use crate::dataset::Dataset;

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

fn encode_transactions(
    transactions: &BTreeMap<Address, Vec<Transaction>>,
    it: &mut Interner,
) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u32(transactions.len() as u32);
    for owner in transactions.keys() {
        buf.put_u32(it.addr(*owner));
    }
    for txs in transactions.values() {
        buf.put_u32(txs.len() as u32);
    }
    let all: Vec<&Transaction> = transactions.values().flatten().collect();
    for tx in &all {
        buf.put_bytes(&tx.hash.0 .0);
    }
    for tx in &all {
        buf.put_u64(tx.block.0);
    }
    for tx in &all {
        buf.put_u64(tx.timestamp.0);
    }
    for tx in &all {
        buf.put_u32(it.addr(tx.from));
    }
    for tx in &all {
        buf.put_u32(it.addr(tx.to));
    }
    for tx in &all {
        buf.put_u128(tx.value.0);
    }
    for tx in &all {
        buf.put_u8(match &tx.kind {
            TxKind::Transfer => TAG_TX_TRANSFER,
            TxKind::ContractPayment { .. } => TAG_TX_CONTRACT,
            TxKind::Mint => TAG_TX_MINT,
        });
    }
    // Contract tags only for the ContractPayment rows, in row order.
    for tx in &all {
        if let TxKind::ContractPayment { contract } = &tx.kind {
            buf.put_u32(it.str(contract));
        }
    }
    buf
}

fn encode_market(market: &OpenSea, it: &mut Interner) -> Vec<u8> {
    let events = market.all_events();
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

impl Dataset {
    /// Encodes the dataset into the columnar container format.
    /// Byte-identical for any thread count; see the module docs.
    pub fn to_columnar(&self) -> serde_json::Result<Vec<u8>> {
        self.to_columnar_metered(&Metrics::disabled())
    }

    /// [`Dataset::to_columnar`] under a `columnar/encode` span, recording
    /// output bytes, per-section bytes and intern-table hit rates.
    /// Instrumentation never changes the encoded bytes.
    pub fn to_columnar_metered(&self, metrics: &Metrics) -> serde_json::Result<Vec<u8>> {
        let span = metrics.span("columnar/encode");
        let mut it = Interner::new();

        let [dom, reg, ren, xfer, addr, sub] = encode_domains(&self.domains, &mut it);
        let txs = encode_transactions(&self.transactions, &mut it);
        let market = encode_market(&self.market, &mut it);
        let reverse = encode_reverse(&self.reverse_claims, &mut it);
        let labels = encode_labels(&self.labels, &mut it);
        let meta = encode_meta(self)?;

        // Pools encode last (every id is now assigned) but lead the file,
        // so a streaming reader could materialize them first.
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
        let out = file.finish();
        if metrics.is_enabled() {
            metrics.add("columnar/encode/bytes", out.len() as u64);
            metrics.add("columnar/encode/sections", 13);
            metrics.add("columnar/encode/checksum", checksum64(&out) & 0xFFFF);
        }
        drop(span);
        Ok(out)
    }

    /// Decodes a columnar file back into a dataset. The inverse of
    /// [`Dataset::to_columnar`]: the result is logically equal to the
    /// encoded dataset, and its [`Dataset::to_json`] export is
    /// byte-identical to the original's.
    pub fn from_columnar(bytes: &[u8]) -> Result<Dataset, ColumnarError> {
        Dataset::from_columnar_metered(bytes, &Metrics::disabled())
    }

    /// [`Dataset::from_columnar`] under a `columnar/decode` span.
    pub fn from_columnar_metered(
        bytes: &[u8],
        metrics: &Metrics,
    ) -> Result<Dataset, ColumnarError> {
        let span = metrics.span("columnar/decode");
        let view = FileView::parse(bytes)?;

        let mut cur = Cursor::new(view.section(section::STRINGS)?, "strings");
        let strings = StrPool::decode(&mut cur)?;
        cur.expect_end()?;
        let mut cur = Cursor::new(view.section(section::ADDRESSES)?, "addresses");
        let addrs = FixedPool::<20>::decode(&mut cur)?;
        cur.expect_end()?;
        let addr_of = |id: u32| -> Result<Address, ColumnarError> { Ok(Address(addrs.get(id)?)) };

        let (domains, counts) = decode_domains(&view, &strings, &addr_of)?;
        let transactions = decode_transactions(&view, &strings, &addr_of)?;
        let market = decode_market(&view, &addr_of)?;
        let reverse_claims = decode_reverse(&view, &strings, &addr_of)?;
        let labels = decode_labels(&view, &strings, &addr_of)?;

        let mut cur = Cursor::new(view.section(section::META)?, "meta");
        let observation_end = Timestamp(cur.take_u64()?);
        let report_len = cur.take_len()?;
        let report_bytes = cur.take_bytes(report_len)?;
        cur.expect_end()?;
        let report_json = std::str::from_utf8(report_bytes)
            .map_err(|e| ColumnarError::Corrupt(format!("meta: crawl report not UTF-8: {e}")))?;
        let crawl_report: CrawlReport = serde_json::from_str(report_json)
            .map_err(|e| ColumnarError::Corrupt(format!("meta: crawl report: {e}")))?;

        if metrics.is_enabled() {
            metrics.add("columnar/decode/bytes", bytes.len() as u64);
            metrics.add("columnar/decode/sections", view.section_count() as u64);
            metrics.add("columnar/decode/strings", strings.len() as u64);
            metrics.add("columnar/decode/addresses", addrs.len() as u64);
            metrics.add("columnar/decode/domains", counts.domains as u64);
            metrics.add("columnar/decode/events", counts.events as u64);
        }
        drop(span);
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
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct DecodeCounts {
    domains: usize,
    events: usize,
}

fn decode_domains(
    view: &FileView<'_>,
    strings: &StrPool,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<(Vec<DomainRecord>, DecodeCounts), ColumnarError> {
    let mut cur = Cursor::new(view.section(section::DOMAINS)?, "domains");
    let n = cur.take_u32()? as usize;
    let label_hashes = cur.take_fixed_vec::<32>(n)?;
    let name_ids = cur.take_u32_vec(n)?;
    let reg_counts = cur.take_u32_vec(n)?;
    let ren_counts = cur.take_u32_vec(n)?;
    let xfer_counts = cur.take_u32_vec(n)?;
    let addr_counts = cur.take_u32_vec(n)?;
    let sub_counts = cur.take_u32_vec(n)?;
    cur.expect_end()?;

    let mut regs = decode_registrations(view, addr_of)?.into_iter();
    let mut rens = decode_renewals(view)?.into_iter();
    let mut xfers = decode_transfers(view, addr_of)?.into_iter();
    let mut addr_changes = decode_addr_changes(view, addr_of)?.into_iter();
    let mut subs = decode_subdomains(view, strings, addr_of)?.into_iter();

    fn take<T>(
        it: &mut impl Iterator<Item = T>,
        k: usize,
        what: &str,
    ) -> Result<Vec<T>, ColumnarError> {
        let taken: Vec<T> = it.by_ref().take(k).collect();
        if taken.len() != k {
            return Err(ColumnarError::Corrupt(format!(
                "domains: {what} column exhausted (wanted {k} more)"
            )));
        }
        Ok(taken)
    }

    let mut events = 0usize;
    let mut domains = Vec::with_capacity(n);
    for i in 0..n {
        let name = match strings.get_opt(name_ids[i])? {
            None => None,
            Some(s) => Some(EnsName::from_label(Label::parse_any(s).map_err(|e| {
                ColumnarError::Corrupt(format!("domains: bad name {s:?}: {e}"))
            })?)),
        };
        let registrations = take(&mut regs, reg_counts[i] as usize, "registration")?;
        let renewals = take(&mut rens, ren_counts[i] as usize, "renewal")?;
        let transfers = take(&mut xfers, xfer_counts[i] as usize, "transfer")?;
        let addr_list = take(&mut addr_changes, addr_counts[i] as usize, "addr-change")?;
        let subdomains = take(&mut subs, sub_counts[i] as usize, "subdomain")?;
        events += registrations.len()
            + renewals.len()
            + transfers.len()
            + addr_list.len()
            + subdomains.len();
        domains.push(DomainRecord {
            label_hash: LabelHash(Hash32(label_hashes[i])),
            name,
            registrations,
            renewals,
            transfers,
            addr_changes: addr_list,
            subdomains,
        });
    }
    for (left, what) in [
        (regs.count(), "registration"),
        (rens.count(), "renewal"),
        (xfers.count(), "transfer"),
        (addr_changes.count(), "addr-change"),
        (subs.count(), "subdomain"),
    ] {
        if left != 0 {
            return Err(ColumnarError::Corrupt(format!(
                "domains: {left} unclaimed {what} rows"
            )));
        }
    }
    Ok((domains, DecodeCounts { domains: n, events }))
}

/// Decodes an `Option<TxHash>` column written by [`push_tx_column`].
fn take_tx_column(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<Option<TxHash>>, ColumnarError> {
    let present = cur.take_bits(n)?;
    let count = (0..n).filter(|&i| present.get(i)).count();
    let hashes = cur.take_fixed_vec::<32>(count)?;
    let mut hashes = hashes.into_iter();
    Ok((0..n)
        .map(|i| {
            present
                .get(i)
                .then(|| TxHash(Hash32(hashes.next().expect("counted"))))
        })
        .collect())
}

fn decode_registrations(
    view: &FileView<'_>,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<Vec<RegistrationEntry>, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::REGISTRATIONS)?, "registrations");
    let n = cur.take_u32()? as usize;
    let owners = cur.take_u32_vec(n)?;
    let registered_at = cur.take_u64_vec(n)?;
    let expires = cur.take_u64_vec(n)?;
    let base_cost = cur.take_u128_vec(n)?;
    let premium = cur.take_u128_vec(n)?;
    let blocks = cur.take_u64_vec(n)?;
    let legacy = cur.take_bits(n)?;
    let txs = take_tx_column(&mut cur, n)?;
    cur.expect_end()?;
    (0..n)
        .map(|i| {
            Ok(RegistrationEntry {
                owner: addr_of(owners[i])?,
                registered_at: Timestamp(registered_at[i]),
                expires: Timestamp(expires[i]),
                base_cost: Wei(base_cost[i]),
                premium: Wei(premium[i]),
                block: BlockNumber(blocks[i]),
                tx: txs[i],
                legacy: legacy.get(i),
            })
        })
        .collect()
}

fn decode_renewals(view: &FileView<'_>) -> Result<Vec<RenewalEntry>, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::RENEWALS)?, "renewals");
    let n = cur.take_u32()? as usize;
    let at = cur.take_u64_vec(n)?;
    let new_expiry = cur.take_u64_vec(n)?;
    let cost = cur.take_u128_vec(n)?;
    let blocks = cur.take_u64_vec(n)?;
    let txs = take_tx_column(&mut cur, n)?;
    cur.expect_end()?;
    Ok((0..n)
        .map(|i| RenewalEntry {
            at: Timestamp(at[i]),
            new_expiry: Timestamp(new_expiry[i]),
            cost: Wei(cost[i]),
            block: BlockNumber(blocks[i]),
            tx: txs[i],
        })
        .collect())
}

fn decode_transfers(
    view: &FileView<'_>,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<Vec<TransferEntry>, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::TRANSFERS)?, "transfers");
    let n = cur.take_u32()? as usize;
    let at = cur.take_u64_vec(n)?;
    let from = cur.take_u32_vec(n)?;
    let to = cur.take_u32_vec(n)?;
    let blocks = cur.take_u64_vec(n)?;
    cur.expect_end()?;
    (0..n)
        .map(|i| {
            Ok(TransferEntry {
                at: Timestamp(at[i]),
                from: addr_of(from[i])?,
                to: addr_of(to[i])?,
                block: BlockNumber(blocks[i]),
            })
        })
        .collect()
}

fn decode_addr_changes(
    view: &FileView<'_>,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<Vec<AddrEntry>, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::ADDR_CHANGES)?, "addr-changes");
    let n = cur.take_u32()? as usize;
    let at = cur.take_u64_vec(n)?;
    let addrs = cur.take_u32_vec(n)?;
    cur.expect_end()?;
    (0..n)
        .map(|i| {
            Ok(AddrEntry {
                at: Timestamp(at[i]),
                addr: addr_of(addrs[i])?,
            })
        })
        .collect()
}

fn decode_subdomains(
    view: &FileView<'_>,
    strings: &StrPool,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<Vec<SubdomainEntry>, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::SUBDOMAINS)?, "subdomains");
    let n = cur.take_u32()? as usize;
    let nodes = cur.take_fixed_vec::<32>(n)?;
    let labels = cur.take_u32_vec(n)?;
    let owners = cur.take_u32_vec(n)?;
    let at = cur.take_u64_vec(n)?;
    cur.expect_end()?;
    (0..n)
        .map(|i| {
            Ok(SubdomainEntry {
                node: NameHash(Hash32(nodes[i])),
                label: strings.get(labels[i])?.to_string(),
                owner: addr_of(owners[i])?,
                at: Timestamp(at[i]),
            })
        })
        .collect()
}

fn decode_transactions(
    view: &FileView<'_>,
    strings: &StrPool,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<BTreeMap<Address, Vec<Transaction>>, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::TRANSACTIONS)?, "transactions");
    let owners = cur.take_u32()? as usize;
    let owner_ids = cur.take_u32_vec(owners)?;
    let tx_counts = cur.take_u32_vec(owners)?;
    let n: usize = tx_counts.iter().map(|&c| c as usize).sum();
    let hashes = cur.take_fixed_vec::<32>(n)?;
    let blocks = cur.take_u64_vec(n)?;
    let timestamps = cur.take_u64_vec(n)?;
    let from = cur.take_u32_vec(n)?;
    let to = cur.take_u32_vec(n)?;
    let values = cur.take_u128_vec(n)?;
    let tags = cur.take_bytes(n)?;
    let contract_count = tags.iter().filter(|&&t| t == TAG_TX_CONTRACT).count();
    let contracts = cur.take_u32_vec(contract_count)?;
    cur.expect_end()?;

    let mut contracts = contracts.into_iter();
    let mut rows = (0..n).map(|i| -> Result<Transaction, ColumnarError> {
        let kind = match tags[i] {
            TAG_TX_TRANSFER => TxKind::Transfer,
            TAG_TX_CONTRACT => TxKind::ContractPayment {
                contract: strings.get(contracts.next().expect("counted"))?.to_string(),
            },
            TAG_TX_MINT => TxKind::Mint,
            other => {
                return Err(ColumnarError::Corrupt(format!(
                    "transactions: unknown kind tag {other}"
                )))
            }
        };
        Ok(Transaction {
            hash: TxHash(Hash32(hashes[i])),
            block: BlockNumber(blocks[i]),
            timestamp: Timestamp(timestamps[i]),
            from: addr_of(from[i])?,
            to: addr_of(to[i])?,
            value: Wei(values[i]),
            kind,
        })
    });

    let mut map = BTreeMap::new();
    for (owner_id, count) in owner_ids.into_iter().zip(tx_counts) {
        let owner = addr_of(owner_id)?;
        let txs: Vec<Transaction> = rows
            .by_ref()
            .take(count as usize)
            .collect::<Result<_, _>>()?;
        if map.insert(owner, txs).is_some() {
            return Err(ColumnarError::Corrupt(format!(
                "transactions: duplicate owner {owner:?}"
            )));
        }
    }
    Ok(map)
}

fn decode_market(
    view: &FileView<'_>,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<OpenSea, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::MARKET)?, "market");
    let n = cur.take_u32()? as usize;
    let tags = cur.take_bytes(n)?.to_vec();
    let tokens = cur.take_fixed_vec::<32>(n)?;
    let sellers = cur.take_u32_vec(n)?;
    let at = cur.take_u64_vec(n)?;
    let priced = tags
        .iter()
        .filter(|&&t| t == TAG_LISTED || t == TAG_SOLD)
        .count();
    let prices = cur.take_u128_vec(priced)?;
    let sold = tags.iter().filter(|&&t| t == TAG_SOLD).count();
    let buyers = cur.take_u32_vec(sold)?;
    cur.expect_end()?;

    let mut prices = prices.into_iter();
    let mut buyers = buyers.into_iter();
    let events: Vec<MarketEvent> = (0..n)
        .map(|i| -> Result<MarketEvent, ColumnarError> {
            let token = LabelHash(Hash32(tokens[i]));
            let seller = addr_of(sellers[i])?;
            let at = Timestamp(at[i]);
            Ok(match tags[i] {
                TAG_LISTED => MarketEvent::Listed {
                    token,
                    seller,
                    price: UsdCents(prices.next().expect("counted")),
                    at,
                },
                TAG_SOLD => MarketEvent::Sold {
                    token,
                    seller,
                    buyer: addr_of(buyers.next().expect("counted"))?,
                    price: UsdCents(prices.next().expect("counted")),
                    at,
                },
                TAG_CANCELLED => MarketEvent::Cancelled { token, seller, at },
                other => {
                    return Err(ColumnarError::Corrupt(format!(
                        "market: unknown event tag {other}"
                    )))
                }
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(OpenSea::from_events(events))
}

fn decode_reverse(
    view: &FileView<'_>,
    strings: &StrPool,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<HashMap<Address, Vec<(Timestamp, String)>>, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::REVERSE)?, "reverse");
    let owners = cur.take_u32()? as usize;
    let owner_ids = cur.take_u32_vec(owners)?;
    let claim_counts = cur.take_u32_vec(owners)?;
    let n: usize = claim_counts.iter().map(|&c| c as usize).sum();
    let at = cur.take_u64_vec(n)?;
    let names = cur.take_u32_vec(n)?;
    cur.expect_end()?;

    let mut row = 0usize;
    let mut map = HashMap::with_capacity(owners);
    for (owner_id, count) in owner_ids.into_iter().zip(claim_counts) {
        let owner = addr_of(owner_id)?;
        let claims: Vec<(Timestamp, String)> = (0..count as usize)
            .map(|k| {
                Ok((
                    Timestamp(at[row + k]),
                    strings.get(names[row + k])?.to_string(),
                ))
            })
            .collect::<Result<_, ColumnarError>>()?;
        row += count as usize;
        if map.insert(owner, claims).is_some() {
            return Err(ColumnarError::Corrupt(format!(
                "reverse: duplicate owner {owner:?}"
            )));
        }
    }
    Ok(map)
}

fn decode_labels(
    view: &FileView<'_>,
    strings: &StrPool,
    addr_of: &impl Fn(u32) -> Result<Address, ColumnarError>,
) -> Result<LabelService, ColumnarError> {
    let mut cur = Cursor::new(view.section(section::LABELS)?, "labels");
    let n = cur.take_u32()? as usize;
    let addrs = cur.take_u32_vec(n)?;
    let names = cur.take_u32_vec(n)?;
    let tags = cur.take_bytes(n)?;
    cur.expect_end()?;

    let mut service = LabelService::new();
    for i in 0..n {
        let kind = match tags[i] {
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
            address: addr_of(addrs[i])?,
            name: strings.get(names[i])?.to_string(),
            kind,
        });
    }
    Ok(service)
}

/// Re-export of the magic sniff, for format auto-detection in the
/// dispatch layer (see [`crate::export`]).
pub fn sniff_columnar(bytes: &[u8]) -> bool {
    is_columnar(bytes)
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
        let bytes = ds.to_columnar().unwrap();
        assert!(sniff_columnar(&bytes));
        let back = Dataset::from_columnar(&bytes).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
    }

    #[test]
    fn columnar_is_smaller_than_json() {
        let ds = dataset();
        let json = ds.to_json().unwrap();
        let bytes = ds.to_columnar().unwrap();
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
        let a = ds.to_columnar().unwrap();
        let b = ds.to_columnar().unwrap();
        assert_eq!(a, b, "two encodes differ");
        let metrics = Metrics::new();
        let c = ds.to_columnar_metered(&metrics).unwrap();
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
            .to_columnar()
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
        let back = Dataset::from_columnar(&ds.to_columnar().unwrap()).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
        assert_eq!(back.crawl_report, ds.crawl_report);
    }

    #[test]
    fn truncated_and_flipped_files_fail_typed() {
        let ds = dataset();
        let bytes = ds.to_columnar().unwrap();
        assert!(matches!(
            Dataset::from_columnar(&bytes[..bytes.len() / 2]),
            Err(ColumnarError::Truncated { .. }) | Err(ColumnarError::DirectoryChecksumMismatch)
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(Dataset::from_columnar(&flipped).is_err());
        assert!(matches!(
            Dataset::from_columnar(b"{\"domains\": []}"),
            Err(ColumnarError::BadMagic)
        ));
    }
}

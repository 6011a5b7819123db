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
    checksum64, is_columnar, push_bits, Bits, Column, ColumnarError, Cursor, FileBuilder, FileView,
    FixedPool, PutLe, StrPool, StrTable, NONE_ID,
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

/// Per-owner transaction histories, owners strictly ascending (the
/// dataset's `BTreeMap` order, or a checkpoint shard's single owner).
fn encode_transactions(histories: &[(Address, &[Transaction])], it: &mut Interner) -> Vec<u8> {
    let all = || histories.iter().flat_map(|(_, txs)| txs.iter());
    // Hash, block, timestamp, from, to, value and tag; contract ids extra.
    let rows: usize = histories.iter().map(|(_, txs)| txs.len()).sum();
    let mut buf = Vec::with_capacity(4 + 8 * histories.len() + 73 * rows);
    buf.put_u32(histories.len() as u32);
    for (owner, _) in histories {
        buf.put_u32(it.addr(*owner));
    }
    for (_, txs) in histories {
        buf.put_u32(txs.len() as u32);
    }
    for tx in all() {
        buf.put_bytes(&tx.hash.0 .0);
    }
    for tx in all() {
        buf.put_u64(tx.block.0);
    }
    for tx in all() {
        buf.put_u64(tx.timestamp.0);
    }
    for tx in all() {
        buf.put_u32(it.addr(tx.from));
    }
    for tx in all() {
        buf.put_u32(it.addr(tx.to));
    }
    for tx in all() {
        buf.put_u128(tx.value.0);
    }
    for tx in all() {
        buf.put_u8(match &tx.kind {
            TxKind::Transfer => TAG_TX_TRANSFER,
            TxKind::ContractPayment { .. } => TAG_TX_CONTRACT,
            TxKind::Mint => TAG_TX_MINT,
        });
    }
    // Contract tags only for the ContractPayment rows, in row order.
    for tx in all() {
        if let TxKind::ContractPayment { contract } = &tx.kind {
            buf.put_u32(it.str(contract));
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

impl Dataset {
    /// Encodes the dataset into the columnar container format under a
    /// `columnar/encode` span, recording output bytes, per-section bytes
    /// and intern-table hit rates. Byte-identical for any thread count (see
    /// the module docs); instrumentation never changes the encoded bytes.
    pub fn to_columnar(&self, metrics: &Metrics) -> serde_json::Result<Vec<u8>> {
        let span = metrics.span("columnar/encode");
        let mut it = Interner::new();

        let [dom, reg, ren, xfer, addr, sub] = encode_domains(&self.domains, &mut it);
        let histories: Vec<(Address, &[Transaction])> = self
            .transactions
            .iter()
            .map(|(owner, txs)| (*owner, txs.as_slice()))
            .collect();
        let txs = encode_transactions(&histories, &mut it);
        let market = encode_market(self.market.all_events(), &mut it);
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

    /// Decodes a columnar file back into a dataset under a
    /// `columnar/decode` span. The inverse of [`Dataset::to_columnar`]: the
    /// result is logically equal to the encoded dataset, and its
    /// [`Dataset::to_json`] export is byte-identical to the original's.
    ///
    /// Every column is read in place through a borrowed view, and every row
    /// is built once, straight into the `Vec` it ends up in.
    pub fn from_columnar(bytes: &[u8], metrics: &Metrics) -> Result<Dataset, ColumnarError> {
        let span = metrics.span("columnar/decode");
        let view = FileView::parse(bytes)?;
        let pools = Pools::decode(
            view.section(section::STRINGS)?,
            view.section(section::ADDRESSES)?,
        )?;

        let (domains, events) = decode_domains(
            [
                view.section(section::DOMAINS)?,
                view.section(section::REGISTRATIONS)?,
                view.section(section::RENEWALS)?,
                view.section(section::TRANSFERS)?,
                view.section(section::ADDR_CHANGES)?,
                view.section(section::SUBDOMAINS)?,
            ],
            &pools,
        )?;
        let transactions = decode_transactions(view.section(section::TRANSACTIONS)?, &pools)?;
        let market = OpenSea::from_events(decode_market(view.section(section::MARKET)?, &pools)?);
        let reverse_claims = decode_reverse(view.section(section::REVERSE)?, &pools)?;
        let labels = decode_labels(view.section(section::LABELS)?, &pools)?;

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
            metrics.add("columnar/decode/strings", pools.strings.len() as u64);
            metrics.add("columnar/decode/addresses", pools.addrs.len() as u64);
            metrics.add("columnar/decode/domains", domains.len() as u64);
            metrics.add("columnar/decode/events", events as u64);
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

/// The two intern pools every section resolves its ids against, both
/// borrowed from the file.
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

/// Hands a flattened nested-entry section's rows out to the domains in
/// order: each domain claims the next `k` rows, built by `entry` straight
/// into a `Vec` of capacity `k`. `entry` sees rows `0, 1, 2, ...` in
/// order, each exactly once.
struct Claims<F> {
    what: &'static str,
    rows: usize,
    next: usize,
    entry: F,
}

impl<T, F: FnMut(usize) -> Result<T, ColumnarError>> Claims<F> {
    fn new(what: &'static str, rows: usize, entry: F) -> Claims<F> {
        Claims {
            what,
            rows,
            next: 0,
            entry,
        }
    }

    fn claim(&mut self, k: u32) -> Result<Vec<T>, ColumnarError> {
        let k = k as usize;
        // The rows left are backed by column bytes; checking `k` against
        // them first bounds the allocation below.
        if k > self.rows - self.next {
            return Err(ColumnarError::Corrupt(format!(
                "domains: {} column exhausted (wanted {k} more)",
                self.what
            )));
        }
        let mut entries = Vec::with_capacity(k);
        for j in self.next..self.next + k {
            entries.push((self.entry)(j)?);
        }
        self.next += k;
        Ok(entries)
    }

    /// Fails unless every row was claimed; returns the row count.
    fn finish(self) -> Result<usize, ColumnarError> {
        let left = self.rows - self.next;
        if left != 0 {
            return Err(ColumnarError::Corrupt(format!(
                "domains: {left} unclaimed {} rows",
                self.what
            )));
        }
        Ok(self.rows)
    }
}

/// Reads the six payloads [`encode_domains`] wrote, in its order.
fn decode_domains<'a>(
    [domains, registrations, renewals, transfers, addr_changes, subdomains]: [&'a [u8]; 6],
    pools: &'a Pools<'a>,
) -> Result<(Vec<DomainRecord>, usize), ColumnarError> {
    let mut cur = Cursor::new(domains, "domains");
    let n = cur.take_u32()? as usize;
    let label_hashes = cur.take_column::<[u8; 32]>(n)?;
    let name_ids = cur.take_column::<u32>(n)?;
    let reg_counts = cur.take_column::<u32>(n)?;
    let ren_counts = cur.take_column::<u32>(n)?;
    let xfer_counts = cur.take_column::<u32>(n)?;
    let addr_counts = cur.take_column::<u32>(n)?;
    let sub_counts = cur.take_column::<u32>(n)?;
    cur.expect_end()?;

    let mut regs = registration_rows(registrations, pools)?;
    let mut rens = renewal_rows(renewals)?;
    let mut xfers = transfer_rows(transfers, pools)?;
    let mut addr_changes = addr_change_rows(addr_changes, pools)?;
    let mut subs = subdomain_rows(subdomains, pools)?;

    let mut domains = Vec::with_capacity(n);
    for i in 0..n {
        let name = match pools.strings.get_opt(name_ids.get(i))? {
            None => None,
            Some(s) => Some(EnsName::from_label(Label::parse_any(s).map_err(|e| {
                ColumnarError::Corrupt(format!("domains: bad name {s:?}: {e}"))
            })?)),
        };
        domains.push(DomainRecord {
            label_hash: LabelHash(Hash32(label_hashes.get(i))),
            name,
            registrations: regs.claim(reg_counts.get(i))?,
            renewals: rens.claim(ren_counts.get(i))?,
            transfers: xfers.claim(xfer_counts.get(i))?,
            addr_changes: addr_changes.claim(addr_counts.get(i))?,
            subdomains: subs.claim(sub_counts.get(i))?,
        });
    }
    let events = regs.finish()?
        + rens.finish()?
        + xfers.finish()?
        + addr_changes.finish()?
        + subs.finish()?;
    Ok((domains, events))
}

/// The rows a column of per-owner counts claims in all.
fn total_rows(counts: Column<'_, u32>, section: &str) -> Result<usize, ColumnarError> {
    counts
        .iter()
        .try_fold(0usize, |sum, c| sum.checked_add(c as usize))
        .ok_or_else(|| ColumnarError::Corrupt(format!("{section}: row count overflows")))
}

/// An `Option<TxHash>` column written by [`push_tx_column`], read in row
/// order: the presence bitmap, and the hashes of the present rows.
struct TxColumn<'a> {
    present: Bits<'a>,
    hashes: Column<'a, [u8; 32]>,
    next_hash: usize,
}

impl<'a> TxColumn<'a> {
    fn take(cur: &mut Cursor<'a>, n: usize) -> Result<TxColumn<'a>, ColumnarError> {
        let present = cur.take_bits(n)?;
        let hashes = cur.take_column(present.count_ones())?;
        Ok(TxColumn {
            present,
            hashes,
            next_hash: 0,
        })
    }

    /// Row `j`'s hash. Rows must be read in order, each exactly once.
    fn next(&mut self, j: usize) -> Option<TxHash> {
        self.present.get(j).then(|| {
            let hash = self.hashes.get(self.next_hash);
            self.next_hash += 1;
            TxHash(Hash32(hash))
        })
    }
}

fn registration_rows<'a>(
    payload: &'a [u8],
    pools: &'a Pools<'a>,
) -> Result<Claims<impl FnMut(usize) -> Result<RegistrationEntry, ColumnarError> + 'a>, ColumnarError>
{
    let mut cur = Cursor::new(payload, "registrations");
    let n = cur.take_u32()? as usize;
    let owners = cur.take_column::<u32>(n)?;
    let registered_at = cur.take_column::<u64>(n)?;
    let expires = cur.take_column::<u64>(n)?;
    let base_cost = cur.take_column::<u128>(n)?;
    let premium = cur.take_column::<u128>(n)?;
    let blocks = cur.take_column::<u64>(n)?;
    let legacy = cur.take_bits(n)?;
    let mut txs = TxColumn::take(&mut cur, n)?;
    cur.expect_end()?;
    Ok(Claims::new("registration", n, move |j| {
        Ok(RegistrationEntry {
            owner: pools.addr(owners.get(j))?,
            registered_at: Timestamp(registered_at.get(j)),
            expires: Timestamp(expires.get(j)),
            base_cost: Wei(base_cost.get(j)),
            premium: Wei(premium.get(j)),
            block: BlockNumber(blocks.get(j)),
            tx: txs.next(j),
            legacy: legacy.get(j),
        })
    }))
}

fn renewal_rows(
    payload: &[u8],
) -> Result<Claims<impl FnMut(usize) -> Result<RenewalEntry, ColumnarError> + '_>, ColumnarError> {
    let mut cur = Cursor::new(payload, "renewals");
    let n = cur.take_u32()? as usize;
    let at = cur.take_column::<u64>(n)?;
    let new_expiry = cur.take_column::<u64>(n)?;
    let cost = cur.take_column::<u128>(n)?;
    let blocks = cur.take_column::<u64>(n)?;
    let mut txs = TxColumn::take(&mut cur, n)?;
    cur.expect_end()?;
    Ok(Claims::new("renewal", n, move |j| {
        Ok(RenewalEntry {
            at: Timestamp(at.get(j)),
            new_expiry: Timestamp(new_expiry.get(j)),
            cost: Wei(cost.get(j)),
            block: BlockNumber(blocks.get(j)),
            tx: txs.next(j),
        })
    }))
}

fn transfer_rows<'a>(
    payload: &'a [u8],
    pools: &'a Pools<'a>,
) -> Result<Claims<impl FnMut(usize) -> Result<TransferEntry, ColumnarError> + 'a>, ColumnarError> {
    let mut cur = Cursor::new(payload, "transfers");
    let n = cur.take_u32()? as usize;
    let at = cur.take_column::<u64>(n)?;
    let from = cur.take_column::<u32>(n)?;
    let to = cur.take_column::<u32>(n)?;
    let blocks = cur.take_column::<u64>(n)?;
    cur.expect_end()?;
    Ok(Claims::new("transfer", n, move |j| {
        Ok(TransferEntry {
            at: Timestamp(at.get(j)),
            from: pools.addr(from.get(j))?,
            to: pools.addr(to.get(j))?,
            block: BlockNumber(blocks.get(j)),
        })
    }))
}

fn addr_change_rows<'a>(
    payload: &'a [u8],
    pools: &'a Pools<'a>,
) -> Result<Claims<impl FnMut(usize) -> Result<AddrEntry, ColumnarError> + 'a>, ColumnarError> {
    let mut cur = Cursor::new(payload, "addr-changes");
    let n = cur.take_u32()? as usize;
    let at = cur.take_column::<u64>(n)?;
    let addrs = cur.take_column::<u32>(n)?;
    cur.expect_end()?;
    Ok(Claims::new("addr-change", n, move |j| {
        Ok(AddrEntry {
            at: Timestamp(at.get(j)),
            addr: pools.addr(addrs.get(j))?,
        })
    }))
}

fn subdomain_rows<'a>(
    payload: &'a [u8],
    pools: &'a Pools<'a>,
) -> Result<Claims<impl FnMut(usize) -> Result<SubdomainEntry, ColumnarError> + 'a>, ColumnarError>
{
    let mut cur = Cursor::new(payload, "subdomains");
    let n = cur.take_u32()? as usize;
    let nodes = cur.take_column::<[u8; 32]>(n)?;
    let labels = cur.take_column::<u32>(n)?;
    let owners = cur.take_column::<u32>(n)?;
    let at = cur.take_column::<u64>(n)?;
    cur.expect_end()?;
    Ok(Claims::new("subdomain", n, move |j| {
        Ok(SubdomainEntry {
            node: NameHash(Hash32(nodes.get(j))),
            label: pools.strings.get(labels.get(j))?.to_string(),
            owner: pools.addr(owners.get(j))?,
            at: Timestamp(at.get(j)),
        })
    }))
}

fn decode_transactions(
    payload: &[u8],
    pools: &Pools<'_>,
) -> Result<BTreeMap<Address, Vec<Transaction>>, ColumnarError> {
    let mut cur = Cursor::new(payload, "transactions");
    let owners = cur.take_u32()? as usize;
    let owner_ids = cur.take_column::<u32>(owners)?;
    let tx_counts = cur.take_column::<u32>(owners)?;
    let n = total_rows(tx_counts, "transactions")?;
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

    let mut row = 0usize;
    let mut contracts = contracts.iter();
    let mut histories: Vec<(Address, Vec<Transaction>)> = Vec::with_capacity(owners);
    for i in 0..owners {
        let owner = pools.addr(owner_ids.get(i))?;
        // The encoder walks a `BTreeMap`, so owners arrive strictly
        // ascending; holding the file to that also rules out a duplicate.
        if histories.last().is_some_and(|(prev, _)| *prev >= owner) {
            return Err(ColumnarError::Corrupt(format!(
                "transactions: owner {owner:?} out of order (owners must be strictly ascending)"
            )));
        }
        let count = tx_counts.get(i) as usize;
        let mut txs = Vec::with_capacity(count);
        for (j, &tag) in (row..).zip(&tags[row..row + count]) {
            let kind = match tag {
                TAG_TX_TRANSFER => TxKind::Transfer,
                TAG_TX_CONTRACT => TxKind::ContractPayment {
                    contract: pools
                        .strings
                        .get(contracts.next().expect("counted"))?
                        .to_string(),
                },
                TAG_TX_MINT => TxKind::Mint,
                other => {
                    return Err(ColumnarError::Corrupt(format!(
                        "transactions: unknown kind tag {other}"
                    )))
                }
            };
            txs.push(Transaction {
                hash: TxHash(Hash32(hashes.get(j))),
                block: BlockNumber(blocks.get(j)),
                timestamp: Timestamp(timestamps.get(j)),
                from: pools.addr(from.get(j))?,
                to: pools.addr(to.get(j))?,
                value: Wei(values.get(j)),
                kind,
            });
        }
        row += count;
        histories.push((owner, txs));
    }
    // Sorted input: `collect` bulk-builds the map instead of inserting one
    // owner at a time.
    Ok(histories.into_iter().collect())
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
    Ok(decode_domains(sections, &pools)?.0)
}

/// Appends a txlist shard: `owner`'s history as a one-owner transactions
/// section.
pub(crate) fn put_txlist_rows(owner: Address, txs: &[Transaction], buf: &mut Vec<u8>) {
    let mut it = Interner::new();
    let section = encode_transactions(&[(owner, txs)], &mut it);
    put_framed(&it, &[section], buf);
}

/// Reads a txlist shard written by [`put_txlist_rows`], which must hold
/// exactly `owner`'s history.
pub(crate) fn take_txlist_rows(
    cur: &mut Cursor<'_>,
    owner: Address,
) -> Result<Vec<Transaction>, ColumnarError> {
    let (pools, [section]) = take_framed(cur)?;
    let mut histories = decode_transactions(section, &pools)?;
    match histories.remove(&owner) {
        Some(txs) if histories.is_empty() => Ok(txs),
        _ => Err(ColumnarError::Corrupt(format!(
            "txlist shard: expected exactly the history of {owner:?}"
        ))),
    }
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
        let bytes = ds.to_columnar(&Metrics::disabled()).unwrap();
        assert!(sniff_columnar(&bytes));
        let back = Dataset::from_columnar(&bytes, &Metrics::disabled()).unwrap();
        assert_eq!(back.to_json().unwrap(), json);
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
        let back = Dataset::from_columnar(
            &ds.to_columnar(&Metrics::disabled()).unwrap(),
            &Metrics::disabled(),
        )
        .unwrap();
        assert_eq!(back.to_json().unwrap(), json);
        assert_eq!(back.crawl_report, ds.crawl_report);
    }

    #[test]
    fn truncated_and_flipped_files_fail_typed() {
        let ds = dataset();
        let bytes = ds.to_columnar(&Metrics::disabled()).unwrap();
        assert!(matches!(
            Dataset::from_columnar(&bytes[..bytes.len() / 2], &Metrics::disabled()),
            Err(ColumnarError::Truncated { .. }) | Err(ColumnarError::DirectoryChecksumMismatch)
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(Dataset::from_columnar(&flipped, &Metrics::disabled()).is_err());
        assert!(matches!(
            Dataset::from_columnar(b"{\"domains\": []}", &Metrics::disabled()),
            Err(ColumnarError::BadMagic)
        ));
    }
}

//! # etherscan-sim
//!
//! A simulation of the Etherscan API surface the paper crawls (§3.2): a
//! per-address transaction index with `txlist`-style pagination, plus the
//! address **label service** the financial-loss analysis depends on — the
//! paper sources 558 non-Coinbase custodial exchange addresses and 25
//! Coinbase addresses from Etherscan's labels to filter common senders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use ens_types::{Address, PageError, PagedBatch, PagedSource};
use serde::{Deserialize, Serialize};
use sim_chain::{Chain, Transaction};

/// Maximum transactions returned per `txlist` page (Etherscan's cap).
pub const MAX_TXLIST_PAGE: usize = 10_000;

/// The category a labelled address belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelKind {
    /// A custodial exchange hot wallet (non-Coinbase).
    CustodialExchange,
    /// A Coinbase hot wallet — the only ENS-resolving exchange at the time
    /// of the paper, so it gets its own category.
    Coinbase,
    /// A known smart contract (e.g. "Gnosis: Active Treasury Management").
    Contract,
}

/// A public name tag attached to an address.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressLabel {
    /// The tagged address.
    pub address: Address,
    /// Display name ("Binance 14", "Coinbase 3", ...).
    pub name: String,
    /// Category.
    pub kind: LabelKind,
}

/// The label directory.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LabelService {
    labels: HashMap<Address, AddressLabel>,
}

impl LabelService {
    /// An empty directory.
    pub fn new() -> LabelService {
        LabelService::default()
    }

    /// Adds (or replaces) a label.
    pub fn add(&mut self, label: AddressLabel) {
        self.labels.insert(label.address, label);
    }

    /// Convenience: tag an address as a non-Coinbase custodial exchange.
    pub fn add_custodial(&mut self, address: Address, name: impl Into<String>) {
        self.add(AddressLabel {
            address,
            name: name.into(),
            kind: LabelKind::CustodialExchange,
        });
    }

    /// Convenience: tag an address as a Coinbase wallet.
    pub fn add_coinbase(&mut self, address: Address, name: impl Into<String>) {
        self.add(AddressLabel {
            address,
            name: name.into(),
            kind: LabelKind::Coinbase,
        });
    }

    /// The label for `address`, if tagged.
    pub fn label(&self, address: Address) -> Option<&AddressLabel> {
        self.labels.get(&address)
    }

    /// True if the address is custodial at all (exchange or Coinbase).
    pub fn is_custodial(&self, address: Address) -> bool {
        matches!(
            self.labels.get(&address).map(|l| l.kind),
            Some(LabelKind::CustodialExchange) | Some(LabelKind::Coinbase)
        )
    }

    /// True if the address is a Coinbase wallet.
    pub fn is_coinbase(&self, address: Address) -> bool {
        matches!(
            self.labels.get(&address).map(|l| l.kind),
            Some(LabelKind::Coinbase)
        )
    }

    /// True if the address is a non-Coinbase custodial exchange.
    pub fn is_non_coinbase_custodial(&self, address: Address) -> bool {
        matches!(
            self.labels.get(&address).map(|l| l.kind),
            Some(LabelKind::CustodialExchange)
        )
    }

    /// All addresses with a given kind, sorted for determinism.
    pub fn addresses_of_kind(&self, kind: LabelKind) -> Vec<Address> {
        let set: BTreeSet<Address> = self
            .labels
            .values()
            .filter(|l| l.kind == kind)
            .map(|l| l.address)
            .collect();
        set.into_iter().collect()
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if no labels exist.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// The indexed explorer.
#[derive(Clone, Debug)]
pub struct Etherscan {
    /// All transactions in chain order.
    transactions: Vec<Transaction>,
    /// address → indices of transactions where it is sender or receiver,
    /// in chain order.
    by_address: HashMap<Address, Vec<usize>>,
    /// Shared so that dataset assembly can take an owned snapshot without
    /// deep-copying the whole directory.
    labels: Arc<LabelService>,
}

/// The explorer's index as the chain grows: it owns every transaction
/// appended so far, in chain order, and each address's positions in that
/// log. [`EtherscanIndexer::finish`] attaches the label directory and
/// yields the queryable [`Etherscan`].
#[derive(Debug, Default)]
pub struct EtherscanIndexer {
    transactions: Vec<Transaction>,
    by_address: HashMap<Address, Vec<usize>>,
}

impl EtherscanIndexer {
    /// An empty index.
    pub fn new() -> EtherscanIndexer {
        EtherscanIndexer::default()
    }

    /// Appends the next transactions of the chain, in chain order, moving
    /// them into the index: each is listed under its sender and, once more
    /// if it differs, its receiver.
    pub fn append(&mut self, block: Vec<Transaction>) {
        let first = self.transactions.len();
        for (i, tx) in (first..).zip(&block) {
            self.by_address.entry(tx.from).or_default().push(i);
            if tx.to != tx.from {
                self.by_address.entry(tx.to).or_default().push(i);
            }
        }
        // A first block, such as the whole log `Etherscan::index` appends,
        // is kept as it is rather than copied.
        if first == 0 {
            self.transactions = block;
        } else {
            self.transactions.extend(block);
        }
    }

    /// The queryable explorer over everything appended, with `labels`.
    pub fn finish(self, labels: LabelService) -> Etherscan {
        Etherscan {
            transactions: self.transactions,
            by_address: self.by_address,
            labels: Arc::new(labels),
        }
    }
}

impl Etherscan {
    /// Indexes a copy of the full transaction log of a chain: one
    /// [`EtherscanIndexer::append`] of the whole log, then
    /// [`EtherscanIndexer::finish`].
    pub fn index(chain: &Chain, labels: LabelService) -> Etherscan {
        let mut indexer = EtherscanIndexer::new();
        indexer.append(chain.transactions().to_vec());
        indexer.finish(labels)
    }

    /// The label directory.
    pub fn labels(&self) -> &LabelService {
        &self.labels
    }

    /// An owned, shared snapshot of the label directory. Cloning the
    /// returned handle is a reference-count bump, not a deep copy.
    pub fn labels_snapshot(&self) -> Arc<LabelService> {
        Arc::clone(&self.labels)
    }

    /// `txlist`: all transactions touching `address` (in or out), paged.
    /// `page` is 1-based like the real API; `offset` is the page size,
    /// capped at [`MAX_TXLIST_PAGE`]. `page == 0` is out of range and
    /// returns an empty page rather than aliasing page 1 — a caller with an
    /// off-by-one would otherwise double-fetch the first page silently.
    pub fn txlist(&self, address: Address, page: usize, offset: usize) -> Vec<Transaction> {
        if page == 0 {
            return Vec::new();
        }
        let idxs = match self.by_address.get(&address) {
            Some(v) => v.as_slice(),
            None => return Vec::new(),
        };
        let offset = offset.clamp(1, MAX_TXLIST_PAGE);
        let start = (page - 1) * offset;
        idxs.iter()
            .skip(start)
            .take(offset)
            .map(|&i| self.transactions[i].clone())
            .collect()
    }

    /// Offset-based variant of [`Etherscan::txlist`]: up to `limit`
    /// transactions touching `address`, starting at the `start`-th entry of
    /// its chain-ordered history. `limit` is capped at [`MAX_TXLIST_PAGE`].
    pub fn txlist_window(&self, address: Address, start: usize, limit: usize) -> Vec<Transaction> {
        let idxs = match self.by_address.get(&address) {
            Some(v) => v.as_slice(),
            None => return Vec::new(),
        };
        let limit = limit.clamp(1, MAX_TXLIST_PAGE);
        idxs.iter()
            .skip(start)
            .take(limit)
            .map(|&i| self.transactions[i].clone())
            .collect()
    }

    /// Total transactions touching `address`.
    pub fn tx_count(&self, address: Address) -> usize {
        self.by_address.get(&address).map_or(0, |v| v.len())
    }

    /// The transaction history of one address as a generic paged source —
    /// what the sharded crawler pulls page by page.
    pub fn txlist_source(&self, address: Address) -> TxListSource<'_> {
        TxListSource {
            scan: self,
            address,
        }
    }

    /// Total transactions indexed.
    pub fn total_transactions(&self) -> usize {
        self.transactions.len()
    }
}

/// One address's `txlist` history viewed as a paged source (items are
/// [`Transaction`]s in chain order; the total is the explorer's `tx_count`,
/// so per-address crawls need no guaranteed-empty probe page at the end).
#[derive(Clone, Copy, Debug)]
pub struct TxListSource<'a> {
    scan: &'a Etherscan,
    address: Address,
}

impl PagedSource for TxListSource<'_> {
    type Item = Transaction;

    fn source_name(&self) -> &'static str {
        "txlist"
    }

    fn total_hint(&self) -> Option<usize> {
        Some(self.scan.tx_count(self.address))
    }

    fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<Transaction>, PageError> {
        if limit == 0 {
            // A zero-limit request can never make progress; surface it as a
            // typed malformed-request fault instead of looping forever.
            return Err(PageError::malformed(
                self.source_name(),
                offset,
                "zero-limit page request",
            ));
        }
        let items = self.scan.txlist_window(self.address, offset, limit);
        let has_more = offset + items.len() < self.scan.tx_count(self.address);
        Ok(PagedBatch { items, has_more })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{Timestamp, Wei};
    use sim_chain::TxKind;

    fn addr(s: &str) -> Address {
        Address::derive(s.as_bytes())
    }

    fn chain_with_traffic() -> Chain {
        let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
        chain.mint(addr("a"), Wei::from_eth(100));
        for i in 0..5 {
            chain
                .transfer(addr("a"), addr("b"), Wei::from_eth(1 + i), TxKind::Transfer)
                .unwrap();
        }
        chain
            .transfer(addr("b"), addr("c"), Wei::from_eth(2), TxKind::Transfer)
            .unwrap();
        chain
    }

    #[test]
    fn txlist_returns_in_and_out_transactions() {
        let scan = Etherscan::index(&chain_with_traffic(), LabelService::new());
        // b received 5 and sent 1.
        assert_eq!(scan.tx_count(addr("b")), 6);
        let txs = scan.txlist(addr("b"), 1, 100);
        assert_eq!(txs.len(), 6);
        // Chain order is preserved.
        for w in txs.windows(2) {
            assert!(w[0].block <= w[1].block);
        }
    }

    #[test]
    fn appending_the_log_in_blocks_indexes_it_like_the_whole_log() {
        let mut chain = chain_with_traffic();
        let whole = Etherscan::index(&chain, LabelService::new());
        let mut indexer = EtherscanIndexer::new();
        let log = chain.take_transactions();
        for block in log.chunks(4) {
            indexer.append(block.to_vec());
        }
        let blocks = indexer.finish(LabelService::new());
        assert_eq!(blocks.total_transactions(), whole.total_transactions());
        for who in ["a", "b", "c"] {
            assert_eq!(
                blocks.txlist(addr(who), 1, 100),
                whole.txlist(addr(who), 1, 100),
                "{who}"
            );
        }
    }

    #[test]
    fn txlist_pages_like_the_real_api() {
        let scan = Etherscan::index(&chain_with_traffic(), LabelService::new());
        let p1 = scan.txlist(addr("b"), 1, 4);
        let p2 = scan.txlist(addr("b"), 2, 4);
        let p3 = scan.txlist(addr("b"), 3, 4);
        assert_eq!(p1.len(), 4);
        assert_eq!(p2.len(), 2);
        assert!(p3.is_empty());
        // No overlap between pages.
        assert!(p1.iter().all(|t| p2.iter().all(|u| u.hash != t.hash)));
    }

    #[test]
    fn txlist_page_zero_is_out_of_range_not_page_one() {
        let scan = Etherscan::index(&chain_with_traffic(), LabelService::new());
        // `page` is 1-based; 0 must not alias page 1 (a caller iterating
        // from 0 would double-fetch the first page without noticing).
        assert!(scan.txlist(addr("b"), 0, 4).is_empty());
        assert_eq!(scan.txlist(addr("b"), 1, 4).len(), 4);
    }

    #[test]
    fn unknown_address_has_no_transactions() {
        let scan = Etherscan::index(&chain_with_traffic(), LabelService::new());
        assert!(scan.txlist(addr("nobody"), 1, 10).is_empty());
        assert_eq!(scan.tx_count(addr("nobody")), 0);
    }

    #[test]
    fn label_service_categories() {
        let mut labels = LabelService::new();
        labels.add_custodial(addr("binance"), "Binance 14");
        labels.add_coinbase(addr("coinbase"), "Coinbase 3");
        labels.add(AddressLabel {
            address: addr("gnosis"),
            name: "Gnosis: Active Treasury Management".into(),
            kind: LabelKind::Contract,
        });

        assert!(labels.is_custodial(addr("binance")));
        assert!(labels.is_custodial(addr("coinbase")));
        assert!(!labels.is_custodial(addr("gnosis")));
        assert!(labels.is_coinbase(addr("coinbase")));
        assert!(!labels.is_coinbase(addr("binance")));
        assert!(labels.is_non_coinbase_custodial(addr("binance")));
        assert!(!labels.is_non_coinbase_custodial(addr("coinbase")));
        assert!(!labels.is_custodial(addr("random-user")));
        assert_eq!(labels.addresses_of_kind(LabelKind::Coinbase).len(), 1);
    }

    #[test]
    fn self_transfers_are_indexed_once() {
        let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
        chain.mint(addr("a"), Wei::from_eth(5));
        chain
            .transfer(addr("a"), addr("a"), Wei::from_eth(1), TxKind::Transfer)
            .unwrap();
        let scan = Etherscan::index(&chain, LabelService::new());
        // mint + self-transfer = 2 entries, not 3.
        assert_eq!(scan.tx_count(addr("a")), 2);
    }
}

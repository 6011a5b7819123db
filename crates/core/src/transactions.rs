//! The crawled transactions as one table: every crawled address's txlist,
//! owners in ascending order, all rows in one array.
//!
//! # Layout
//!
//! [`TxTable`] has the layout of the `.ensc` TRANSACTIONS section:
//!
//! - a strictly ascending owner column (one entry per crawled address,
//!   including addresses whose txlist came back empty);
//! - a `starts` column: owner `i` owns rows `starts[i]..starts[i + 1]`;
//! - one array of compact [`TxRow`]s, each owner's rows in chain order;
//! - a short list of contract names, which [`TxTag::ContractCall`] rows
//!   refer to by [`ContractId`].
//!
//! A 60 K-name world's 171 K rows live in a handful of allocations instead
//! of one vector per owner and one string per contract row.
//!
//! # What a row records
//!
//! A row holds what the explorer's `txlist` shows about a transaction: its
//! hash, block, timestamp, sender, recipient and value, and a [`TxTag`].
//! The tag is what the explorer shows of the transaction's nature: a plain
//! transfer, a call into a contract (with the explorer's name for that
//! contract), or a mint from the zero address. The study's filters read
//! exactly these observables.
//!
//! # Determinism
//!
//! Contract ids are assigned in first-seen row order by every constructor,
//! so two tables holding the same histories are equal field by field. The
//! JSON form is the map the dataset always exported: one entry per owner,
//! keyed by address, each a list of explorer transactions.

use std::collections::{BTreeMap, HashMap};

use ens_types::{Address, BlockNumber, Timestamp, TxHash, Wei};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use sim_chain::{Transaction, TxKind};

/// An index into a [`TxTable`]'s contract names; read one with
/// [`TxTable::contract`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ContractId(u32);

/// What the explorer shows of a transaction's nature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxTag {
    /// A plain value transfer: no contract call, a non-zero sender.
    Transfer,
    /// A call into a contract, tagged with the explorer's name for the
    /// contract (e.g. `"ens-controller"`).
    ContractCall(ContractId),
    /// A mint: the explorer shows the zero address as the sender.
    Mint,
}

/// One transaction of a txlist, as the explorer shows it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxRow {
    /// Transaction hash.
    pub hash: TxHash,
    /// Block in which the transaction was included.
    pub block: BlockNumber,
    /// Block timestamp.
    pub timestamp: Timestamp,
    /// Sender address ([`Address::ZERO`] for mints).
    pub from: Address,
    /// Recipient address.
    pub to: Address,
    /// Value moved, in wei.
    pub value: Wei,
    /// Transfer, contract call or mint.
    pub tag: TxTag,
}

impl TxRow {
    /// True for a plain value transfer — the only rows the study's income
    /// and misdirection filters count.
    pub fn is_transfer(&self) -> bool {
        self.tag == TxTag::Transfer
    }
}

/// Every crawled address's transaction history. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct TxTable {
    owners: Vec<Address>,
    /// Owner `i` owns `rows[starts[i]..starts[i + 1]]`; one more entry
    /// than `owners`, the last equal to `rows.len()`.
    starts: Vec<u32>,
    rows: Vec<TxRow>,
    contracts: Vec<String>,
    /// `contracts` inverted.
    contract_ids: HashMap<String, ContractId>,
}

impl Default for TxTable {
    fn default() -> Self {
        TxTable::with_capacity(0, 0)
    }
}

/// Rows are numbered in `u32`; a table of 2³² rows is refused.
fn row_number(n: usize) -> u32 {
    u32::try_from(n).expect("a transaction table holds fewer than 2^32 rows")
}

impl TxTable {
    /// An empty table with room for `owners` histories of `rows` rows in
    /// all.
    pub(crate) fn with_capacity(owners: usize, rows: usize) -> TxTable {
        let mut starts = Vec::with_capacity(owners + 1);
        starts.push(0);
        TxTable {
            owners: Vec::with_capacity(owners),
            starts,
            rows: Vec::with_capacity(rows),
            contracts: Vec::new(),
            contract_ids: HashMap::new(),
        }
    }

    /// The table of `histories`, whose owners must ascend strictly (a
    /// `BTreeMap`'s order). Each history is freed as soon as its rows are
    /// in the table.
    ///
    /// # Panics
    ///
    /// Panics if two owners are out of order or equal.
    pub fn from_histories(
        histories: impl IntoIterator<Item = (Address, Vec<Transaction>)>,
    ) -> TxTable {
        let histories: Vec<(Address, Vec<Transaction>)> = histories.into_iter().collect();
        let rows = histories.iter().map(|(_, txs)| txs.len()).sum();
        let mut table = TxTable::with_capacity(histories.len(), rows);
        for (owner, txs) in histories {
            table.push_owner(owner);
            for tx in &txs {
                table.push_transaction(tx);
            }
        }
        table
    }

    /// This table, its contract names kept, holding `owners` (strictly
    /// ascending), owner `i` owning `rows[starts[i]..starts[i + 1]]`. The
    /// rows' contract ids must be ones this table numbered.
    ///
    /// # Panics
    ///
    /// Panics unless `starts` has one entry more than `owners`, from 0 up
    /// to `rows.len()`.
    pub(crate) fn with_rows(
        self,
        owners: Vec<Address>,
        starts: Vec<u32>,
        rows: Vec<TxRow>,
    ) -> TxTable {
        assert!(
            starts.len() == owners.len() + 1
                && starts[0] == 0
                && starts.last() == Some(&row_number(rows.len())),
            "starts must run from 0 to the row count, one entry per owner and one more"
        );
        debug_assert!(owners.windows(2).all(|w| w[0] < w[1]));
        TxTable {
            owners,
            starts,
            rows,
            ..self
        }
    }

    /// Starts `owner`'s history; the rows pushed next are its rows.
    ///
    /// # Panics
    ///
    /// Panics unless `owner` is above every owner already in the table.
    pub(crate) fn push_owner(&mut self, owner: Address) {
        assert!(
            self.owners.last().is_none_or(|&last| last < owner),
            "owners must be pushed in strictly ascending order"
        );
        self.owners.push(owner);
        self.starts.push(row_number(self.rows.len()));
    }

    /// Appends a row to the history of the last owner pushed.
    ///
    /// # Panics
    ///
    /// Panics if no owner was pushed yet, or if the row names a contract
    /// id the table does not hold.
    pub(crate) fn push_row(&mut self, row: TxRow) {
        assert!(!self.owners.is_empty(), "a row needs an owner");
        if let TxTag::ContractCall(id) = row.tag {
            assert!(
                (id.0 as usize) < self.contracts.len(),
                "unknown contract id"
            );
        }
        self.rows.push(row);
        *self.starts.last_mut().expect("starts is never empty") = row_number(self.rows.len());
    }

    /// Appends an explorer transaction to the history of the last owner
    /// pushed, interning its contract name.
    pub(crate) fn push_transaction(&mut self, tx: &Transaction) {
        let tag = match &tx.kind {
            TxKind::Transfer => TxTag::Transfer,
            TxKind::ContractPayment { contract } => TxTag::ContractCall(self.contract_id(contract)),
            TxKind::Mint => TxTag::Mint,
        };
        self.push_row(TxRow {
            hash: tx.hash,
            block: tx.block,
            timestamp: tx.timestamp,
            from: tx.from,
            to: tx.to,
            value: tx.value,
            tag,
        });
    }

    /// The id of contract name `name`, added on first sight.
    pub(crate) fn contract_id(&mut self, name: &str) -> ContractId {
        if let Some(&id) = self.contract_ids.get(name) {
            return id;
        }
        let id = ContractId(
            u32::try_from(self.contracts.len()).expect("fewer than 2^32 contract names"),
        );
        self.contracts.push(name.to_string());
        self.contract_ids.insert(name.to_string(), id);
        id
    }

    /// The explorer's name for contract `id`.
    ///
    /// # Panics
    ///
    /// Panics if the table holds no contract `id`.
    pub fn contract(&self, id: ContractId) -> &str {
        &self.contracts[id.0 as usize]
    }

    /// The owners, ascending.
    pub fn keys(&self) -> std::slice::Iter<'_, Address> {
        self.owners.iter()
    }

    /// The owners, ascending, as a slice.
    pub(crate) fn owners(&self) -> &[Address] {
        &self.owners
    }

    /// Owner `i` and its rows.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub(crate) fn history(&self, i: usize) -> (Address, &[TxRow]) {
        let rows = self.starts[i] as usize..self.starts[i + 1] as usize;
        (self.owners[i], &self.rows[rows])
    }

    /// `owner`'s rows, or `None` if the table holds no history for it. An
    /// owner whose txlist came back empty has `Some(&[])`.
    pub fn get(&self, owner: &Address) -> Option<&[TxRow]> {
        let i = self.owners.binary_search(owner).ok()?;
        Some(self.history(i).1)
    }

    /// True if the table holds a history for `owner`.
    pub fn contains_key(&self, owner: &Address) -> bool {
        self.owners.binary_search(owner).is_ok()
    }

    /// Every owner with its rows, owners ascending.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Address, &[TxRow])> + '_ {
        self.owners
            .iter()
            .zip(self.starts.windows(2))
            .map(|(owner, run)| (owner, &self.rows[run[0] as usize..run[1] as usize]))
    }

    /// Every row, owner by owner.
    pub fn rows(&self) -> &[TxRow] {
        &self.rows
    }

    /// Number of owners.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True if the table holds no owner.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// `row` as the explorer's transaction record, contract name and all.
    pub fn transaction(&self, row: &TxRow) -> Transaction {
        Transaction {
            hash: row.hash,
            block: row.block,
            timestamp: row.timestamp,
            from: row.from,
            to: row.to,
            value: row.value,
            kind: match row.tag {
                TxTag::Transfer => TxKind::Transfer,
                TxTag::ContractCall(id) => TxKind::ContractPayment {
                    contract: self.contract(id).to_string(),
                },
                TxTag::Mint => TxKind::Mint,
            },
        }
    }
}

/// One owner's rows, serialized as the list of explorer transactions the
/// map form held.
struct History<'a> {
    table: &'a TxTable,
    rows: &'a [TxRow],
}

impl Serialize for History<'_> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let txs: Vec<Transaction> = self
            .rows
            .iter()
            .map(|r| self.table.transaction(r))
            .collect();
        txs.serialize(s)
    }
}

/// The JSON form is the former `BTreeMap<Address, Vec<Transaction>>`,
/// serialized through that same map type, so the bytes cannot drift.
impl Serialize for TxTable {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let map: BTreeMap<Address, History<'_>> = self
            .iter()
            .map(|(&owner, rows)| (owner, History { table: self, rows }))
            .collect();
        map.serialize(s)
    }
}

/// Decodes through the map type too, so duplicate keys keep the last
/// entry, as they always did.
impl<'de> Deserialize<'de> for TxTable {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        BTreeMap::<Address, Vec<Transaction>>::deserialize(d).map(TxTable::from_histories)
    }
}

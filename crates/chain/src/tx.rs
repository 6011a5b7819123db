//! Transactions recorded by the simulated ledger.

use ens_types::{Address, BlockNumber, Hash32, Timestamp, TxHash, Wei};
use serde::{Deserialize, Serialize};

/// What kind of transaction this is, as a block explorer shows it. The
/// ledger itself does not interpret it. The measurement pipeline sees
/// exactly what the explorer's `txlist` shows and nothing more: whether the
/// transaction called a contract, the explorer's name tag for that
/// contract, and a zero sender on a mint. The study's income and
/// misdirection filters count only [`TxKind::Transfer`] rows.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxKind {
    /// A plain value transfer between externally-owned accounts: no
    /// contract call, a non-zero sender.
    Transfer,
    /// A call into a contract, shown with the explorer's name tag for the
    /// contract (e.g. `"ens-controller"`, `"opensea"`).
    ContractPayment {
        /// The explorer's name for the receiving contract.
        contract: String,
    },
    /// Funds minted at genesis or by a faucet: the explorer shows the zero
    /// address as the sender.
    Mint,
}

/// A confirmed transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Unique transaction hash.
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
    /// Transfer, contract call or mint, as the explorer shows it.
    pub kind: TxKind,
}

impl Transaction {
    /// Derives the deterministic hash for the `nonce`-th transaction.
    pub(crate) fn derive_hash(nonce: u64, from: Address, to: Address, value: Wei) -> TxHash {
        let mut seed = Vec::with_capacity(8 + 20 + 20 + 16);
        seed.extend_from_slice(&nonce.to_be_bytes());
        seed.extend_from_slice(&from.0);
        seed.extend_from_slice(&to.0);
        seed.extend_from_slice(&value.0.to_be_bytes());
        TxHash(Hash32(ens_types::keccak256(&seed)))
    }
}

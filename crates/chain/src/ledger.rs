//! The ledger: account balances, a monotone clock, and an append-only
//! transaction log.

use std::collections::HashMap;

use ens_types::{Address, BlockNumber, Duration, Timestamp, TxHash, Wei, SECONDS_PER_BLOCK};
use serde::{Deserialize, Serialize};

use crate::error::ChainError;
use crate::tx::{Transaction, TxKind};

/// Fee policy applied to every (non-mint) transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GasPolicy {
    /// No fees — the default for analysis runs, where fees only add noise.
    Free,
    /// A flat fee per transaction, credited to the fee sink account.
    FlatFee(Wei),
}

/// A deterministic, single-threaded Ethereum-like ledger.
///
/// ```
/// use ens_types::{Address, Timestamp, Wei};
/// use sim_chain::{Chain, TxKind};
///
/// let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
/// let (alice, bob) = (Address::derive(b"alice"), Address::derive(b"bob"));
/// chain.mint(alice, Wei::from_eth(10));
/// chain.transfer(alice, bob, Wei::from_eth(3), TxKind::Transfer).unwrap();
/// assert_eq!(chain.balance(bob), Wei::from_eth(3));
/// assert_eq!(chain.total_balance(), chain.total_minted());
/// ```
///
/// This is the substrate everything else runs on: the ENS contracts debit
/// registration fees through it, the workload's senders move funds through
/// it, and `etherscan-sim` indexes its transaction log. Blocks are purely a
/// function of the clock (one every [`SECONDS_PER_BLOCK`] seconds since
/// genesis), which keeps replays bit-for-bit reproducible.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Chain {
    genesis: Timestamp,
    now: Timestamp,
    balances: HashMap<Address, Wei>,
    /// Confirmed transactions not yet taken by [`Chain::take_transactions`].
    transactions: Vec<Transaction>,
    /// Transactions confirmed so far, taken or not: the next one's nonce.
    nonce: u64,
    gas: GasPolicy,
    fee_sink: Address,
    minted: Wei,
    fees_collected: Wei,
}

impl Chain {
    /// Creates a ledger whose genesis block is at `genesis`.
    pub fn new(genesis: Timestamp) -> Chain {
        Chain {
            genesis,
            now: genesis,
            balances: HashMap::new(),
            transactions: Vec::new(),
            nonce: 0,
            gas: GasPolicy::Free,
            fee_sink: Address::derive(b"sim-chain/fee-sink"),
            minted: Wei::ZERO,
            fees_collected: Wei::ZERO,
        }
    }

    /// Sets the fee policy (default [`GasPolicy::Free`]).
    pub fn with_gas_policy(mut self, gas: GasPolicy) -> Chain {
        self.gas = gas;
        self
    }

    /// Current chain time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Genesis time.
    pub fn genesis(&self) -> Timestamp {
        self.genesis
    }

    /// Current block height, derived from the clock.
    pub fn block_number(&self) -> BlockNumber {
        BlockNumber((self.now.0 - self.genesis.0) / SECONDS_PER_BLOCK)
    }

    /// Advances the clock by `d`.
    pub fn advance(&mut self, d: Duration) {
        self.now += d;
    }

    /// Moves the clock to an absolute time, which must not be in the past.
    pub fn advance_to(&mut self, t: Timestamp) -> Result<(), ChainError> {
        if t < self.now {
            return Err(ChainError::ClockWentBackwards {
                now: self.now,
                requested: t,
            });
        }
        self.now = t;
        Ok(())
    }

    /// Balance of `addr` (zero for unknown accounts).
    pub fn balance(&self, addr: Address) -> Wei {
        self.balances.get(&addr).copied().unwrap_or(Wei::ZERO)
    }

    /// Mints `value` into `to` (genesis allocation / faucet). Recorded as a
    /// transaction from [`Address::ZERO`] so indexers see a complete log.
    pub fn mint(&mut self, to: Address, value: Wei) -> TxHash {
        self.minted += value;
        *self.balances.entry(to).or_insert(Wei::ZERO) += value;
        self.push_tx(Address::ZERO, to, value, TxKind::Mint)
    }

    /// Transfers `value` from `from` to `to`, charging the gas fee on top.
    pub fn transfer(
        &mut self,
        from: Address,
        to: Address,
        value: Wei,
        kind: TxKind,
    ) -> Result<TxHash, ChainError> {
        if value.is_zero() {
            return Err(ChainError::ZeroValueTransfer);
        }
        let fee = match self.gas {
            GasPolicy::Free => Wei::ZERO,
            GasPolicy::FlatFee(f) => f,
        };
        let needed = value + fee;
        let balance = self.balance(from);
        if balance < needed {
            return Err(ChainError::InsufficientFunds {
                from,
                balance,
                needed,
            });
        }
        *self.balances.get_mut(&from).expect("balance checked above") = balance - needed;
        *self.balances.entry(to).or_insert(Wei::ZERO) += value;
        if !fee.is_zero() {
            *self.balances.entry(self.fee_sink).or_insert(Wei::ZERO) += fee;
            self.fees_collected += fee;
        }
        Ok(self.push_tx(from, to, value, kind))
    }

    fn push_tx(&mut self, from: Address, to: Address, value: Wei, kind: TxKind) -> TxHash {
        let hash = Transaction::derive_hash(self.nonce, from, to, value);
        self.nonce += 1;
        self.transactions.push(Transaction {
            hash,
            block: self.block_number(),
            timestamp: self.now,
            from,
            to,
            value,
            kind,
        });
        hash
    }

    /// The transaction log in confirmation order: every transaction
    /// confirmed since the log was last taken, so the full log if it never
    /// was.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Moves the log out of the ledger, in confirmation order, for an
    /// indexer that folds it while the chain keeps growing. Nonces keep
    /// counting, so every later hash is the one a ledger whose log was
    /// never taken derives.
    pub fn take_transactions(&mut self) -> Vec<Transaction> {
        let next = Vec::with_capacity(self.transactions.len());
        std::mem::replace(&mut self.transactions, next)
    }

    /// Number of confirmed transactions, taken or not.
    pub fn transaction_count(&self) -> usize {
        self.nonce as usize
    }

    /// Total value ever minted.
    pub fn total_minted(&self) -> Wei {
        self.minted
    }

    /// Sum of all account balances. Always equals [`Chain::total_minted`] —
    /// transfers conserve value (fees are moved, not burned).
    pub fn total_balance(&self) -> Wei {
        self.balances.values().copied().sum()
    }

    /// Iterates over `(address, balance)` pairs in unspecified order.
    pub fn balances(&self) -> impl Iterator<Item = (Address, Wei)> + '_ {
        self.balances.iter().map(|(a, w)| (*a, *w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Timestamp {
        Timestamp::from_ymd(2020, 1, 1)
    }

    fn addr(s: &str) -> Address {
        Address::derive(s.as_bytes())
    }

    #[test]
    fn mint_and_transfer_move_value() {
        let mut chain = Chain::new(t0());
        chain.mint(addr("a"), Wei::from_eth(10));
        chain
            .transfer(addr("a"), addr("b"), Wei::from_eth(3), TxKind::Transfer)
            .unwrap();
        assert_eq!(chain.balance(addr("a")), Wei::from_eth(7));
        assert_eq!(chain.balance(addr("b")), Wei::from_eth(3));
        assert_eq!(chain.transaction_count(), 2);
    }

    #[test]
    fn transfer_rejects_insufficient_funds() {
        let mut chain = Chain::new(t0());
        chain.mint(addr("a"), Wei::from_eth(1));
        let err = chain
            .transfer(addr("a"), addr("b"), Wei::from_eth(2), TxKind::Transfer)
            .unwrap_err();
        assert!(matches!(err, ChainError::InsufficientFunds { .. }));
        // Failed transfers leave no trace.
        assert_eq!(chain.transaction_count(), 1);
        assert_eq!(chain.balance(addr("a")), Wei::from_eth(1));
    }

    #[test]
    fn transfer_rejects_zero_value() {
        let mut chain = Chain::new(t0());
        chain.mint(addr("a"), Wei::from_eth(1));
        assert_eq!(
            chain.transfer(addr("a"), addr("b"), Wei::ZERO, TxKind::Transfer),
            Err(ChainError::ZeroValueTransfer)
        );
    }

    #[test]
    fn value_is_conserved_with_fees() {
        let mut chain =
            Chain::new(t0()).with_gas_policy(GasPolicy::FlatFee(Wei::from_milli_eth(1)));
        chain.mint(addr("a"), Wei::from_eth(5));
        for _ in 0..10 {
            chain
                .transfer(
                    addr("a"),
                    addr("b"),
                    Wei::from_milli_eth(100),
                    TxKind::Transfer,
                )
                .unwrap();
        }
        assert_eq!(chain.total_balance(), chain.total_minted());
        assert_eq!(chain.fees_collected, Wei::from_milli_eth(10));
    }

    #[test]
    fn clock_is_monotone_and_drives_blocks() {
        let mut chain = Chain::new(t0());
        assert_eq!(chain.block_number(), BlockNumber(0));
        chain.advance(Duration::from_secs(120));
        assert_eq!(chain.block_number(), BlockNumber(10));
        let past = Timestamp(t0().0 + 60);
        assert!(matches!(
            chain.advance_to(past),
            Err(ChainError::ClockWentBackwards { .. })
        ));
        chain.advance_to(Timestamp(t0().0 + 240)).unwrap();
        assert_eq!(chain.block_number(), BlockNumber(20));
    }

    #[test]
    fn tx_hashes_are_unique_even_for_identical_payloads() {
        let mut chain = Chain::new(t0());
        chain.mint(addr("a"), Wei::from_eth(10));
        let h1 = chain
            .transfer(addr("a"), addr("b"), Wei::from_eth(1), TxKind::Transfer)
            .unwrap();
        let h2 = chain
            .transfer(addr("a"), addr("b"), Wei::from_eth(1), TxKind::Transfer)
            .unwrap();
        assert_ne!(h1, h2);
    }

    /// The log of a replay that takes it every `take_every` transactions
    /// (never if `None`), stitched back together, and the final count.
    /// Every payload is identical, so only the nonce tells hashes apart.
    fn replay_taking(take_every: Option<usize>) -> (Vec<Transaction>, usize) {
        let mut chain = Chain::new(t0());
        let mut log = Vec::new();
        for i in 1..=20 {
            chain.mint(addr("a"), Wei::from_eth(1));
            if take_every.is_some_and(|k| i % k == 0) {
                log.extend(chain.take_transactions());
            }
        }
        log.extend(chain.take_transactions());
        assert!(chain.transactions().is_empty());
        (log, chain.transaction_count())
    }

    #[test]
    fn taking_the_log_mid_replay_keeps_every_hash() {
        let whole = replay_taking(None);
        assert_eq!(whole.1, 20);
        for k in [1, 3, 7, 20] {
            assert_eq!(replay_taking(Some(k)), whole, "taken every {k}");
        }
    }

    #[test]
    fn self_transfer_is_allowed_and_conserves() {
        let mut chain = Chain::new(t0());
        chain.mint(addr("a"), Wei::from_eth(2));
        chain
            .transfer(addr("a"), addr("a"), Wei::from_eth(1), TxKind::Transfer)
            .unwrap();
        assert_eq!(chain.balance(addr("a")), Wei::from_eth(2));
    }

    #[test]
    fn transactions_record_block_and_time() {
        let mut chain = Chain::new(t0());
        chain.advance(Duration::from_days(2));
        chain.mint(addr("a"), Wei::from_eth(1));
        let tx = chain.transactions().last().unwrap();
        assert_eq!(tx.timestamp, t0() + Duration::from_days(2));
        assert_eq!(tx.block, BlockNumber(2 * 86_400 / 12));
        assert_eq!(tx.kind, TxKind::Mint);
    }
}

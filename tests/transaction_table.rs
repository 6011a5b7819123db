//! The dataset's transaction table against the map it replaced.
//!
//! `Dataset::transactions` was a `BTreeMap<Address, Vec<Transaction>>`. It
//! is now one owner-sorted table of compact rows. This property test keeps
//! the map as the reference and checks, over random histories, that the
//! table answers every question the map answered, and that its JSON is the
//! map's JSON byte for byte. The histories hold timestamps out of order,
//! self-sends, mints, contract calls under several names, and owners whose
//! history is empty. The table that the columnar decode builds equals the
//! one built from the map, field by field.

use std::collections::BTreeMap;

use ens_dropcatch_suite::analysis::{Dataset, Metrics, TxRow, TxTable};
use ens_dropcatch_suite::chain::{Transaction, TxKind};
use ens_dropcatch_suite::oracle::PriceOracle;
use ens_dropcatch_suite::types::{Address, BlockNumber, Hash32, Timestamp, TxHash, UsdCents, Wei};
use proptest::prelude::*;

const DAY: u64 = 86_400;
const GENESIS: u64 = 1_600_000_000;
const CONTRACTS: [&str; 3] = ["ens-controller", "opensea", "uniswap"];

type Window = Option<(Timestamp, Timestamp)>;

/// Address `i` of a small pool; `i == pool` is the zero address.
fn address(i: usize, pool: usize) -> Address {
    if i % (pool + 1) == pool {
        Address::ZERO
    } else {
        Address::derive(format!("table-owner-{}", i % (pool + 1)).as_bytes())
    }
}

/// The reference: histories as the map held them. A transaction
/// `(from, to, day, value, how)` lands in its recipient's history, its
/// sender's, or both; `how` also picks its kind and, for a mint, sends it
/// from the zero address. Owners at `empty` are crawled with no rows.
fn histories(
    pool: usize,
    txs: &[(usize, usize, u64, u64, u8)],
    empty: &[usize],
) -> BTreeMap<Address, Vec<Transaction>> {
    let mut map: BTreeMap<Address, Vec<Transaction>> = BTreeMap::new();
    for &i in empty {
        map.entry(address(i, pool)).or_default();
    }
    for (n, &(from, to, day, value, how)) in txs.iter().enumerate() {
        let kind = match how % 5 {
            0 => TxKind::Mint,
            1 | 2 => TxKind::ContractPayment {
                contract: CONTRACTS[usize::from(how) % CONTRACTS.len()].to_string(),
            },
            _ => TxKind::Transfer,
        };
        let from = match kind {
            TxKind::Mint => Address::ZERO,
            _ => address(from, pool),
        };
        let tx = Transaction {
            hash: TxHash(Hash32(ens_dropcatch_suite::types::keccak256(
                &(n as u64).to_le_bytes(),
            ))),
            block: BlockNumber(n as u64),
            // Generation order, not time order: most lists are unsorted.
            timestamp: Timestamp(GENESIS + day * DAY),
            from,
            to: address(to, pool),
            value: Wei(u128::from(value) * 1_000_000_000_000),
            kind,
        };
        if how % 3 != 1 {
            map.entry(tx.to).or_default().push(tx.clone());
        }
        if how % 3 != 0 && !tx.from.is_zero() {
            map.entry(tx.from).or_default().push(tx);
        }
    }
    map
}

/// The map's definition of `Dataset::incoming`.
fn reference_incoming(
    map: &BTreeMap<Address, Vec<Transaction>>,
    address: Address,
    window: Window,
) -> impl Iterator<Item = &Transaction> {
    map.get(&address).into_iter().flatten().filter(move |tx| {
        tx.to == address
            && tx.from != address
            && matches!(tx.kind, TxKind::Transfer)
            && window.is_none_or(|(a, b)| tx.timestamp >= a && tx.timestamp < b)
    })
}

/// The map's definition of `Dataset::income_usd`.
fn reference_income(
    map: &BTreeMap<Address, Vec<Transaction>>,
    address: Address,
    window: Window,
    oracle: &PriceOracle,
) -> UsdCents {
    reference_incoming(map, address, window)
        .map(|tx| oracle.to_usd(tx.value, tx.timestamp))
        .sum()
}

fn explorer_form(table: &TxTable, rows: &[TxRow]) -> Vec<Transaction> {
    rows.iter().map(|r| table.transaction(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_table_answers_like_the_map(
        pool in 1usize..12,
        txs in proptest::collection::vec(
            (0usize..16, 0usize..16, 0u64..300, 0u64..5_000_000, 0u8..30),
            0..120,
        ),
        empty in proptest::collection::vec(0usize..16, 0..4),
        windows in proptest::collection::vec((0u64..320, 0u64..320), 1..5),
    ) {
        let map = histories(pool, &txs, &empty);
        let table = TxTable::from_histories(map.clone());

        prop_assert_eq!(table.len(), map.len());
        prop_assert_eq!(
            table.keys().copied().collect::<Vec<_>>(),
            map.keys().copied().collect::<Vec<_>>()
        );
        let iterated: Vec<(Address, Vec<Transaction>)> = table
            .iter()
            .map(|(a, rows)| (*a, explorer_form(&table, rows)))
            .collect();
        let expected: Vec<(Address, Vec<Transaction>)> =
            map.iter().map(|(a, txs)| (*a, txs.clone())).collect();
        prop_assert_eq!(iterated, expected);

        // Every pool address, the zero address, and one never crawled.
        let mut probes: Vec<Address> = (0..=pool).map(|i| address(i, pool)).collect();
        probes.push(Address::derive(b"never crawled"));
        let mut spans: Vec<Window> = vec![None];
        spans.extend(windows.iter().map(|&(a, b)| {
            Some((Timestamp(GENESIS + a * DAY), Timestamp(GENESIS + b * DAY)))
        }));

        // The JSON export is the map's, and decodes back to the table.
        let json = serde_json::to_string(&table).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&map).unwrap());
        let back: TxTable = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &table);

        let oracle = PriceOracle::new();
        let ds = Dataset {
            transactions: table,
            ..Dataset::default()
        };
        // The columnar decode numbers contract names as the map conversion
        // does, so the decoded table equals this one field by field, at
        // any thread count.
        let bytes = ds.to_columnar(&Metrics::disabled()).unwrap();
        for threads in [1, 2, 8] {
            let file = std::io::Cursor::new(&bytes);
            let decoded = Dataset::read_columnar(file, threads, &Metrics::disabled()).unwrap();
            prop_assert_eq!(&decoded.transactions, &ds.transactions);
        }
        for &a in &probes {
            prop_assert_eq!(
                ds.transactions.get(&a).map(|rows| explorer_form(&ds.transactions, rows)),
                map.get(&a).cloned()
            );
            prop_assert_eq!(ds.transactions.contains_key(&a), map.contains_key(&a));
            for &window in &spans {
                let incoming: Vec<Transaction> = ds
                    .incoming(a, window)
                    .map(|r| ds.transactions.transaction(r))
                    .collect();
                let expected: Vec<Transaction> =
                    reference_incoming(&map, a, window).cloned().collect();
                prop_assert_eq!(incoming, expected);
                prop_assert_eq!(
                    ds.income_usd(a, window, &oracle),
                    reference_income(&map, a, window, &oracle)
                );
            }
        }
    }
}

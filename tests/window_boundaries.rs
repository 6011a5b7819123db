//! Regression tests for the §4.4 ownership-window boundary contract: the
//! previous owner's attribution window is half-open `[0, at)` and the new
//! owner's tenure is `[at, new_expiry)`, so a transfer timestamped at
//! *exactly* the re-registration instant belongs to the new owner only —
//! never double-counted, never dropped — and a transfer at exactly
//! `new_expiry` is outside the tenure. Checked on both the naive and the
//! indexed loss paths, which must agree byte-for-byte.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ens_dropcatch_suite::analysis::{
    analyze_losses, detect_all, naive, window_contains, AnalysisIndex, CrawlReport, Dataset,
    Metrics,
};
use ens_dropcatch_suite::chain::{Transaction, TxKind};
use ens_dropcatch_suite::etherscan::LabelService;
use ens_dropcatch_suite::opensea::OpenSea;
use ens_dropcatch_suite::oracle::PriceOracle;
use ens_dropcatch_suite::subgraph::{DomainRecord, RegistrationEntry};
use ens_dropcatch_suite::types::{
    Address, BlockNumber, EnsName, Hash32, LabelHash, Timestamp, TxHash, Wei,
};

const DAY: u64 = 86_400;

fn t(days: u64) -> Timestamp {
    Timestamp(days * DAY)
}

fn addr(n: u8) -> Address {
    Address([n; 20])
}

fn tx(n: u8, at: Timestamp, from: Address, to: Address) -> Transaction {
    Transaction {
        hash: TxHash(Hash32([n; 32])),
        block: BlockNumber(n as u64),
        timestamp: at,
        from,
        to,
        value: Wei(10u128.pow(18)),
        kind: TxKind::Transfer,
    }
}

/// One domain registered by `a1`, expired at day 200, re-registered by
/// `a2` at exactly day 320 — so `at = t(320)` and `new_expiry = t(500)`.
fn boundary_dataset() -> (Dataset, Address, Address) {
    let a1 = addr(1);
    let a2 = addr(2);
    let c1 = addr(11); // sends to a2 at exactly `at` and exactly `new_expiry`
    let c2 = addr(12); // sends to a1 at exactly `at` — disqualified
    let c3 = addr(13); // ordinary common sender, incl. a tx at exact prev expiry

    let domain = DomainRecord {
        label_hash: LabelHash(Hash32([7; 32])),
        name: Some(EnsName::parse("boundary").unwrap()),
        registrations: vec![
            RegistrationEntry {
                owner: a1,
                registered_at: t(100),
                expires: t(200),
                base_cost: Wei(5),
                premium: Wei(0),
                block: BlockNumber(1),
                tx: None,
                legacy: false,
            },
            RegistrationEntry {
                owner: a2,
                registered_at: t(320),
                expires: t(500),
                base_cost: Wei(5),
                premium: Wei(0),
                block: BlockNumber(2),
                tx: None,
                legacy: false,
            },
        ],
        ..DomainRecord::default()
    };

    let mut transactions: BTreeMap<Address, Vec<Transaction>> = BTreeMap::new();
    transactions.insert(
        a1,
        vec![
            tx(20, t(150), c1, a1),
            // Exactly at the previous registration's expiry: still inside
            // the previous owner's `[0, at)` attribution window.
            tx(21, t(200), c3, a1),
            tx(22, t(160), c3, a1),
            // Exactly at the re-registration instant: *outside* the
            // previous window, so c2 is disqualified as a common sender.
            tx(23, t(320), c2, a1),
        ],
    );
    transactions.insert(
        a2,
        vec![
            // Exactly at the re-registration instant: new-owner side only.
            tx(30, t(320), c1, a2),
            tx(31, t(400), c2, a2),
            tx(32, t(400), c3, a2),
            // Exactly at the new registration's expiry: outside the tenure.
            tx(33, t(500), c1, a2),
        ],
    );

    let dataset = Dataset {
        domains: vec![domain],
        transactions,
        observation_end: t(600),
        labels: Arc::new(LabelService::new()),
        reverse_claims: Arc::new(HashMap::new()),
        market: OpenSea::new(),
        crawl_report: CrawlReport::default(),
    };
    (dataset, a1, a2)
}

#[test]
fn window_contract_is_half_open_with_no_gap_and_no_overlap() {
    let (dataset, _, _) = boundary_dataset();
    let rereg = detect_all(&dataset.domains);
    assert_eq!(rereg.len(), 1);
    let r = &rereg[0];
    assert_eq!(r.at, t(320));
    assert_eq!(r.new_expiry, t(500));

    // The boundary instant belongs to the new window only.
    assert!(!window_contains(r.prev_window(), r.at));
    assert!(window_contains(r.new_window(), r.at));
    // The tenure's upper bound is exclusive.
    assert!(!window_contains(r.new_window(), r.new_expiry));
    // Every instant before `new_expiry` is in exactly one window.
    for probe in [Timestamp(0), t(200), t(319), t(320), t(499)] {
        let in_prev = window_contains(r.prev_window(), probe);
        let in_new = window_contains(r.new_window(), probe);
        assert!(in_prev ^ in_new, "{probe:?} must be in exactly one window");
    }
}

#[test]
fn transfer_at_reregistration_instant_goes_to_new_owner_only() {
    let (dataset, _, _) = boundary_dataset();
    let oracle = PriceOracle::new();
    let index = AnalysisIndex::build(&dataset, &oracle, 1, &Metrics::disabled());
    let report = analyze_losses(&dataset, &oracle, &index, 1, &Metrics::disabled());

    assert_eq!(report.findings.len(), 1);
    let senders = &report.findings[0].senders;
    let by_addr = |a: Address| senders.iter().find(|s| s.sender == a);

    // c1's only counted tx to a2 is the one at exactly `at`; the tx at
    // exactly `new_expiry` is outside the tenure.
    let c1 = by_addr(addr(11)).expect("c1 is a common sender");
    assert_eq!(c1.txs_to_prev, 1);
    assert_eq!(c1.txs_to_new, 1);
    assert_eq!(c1.transfers_to_new[0].0, t(320));

    // c2 sent to a1 at exactly `at` — that tx is outside the previous
    // window, which disqualifies c2 entirely (it kept paying a1 after the
    // boundary, so it was not misdirected).
    assert!(by_addr(addr(12)).is_none(), "c2 must be disqualified");

    // c3: both txs to a1 (one at the exact previous expiry) count toward
    // the previous window; one tx inside the tenure.
    let c3 = by_addr(addr(13)).expect("c3 is a common sender");
    assert_eq!(c3.txs_to_prev, 2);
    assert_eq!(c3.txs_to_new, 1);
}

#[test]
fn naive_and_indexed_paths_agree_at_the_exact_boundaries() {
    let (dataset, _, _) = boundary_dataset();
    let oracle = PriceOracle::new();
    let naive = serde_json::to_string(&naive::analyze_losses(&dataset, &oracle)).unwrap();
    for threads in [1, 2, 8] {
        let metrics = Metrics::disabled();
        let index = AnalysisIndex::build(&dataset, &oracle, threads, &metrics);
        let indexed = serde_json::to_string(&analyze_losses(
            &dataset, &oracle, &index, threads, &metrics,
        ))
        .unwrap();
        assert_eq!(naive, indexed, "paths diverge at {threads} threads");
    }
}

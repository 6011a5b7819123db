//! The analysis-substrate equivalence suite: the [`AnalysisIndex`]-backed
//! query and pass implementations must be byte-identical to the naive
//! full-scan baselines they replace — per query, per pass, and for the
//! whole `StudyReport` JSON at thread counts 1, 2 and 8.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use ens_dropcatch::countermeasures::{evaluate_countermeasure, evaluate_countermeasure_with};
use ens_dropcatch::{
    analyze_losses_naive, analyze_losses_with, compare_features_naive, compare_features_with,
    run_study_on, run_study_on_naive, shard_map_weighted, AnalysisIndex, CrawlConfig, Dataset,
    Metrics, StudyConfig,
};
use ens_dropcatch_suite::chain::Transaction;
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::{Address, Duration, Timestamp};
use ens_dropcatch_suite::workload::WorldConfig;
use proptest::prelude::*;

fn build(seed: u64, names: usize) -> (workload::World, Dataset) {
    let world = WorldConfig::small()
        .with_names(names)
        .with_seed(seed)
        .build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let ds = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail")
    .0;
    (world, ds)
}

/// One shared world for the proptest cases (building a world per case
/// would dominate the suite's runtime).
fn shared() -> &'static (workload::World, Dataset, AnalysisIndex) {
    static CELL: OnceLock<(workload::World, Dataset, AnalysisIndex)> = OnceLock::new();
    CELL.get_or_init(|| {
        let (world, ds) = build(71, 600);
        let index = AnalysisIndex::build(&ds, world.oracle());
        (world, ds, index)
    })
}

#[test]
fn indexed_passes_match_naive_across_worlds() {
    for seed in [7, 71, 400] {
        let (world, ds) = build(seed, 800);
        let index = AnalysisIndex::build(&ds, world.oracle());

        let naive_losses = analyze_losses_naive(&ds, world.oracle());
        let indexed_losses = analyze_losses_with(&ds, world.oracle(), &index, 1);
        assert_eq!(
            serde_json::to_string(&naive_losses).unwrap(),
            serde_json::to_string(&indexed_losses).unwrap(),
            "loss reports diverge at seed {seed}"
        );

        let naive_features = compare_features_naive(&ds, world.oracle(), 0xC0FFEE);
        let indexed_features = compare_features_with(&ds, 0xC0FFEE, &index, 1);
        assert_eq!(
            serde_json::to_string(&naive_features).unwrap(),
            serde_json::to_string(&indexed_features).unwrap(),
            "feature comparisons diverge at seed {seed}"
        );

        // The fused four-policy sweep against one naive sweep per policy.
        // A zero window is the edge where the freshness warning never fires.
        for days in [0, 30, 365] {
            let window = Duration::from_days(days);
            assert_eq!(
                serde_json::to_string(&evaluate_countermeasure(&naive_losses, &ds, window))
                    .unwrap(),
                serde_json::to_string(&evaluate_countermeasure_with(
                    &indexed_losses,
                    &ds,
                    &index,
                    window
                ))
                .unwrap(),
                "countermeasure reports diverge at seed {seed}, {days}-day window"
            );
        }
    }
}

#[test]
fn full_study_report_is_byte_identical_naive_vs_indexed_at_1_2_8_threads() {
    let (world, ds) = build(90, 2_000);
    let config = StudyConfig::default();
    let naive = serde_json::to_string(&run_study_on_naive(&ds, world.oracle(), &config)).unwrap();
    for threads in [1, 2, 8] {
        let threaded = StudyConfig { threads, ..config };
        let report = run_study_on(&ds, world.oracle(), &threaded, None, &Metrics::disabled());
        let indexed = serde_json::to_string(&report).unwrap();
        assert_eq!(
            naive, indexed,
            "study report diverges from naive at {threads} threads"
        );
    }
}

/// The `i`-th of `n` equal per-address slices of a dataset's transaction
/// history, preserving each address's timestamp order.
fn tx_slice(ds: &Dataset, i: usize, n: usize) -> BTreeMap<Address, Vec<Transaction>> {
    ds.transactions
        .iter()
        .map(|(a, txs)| {
            let (lo, hi) = (txs.len() * i / n, txs.len() * (i + 1) / n);
            (*a, txs[lo..hi].to_vec())
        })
        .collect()
}

#[test]
fn n_incremental_extends_equal_one_batch_build_at_the_study_report_level() {
    // The tentpole equivalence gate: an index grown by `extend` over N
    // crawl increments must drive the full §4 pipeline to the same bytes
    // as an index built once over the complete dataset.
    let (world, ds) = build(77, 300);
    let config = StudyConfig::default();
    let study = |index| run_study_on(&ds, world.oracle(), &config, index, &Metrics::disabled());
    let batch = serde_json::to_string(&study(None)).unwrap();

    let d3 = ds.domains.len() / 3;
    let mut prefix = ds.clone();
    prefix.domains = ds.domains[..d3].to_vec();
    prefix.transactions = tx_slice(&ds, 0, 3);
    let mut index = AnalysisIndex::build(&prefix, world.oracle());
    index.extend(
        &tx_slice(&ds, 1, 3),
        &ds.domains[d3..2 * d3],
        world.oracle(),
    );
    index.extend(&tx_slice(&ds, 2, 3), &ds.domains[2 * d3..], world.oracle());

    let incremental = serde_json::to_string(&study(Some(&index))).unwrap();
    assert_eq!(
        incremental, batch,
        "a study over an incrementally-extended index diverges from batch"
    );
}

#[test]
fn extends_compose_at_any_granularity() {
    let (world, ds) = build(77, 300);
    let full = AnalysisIndex::build(&ds, world.oracle());
    for n in [2usize, 5, 9] {
        let empty = Dataset {
            domains: Vec::new(),
            transactions: BTreeMap::new(),
            ..ds.clone()
        };
        let mut index = AnalysisIndex::build(&empty, world.oracle());
        for i in 0..n {
            let (lo, hi) = (ds.domains.len() * i / n, ds.domains.len() * (i + 1) / n);
            index.extend(&tx_slice(&ds, i, n), &ds.domains[lo..hi], world.oracle());
        }
        assert_eq!(index.indexed_transfers(), full.indexed_transfers(), "n={n}");
        assert_eq!(index.reregistrations(), full.reregistrations(), "n={n}");
        let end = ds.observation_end;
        let mid = Timestamp(end.0 / 2);
        for &addr in ds.transactions.keys() {
            assert_eq!(
                index.incoming(addr, None),
                full.incoming(addr, None),
                "n={n}"
            );
            for window in [None, Some((Timestamp(0), mid)), Some((mid, end))] {
                assert_eq!(
                    index.income_and_count(addr, window),
                    full.income_and_count(addr, window),
                    "n={n} addr {addr:?} window {window:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every (address, window) query answers identically through the index
    /// and through the raw dataset scan — including inverted and empty
    /// windows.
    #[test]
    fn indexed_queries_match_naive_scans(
        addr_pick in 0usize..10_000,
        a in 0u64..200_000_000,
        b in 0u64..200_000_000,
        open in any::<bool>(),
    ) {
        let (world, ds, index) = shared();
        let genesis = ds
            .transactions
            .values()
            .flatten()
            .map(|tx| tx.timestamp.0)
            .min()
            .unwrap_or(0);
        let addrs: Vec<_> = ds.transactions.keys().copied().collect();
        prop_assume!(!addrs.is_empty());
        let addr = addrs[addr_pick % addrs.len()];
        let window = if open {
            None
        } else {
            Some((Timestamp(genesis + a.min(b)), Timestamp(genesis + a.max(b))))
        };

        let naive: Vec<_> = ds
            .incoming(addr, window)
            .map(|tx| (tx.timestamp, tx.from, tx.value))
            .collect();
        let indexed: Vec<_> = index
            .incoming(addr, window)
            .iter()
            .map(|t| (t.timestamp, t.from, t.value))
            .collect();
        prop_assert_eq!(naive, indexed);
        prop_assert_eq!(
            ds.income_usd(addr, window, world.oracle()),
            index.income_usd(addr, window)
        );
        prop_assert_eq!(ds.unique_senders(addr, window), index.unique_senders(addr, window));
        let (usd, n) = index.income_and_count(addr, window);
        prop_assert_eq!(usd, index.income_usd(addr, window));
        prop_assert_eq!(n, index.incoming(addr, window).len());
    }

    /// The sharded loss and feature passes are invariant in the thread
    /// count (ordered merge over contiguous shards).
    #[test]
    fn sharded_passes_are_thread_count_invariant(threads in 2usize..12) {
        let (world, ds, index) = shared();
        let one = serde_json::to_string(&analyze_losses_with(ds, world.oracle(), index, 1)).unwrap();
        let many = serde_json::to_string(&analyze_losses_with(ds, world.oracle(), index, threads)).unwrap();
        prop_assert_eq!(one, many);
        let one = serde_json::to_string(&compare_features_with(ds, 1, index, 1)).unwrap();
        let many = serde_json::to_string(&compare_features_with(ds, 1, index, threads)).unwrap();
        prop_assert_eq!(one, many);
    }

    /// `shard_map_weighted` is a drop-in for the sequential map under
    /// arbitrary (including adversarially skewed) weights: same output,
    /// any thread count. A weight slice that does not cover the items
    /// one-to-one is always an error.
    #[test]
    fn weighted_sharding_is_identical_to_sequential_map(
        len in 0usize..300,
        threads_pick in 0usize..5,
        mut weights in proptest::collection::vec(0usize..50, 0..320),
        giant_at in 0usize..600, // < len: plant a giant item there
        zero_all in any::<bool>(),
    ) {
        let threads = [1usize, 2, 3, 7, 16][threads_pick];
        let items: Vec<u64> = (0..len as u64).collect();
        weights.resize(len, 1);
        if zero_all {
            weights.iter_mut().for_each(|w| *w = 0);
        } else if giant_at < len {
            weights[giant_at] = usize::MAX / 4; // one item dwarfs the rest
        }
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31)).collect();
        let got = shard_map_weighted(&items, &weights, threads, |x| x.wrapping_mul(31)).unwrap();
        prop_assert_eq!(got, expect);

        if len > 0 {
            let short = &weights[..len - 1];
            prop_assert!(shard_map_weighted(&items, short, threads, |x| *x).is_err());
        }
    }
}

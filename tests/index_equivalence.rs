//! The analysis-substrate equivalence suite: the [`AnalysisIndex`]-backed
//! query and pass implementations must be byte-identical to the naive
//! full-scan baselines they replace — per query, per pass, and for the
//! whole `StudyReport` JSON at thread counts 1, 2 and 8.

use std::sync::OnceLock;

use ens_dropcatch::countermeasures::evaluate_countermeasure_with;
use ens_dropcatch::{
    analyze_losses, compare_features, naive, run_study_on, shard_map, AnalysisIndex, CrawlConfig,
    Dataset, Metrics, StudyConfig,
};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::{Duration, Timestamp};
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
        let index = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());
        (world, ds, index)
    })
}

#[test]
fn indexed_passes_match_naive_across_worlds() {
    for seed in [7, 71, 400] {
        let (world, ds) = build(seed, 800);
        let index = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());

        let naive_losses = naive::analyze_losses(&ds, world.oracle());
        let indexed_losses = analyze_losses(&ds, world.oracle(), &index, 1, &Metrics::disabled());
        assert_eq!(
            serde_json::to_string(&naive_losses).unwrap(),
            serde_json::to_string(&indexed_losses).unwrap(),
            "loss reports diverge at seed {seed}"
        );

        let naive_features = naive::compare_features(&ds, world.oracle(), 0xC0FFEE);
        let indexed_features = compare_features(&ds, 0xC0FFEE, &index, 1, &Metrics::disabled());
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
                serde_json::to_string(&naive::evaluate_countermeasure(&naive_losses, &ds, window))
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
    let naive = serde_json::to_string(&naive::run_study_on(&ds, world.oracle(), &config)).unwrap();
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
        let losses = |threads| {
            serde_json::to_string(&analyze_losses(ds, world.oracle(), index, threads, &Metrics::disabled()))
                .unwrap()
        };
        prop_assert_eq!(losses(1), losses(threads));
        let features = |threads| {
            serde_json::to_string(&compare_features(ds, 1, index, threads, &Metrics::disabled()))
                .unwrap()
        };
        prop_assert_eq!(features(1), features(threads));
    }

    /// `shard_map` is a drop-in for the sequential map at any thread
    /// count, even when one planted item costs far more than all the rest
    /// together (a hub address): whichever worker maps which block, every
    /// result lands in its item's place.
    #[test]
    fn shard_map_is_identical_to_sequential_map_under_skew(
        len in 0usize..300,
        threads_pick in 0usize..5,
        giant_at in 0usize..600, // < len: plant a giant item there
    ) {
        let threads = [1usize, 2, 3, 7, 16][threads_pick];
        let items: Vec<u64> = (0..len as u64).collect();
        let work = |x: &u64| {
            let spins = if *x == giant_at as u64 { 200_000 } else { 10 };
            (0..spins).fold(*x, |acc, i| std::hint::black_box(acc.wrapping_mul(31) ^ i))
        };
        let expect: Vec<u64> = items.iter().map(work).collect();
        prop_assert_eq!(shard_map(&items, threads, work), expect);
    }
}

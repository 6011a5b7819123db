//! The fault-tolerance layer's headline guarantee, under *chaos*: with a
//! seeded fault profile injecting rate limits, timeouts, truncated pages
//! and permanent holes, a degraded crawl still assembles a byte-identical
//! dataset — same items, same gaps, same retry/backoff accounting — for
//! any worker-thread count, and a fail-fast crawl fails with the *same*
//! error and partial stats at any thread count.

use ens_dropcatch_suite::analysis::{
    CollectError, CrawlConfig, Crawler, Dataset, FailurePolicy, RetryPolicy,
};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::{ChaosSource, FaultProfile, PPM};
use ens_dropcatch_suite::workload::WorldConfig;
use proptest::prelude::*;

/// A busy mixed profile: transient bursts everywhere, truncated pages, and
/// a permanent hole — everything the degrade policy must ride over.
fn mixed_profile() -> FaultProfile {
    FaultProfile::named("mixed", 4242).expect("mixed is a named profile")
}

fn chaotic_config(threads: usize) -> CrawlConfig {
    CrawlConfig {
        chaos: Some(mixed_profile()),
        failure: FailurePolicy::degrade(),
        // Small pages force many shards so the thread pool actually has
        // work to interleave, and faults land on many distinct pages.
        subgraph_page_size: 32,
        txlist_page_size: 16,
        market_page_size: 8,
        ..CrawlConfig::with_threads(threads)
    }
}

fn collect_degraded_json(threads: usize) -> String {
    let world = WorldConfig::small().with_names(400).with_seed(88).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let (ds, _) = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &chaotic_config(threads),
    )
    .expect("degrade policy completes under chaos");
    assert!(ds.crawl_report.degraded, "the mixed profile has a hole");
    assert!(!ds.crawl_report.gaps.is_empty());
    assert!(ds.crawl_report.item_recovery_rate() < 1.0);
    ds.to_json().expect("dataset serializes")
}

#[test]
fn degraded_dataset_is_byte_identical_across_thread_counts() {
    let sequential = collect_degraded_json(1);
    for threads in [2, 8] {
        assert_eq!(
            sequential,
            collect_degraded_json(threads),
            "degraded dataset diverges at {threads} threads"
        );
    }
}

#[test]
fn fail_fast_error_is_identical_across_thread_counts() {
    let world = WorldConfig::small().with_names(400).with_seed(88).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let config = |threads| CrawlConfig {
        failure: FailurePolicy::FailFast,
        ..chaotic_config(threads)
    };
    let fail = |threads| match Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &config(threads),
    ) {
        Err(CollectError::Crawl(e)) => e,
        other => panic!("expected a crawl error under fail-fast chaos, got {other:?}"),
    };
    let sequential = fail(1);
    assert!(sequential.stats.pages > 0, "partial stats attached");
    for threads in [2, 3, 7, 8, 16] {
        assert_eq!(
            sequential,
            fail(threads),
            "fail-fast error diverges at {threads} threads"
        );
    }
}

#[test]
fn keyed_chaos_crawl_is_thread_count_independent() {
    // Per-address txlist crawls under per-key derived chaos: the keyed
    // sharding path must merge gaps and stats in canonical key order.
    let world = WorldConfig::small().with_names(300).with_seed(89).build();
    let sg = world.subgraph(SubgraphConfig::lossless());
    let scan = world.etherscan();
    let domains = Crawler::default().crawl(&sg).unwrap().items;
    let addresses = ens_dropcatch::relevant_addresses(&domains);
    let profile = FaultProfile::new(31)
        .with_server_errors(200_000, 2)
        .with_hole(4, 9);
    let crawl = |threads| {
        use ens_types::paged::ShardKey;
        let sources: Vec<_> = addresses
            .iter()
            .map(|&a| {
                (
                    a,
                    ChaosSource::new(
                        scan.txlist_source(a),
                        profile.derive_keyed("txlist", a.shard_hash()),
                    ),
                )
            })
            .collect();
        let crawled = Crawler {
            page_size: 4,
            threads,
            failure: FailurePolicy::degrade(),
            ..Crawler::default()
        }
        .crawl_keyed(&sources)
        .unwrap();
        (
            crawled
                .map
                .iter()
                .map(|(a, txs)| (*a, txs.iter().map(|t| t.hash).collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
            crawled.stats,
            crawled.gaps,
        )
    };
    let sequential = crawl(1);
    assert!(!sequential.2.is_empty(), "some address hit the hole");
    for threads in [2, 3, 7, 8, 16] {
        assert_eq!(sequential, crawl(threads), "diverges at {threads} threads");
    }
}

#[test]
fn min_recovery_gate_rejects_heavy_loss() {
    let world = WorldConfig::small().with_names(400).with_seed(88).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let config = CrawlConfig {
        min_recovery: 0.999,
        ..chaotic_config(1)
    };
    match Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &config,
    ) {
        Err(CollectError::RecoveryBelowMinimum {
            achieved, required, ..
        }) => {
            assert!(achieved < required);
        }
        other => panic!("expected RecoveryBelowMinimum, got {other:?}"),
    }
}

#[test]
fn loss_budget_bounds_degradation() {
    let world = WorldConfig::small().with_names(400).with_seed(88).build();
    let sg = world.subgraph(SubgraphConfig::lossless());
    // A giant hole over most of the page space...
    let chaotic = ChaosSource::new(&sg, FaultProfile::new(3).with_hole(0, 256));
    let err = Crawler {
        page_size: 32,
        failure: FailurePolicy::Degrade { max_lost_items: 64 },
        ..Crawler::default()
    }
    .crawl(&chaotic)
    .unwrap_err();
    assert!(err.message.contains("loss budget exceeded"), "{err}");
    assert!(
        err.gaps.len() >= 2,
        "the gaps that broke the budget survive"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for a range-sharded source with one injected hole, the
    /// degraded crawl's items are *exactly* the clean crawl's items minus
    /// the indices covered by the recorded gaps — no duplication, no
    /// silent extra loss — at any thread count.
    #[test]
    fn degraded_items_are_the_non_gap_subset(
        hole_start in 0usize..180,
        hole_len in 1usize..60,
        page_size in 3usize..40,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        let world = WorldConfig::small().with_names(200).with_seed(55).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let clean = Crawler::with_page_size(page_size).crawl(&sg).unwrap();
        let chaotic = ChaosSource::new(
            &sg,
            FaultProfile::new(1).with_hole(hole_start, hole_start + hole_len),
        );
        let degraded = Crawler {
            page_size,
            threads,
            failure: FailurePolicy::degrade(),
            ..Crawler::default()
        }
        .crawl(&chaotic)
        .unwrap();

        // Reconstruct the lost index set from the recorded gaps.
        let mut lost = vec![false; clean.items.len()];
        for gap in &degraded.gaps {
            let end = gap.end.expect("ranged source gaps have known extent");
            for slot in lost.iter_mut().take(end.min(clean.items.len())).skip(gap.start) {
                *slot = true;
            }
        }
        let expected: Vec<_> = clean
            .items
            .iter()
            .zip(&lost)
            .filter(|(_, &l)| !l)
            .map(|(d, _)| d.label_hash)
            .collect();
        let got: Vec<_> = degraded.items.iter().map(|d| d.label_hash).collect();
        prop_assert_eq!(got, expected);
        // Accounting matches the reconstruction.
        let lost_count = lost.iter().filter(|&&l| l).count();
        let estimate: usize = degraded.gaps.iter().map(|g| g.lost_estimate).sum();
        prop_assert_eq!(estimate, lost_count);
    }

    /// Property: transient-only chaos (no holes, no truncation) is always
    /// fully retried away — the crawl is lossless and gap-free whatever
    /// the fault rates, and identical to the clean crawl.
    #[test]
    fn transient_only_chaos_is_lossless(
        rate_ppm in 0u32..=PPM,
        burst in 1u32..=3,
        seed in 0u64..1000,
    ) {
        let world = WorldConfig::small().with_names(120).with_seed(56).build();
        let sg = world.subgraph(SubgraphConfig::lossless());
        let clean = Crawler::with_page_size(16).crawl(&sg).unwrap();
        let chaotic = ChaosSource::new(
            &sg,
            FaultProfile::new(seed)
                .with_server_errors(rate_ppm, burst)
                .with_timeouts(PPM - rate_ppm, burst),
        );
        let crawled = Crawler {
            page_size: 16,
            retry: RetryPolicy::with_max_retries(burst as usize),
            ..Crawler::default()
        }
        .crawl(&chaotic)
        .unwrap();
        prop_assert_eq!(&crawled.items, &clean.items);
        prop_assert!(crawled.gaps.is_empty());
        prop_assert_eq!(crawled.stats.retries_by_kind.total(), crawled.stats.retries);
    }
}

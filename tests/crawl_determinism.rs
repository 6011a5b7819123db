//! The sharded crawl engine's headline guarantee: the assembled dataset is
//! *byte-identical* for any worker-thread count, and the engine handles the
//! degenerate shapes (empty source, single page, more shards than items)
//! without special-casing.

use ens_dropcatch_suite::analysis::{CrawlConfig, Crawler, Dataset, RetryPolicy};
use ens_dropcatch_suite::subgraph::{Subgraph, SubgraphConfig};
use ens_dropcatch_suite::workload::WorldConfig;

fn collect_json(threads: usize) -> String {
    let world = WorldConfig::small().with_names(500).with_seed(77).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let (ds, _timings) = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig {
            // Small pages force many shards, so the thread pool actually
            // has work to interleave.
            subgraph_page_size: 32,
            txlist_page_size: 16,
            market_page_size: 8,
            ..CrawlConfig::with_threads(threads)
        },
    )
    .expect("clean endpoints cannot fail");
    ds.to_json().expect("dataset serializes")
}

#[test]
fn dataset_json_is_byte_identical_across_thread_counts() {
    let sequential = collect_json(1);
    let sharded = collect_json(4);
    assert_eq!(sequential, sharded);
}

#[test]
fn empty_subgraph_crawl_yields_an_empty_dataset() {
    let sg = Subgraph::index(&[], SubgraphConfig::lossless());
    for threads in [1, 4] {
        let crawled = Crawler {
            threads,
            ..Crawler::default()
        }
        .crawl(&sg)
        .expect("empty crawl succeeds");
        assert!(crawled.items.is_empty());
        // An empty source still costs exactly one probe page.
        assert_eq!(crawled.stats.pages, 1);
        assert_eq!(crawled.stats.items, 0);
    }
}

#[test]
fn single_page_world_needs_exactly_one_page() {
    let world = WorldConfig::small().with_names(40).with_seed(3).build();
    let sg = world.subgraph(SubgraphConfig::lossless());
    let crawled = Crawler::with_page_size(1000).crawl(&sg).expect("crawl");
    assert_eq!(crawled.items.len(), 40);
    assert_eq!(crawled.stats.pages, 1);
}

#[test]
fn more_shards_than_items_is_harmless() {
    let world = WorldConfig::small().with_names(10).with_seed(4).build();
    let sg = world.subgraph(SubgraphConfig::lossless());
    // page_size 1 → ten one-item shards, claimed by 64 would-be workers.
    let many = Crawler {
        page_size: 1,
        threads: 64,
        retry: RetryPolicy::with_max_retries(0),
        ..Crawler::default()
    }
    .crawl(&sg)
    .expect("crawl");
    let one = Crawler::with_page_size(1000).crawl(&sg).expect("crawl");
    assert_eq!(many.items, one.items);
    assert_eq!(many.stats.pages, 10);
}

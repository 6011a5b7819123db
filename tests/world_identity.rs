//! Pins the bytes world synthesis produces.
//!
//! Every other identity gate compares two paths through one build (naive
//! vs indexed, JSON vs columnar, resumed vs uninterrupted, N workers vs 1),
//! so a change that alters what the simulator synthesizes — a hash computed
//! differently, a price read from another day — would pass them all. These
//! tests collect two small worlds end to end (synthesis, both source
//! indexes, a one-thread crawl at fixed page sizes) and pin the FNV-1a
//! digest of each dataset's columnar encoding. Each world is collected
//! through `WorldConfig::build` and the world's own views, and through
//! `Sources::synthesize`, which folds the views while the world is
//! replayed, at 1, 2 and 8 threads; every input must give the pinned
//! digest. The digests must hold in debug and release builds alike.

use ens_dropcatch_suite::analysis::checkpoint::fnv1a;
use ens_dropcatch_suite::analysis::{CrawlConfig, DataSources, Metrics, Sources};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::workload::WorldConfig;

/// Crawls `sources` on one thread at fixed page sizes, returning the
/// digest of the dataset's `.ensc` bytes and their length.
fn digest(sources: DataSources<'_>) -> (u64, usize) {
    let (dataset, _) = sources
        .collect(&Metrics::disabled(), None, None)
        .expect("a fault-free crawl completes");
    let bytes = dataset
        .to_columnar(&Metrics::disabled())
        .expect("dataset encodes");
    (fnv1a(&bytes), bytes.len())
}

fn crawl() -> CrawlConfig {
    CrawlConfig {
        subgraph_page_size: 100,
        txlist_page_size: 100,
        market_page_size: 100,
        ..CrawlConfig::with_threads(1)
    }
}

/// Collects `config`'s world through every input and asserts each gives
/// `pinned`.
fn assert_collected_digest(config: WorldConfig, pinned: (u64, usize)) {
    let world = config.clone().build();
    let subgraph = world.subgraph(SubgraphConfig::default());
    let etherscan = world.etherscan();
    let built = digest(DataSources {
        subgraph: &subgraph,
        etherscan: &etherscan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: crawl(),
    });
    assert_eq!(built, pinned, "built world");
    drop((world, subgraph, etherscan));
    for threads in [1, 2, 8] {
        let sources = Sources::synthesize(config.clone(), threads, &Metrics::disabled());
        assert_eq!(
            digest(sources.data_sources(crawl())),
            pinned,
            "streamed at {threads} threads"
        );
    }
}

#[test]
fn default_preset_world_bytes_are_pinned() {
    let config = WorldConfig::default().with_names(2_000).with_seed(14);
    assert_collected_digest(config, (0xa2df_cc2d_adf8_e93d, 4_522_945));
}

#[test]
fn paper_scale_preset_world_bytes_are_pinned() {
    let config = WorldConfig::paper_scale().with_names(2_000).with_seed(7);
    assert_collected_digest(config, (0x7279_17a9_0811_97af, 996_092));
}

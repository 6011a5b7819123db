//! Pins the bytes world synthesis produces.
//!
//! Every other identity gate compares two paths through one build (naive
//! vs indexed, JSON vs columnar, resumed vs uninterrupted, N workers vs 1),
//! so a change that alters what the simulator synthesizes — a hash computed
//! differently, a price read from another day — would pass them all. These
//! tests collect two small worlds end to end (synthesis, both source
//! indexes, a one-thread crawl at fixed page sizes) and pin the FNV-1a
//! digest of each dataset's columnar encoding. The digests must hold in
//! debug and release builds alike.

use ens_dropcatch_suite::analysis::checkpoint::fnv1a;
use ens_dropcatch_suite::analysis::{CrawlConfig, DataSources, Metrics};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::workload::WorldConfig;

/// Builds and collects `config`'s world, returning the digest of its
/// `.ensc` bytes and their length.
fn collected_digest(config: WorldConfig) -> (u64, usize) {
    let world = config.build();
    let subgraph = world.subgraph(SubgraphConfig::default());
    let etherscan = world.etherscan();
    let sources = DataSources {
        subgraph: &subgraph,
        etherscan: &etherscan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: CrawlConfig {
            subgraph_page_size: 100,
            txlist_page_size: 100,
            market_page_size: 100,
            ..CrawlConfig::with_threads(1)
        },
    };
    let (dataset, _) = sources
        .collect(&Metrics::disabled(), None, None)
        .expect("a fault-free crawl completes");
    let bytes = dataset.to_columnar().expect("dataset encodes");
    (fnv1a(&bytes), bytes.len())
}

#[test]
fn default_preset_world_bytes_are_pinned() {
    let config = WorldConfig::default().with_names(2_000).with_seed(14);
    assert_eq!(collected_digest(config), (0xa2df_cc2d_adf8_e93d, 4_522_945));
}

#[test]
fn paper_scale_preset_world_bytes_are_pinned() {
    let config = WorldConfig::paper_scale().with_names(2_000).with_seed(7);
    assert_eq!(collected_digest(config), (0x7279_17a9_0811_97af, 996_092));
}

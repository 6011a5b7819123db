//! Quickstart: build a simulated ENS ecosystem, run the paper's full
//! measurement pipeline against it, and print every table and figure.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ens_dropcatch_suite::analysis::{run_study, DataSources, Metrics, StudyConfig};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::workload::WorldConfig;

fn main() {
    // 1. Build a world: ~2,000 names, Feb 2020 – Sep 2023, seeded.
    let world = WorldConfig::small().with_seed(42).build();
    let summary = world.dataset_summary();
    println!(
        "world: {} names, {} on-chain txs, {} ENS events\n",
        summary.total_names, summary.transactions, summary.ens_events
    );

    // 2. Stand up the data sources a measurement pipeline would see: the
    //    ENS subgraph (with its real-world name-loss rate) and the
    //    transaction explorer.
    let subgraph = world.subgraph(SubgraphConfig::default());
    let etherscan = world.etherscan();
    let sources = DataSources {
        subgraph: &subgraph,
        etherscan: &etherscan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: Default::default(),
    };

    // 3. Run the study (crawl → detect → analyze, §3–§6 of the paper).
    let report = run_study(
        &sources,
        world.oracle(),
        &StudyConfig::default(),
        &Metrics::disabled(),
    )
    .expect("clean endpoints cannot fail");

    // 4. Print the full report: Figs 2–11, Tables 1–2.
    println!("{}", report.render());
}

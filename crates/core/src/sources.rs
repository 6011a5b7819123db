//! The crawled endpoints of a synthesized world, indexed while the world
//! is replayed.
//!
//! The paper collects its data from two indexers over the chain's own logs
//! (§3): the ENS subgraph folds the registry's events, and the explorer
//! indexes each address's transactions. [`Sources::synthesize`] plans a
//! world and replays it on the calling thread; after each block of plan
//! events the replay hands the logs it appended over
//! ([`workload::engine::Logs`]), and one worker folds them into both views
//! (`shard::fold_beside`) while the replay runs on. Once the replay ends,
//! the worker finishes the views while the calling thread frees what is
//! left of the world. The views are those [`World::subgraph`] and
//! [`World::etherscan`] build over the same world, at any thread count:
//! the same fold over the same logs in the same order.
//!
//! [`World::subgraph`]: workload::World::subgraph
//! [`World::etherscan`]: workload::World::etherscan

use std::time::{Duration, Instant};

use ens_obs::Metrics;
use ens_subgraph::{Subgraph, SubgraphConfig, SubgraphIndexer};
use ens_types::Timestamp;
use etherscan_sim::{Etherscan, EtherscanIndexer};
use opensea_sim::OpenSea;
use price_oracle::PriceOracle;
use workload::engine::{execute, Executed, Logs};
use workload::{build_plan, WorldConfig};

use crate::dataset::{CrawlConfig, DataSources};
use crate::shard;

/// Hand-overs the view worker may hold unfolded before the replay waits
/// for it. At 60 K names the replay makes one every ~12 ms and the worker
/// folds one in ~8 ms, so the queue only takes up stretches that fold
/// slower than they replay. On 2 cores depths of 1 to 16 timed within
/// the host's noise of each other; 4 holds at most ~5 MB.
const QUEUE_DEPTH: usize = 4;

/// The endpoints one collection run crawls, with the price oracle its
/// study converts with: everything of a synthesized world that outlives
/// the synthesis.
pub struct Sources {
    /// The ENS subgraph, with its default name-loss model
    /// ([`SubgraphConfig::default`]).
    pub subgraph: Subgraph,
    /// The transaction explorer, with the world's address labels.
    pub etherscan: Etherscan,
    /// The NFT marketplace.
    pub opensea: OpenSea,
    /// The price oracle the replay priced every payment with.
    pub oracle: PriceOracle,
    /// End of the observation window.
    pub observation_end: Timestamp,
}

impl Sources {
    /// Plans and replays `config`'s world under a `world` span (with
    /// `world/plan` and `world/execute`) and indexes its logs into the
    /// subgraph and the explorer as the replay hands them over. Above one
    /// thread one worker folds them beside the replay and then finishes
    /// both views while the calling thread frees the world; at one thread
    /// each hand-over is folded inline and the views are finished after
    /// the free. `world` ends with the finished views.
    ///
    /// The fold records one call each of `sources/subgraph` and
    /// `sources/explorer`, beside `world` rather than under it: each
    /// sums the time spent folding into that view (the subgraph's also
    /// its finish), not the time spent waiting for logs. At one thread
    /// that time also counts in `world/execute`. Panics if the replay
    /// fails, as [`WorldConfig::build`] does.
    pub fn synthesize(config: WorldConfig, threads: usize, metrics: &Metrics) -> Sources {
        // Forked before `world` opens, so the view spans keep their paths
        // whichever thread records them.
        let views_metrics = metrics.fork();
        let _world = metrics.span("world");
        let plan = {
            let _span = metrics.span("plan");
            build_plan(&config)
        };
        let ((opensea, labels, oracle), (subgraph, explorer)) = shard::fold_beside(
            threads,
            QUEUE_DEPTH,
            |mut sink| {
                let executed = {
                    let _span = metrics.span("execute");
                    // The replay drops the sink after the last hand-over,
                    // so the views finish while it frees the plan.
                    execute(&config, plan, Some(Box::new(move |logs| sink.put(logs))))
                };
                let (executed, truth) =
                    executed.unwrap_or_else(|e| panic!("execution failed: {e}"));
                let Executed {
                    chain,
                    ens,
                    opensea,
                    labels,
                    oracle,
                } = executed;
                drop((chain, ens, truth));
                (opensea, labels, oracle)
            },
            Views::default(),
            Views::fold,
            |views| views.finish(&views_metrics),
        );
        Sources {
            subgraph,
            etherscan: explorer.finish(labels),
            opensea,
            oracle,
            observation_end: config.observation_end,
        }
    }

    /// The endpoints as a crawl with `crawl`'s knobs sees them.
    pub fn data_sources(&self, crawl: CrawlConfig) -> DataSources<'_> {
        DataSources {
            subgraph: &self.subgraph,
            etherscan: &self.etherscan,
            opensea: &self.opensea,
            observation_end: self.observation_end,
            crawl,
        }
    }
}

/// Both views as the worker folds them, and the time each took so far.
#[derive(Default)]
struct Views {
    subgraph: SubgraphIndexer,
    explorer: EtherscanIndexer,
    subgraph_wall: Duration,
    explorer_wall: Duration,
}

impl Views {
    fn fold(&mut self, logs: Logs) {
        let start = Instant::now();
        self.subgraph.sync(&logs.events);
        drop(logs.events);
        let events_done = Instant::now();
        self.explorer.append(logs.transactions);
        self.subgraph_wall += events_done - start;
        self.explorer_wall += events_done.elapsed();
    }

    fn finish(self, metrics: &Metrics) -> (Subgraph, EtherscanIndexer) {
        let start = Instant::now();
        let subgraph = self.subgraph.finish(SubgraphConfig::default());
        metrics.record_span("sources/subgraph", self.subgraph_wall + start.elapsed());
        metrics.record_span("sources/explorer", self.explorer_wall);
        (subgraph, self.explorer)
    }
}

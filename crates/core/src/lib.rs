//! # ens-dropcatch
//!
//! The measurement and analysis pipeline of *Panning for gold.eth:
//! Understanding and Analyzing ENS Domain Dropcatching* (IMC 2024) — the
//! paper's primary contribution, reimplemented end to end:
//!
//! - [`crawl`] / [`dataset`] — §3: one generic, sharded
//!   [`Crawler`](crawl::Crawler) pages every [`PagedSource`](ens_types::PagedSource)
//!   (subgraph, explorer `txlist`, marketplace events) across worker
//!   threads and assembles a byte-identical [`Dataset`](dataset::Dataset)
//!   for any thread count;
//! - [`registrations`] — the core primitive: ownership timelines and
//!   re-registration (dropcatch) detection;
//! - [`index`] — the shared analysis substrate: one
//!   [`AnalysisIndex`](index::AnalysisIndex) per study memoizes
//!   re-registration detection, per-address incoming-transfer slices and
//!   USD valuations, turning every window query into a binary search plus
//!   a prefix-sum lookup;
//! - [`overview`](mod@overview) — §4.1: the monthly timeline (Fig 2), delay distribution
//!   (Fig 3), per-domain frequency (Fig 4), catcher concentration (Fig 5);
//! - [`features`] — §4.3: the lexical/transactional Table 1 with Welch
//!   t-tests and two-proportion z-tests, and the Fig 6 income CDFs;
//! - [`losses`] — §4.4: hijackable funds (Fig 7), the conservative
//!   common-sender misdirection heuristic (Figs 8/9/11), catcher profit
//!   (Fig 10);
//! - [`resale`] — §4.2: the OpenSea listing/sale join;
//! - [`countermeasures`] — Appendix B's Table 2 and §6's proposed wallet
//!   warning, *evaluated* rather than just proposed;
//! - [`naive`] — the pre-index reference passes the equivalence tests and
//!   the analysis bench compare the production passes against;
//! - [`query`] — the read-only serving layer shared with `ens-serve`:
//!   typed [`QueryError`](query::QueryError)s, the name → domain
//!   directory, ownership/premium-status accessors;
//! - [`stats`] — the statistics the above need, from first principles;
//! - [`storage`] / [`export`] — the on-disk layer: the columnar schema
//!   binding onto `ens-columnar` and the format-dispatching
//!   [`Dataset::save`](dataset::Dataset::save) /
//!   [`Dataset::load`](dataset::Dataset::load) seam (JSON stays the
//!   interchange form; columnar is the native one);
//! - [`report`] / [`pipeline`] — text rendering and the one-call
//!   [`run_study`](pipeline::run_study).
//!
//! The pipeline consumes only the public query APIs of the data-source
//! crates — it has exactly the visibility the paper's crawlers had, and
//! none of the simulator's ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A failed crawl's error deliberately carries the full partial accounting
// (per-source stats + recorded gaps), so the Err variants are fat; every
// construction site is a cold abort path.
#![allow(clippy::result_large_err)]

pub mod checkpoint;
pub mod countermeasures;
pub mod crawl;
pub mod dataset;
pub mod export;
pub mod features;
pub mod index;
pub mod losses;
pub mod naive;
pub mod overview;
pub mod pipeline;
pub mod query;
pub mod registrations;
pub mod report;
pub mod resale;
mod shard;
pub mod stats;
pub mod storage;

pub use checkpoint::{
    config_fingerprint, load_for_resume, remove_chain, CheckpointJournal, CheckpointLoad,
    CheckpointSpec, CrawlCheckpoint, DEFAULT_CHECKPOINT_EVERY,
};
pub use crawl::{
    relevant_addresses, CommittedShard, CrawlError, CrawlGap, CrawlReport, CrawlTimings, Crawled,
    Crawler, FailurePolicy, KeyedCrawl, RetryCounts, RetryPolicy, SourceStats,
};
pub use dataset::{CollectError, CrawlConfig, DataSources, Dataset};
pub use ens_obs::{Metrics, MetricsSnapshot};
pub use export::{CsvArtifact, Format, StorageError};
pub use features::{
    compare_features, compare_features_with, DomainFeatures, FeatureComparison, FeatureRow,
};
pub use index::{AnalysisIndex, IndexedTransfer, OutgoingIndex};
pub use losses::{
    analyze_losses, analyze_losses_with, upper_bound_losses, DomainLoss, LossReport, SenderKind,
    UpperBoundLoss,
};
pub use overview::{overview, overview_from, OverviewReport};
pub use pipeline::{run_study, run_study_on, StudyConfig, StudyReport};
pub use query::{
    current_owner, domain_status, parse_address, parse_window, DomainStatus, NameDirectory,
    QueryError, REPORT_SECTIONS,
};
pub use registrations::{
    classify, classify_with_detected, detect_all, detect_reregistrations,
    detect_reregistrations_ignoring_transfers, window_contains, DomainOutcome, ReRegistration,
};
pub use resale::{analyze_resales, ResaleReport};
pub use shard::shard_map;

/// Glob-import convenience.
pub mod prelude {
    pub use crate::dataset::{DataSources, Dataset};
    pub use crate::pipeline::{run_study, StudyConfig, StudyReport};
    pub use crate::registrations::{DomainOutcome, ReRegistration};
}

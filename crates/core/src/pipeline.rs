//! The one-call study pipeline: crawl → detect → analyze every section of
//! the paper, and render the whole report as text.

use ens_obs::Metrics;
use ens_types::Duration;
use price_oracle::PriceOracle;
use serde::{Deserialize, Serialize};

use crate::countermeasures::{evaluate_countermeasures, CountermeasureReport};
use crate::crawl::CrawlReport;
use crate::dataset::{CollectError, DataSources, Dataset};
use crate::features::{compare_features, FeatureComparison, FeatureRow};
use crate::index::AnalysisIndex;
use crate::losses::{analyze_losses, LossReport};
use crate::overview::{overview, OverviewReport};
use crate::resale::{analyze_resales, ResaleReport};
use crate::shard::join;

/// Study knobs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Seed for the deterministic control-group sample.
    pub control_seed: u64,
    /// The "recently registered" warning window for §6.
    pub warning_window: Duration,
    /// Worker threads for the analysis side (`1` = sequential): the
    /// [`AnalysisIndex`] build, the per-re-registration loss search, the
    /// per-domain feature extraction and the countermeasure sweep all
    /// shard across this many scoped workers with deterministic ordered
    /// merges, and above one thread the passes that share no output run
    /// side by side, so the report is byte-identical for any value.
    pub threads: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            control_seed: 0xC0FFEE,
            warning_window: Duration::from_days(365),
            threads: 1,
        }
    }
}

/// Everything the paper reports, as one structure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StudyReport {
    /// §3: what was collected.
    pub crawl: CrawlReport,
    /// §4.1: Figs 2–5.
    pub overview: OverviewReport,
    /// §4.3: Table 1 + Fig 6.
    pub features: FeatureComparison,
    /// §4.4: Figs 7–11.
    pub losses: LossReport,
    /// §4.2.
    pub resale: ResaleReport,
    /// Appendix B + §6.
    pub countermeasures: CountermeasureReport,
}

/// Collects the dataset from `sources` and runs the full study on it: the
/// whole pipeline in one call.
///
/// ```
/// use ens_dropcatch::{run_study, CrawlConfig, DataSources, Metrics, StudyConfig};
/// use ens_subgraph::SubgraphConfig;
/// use workload::WorldConfig;
///
/// let world = WorldConfig::small().with_names(120).with_seed(2).build();
/// let subgraph = world.subgraph(SubgraphConfig::lossless());
/// let etherscan = world.etherscan();
/// let sources = DataSources {
///     subgraph: &subgraph,
///     etherscan: &etherscan,
///     opensea: world.opensea(),
///     observation_end: world.observation_end(),
///     crawl: CrawlConfig::default(),
/// };
/// let report = run_study(
///     &sources,
///     world.oracle(),
///     &StudyConfig::default(),
///     &Metrics::disabled(),
/// )
/// .expect("clean endpoints cannot fail");
/// assert_eq!(report.crawl.domains, 120);
/// ```
///
/// Collection errors (a crawl that gave up, or a degraded crawl below
/// [`CrawlConfig::min_recovery`](crate::dataset::CrawlConfig::min_recovery))
/// are returned. A degraded-but-acceptable crawl still produces a full
/// report — its `crawl.gaps` record exactly what was lost.
pub fn run_study(
    sources: &DataSources<'_>,
    oracle: &PriceOracle,
    config: &StudyConfig,
    metrics: &Metrics,
) -> Result<StudyReport, CollectError> {
    let (dataset, _) = sources.collect(metrics, None, None)?;
    Ok(run_study_on(&dataset, oracle, config, None, metrics))
}

/// Runs the full study on an already-collected dataset, under a `study`
/// span.
///
/// Every pass reads one [`AnalysisIndex`] (re-registration detection,
/// per-address incoming slices, memoized USD valuations): `index` when the
/// caller already holds one (the daemon keeps its index resident, the
/// bench harness times the build separately), otherwise one built here.
/// The index build, the loss and feature passes and the countermeasure
/// sweep shard *internally* across [`StudyConfig::threads`] workers with
/// ordered merges. Above one thread, the passes also run as two arms of a
/// [`join`] that share no output: `overview` then `features` on the
/// calling thread, and `losses`, `resale` then `countermeasures` on a
/// worker, whose spans nest under `study` through a forked handle. At one
/// thread both arms run inline, in that order. The report is
/// byte-identical at any thread count — and to the reference study of
/// [`crate::naive`]. Every pass records spans and counters into `metrics`,
/// and the index's query counters are flushed into it at the end;
/// instrumentation never changes the report.
pub fn run_study_on(
    dataset: &Dataset,
    oracle: &PriceOracle,
    config: &StudyConfig,
    index: Option<&AnalysisIndex>,
    metrics: &Metrics,
) -> StudyReport {
    let _span = metrics.span("study");
    let threads = config.threads;
    let built;
    let index = match index {
        Some(index) => index,
        None => {
            built = AnalysisIndex::build(dataset, oracle, threads, metrics);
            &built
        }
    };
    let side = metrics.fork();
    let ((overview, features), (losses, resale, countermeasures)) = join(
        threads,
        || {
            let overview = overview(
                &dataset.domains,
                dataset.observation_end,
                index.reregistrations().to_vec(),
                metrics,
            );
            let features = compare_features(dataset, config.control_seed, index, threads, metrics);
            (overview, features)
        },
        || {
            let losses = analyze_losses(dataset, oracle, index, threads, &side);
            // The overview's re-registration list is the index's.
            let resale = {
                let _span = side.span("resale");
                analyze_resales(index.reregistrations(), &dataset.market)
            };
            let countermeasures = evaluate_countermeasures(
                &losses,
                dataset,
                index,
                config.warning_window,
                threads,
                &side,
            );
            (losses, resale, countermeasures)
        },
    );
    if metrics.is_enabled() {
        metrics.add("resale/listed", resale.listed as u64);
        metrics.add("resale/sold", resale.sold as u64);
        metrics.add(
            "countermeasures/table2_rows",
            countermeasures.table2.len() as u64,
        );
    }
    index.flush_query_counters(metrics);
    StudyReport {
        crawl: dataset.crawl_report.clone(),
        overview,
        features,
        losses,
        resale,
        countermeasures,
    }
}

impl StudyReport {
    /// Renders the full text report (every table and figure, in paper order).
    pub fn render(&self) -> String {
        use crate::report::{ascii_bars, quantile_table, render_table};
        let mut out = String::new();
        let push = |out: &mut String, s: &str| {
            out.push_str(s);
            out.push('\n');
        };

        push(&mut out, "== §3 Data collection ==");
        push(
            &mut out,
            &format!(
                "domains: {}  (recovery rate {:.3}%)  subdomains: {}  transactions: {}",
                self.crawl.domains,
                self.crawl.recovery_rate() * 100.0,
                self.crawl.subdomains,
                self.crawl.transactions
            ),
        );
        if self.crawl.degraded {
            push(
                &mut out,
                &format!(
                    "DEGRADED crawl: {} gaps, ~{} items lost (item recovery {:.3}%)",
                    self.crawl.gaps.len(),
                    self.crawl.lost_items_estimate,
                    self.crawl.item_recovery_rate() * 100.0
                ),
            );
            for gap in &self.crawl.gaps {
                push(&mut out, &format!("  gap: {gap}"));
            }
        }
        let retries = self.crawl.retries_by_kind();
        if retries.total() > 0 {
            push(
                &mut out,
                &format!(
                    "retries: {} (rate-limited {}, timeout {}, server-error {}, malformed {}); \
                     virtual backoff: {} ms",
                    retries.total(),
                    retries.rate_limited,
                    retries.timeout,
                    retries.server_error,
                    retries.malformed,
                    self.crawl.backoff_virtual_ms()
                ),
            );
        }

        push(&mut out, "\n== Fig 2: monthly timeline ==");
        let rows: Vec<Vec<String>> = self
            .overview
            .timeline
            .months
            .iter()
            .map(|m| {
                vec![
                    m.month.clone(),
                    m.registrations.to_string(),
                    m.expirations.to_string(),
                    m.reregistrations.to_string(),
                ]
            })
            .collect();
        push(
            &mut out,
            &render_table(
                &["month", "registrations", "expirations", "re-registrations"],
                &rows,
            ),
        );

        push(&mut out, "== Fig 3: expiry→re-registration delay (days) ==");
        let delays = crate::stats::Ecdf::new(self.overview.delays.delays_days.clone());
        push(&mut out, &quantile_table(&delays, "days"));
        push(
            &mut out,
            &format!(
                "at premium: {}   on premium-end day: {}   within a week of premium end: {}",
                self.overview.delays.at_premium,
                self.overview.delays.on_premium_end_day,
                self.overview.delays.shortly_after_premium
            ),
        );

        push(&mut out, "\n== Fig 4: re-registrations per domain ==");
        let bars: Vec<(String, f64)> = self
            .overview
            .domain_frequency
            .frequency
            .iter()
            .map(|(k, v)| (format!("{k}x"), *v as f64))
            .collect();
        push(&mut out, &ascii_bars(&bars, 40));

        push(&mut out, "== Fig 5: catches per address ==");
        let top: Vec<Vec<String>> = self
            .overview
            .catchers
            .top(5)
            .iter()
            .map(|(a, c)| vec![a.to_hex(), c.to_string()])
            .collect();
        push(&mut out, &render_table(&["address", "catches"], &top));
        push(
            &mut out,
            &format!(
                "addresses with >1 catch: {}",
                self.overview.catchers.multi_catchers()
            ),
        );

        push(&mut out, "\n== Table 1: features ==");
        let rows: Vec<Vec<String>> = self
            .features
            .rows
            .iter()
            .map(|r| match r {
                FeatureRow::Numeric {
                    name,
                    mean_rereg,
                    mean_control,
                    test,
                } => vec![
                    name.clone(),
                    format!("{mean_rereg:.1}"),
                    format!("{mean_control:.1}"),
                    test.map_or("-".into(), |t| format!("{:.2e}", t.p_value)),
                ],
                FeatureRow::Categorical {
                    name,
                    count_rereg,
                    frac_rereg,
                    count_control,
                    frac_control,
                    test,
                } => vec![
                    name.clone(),
                    format!("{count_rereg} ({:.1}%)", frac_rereg * 100.0),
                    format!("{count_control} ({:.1}%)", frac_control * 100.0),
                    test.map_or("-".into(), |t| format!("{:.2e}", t.p_value)),
                ],
            })
            .collect();
        push(
            &mut out,
            &render_table(&["feature", "re-registered", "control", "p-value"], &rows),
        );

        push(&mut out, "== Fig 6: previous-owner income (USD) ==");
        push(&mut out, "re-registered:");
        push(
            &mut out,
            &quantile_table(&self.features.income_rereg, "USD"),
        );
        push(&mut out, "control:");
        push(
            &mut out,
            &quantile_table(&self.features.income_control, "USD"),
        );

        push(&mut out, "== Fig 7: hijackable USD per expired domain ==");
        push(
            &mut out,
            &quantile_table(&self.losses.hijackable.ecdf(), "USD"),
        );

        push(&mut out, "== Fig 8: misdirected USD per domain ==");
        push(
            &mut out,
            &quantile_table(&self.losses.fig8_amounts(), "USD"),
        );

        push(&mut out, "== Figs 9/11: common-sender tx scatter ==");
        push(
            &mut out,
            &format!(
                "points (incl. Coinbase): {}   non-custodial only: {}",
                self.losses.fig9_scatter().len(),
                self.losses.fig11_scatter().len()
            ),
        );

        push(&mut out, "\n== Fig 10: dropcatcher profit ==");
        let (frac, mean) = self.losses.profit_summary();
        push(
            &mut out,
            &format!(
                "catchers profiting: {:.0}%   average profit: {mean:.0} USD",
                frac * 100.0
            ),
        );
        push(
            &mut out,
            &format!(
                "victim domains: {} (non-custodial) / {} (incl. Coinbase); \
                 flagged txs: {} / {}; avg misdirected per domain: {:.0} / {:.0} USD",
                self.losses.domains_noncustodial,
                self.losses.domains_with_coinbase,
                self.losses.txs_noncustodial,
                self.losses.txs_incl_coinbase,
                self.losses.avg_usd_noncustodial,
                self.losses.avg_usd_incl_coinbase
            ),
        );

        push(&mut out, "\n== §4.2 resale market ==");
        push(
            &mut out,
            &format!(
                "re-registered: {}   listed: {} ({:.1}%)   sold: {} ({:.1}% of listed)",
                self.resale.reregistered_domains,
                self.resale.listed,
                self.resale.listed_fraction() * 100.0,
                self.resale.sold,
                self.resale.sold_fraction() * 100.0
            ),
        );

        push(&mut out, "\n== Table 2: wallet warnings ==");
        let rows: Vec<Vec<String>> = self
            .countermeasures
            .table2
            .iter()
            .map(|r| {
                vec![
                    r.wallet.clone(),
                    r.version.clone(),
                    if r.displays_warning { "Yes" } else { "No" }.into(),
                ]
            })
            .collect();
        push(
            &mut out,
            &render_table(&["wallet", "version", "displays warning"], &rows),
        );
        push(
            &mut out,
            &format!(
                "countermeasure ({}-day window) would intercept {:.0}% of misdirected USD \
                 (annoyance: {:.1}% of legitimate sends warned)",
                self.countermeasures.warning_window_days,
                self.countermeasures.interception_rate() * 100.0,
                self.countermeasures.risk_policy.annoyance_rate() * 100.0
            ),
        );
        push(
            &mut out,
            &format!(
                "history-aware re-registration warning: intercepts {:.0}% \
                 (annoyance {:.2}%)",
                self.countermeasures.rereg_policy.interception_rate() * 100.0,
                self.countermeasures.rereg_policy.annoyance_rate() * 100.0
            ),
        );
        push(
            &mut out,
            &format!(
                "reverse-record check would intercept {:.0}% (annoyance {:.1}%); \
                 combined: {:.0}% (annoyance {:.1}%)",
                self.countermeasures.reverse_policy.interception_rate() * 100.0,
                self.countermeasures.reverse_policy.annoyance_rate() * 100.0,
                self.countermeasures.combined_policy.interception_rate() * 100.0,
                self.countermeasures.combined_policy.annoyance_rate() * 100.0
            ),
        );

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    #[test]
    fn full_study_runs_and_renders() {
        let world = WorldConfig::small().with_seed(90).build();
        let sg = world.subgraph(SubgraphConfig::default());
        let scan = world.etherscan();
        let sources = DataSources {
            subgraph: &sg,
            etherscan: &scan,
            opensea: world.opensea(),
            observation_end: world.observation_end(),
            crawl: Default::default(),
        };
        let report = run_study(
            &sources,
            world.oracle(),
            &StudyConfig::default(),
            &Metrics::disabled(),
        )
        .unwrap();
        assert!(report.crawl.domains == 2_000);
        assert!(!report.overview.reregistrations.is_empty());
        let text = report.render();
        for section in [
            "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Table 1", "Fig 6", "Fig 7", "Fig 8", "Fig 10",
            "§4.2", "Table 2",
        ] {
            assert!(text.contains(section), "missing section {section}");
        }
    }

    #[test]
    fn threaded_study_renders_identically_to_sequential() {
        let world = WorldConfig::small().with_seed(90).build();
        let sg = world.subgraph(SubgraphConfig::default());
        let scan = world.etherscan();
        let report_with = |threads| {
            let sources = DataSources {
                subgraph: &sg,
                etherscan: &scan,
                opensea: world.opensea(),
                observation_end: world.observation_end(),
                crawl: crate::dataset::CrawlConfig::with_threads(threads),
            };
            let config = StudyConfig {
                threads,
                ..StudyConfig::default()
            };
            run_study(&sources, world.oracle(), &config, &Metrics::disabled())
                .unwrap()
                .render()
        };
        assert_eq!(report_with(1), report_with(4));
    }
}

//! Shared fixtures for the benches and the `repro` harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod columnar;
pub mod ingest;
pub mod resume;

pub use analysis::{
    run_analysis_bench, run_paper_scale_bench, AnalysisBenchReport, MetricsOverhead,
    PaperScaleReport, PassTimings, ThreadedRun,
};
pub use columnar::{run_columnar_bench, ColumnarBenchReport, ColumnarScaleRun};
pub use ingest::{run_ingest_bench, IngestBenchReport, IngestScaleRun};
pub use resume::{run_resume_bench, CadenceRun, ResumeBenchReport, ResumeCycle};

use std::sync::OnceLock;

use ens_dropcatch::{run_study_on, CrawlConfig, Dataset, Metrics, StudyConfig, StudyReport};
use ens_subgraph::{Subgraph, SubgraphConfig};
use etherscan_sim::Etherscan;
use workload::{World, WorldConfig};

/// A fully built world with its crawled dataset — built once per process.
pub struct Fixture {
    /// The simulated ecosystem.
    pub world: World,
    /// The subgraph view.
    pub subgraph: Subgraph,
    /// The explorer view.
    pub etherscan: Etherscan,
    /// The crawled dataset.
    pub dataset: Dataset,
}

impl Fixture {
    /// Builds a fixture at the given scale.
    pub fn build(n_names: usize, seed: u64) -> Fixture {
        let world = WorldConfig::default()
            .with_names(n_names)
            .with_seed(seed)
            .build();
        Fixture::from_world(world)
    }

    /// Crawls and ingests an already-built world — the world build and the
    /// crawl/ingest phase can then be timed separately (the paper-scale
    /// bench reports each as its own pipeline stage).
    pub fn from_world(world: World) -> Fixture {
        let subgraph = world.subgraph(SubgraphConfig::default());
        let etherscan = world.etherscan();
        let (dataset, _) = Dataset::try_collect_with(
            &subgraph,
            &etherscan,
            world.opensea(),
            world.observation_end(),
            &CrawlConfig::default(),
        )
        .expect("clean endpoints cannot fail");
        Fixture {
            world,
            subgraph,
            etherscan,
            dataset,
        }
    }

    /// Runs the full study on the prebuilt dataset.
    pub fn study(&self) -> StudyReport {
        let config = StudyConfig::default();
        run_study_on(
            &self.dataset,
            self.world.oracle(),
            &config,
            None,
            &Metrics::disabled(),
        )
    }
}

/// The standard bench fixture (8K names) — small enough that criterion's
/// repeated measurement stays pleasant, large enough for stable shapes.
pub fn bench_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| Fixture::build(8_000, 0xBEEF))
}

/// One paper-vs-measured comparison row for EXPERIMENTS.md.
pub struct Comparison {
    /// Experiment id ("Fig 3", "Table 1", ...).
    pub id: &'static str,
    /// The quantity compared.
    pub metric: &'static str,
    /// What the paper reports (at 3.1M-name scale).
    pub paper: String,
    /// What this run measured.
    pub measured: String,
    /// Whether the shape-level expectation holds.
    pub holds: bool,
}

/// Builds the paper-vs-measured comparison table from a study report.
pub fn compare_to_paper(world: &World, report: &StudyReport) -> Vec<Comparison> {
    use ens_dropcatch::FeatureRow;

    let mut rows = Vec::new();
    let mut push = |id, metric, paper: String, measured: String, holds| {
        rows.push(Comparison {
            id,
            metric,
            paper,
            measured,
            holds,
        })
    };

    // §3
    let recovery = report.crawl.recovery_rate();
    push(
        "§3",
        "name recovery rate",
        "99.9%".into(),
        format!("{:.1}%", recovery * 100.0),
        recovery > 0.96,
    );

    // §4.1 headline: caught / expired ratio.
    let caught = report.overview.domain_frequency.total_domains();
    let expired = world.truth().iter().filter(|t| t.expired).count();
    let rate = caught as f64 / expired.max(1) as f64;
    push(
        "§4.1",
        "re-registered / expired",
        "241K / 1.41M ≈ 17%".into(),
        format!("{caught} / {expired} ≈ {:.0}%", rate * 100.0),
        (0.08..0.30).contains(&rate),
    );

    // Fig 2
    let months = &report.overview.timeline.months;
    let regs = |ym: &str| {
        months
            .iter()
            .find(|m| m.month == ym)
            .map_or(0, |m| m.registrations)
    };
    let fig2_holds = regs("2022-09") > regs("2020-07") && regs("2022-09") > regs("2023-09");
    push(
        "Fig 2",
        "registrations rise to late 2022, then decline",
        "peak near end-2022".into(),
        format!(
            "2020-07: {}, 2022-09: {}, 2023-09: {}",
            regs("2020-07"),
            regs("2022-09"),
            regs("2023-09")
        ),
        fig2_holds,
    );

    // Fig 3
    let total = report.overview.delays.delays_days.len().max(1);
    let cliff = report.overview.delays.on_premium_end_day;
    push(
        "Fig 3",
        "catches on the premium-end day",
        "20,014 of 241K ≈ 8% (56,792 shortly after)".into(),
        format!(
            "{cliff} of {total} ≈ {:.0}% ({} within a week)",
            cliff as f64 / total as f64 * 100.0,
            report.overview.delays.shortly_after_premium
        ),
        cliff * 5 > total / 10,
    );
    push(
        "Fig 3",
        "catches paying a premium",
        "16,092 of 241K ≈ 6.7%".into(),
        format!(
            "{} of {total} ≈ {:.1}%",
            report.overview.delays.at_premium,
            report.overview.delays.at_premium as f64 / total as f64 * 100.0
        ),
        (0.02..0.16).contains(&(report.overview.delays.at_premium as f64 / total as f64)),
    );

    // Fig 4
    let multi = report
        .overview
        .domain_frequency
        .registered_more_than_twice();
    let multi_frac = multi as f64 / caught.max(1) as f64;
    push(
        "Fig 4",
        "domains registered more than twice",
        "12,614 of 241K ≈ 5.2%".into(),
        format!("{multi} of {caught} ≈ {:.1}%", multi_frac * 100.0),
        (0.005..0.20).contains(&multi_frac),
    );

    // Fig 5
    let top = report.overview.catchers.top(3);
    let catch_events: usize = report
        .overview
        .catchers
        .counts_desc
        .iter()
        .map(|(_, c)| c)
        .sum();
    push(
        "Fig 5",
        "top-3 catcher addresses",
        "5,070 / 3,165 / 2,421 of 241K".into(),
        format!(
            "{:?} of {catch_events}",
            top.iter().map(|(_, c)| *c).collect::<Vec<_>>()
        ),
        !top.is_empty() && top[0].1 as f64 / catch_events.max(1) as f64 > 0.02,
    );

    // Table 1 income
    if let Some(FeatureRow::Numeric {
        mean_rereg,
        mean_control,
        ..
    }) = report.features.row("average_income_USD")
    {
        let ratio = mean_rereg / mean_control;
        push(
            "Table 1",
            "avg income, re-registered vs control",
            "$69,980 vs $21,400 (3.3×)".into(),
            format!("${mean_rereg:.0} vs ${mean_control:.0} ({ratio:.1}×)"),
            (1.7..7.0).contains(&ratio),
        );
    }
    let cat = |name: &str| -> Option<(f64, f64)> {
        match report.features.row(name) {
            Some(FeatureRow::Categorical {
                frac_rereg,
                frac_control,
                ..
            }) => Some((*frac_rereg * 100.0, *frac_control * 100.0)),
            _ => None,
        }
    };
    if let Some((r, c)) = cat("contains_digit") {
        push(
            "Table 1",
            "contains_digit (mixed alnum)",
            "2.3% vs 27.1%".into(),
            format!("{r:.1}% vs {c:.1}%"),
            r < c,
        );
    }
    if let Some((r, c)) = cat("is_dictionary_word") {
        push(
            "Table 1",
            "is_dictionary_word",
            "7.4% vs 0.93%".into(),
            format!("{r:.1}% vs {c:.1}%"),
            r > 2.0 * c,
        );
    }
    if let Some((r, c)) = cat("contains_underscore") {
        push(
            "Table 1",
            "contains_underscore",
            "0.2% vs 2.19%".into(),
            format!("{r:.2}% vs {c:.2}%"),
            r < c,
        );
    }
    let significant = report
        .features
        .rows
        .iter()
        .filter(|r| r.significant())
        .count();
    let key_significant = [
        "average_income_USD",
        "average_length",
        "contains_digit",
        "is_dictionary_word",
        "contains_dictionary_word",
        "contains_hyphen",
        "contains_underscore",
    ]
    .iter()
    .all(|n| report.features.row(n).is_some_and(|r| r.significant()));
    push(
        "Table 1",
        "features statistically significant",
        "all 12 (at n = 241,283 per group)".into(),
        format!(
            "{significant} of {} (near-equal features need paper-scale n)",
            report.features.rows.len()
        ),
        key_significant,
    );

    // Fig 6
    let dom = [0.25, 0.5, 0.75, 0.9].iter().all(|&q| {
        report.features.income_rereg.quantile(q) >= report.features.income_control.quantile(q)
    });
    push(
        "Fig 6",
        "income CDF dominance (re-reg ≥ control)",
        "clear preference for higher-income domains".into(),
        format!(
            "median ${:.0} vs ${:.0}",
            report.features.income_rereg.quantile(0.5).unwrap_or(0.0),
            report.features.income_control.quantile(0.5).unwrap_or(0.0)
        ),
        dom,
    );

    // Fig 7
    push(
        "Fig 7",
        "hijackable USD (domains with any)",
        "heavy-tailed, thousands of USD".into(),
        format!(
            "{} domains, median ${:.0}, total ${:.0}",
            report.losses.hijackable.usd_per_domain.len(),
            report.losses.hijackable.ecdf().quantile(0.5).unwrap_or(0.0),
            report.losses.hijackable.total_usd()
        ),
        report.losses.hijackable.total_usd() > 0.0,
    );

    // Fig 8 / §4.4 aggregates
    push(
        "Fig 8",
        "avg misdirected USD per domain (incl. Coinbase)",
        "$1,877".into(),
        format!("${:.0}", report.losses.avg_usd_incl_coinbase),
        (300.0..30_000.0).contains(&report.losses.avg_usd_incl_coinbase),
    );
    push(
        "§4.4",
        "victim domains non-custodial / incl. Coinbase",
        "484 / 940".into(),
        format!(
            "{} / {}",
            report.losses.domains_noncustodial, report.losses.domains_with_coinbase
        ),
        report.losses.domains_noncustodial <= report.losses.domains_with_coinbase
            && report.losses.domains_noncustodial > 0,
    );
    push(
        "§4.4",
        "flagged txs non-custodial / incl. Coinbase",
        "1,617 / 2,633".into(),
        format!(
            "{} / {}",
            report.losses.txs_noncustodial, report.losses.txs_incl_coinbase
        ),
        report.losses.txs_noncustodial <= report.losses.txs_incl_coinbase,
    );

    // Fig 9 / Fig 11
    let scatter = report.losses.fig9_scatter();
    let one = scatter.iter().filter(|p| p.to_new == 1).count();
    push(
        "Fig 9",
        "1:1 sender tx ratio dominates",
        "one-to-one most common".into(),
        format!("{one} of {} points have 1 tx to a2", scatter.len()),
        one * 2 > scatter.len(),
    );
    push(
        "Fig 11",
        "non-custodial subset of Fig 9",
        "same shape, subset".into(),
        format!(
            "{} of {} points",
            report.losses.fig11_scatter().len(),
            scatter.len()
        ),
        report.losses.fig11_scatter().len() <= scatter.len(),
    );

    // Fig 10
    let (frac, avg) = report.losses.profit_summary();
    push(
        "Fig 10",
        "catchers profiting / avg profit",
        "91% / $4,700".into(),
        format!("{:.0}% / ${avg:.0}", frac * 100.0),
        frac > 0.6 && avg > 0.0,
    );

    // §4.2
    push(
        "§4.2",
        "re-registered listed / listed sold",
        "8% / 61%".into(),
        format!(
            "{:.1}% / {:.1}%",
            report.resale.listed_fraction() * 100.0,
            report.resale.sold_fraction() * 100.0
        ),
        (0.03..0.15).contains(&report.resale.listed_fraction())
            && (0.40..0.80).contains(&report.resale.sold_fraction()),
    );

    // Table 2
    let none_warn = report
        .countermeasures
        .table2
        .iter()
        .all(|r| !r.displays_warning);
    push(
        "Table 2",
        "production wallets displaying warnings",
        "0 of 7".into(),
        format!(
            "{} of {}",
            report
                .countermeasures
                .table2
                .iter()
                .filter(|r| r.displays_warning)
                .count(),
            report.countermeasures.table2.len()
        ),
        none_warn,
    );
    push(
        "§6",
        "countermeasure interception (365d window)",
        "proposed, not evaluated".into(),
        format!("{:.0}%", report.countermeasures.interception_rate() * 100.0),
        report.countermeasures.interception_rate() > 0.9,
    );

    rows
}

/// Renders the comparison table as markdown.
pub fn render_comparison_markdown(rows: &[Comparison]) -> String {
    let mut out = String::from(
        "| id | metric | paper (3.1M names) | measured | shape holds |\n|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.id,
            r.metric,
            r.paper,
            r.measured,
            if r.holds { "yes" } else { "**NO**" }
        ));
    }
    out
}

//! End-to-end reproduction test: build a mid-sized world, run the complete
//! measurement pipeline, and assert every shape-level finding of the paper
//! (who wins, by roughly what factor, where the cliffs fall) — see
//! DESIGN.md §5 for the calibration anchors.

use ens_dropcatch_suite::analysis::{
    run_study, CrawlConfig, DataSources, FeatureRow, Metrics, StudyConfig,
};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::workload::{OwnerKind, WorldConfig};

fn study() -> &'static (workload::World, ens_dropcatch::StudyReport) {
    static STUDY: std::sync::OnceLock<(workload::World, ens_dropcatch::StudyReport)> =
        std::sync::OnceLock::new();
    STUDY.get_or_init(build_study)
}

fn build_study() -> (workload::World, ens_dropcatch::StudyReport) {
    let world = WorldConfig::medium().with_seed(2024).build();
    let subgraph = world.subgraph(SubgraphConfig::default());
    let etherscan = world.etherscan();
    // The end-to-end study doubles as a smoke test of the sharded crawl
    // engine: collection and analysis both run on 4 worker threads (the
    // results are byte-identical to a sequential run; crawl_determinism.rs
    // asserts that directly).
    let sources = DataSources {
        subgraph: &subgraph,
        etherscan: &etherscan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: CrawlConfig::with_threads(4),
    };
    let config = StudyConfig {
        threads: 4,
        ..StudyConfig::default()
    };
    let report = run_study(&sources, world.oracle(), &config, &Metrics::disabled())
        .expect("clean endpoints cannot fail");
    (world, report)
}

#[test]
fn full_paper_reproduction_shapes_hold() {
    let (world, report) = study();

    // ---- §3: collection scale and recovery (paper: 3.1M names, 99.9%). ----
    assert_eq!(report.crawl.domains, 20_000);
    assert!(
        report.crawl.recovery_rate() > 0.96,
        "recovery {}",
        report.crawl.recovery_rate()
    );
    assert!(report.crawl.transactions > 100_000);
    assert!(report.crawl.subdomains > 2_000);

    // ---- §4.1: re-registration overview. ----
    let rereg_domains = report.overview.domain_frequency.total_domains();
    let expired_total = world.truth().iter().filter(|t| t.expired).count();
    let catch_rate = rereg_domains as f64 / expired_total as f64;
    // Paper: 241K re-registered of ~1.41M expired ≈ 17%.
    assert!(
        (0.08..0.30).contains(&catch_rate),
        "catch rate {catch_rate}"
    );

    // The detector agrees with ground truth almost exactly.
    let truth_caught = world.truth().iter().filter(|t| t.catch_count > 0).count();
    let diff = (rereg_domains as f64 / truth_caught as f64 - 1.0).abs();
    assert!(
        diff < 0.02,
        "detector vs truth: {rereg_domains} vs {truth_caught}"
    );

    // Fig 2: registrations ramp to late 2022 and then decline.
    let months = &report.overview.timeline.months;
    let regs_in = |ym: &str| {
        months
            .iter()
            .find(|m| m.month == ym)
            .map_or(0, |m| m.registrations)
    };
    assert!(regs_in("2022-09") > regs_in("2020-07"));
    assert!(regs_in("2022-09") > regs_in("2023-09"));
    // Migration spike: expirations around May 2020 dwarf the months before.
    let exp_in = |ym: &str| {
        months
            .iter()
            .find(|m| m.month == ym)
            .map_or(0, |m| m.expirations)
    };
    assert!(exp_in("2020-05") + exp_in("2020-04") > 10 * exp_in("2020-03").max(1) / 2);

    // Fig 3: no catch before expiry+90d; a cliff right after the premium.
    assert!(report
        .overview
        .delays
        .delays_days
        .iter()
        .all(|&d| d >= 90.0));
    let total = report.overview.delays.delays_days.len();
    assert!(report.overview.delays.on_premium_end_day * 100 / total >= 20);
    assert!(report.overview.delays.at_premium * 100 / total >= 3);
    assert!(report.overview.delays.at_premium * 100 / total <= 15);

    // Fig 4: most caught domains are caught once; a tail is caught more.
    let once = report
        .overview
        .domain_frequency
        .frequency
        .get(&1)
        .copied()
        .unwrap_or(0);
    assert!(once * 2 > rereg_domains, "once {once} of {rereg_domains}");
    assert!(report.overview.domain_frequency.frequency.len() >= 2);

    // Fig 5: heavy-tailed catcher concentration.
    let top = report.overview.catchers.top(3);
    let catches_total: usize = report
        .overview
        .catchers
        .counts_desc
        .iter()
        .map(|(_, c)| c)
        .sum();
    assert!(top[0].1 as f64 / catches_total as f64 > 0.02);
    assert!(report.overview.catchers.multi_catchers() > 10);

    // ---- §4.3: Table 1 + Fig 6. ----
    assert_eq!(report.features.n_rereg, report.features.n_control);
    let row = |name: &str| report.features.row(name).expect(name);
    let FeatureRow::Numeric {
        mean_rereg,
        mean_control,
        ..
    } = row("average_income_USD")
    else {
        panic!()
    };
    let income_ratio = mean_rereg / mean_control;
    assert!(
        (1.7..7.0).contains(&income_ratio),
        "income ratio {income_ratio}"
    );
    // Every headline feature significant, as in the paper.
    for name in [
        "average_income_USD",
        "average_length",
        "contains_digit",
        "is_dictionary_word",
        "contains_hyphen",
        "contains_underscore",
    ] {
        assert!(row(name).significant(), "{name} not significant");
    }
    // Fig 6 stochastic dominance.
    for q in [0.25, 0.5, 0.75, 0.9] {
        assert!(
            report.features.income_rereg.quantile(q) >= report.features.income_control.quantile(q)
        );
    }

    // ---- §4.4: losses. ----
    assert!(report.losses.domains_noncustodial > 20);
    assert!(report.losses.domains_with_coinbase >= report.losses.domains_noncustodial);
    // Paper: avg 1,944 / 1,877 USD — thousands, not tens or millions.
    assert!(
        (300.0..30_000.0).contains(&report.losses.avg_usd_incl_coinbase),
        "avg misdirected {}",
        report.losses.avg_usd_incl_coinbase
    );
    // Fig 9/11: 1:1 sender patterns dominate.
    let scatter = report.losses.fig9_scatter();
    let one = scatter.iter().filter(|p| p.to_new == 1).count();
    assert!(one * 2 > scatter.len());
    // Fig 10: most catchers profit (paper: 91%).
    let (profit_frac, avg_profit) = report.losses.profit_summary();
    assert!(profit_frac > 0.6, "profit fraction {profit_frac}");
    assert!(avg_profit > 200.0, "avg profit {avg_profit}");
    // Fig 7: hijackable funds exist at scale.
    assert!(report.losses.hijackable.total_usd() > 10_000.0);

    // ---- §4.2: resale. ----
    let lf = report.resale.listed_fraction();
    let sf = report.resale.sold_fraction();
    assert!((0.03..0.15).contains(&lf), "listed {lf}");
    assert!((0.40..0.80).contains(&sf), "sold {sf}");

    // ---- Table 2 + §6. ----
    assert_eq!(report.countermeasures.table2.len(), 7);
    assert!(report
        .countermeasures
        .table2
        .iter()
        .all(|r| !r.displays_warning));
    assert!(report.countermeasures.interception_rate() > 0.95);
}

#[test]
fn detector_misdirection_recall_and_precision_against_truth() {
    let (world, report) = study();
    use std::collections::HashSet;
    let truth_domains: HashSet<_> = world
        .truth()
        .iter()
        .filter(|t| !t.misdirected.is_empty())
        .map(|t| t.label.hash())
        .collect();
    let found_domains: HashSet<_> = report
        .losses
        .findings
        .iter()
        .filter(|f| {
            f.senders
                .iter()
                .any(|s| s.kind != ens_dropcatch::SenderKind::OtherCustodial)
        })
        .map(|f| f.label_hash)
        .collect();

    let hits = truth_domains.intersection(&found_domains).count();
    let recall = hits as f64 / truth_domains.len() as f64;
    let precision = hits as f64 / found_domains.len() as f64;
    assert!(recall > 0.75, "recall {recall}");
    // The conservative heuristic may also fire on custodial cross-traffic,
    // as the paper acknowledges; precision should still be clearly above a
    // coin flip. Under the vendored PRNG stream the medium world measures
    // ~0.73, so the bound leaves headroom without losing the shape claim.
    assert!(precision > 0.65, "precision {precision}");
}

#[test]
fn transfers_are_not_mistaken_for_dropcatches() {
    let (world, report) = study();
    // Domains that were privately transferred but never caught must not
    // appear among re-registrations.
    use std::collections::HashSet;
    let caught: HashSet<_> = report
        .overview
        .reregistrations
        .iter()
        .map(|r| r.label_hash)
        .collect();
    for t in world.truth() {
        if t.catch_count == 0 {
            assert!(
                !caught.contains(&t.label.hash()),
                "{} flagged as caught but never was",
                t.label
            );
        }
    }
    // Sold-after-catch domains keep Organic periods in the truth.
    assert!(world.truth().iter().any(|t| t.sold
        && t.periods
            .last()
            .is_some_and(|p| p.kind == OwnerKind::Organic)));
}

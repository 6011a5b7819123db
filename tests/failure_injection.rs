//! Failure-injection tests: the pipeline must degrade gracefully when the
//! data sources do — lossy name recovery, missing price days, tiny API
//! pages, transiently failing endpoints — and stay bit-identical across
//! reruns.

use ens_dropcatch_suite::analysis::{
    run_study, CrawlConfig, Crawler, DataSources, Dataset, FailurePolicy, Metrics, StudyConfig,
    StudyReport,
};
use ens_dropcatch_suite::oracle::PriceOracle;
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::{ChaosSource, FaultKind, FaultProfile, Timestamp, PPM};
use ens_dropcatch_suite::workload::WorldConfig;

/// The full study with default knobs over endpoints that never fail a crawl.
fn study(sources: &DataSources<'_>, oracle: &PriceOracle) -> StudyReport {
    run_study(
        sources,
        oracle,
        &StudyConfig::default(),
        &Metrics::disabled(),
    )
    .expect("collection succeeds")
}

fn world() -> workload::World {
    WorldConfig::small().with_seed(321).build()
}

#[test]
fn name_loss_degrades_lexical_coverage_but_not_detection() {
    let world = world();
    let lossless = world.subgraph(SubgraphConfig::lossless());
    let lossy = world.subgraph(SubgraphConfig {
        name_loss_rate: 0.30,
        seed: 5,
    });
    let etherscan = world.etherscan();

    let ds_clean = Dataset::try_collect_with(
        &lossless,
        &etherscan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail")
    .0;
    let ds_lossy = Dataset::try_collect_with(
        &lossy,
        &etherscan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail")
    .0;

    // Detection works on hashes, so the re-registration counts are equal.
    let rr_clean = ens_dropcatch::detect_all(&ds_clean.domains).len();
    let rr_lossy = ens_dropcatch::detect_all(&ds_lossy.domains).len();
    assert_eq!(rr_clean, rr_lossy);

    // But recovery drops as configured.
    assert!(ds_lossy.crawl_report.recovery_rate() < 0.80);
    assert!(ds_clean.crawl_report.recovery_rate() > 0.95);

    // And the lossy study still runs end to end.
    let sources = DataSources {
        subgraph: &lossy,
        etherscan: &etherscan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: Default::default(),
    };
    let report = study(&sources, world.oracle());
    assert!(report.features.n_rereg > 0);
}

#[test]
fn page_size_does_not_change_results() {
    let world = world();
    let sg = world.subgraph(SubgraphConfig::lossless());
    let scan = world.etherscan();

    let big = Crawler::with_page_size(1000).crawl(&sg).unwrap();
    let small = Crawler::with_page_size(17).crawl(&sg).unwrap();
    assert_eq!(big.items.len(), small.items.len());
    assert!(small.stats.pages > big.items.len() / 17);
    let hashes_big: Vec<_> = big.items.iter().map(|d| d.label_hash).collect();
    let hashes_small: Vec<_> = small.items.iter().map(|d| d.label_hash).collect();
    assert_eq!(hashes_big, hashes_small, "stable order across page sizes");

    // Same for the per-address txlist crawl.
    let owner = big
        .items
        .iter()
        .find_map(|d| d.registrations.first().map(|r| r.owner))
        .expect("an owner exists");
    let sources = [(owner, scan.txlist_source(owner))];
    let txs_big = Crawler::with_page_size(10_000)
        .crawl_keyed(&sources)
        .unwrap();
    let txs_small = Crawler::with_page_size(3).crawl_keyed(&sources).unwrap();
    assert_eq!(txs_big.map[&owner], txs_small.map[&owner]);
}

#[test]
fn transient_endpoint_failures_are_retried_away() {
    let world = world();
    let sg = world.subgraph(SubgraphConfig::lossless());

    // Every page fails twice before succeeding; the crawl (default budget:
    // 3 retries) still returns the exact same records and accounts for
    // every retry.
    let clean = Crawler::with_page_size(64).crawl(&sg).unwrap();
    let flaky = Crawler::with_page_size(64)
        .crawl(&ChaosSource::new(
            &sg,
            FaultProfile::new(0).with_server_errors(PPM, 2),
        ))
        .unwrap();
    assert_eq!(clean.items, flaky.items);
    assert_eq!(flaky.stats.retries, 2 * flaky.stats.pages);

    // A source that always fails exhausts the budget and reports where —
    // with the fault kind and the partial accounting attached.
    let err = Crawler::with_page_size(64)
        .crawl(&ChaosSource::new(
            &sg,
            FaultProfile::new(0).with_server_errors(PPM, u32::MAX),
        ))
        .unwrap_err();
    assert_eq!(err.source, "subgraph");
    assert_eq!(err.attempts, 4);
    assert_eq!(err.kind, FaultKind::ServerError);
    assert_eq!(err.stats.retries, 3, "the failed page's retries survive");
    assert!(err.stats.backoff_virtual_ms > 0);
}

#[test]
fn typed_faults_are_retried_and_attributed_by_kind() {
    let world = world();
    let sg = world.subgraph(SubgraphConfig::lossless());
    let clean = Crawler::with_page_size(64).crawl(&sg).unwrap();

    // A rate-limit storm: every retried page shows up under `rate_limited`
    // and the server's retry_after floors the virtual backoff.
    let profile = FaultProfile::new(7).with_rate_limits(PPM, 1, 800);
    let stormy = Crawler::with_page_size(64)
        .crawl(&ChaosSource::new(&sg, profile))
        .unwrap();
    assert_eq!(stormy.items, clean.items, "storms are retried away");
    assert_eq!(stormy.stats.retries, stormy.stats.pages);
    assert_eq!(
        stormy.stats.retries_by_kind.rate_limited,
        stormy.stats.retries
    );
    assert!(
        stormy.stats.backoff_virtual_ms >= 800 * stormy.stats.retries as u64,
        "retry_after floors every scheduled wait"
    );

    // A permanent hole is not retryable: fail-fast reports it immediately.
    let holed = ChaosSource::new(&sg, FaultProfile::new(7).with_hole(0, 10));
    let err = Crawler::with_page_size(64).crawl(&holed).unwrap_err();
    assert_eq!(err.kind, FaultKind::PermanentHole);
    assert_eq!(err.attempts, 1);
}

#[test]
fn degrade_policy_carves_gaps_instead_of_aborting() {
    let world = world();
    let sg = world.subgraph(SubgraphConfig::lossless());
    let clean = Crawler::with_page_size(50).crawl(&sg).unwrap();
    let total = clean.items.len();

    let holed = ChaosSource::new(&sg, FaultProfile::new(7).with_hole(100, 150));
    let degraded = Crawler {
        page_size: 50,
        failure: FailurePolicy::degrade(),
        ..Crawler::default()
    }
    .crawl(&holed)
    .unwrap();
    assert_eq!(degraded.items.len(), total - 50);
    assert_eq!(degraded.gaps.len(), 1);
    assert_eq!(degraded.gaps[0].start, 100);
    assert_eq!(degraded.gaps[0].end, Some(150));
    assert_eq!(degraded.gaps[0].lost_estimate, 50);
    // What was recovered is exactly the clean crawl minus the hole.
    let expected: Vec<_> = clean
        .items
        .iter()
        .enumerate()
        .filter(|(i, _)| !(100..150).contains(i))
        .map(|(_, d)| d.label_hash)
        .collect();
    let got: Vec<_> = degraded.items.iter().map(|d| d.label_hash).collect();
    assert_eq!(got, expected);
}

#[test]
fn missing_price_days_carry_forward_instead_of_crashing() {
    let world = world();
    // Punch a two-week hole into the price feed in mid-2022.
    let gap_start = Timestamp::from_ymd(2022, 6, 1).day_index();
    let oracle = PriceOracle::new().with_missing_days(gap_start..gap_start + 14);
    for d in 0..14 {
        let t = Timestamp((gap_start + d) * 86_400);
        assert_eq!(oracle.try_cents_per_eth(t), None);
        // Carry-forward: equals the last day before the gap.
        assert_eq!(
            oracle.cents_per_eth(t),
            oracle.cents_per_eth(Timestamp((gap_start - 1) * 86_400))
        );
    }

    // The study still runs with the gappy oracle.
    let sg = world.subgraph(SubgraphConfig::lossless());
    let scan = world.etherscan();
    let sources = DataSources {
        subgraph: &sg,
        etherscan: &scan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: Default::default(),
    };
    let report = study(&sources, &oracle);
    assert!(report.losses.hijackable.total_usd() > 0.0);
}

#[test]
fn studies_are_deterministic_and_seed_sensitive() {
    let build = |seed| {
        let world = WorldConfig::small().with_names(600).with_seed(seed).build();
        let sg = world.subgraph(SubgraphConfig::default());
        let scan = world.etherscan();
        let sources = DataSources {
            subgraph: &sg,
            etherscan: &scan,
            opensea: world.opensea(),
            observation_end: world.observation_end(),
            crawl: Default::default(),
        };
        let report = study(&sources, world.oracle());
        serde_json::to_string(&report.overview.domain_frequency).unwrap()
    };
    assert_eq!(build(9), build(9), "same seed, same study");
    assert_ne!(build(9), build(10), "different seed, different world");
}

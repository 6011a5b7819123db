//! The Dutch-auction counterfactual, measured through the *pipeline* (not
//! just ground truth): removing the premium auction shifts Fig 3's whole
//! delay distribution left by the 21-day auction and zeroes premium spend,
//! while the loss machinery keeps working unchanged.

use ens_dropcatch::{detect_all, overview, CrawlConfig, Dataset, Metrics};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::workload::WorldConfig;

fn delays(world: &workload::World) -> (Vec<f64>, usize) {
    let sg = world.subgraph(SubgraphConfig::lossless());
    let scan = world.etherscan();
    let ds = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail")
    .0;
    let rereg = detect_all(&ds.domains);
    let report = overview(&ds.domains, ds.observation_end, rereg, &Metrics::disabled());
    (report.delays.delays_days.clone(), report.delays.at_premium)
}

#[test]
fn removing_the_auction_shifts_fig3_left_by_three_weeks() {
    let cfg = WorldConfig::small().with_names(3_000).with_seed(555);
    let with_auction = cfg.clone().build();
    let without = cfg.without_auction().build();

    let (d_with, premium_with) = delays(&with_auction);
    let (d_without, premium_without) = delays(&without);
    assert!(d_with.len() > 100 && d_without.len() > 100);

    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let m_with = median(d_with.clone());
    let m_without = median(d_without.clone());

    // With the auction, nothing lands before day 98 (90d grace + the
    // earliest premium buyers); without it, the drop race starts at day 90.
    let min_with = d_with.iter().copied().fold(f64::INFINITY, f64::min);
    let min_without = d_without.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(min_with >= 98.0, "min with auction {min_with}");
    assert!(
        (90.0..91.0).contains(&min_without),
        "min without {min_without}"
    );

    // The median shifts left by roughly the 21-day auction.
    let shift = m_with - m_without;
    assert!(
        (10.0..30.0).contains(&shift),
        "median shift {shift} (with {m_with}, without {m_without})"
    );

    // Premium payments exist only with the auction.
    assert!(premium_with > 0);
    assert_eq!(premium_without, 0);
}

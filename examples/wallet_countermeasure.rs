//! The countermeasure the paper proposes (§6) — and, because the whole
//! ecosystem is simulated here, also *measures*: walk a name through its
//! lifecycle, resolve it at each stage in all seven production wallets of
//! Table 2 and in a patched wallet, then quantify how much of the world's
//! misdirected value the warning would have intercepted.
//!
//! ```sh
//! cargo run --release --example wallet_countermeasure
//! ```

use ens_dropcatch_suite::analysis::countermeasures::evaluate_countermeasure_with;
use ens_dropcatch_suite::analysis::{analyze_losses, AnalysisIndex, DataSources, Metrics};
use ens_dropcatch_suite::chain::Chain;
use ens_dropcatch_suite::ens::{commit_and_register, EnsSystem, GRACE_PERIOD, PREMIUM_PERIOD};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::{Address, Duration, EnsName, Timestamp, Wei};
use ens_dropcatch_suite::wallets::production_wallets;
use ens_dropcatch_suite::workload::WorldConfig;

fn resolve_everywhere(ens: &EnsSystem, name: &EnsName, now: Timestamp, stage: &str) {
    println!("\n-- {stage} ({now}) --");
    let patched = production_wallets().remove(0).with_countermeasure();
    for wallet in production_wallets() {
        let r = wallet.resolve(ens, name, now);
        println!(
            "  {:14} -> {:44} warning: {}",
            wallet.name,
            r.address.map_or("(none)".into(), |a| a.to_hex()),
            r.warning.map_or("none".to_string(), |w| format!("{w:?}"))
        );
    }
    let r = patched.resolve(ens, name, now);
    println!(
        "  {:14} -> {:44} warning: {}",
        "PATCHED",
        r.address.map_or("(none)".into(), |a| a.to_hex()),
        r.warning.map_or("none".to_string(), |w| format!("{w:?}"))
    );
}

fn main() {
    // Part 1: the Table 2 experiment, replayed.
    let price = 200_000; // $2,000/ETH
    let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
    let mut ens = EnsSystem::new();
    let alice = Address::derive(b"alice");
    let mallory = Address::derive(b"mallory");
    chain.mint(alice, Wei::from_eth(10));
    chain.mint(mallory, Wei::from_eth(1_000_000));

    let name: EnsName = "gold.eth".parse().expect("valid");
    commit_and_register(
        &mut ens,
        &mut chain,
        name.label(),
        alice,
        1,
        Duration::from_years(1),
        price,
        Some(alice),
    )
    .expect("registration succeeds");

    resolve_everywhere(&ens, &name, chain.now(), "freshly registered to alice");

    chain.advance(Duration::from_years(1) + Duration::from_days(30));
    resolve_everywhere(
        &ens,
        &name,
        chain.now(),
        "EXPIRED, in grace — still resolving to alice",
    );

    chain.advance(GRACE_PERIOD + PREMIUM_PERIOD);
    commit_and_register(
        &mut ens,
        &mut chain,
        name.label(),
        mallory,
        2,
        Duration::from_years(1),
        price,
        Some(mallory),
    )
    .expect("catch succeeds");
    chain.advance(Duration::from_days(3));
    resolve_everywhere(
        &ens,
        &name,
        chain.now(),
        "RE-REGISTERED by mallory 3 days ago",
    );

    // Part 2: how much would the warning actually save, ecosystem-wide?
    println!("\n== ecosystem-wide evaluation ==");
    let world = WorldConfig::medium().with_seed(77).build();
    let subgraph = world.subgraph(SubgraphConfig::default());
    let etherscan = world.etherscan();
    let sources = DataSources {
        subgraph: &subgraph,
        etherscan: &etherscan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: Default::default(),
    };
    let (dataset, _) = sources
        .collect(&Metrics::disabled(), None, None)
        .expect("clean endpoints cannot fail");
    let index = AnalysisIndex::build(&dataset, world.oracle(), 1, &Metrics::disabled());
    let losses = analyze_losses(&dataset, world.oracle(), &index, 1, &Metrics::disabled());
    println!("  policy                         intercepts   annoys (false-positive rate)");
    for window_days in [7u64, 30, 90, 365] {
        let report = evaluate_countermeasure_with(
            &losses,
            &dataset,
            &index,
            Duration::from_days(window_days),
        );
        println!(
            "  naive freshness, {window_days:>3}d         {:5.1}%       {:5.1}%",
            report.risk_policy.interception_rate() * 100.0,
            report.risk_policy.annoyance_rate() * 100.0,
        );
        println!(
            "  re-registration, {window_days:>3}d         {:5.1}%       {:5.2}%",
            report.rereg_policy.interception_rate() * 100.0,
            report.rereg_policy.annoyance_rate() * 100.0,
        );
        if window_days == 365 {
            println!(
                "  reverse-record check           {:5.1}%       {:5.1}%",
                report.reverse_policy.interception_rate() * 100.0,
                report.reverse_policy.annoyance_rate() * 100.0,
            );
            println!(
                "  combined                       {:5.1}%       {:5.1}%",
                report.combined_policy.interception_rate() * 100.0,
                report.combined_policy.annoyance_rate() * 100.0,
            );
        }
    }
}

//! Ablation study: quantify the design choices of the measurement pipeline
//! against the simulator's ground truth (a validation the paper cannot do
//! on mainnet, where there is no ground truth).
//!
//! 1. **Transfer-aware detection** — how many private NFT transfers would
//!    read as dropcatches without the effective-owner logic.
//! 2. **Loss bracketing** — conservative (common-sender) estimate vs
//!    ground truth vs the new-sender upper bound.
//! 3. **Custodial filtering** — how many findings the paper's custodial
//!    exclusion removes, and their ground-truth status.
//! 4. **Warning policies** — interception vs annoyance across the naive
//!    freshness, history-aware, and reverse-record checks.
//!
//! ```sh
//! cargo run --release -p ens-bench --bin ablations -- --names 20000 --seed 7
//! ```

use ens_bench::{Fixture, Flags};
use ens_dropcatch::countermeasures::evaluate_countermeasure_with;
use ens_dropcatch::losses::{analyze_losses, upper_bound_losses, SenderKind};
use ens_dropcatch::registrations::{detect_all, detect_reregistrations_ignoring_transfers};
use ens_dropcatch::{AnalysisIndex, Metrics};
use ens_types::Duration;

fn main() {
    let mut names = 20_000;
    let mut seed = 7;
    Flags::new("ablations")
        .count("--names N", &mut names)
        .value("--seed S", &mut seed)
        .parse_env();
    eprintln!("building the world ({names} names, seed {seed})...");
    let fixture = Fixture::build(names, seed);
    let world = &fixture.world;
    let dataset = &fixture.dataset;

    // ------------------------------------------------------------------
    println!("== Ablation 1: transfer-aware re-registration detection ==");
    let proper = detect_all(&dataset.domains);
    let naive: Vec<_> = dataset
        .domains
        .iter()
        .flat_map(detect_reregistrations_ignoring_transfers)
        .collect();
    let truth_caught: usize = world.truth().iter().map(|t| t.catch_count).sum();
    use std::collections::HashSet;
    let key = |r: &ens_dropcatch::ReRegistration| (r.label_hash, r.reg_index);
    let proper_set: HashSet<_> = proper.iter().map(key).collect();
    let naive_set: HashSet<_> = naive.iter().map(key).collect();
    let spurious = naive_set.difference(&proper_set).count();
    let missed = proper_set.difference(&naive_set).count();
    println!("ground-truth catches:          {truth_caught}");
    println!("transfer-aware detector:       {}", proper.len());
    println!(
        "transfer-unaware detector:     {} ({spurious} spurious: transferee re-registering \
         its own name; {missed} missed: original owner re-registering after a transfer)",
        naive.len()
    );

    // ------------------------------------------------------------------
    println!("\n== Ablation 2: loss estimate bracketing ==");
    let index = AnalysisIndex::build(dataset, world.oracle(), 1, &Metrics::disabled());
    let losses = analyze_losses(dataset, world.oracle(), &index, 1, &Metrics::disabled());
    let upper = upper_bound_losses(dataset, world.oracle());
    let truth_usd: f64 = world
        .truth()
        .iter()
        .flat_map(|t| &t.misdirected)
        .map(|m| m.usd)
        .sum();
    let conservative_nc: f64 = losses
        .findings
        .iter()
        .map(|f| f.misdirected_usd_noncustodial())
        .sum();
    let conservative_ic: f64 = losses.findings.iter().map(|f| f.misdirected_usd()).sum();
    println!("conservative, non-custodial:   ${conservative_nc:>12.0}");
    println!("ground truth (planted):        ${truth_usd:>12.0}");
    println!("upper bound (new senders):     ${:>12.0}", upper.total_usd);
    println!(
        "conservative incl. Coinbase:   ${conservative_ic:>12.0}  \
         (can exceed truth: shared Coinbase wallets fire across domains — \
         the contamination the paper's custodial caveat warns about)"
    );
    let brackets = conservative_nc <= truth_usd * 1.02 && truth_usd <= upper.total_usd * 1.02;
    println!(
        "bracketing holds (conservative-NC ≤ truth ≤ upper): {}",
        if brackets { "yes" } else { "NO" }
    );

    // ------------------------------------------------------------------
    println!("\n== Ablation 3: custodial-sender filtering ==");
    let mut custodial_senders = 0usize;
    let mut custodial_usd = 0.0f64;
    let mut kept_senders = 0usize;
    for f in &losses.findings {
        for s in &f.senders {
            if s.kind == SenderKind::OtherCustodial {
                custodial_senders += 1;
                custodial_usd += s.usd_to_new;
            } else {
                kept_senders += 1;
            }
        }
    }
    println!("common senders kept:           {kept_senders} (non-custodial + Coinbase)");
    println!(
        "excluded as custodial:         {custodial_senders} carrying ${custodial_usd:.0} \
         (shared exchange wallets — flagged txs may be other users')"
    );

    // ------------------------------------------------------------------
    println!("\n== Ablation 4: warning-policy trade-off ==");
    println!("policy                          intercepts   false-positive rate");
    for days in [7u64, 30, 90, 365] {
        let r = evaluate_countermeasure_with(&losses, dataset, &index, Duration::from_days(days));
        println!(
            "naive freshness, {days:>3}d           {:5.1}%       {:6.2}%",
            r.risk_policy.interception_rate() * 100.0,
            r.risk_policy.annoyance_rate() * 100.0
        );
        println!(
            "history-aware re-reg, {days:>3}d      {:5.1}%       {:6.2}%",
            r.rereg_policy.interception_rate() * 100.0,
            r.rereg_policy.annoyance_rate() * 100.0
        );
    }
    let r = evaluate_countermeasure_with(&losses, dataset, &index, Duration::from_days(365));
    println!(
        "reverse-record check            {:5.1}%       {:6.2}%",
        r.reverse_policy.interception_rate() * 100.0,
        r.reverse_policy.annoyance_rate() * 100.0
    );
    println!(
        "combined (365d + reverse)       {:5.1}%       {:6.2}%",
        r.combined_policy.interception_rate() * 100.0,
        r.combined_policy.annoyance_rate() * 100.0
    );

    // ------------------------------------------------------------------
    println!("\n== Ablation 5: the Dutch auction counterfactual ==");
    // Rebuild the same world without the premium auction and compare what
    // the mechanism actually changes.
    eprintln!("building the counterfactual (no-auction) world...");
    let cf_world = workload::WorldConfig::default()
        .with_names(names)
        .with_seed(seed)
        .without_auction()
        .build();
    let cf_sg = cf_world.subgraph(ens_subgraph::SubgraphConfig::default());
    let cf_scan = cf_world.etherscan();
    let (cf_ds, _) = ens_dropcatch::Dataset::try_collect_with(
        &cf_sg,
        &cf_scan,
        cf_world.opensea(),
        cf_world.observation_end(),
        &ens_dropcatch::CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail");
    let cf_index = AnalysisIndex::build(&cf_ds, cf_world.oracle(), 1, &Metrics::disabled());
    let cf_losses = analyze_losses(
        &cf_ds,
        cf_world.oracle(),
        &cf_index,
        1,
        &Metrics::disabled(),
    );

    let rereg = detect_all(&dataset.domains);
    let cf_rereg = detect_all(&cf_ds.domains);
    let median_delay = |rs: &[ens_dropcatch::ReRegistration]| {
        let mut d: Vec<f64> = rs.iter().map(|r| r.delay.as_days_f64()).collect();
        d.sort_by(f64::total_cmp);
        if d.is_empty() {
            f64::NAN
        } else {
            d[d.len() / 2]
        }
    };
    let premium_usd = |ds: &ens_dropcatch::Dataset, w: &workload::World| -> f64 {
        ds.domains
            .iter()
            .flat_map(|d| &d.registrations)
            .map(|r| {
                w.oracle()
                    .to_usd(r.premium, r.registered_at)
                    .as_dollars_f64()
            })
            .sum()
    };
    println!("                              with auction    without auction");
    println!(
        "catches                       {:>12}    {:>15}",
        rereg.len(),
        cf_rereg.len()
    );
    println!(
        "median expiry→catch delay     {:>9.1} d    {:>12.1} d",
        median_delay(&rereg),
        median_delay(&cf_rereg)
    );
    println!(
        "premium revenue (USD)         {:>12.0}    {:>15.0}",
        premium_usd(dataset, world),
        premium_usd(&cf_ds, &cf_world)
    );
    println!(
        "hijackable USD (time at risk) {:>12.0}    {:>15.0}",
        losses.hijackable.total_usd(),
        cf_losses.hijackable.total_usd()
    );
    println!(
        "misdirected USD               {:>12.0}    {:>15.0}",
        losses
            .findings
            .iter()
            .map(|f| f.misdirected_usd())
            .sum::<f64>(),
        cf_losses
            .findings
            .iter()
            .map(|f| f.misdirected_usd())
            .sum::<f64>()
    );
    println!(
        "(the auction's first-order effects are timing and revenue: the \
         median catch slips by ~21 days and the premium becomes protocol \
         income; loss totals shift only within seed noise)"
    );

    if !brackets {
        std::process::exit(1);
    }
}

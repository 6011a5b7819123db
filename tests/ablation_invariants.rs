//! Cross-crate invariants behind the ablation study: estimate bracketing,
//! detection equivalences, and warning-policy dominance.

use ens_dropcatch::countermeasures::evaluate_countermeasure_with;
use ens_dropcatch::losses::{analyze_losses, upper_bound_losses, LossReport};
use ens_dropcatch::registrations::{detect_all, detect_reregistrations_ignoring_transfers};
use ens_dropcatch::{AnalysisIndex, CrawlConfig, Dataset, Metrics};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::Duration;
use ens_dropcatch_suite::workload::WorldConfig;

/// The dataset's index and the §4.4 pass over it.
fn index_and_losses(world: &workload::World, ds: &Dataset) -> (AnalysisIndex, LossReport) {
    let index = AnalysisIndex::build(ds, world.oracle(), 1, &Metrics::disabled());
    let losses = analyze_losses(ds, world.oracle(), &index, 1, &Metrics::disabled());
    (index, losses)
}

fn setup() -> (workload::World, Dataset) {
    let world = WorldConfig::default().with_seed(99).build();
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
    (world, ds)
}

#[test]
fn loss_estimates_bracket_the_ground_truth() {
    let (world, ds) = setup();
    let (_, losses) = index_and_losses(&world, &ds);
    let upper = upper_bound_losses(&ds, world.oracle());

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

    assert!(truth_usd > 10_000.0, "world should plant real losses");
    // The conservative estimate (restricted to non-custodial senders, which
    // cannot cross-contaminate) under-counts the truth...
    assert!(
        conservative_nc <= truth_usd * 1.01,
        "conservative {conservative_nc} vs truth {truth_usd}"
    );
    // ...but not absurdly so (it should recover most of it)...
    assert!(
        conservative_nc >= truth_usd * 0.5,
        "conservative too loose: {conservative_nc} vs truth {truth_usd}"
    );
    // ...and the new-sender upper bound lands at or above most of the
    // truth. (It is an over-count of what it *sees*, but misdirected sends
    // from senders with no prior history to the old owner are invisible to
    // it; under the vendored PRNG stream those hold back ~10% of the
    // planted total.)
    assert!(
        upper.total_usd >= truth_usd * 0.85,
        "upper bound {} vs truth {truth_usd}",
        upper.total_usd
    );
    assert!(upper.txs >= losses.txs_noncustodial);
}

#[test]
fn transfer_unaware_detection_differs_only_on_transferred_domains() {
    let (_, ds) = setup();
    use std::collections::HashSet;
    let key = |r: &ens_dropcatch::ReRegistration| (r.label_hash, r.reg_index);
    let proper: HashSet<_> = detect_all(&ds.domains).iter().map(key).collect();
    let naive: HashSet<_> = ds
        .domains
        .iter()
        .flat_map(detect_reregistrations_ignoring_transfers)
        .map(|r| (r.label_hash, r.reg_index))
        .collect();

    let transferred: HashSet<_> = ds
        .domains
        .iter()
        .filter(|d| !d.transfers.is_empty())
        .map(|d| d.label_hash)
        .collect();
    for (hash, idx) in proper.symmetric_difference(&naive) {
        assert!(
            transferred.contains(hash),
            "detectors disagree on an untransferred domain ({hash:?} reg {idx})"
        );
    }
}

#[test]
fn history_aware_policy_dominates_the_naive_one() {
    let (world, ds) = setup();
    let (index, losses) = index_and_losses(&world, &ds);
    for days in [30u64, 90, 365] {
        let r = evaluate_countermeasure_with(&losses, &ds, &index, Duration::from_days(days));
        // Identical interception: every misdirected send follows a
        // re-registration, so both warnings key on the same moment.
        assert!(
            (r.rereg_policy.interception_rate() - r.risk_policy.interception_rate()).abs() < 1e-9,
            "interception should match at {days}d"
        );
        // Strictly lower annoyance: fresh *first* registrations stop firing.
        assert!(
            r.rereg_policy.false_positive_txs < r.risk_policy.false_positive_txs,
            "at {days}d: rereg {} !< naive {}",
            r.rereg_policy.false_positive_txs,
            r.risk_policy.false_positive_txs
        );
    }
}

#[test]
fn reverse_claims_flow_from_protocol_to_dataset() {
    let (world, ds) = setup();
    // The generator plants reverse claims for ~40% of organic owners.
    assert!(
        !ds.reverse_claims.is_empty(),
        "dataset should carry reverse claims"
    );
    // Spot-check one claim against the live system.
    let (addr, history) = ds
        .reverse_claims
        .iter()
        .next()
        .expect("non-empty checked above");
    let (at, name) = history.last().expect("non-empty history");
    assert_eq!(
        ds.primary_name_at(*addr, *at).expect("claimed"),
        name.as_str()
    );
    let parsed: ens_dropcatch_suite::types::EnsName = name.parse().expect("valid name");
    assert_eq!(
        world.ens().primary_name(*addr),
        Some(&parsed),
        "dataset and protocol disagree on the primary name"
    );
}

//! The naive reference passes: the study without an
//! [`AnalysisIndex`](crate::index::AnalysisIndex). Every pass re-detects
//! re-registrations, re-scans the raw transaction vectors and prices each
//! transfer through the oracle on every call, and the countermeasure
//! evaluation sweeps the data once per policy.
//!
//! Nothing in the pipeline, the daemon or the CLI runs these. They are the
//! other side of the naive-vs-indexed equivalence tests and of the
//! `analysis_bench` baseline: each produces output byte-identical to its
//! production pass.

use std::collections::{HashMap, HashSet};

use ens_obs::Metrics;
use ens_subgraph::DomainRecord;
use ens_types::{Address, Duration, Timestamp};
use price_oracle::PriceOracle;
use wallet_sim::{production_wallets, ResolutionContext, WalletProfile, WarningPolicy};

use crate::countermeasures::{policies, report, CountermeasureReport, PolicyOutcome};
use crate::dataset::Dataset;
use crate::features::{
    assemble_features, build_comparison, feature_frame, sample_control, DomainFeatures,
    FeatureComparison,
};
use crate::losses::{
    assemble_loss_report, finish_common_senders, hijackable_funds, CommonSender, LossReport,
    SenderKind,
};
use crate::overview::overview;
use crate::pipeline::{StudyConfig, StudyReport};
use crate::registrations::{
    classify, detect_all, effective_owner_at_expiry, window_contains, DomainOutcome, ReRegistration,
};
use crate::resale::analyze_resales;

/// The whole study on the naive passes. The report is byte-identical to
/// [`run_study_on`](crate::pipeline::run_study_on)'s.
pub fn run_study_on(dataset: &Dataset, oracle: &PriceOracle, config: &StudyConfig) -> StudyReport {
    let overview = overview(
        &dataset.domains,
        dataset.observation_end,
        detect_all(&dataset.domains),
        &Metrics::disabled(),
    );
    let features = compare_features(dataset, oracle, config.control_seed);
    let losses = analyze_losses(dataset, oracle);
    let resale = analyze_resales(&overview.reregistrations, &dataset.market);
    let countermeasures = evaluate_countermeasure(&losses, dataset, config.warning_window);
    StudyReport {
        crawl: dataset.crawl_report.clone(),
        overview,
        features,
        losses,
        resale,
        countermeasures,
    }
}

/// The feature vector of a domain's first (expired) registration period,
/// from three separate scans of the owner's full transaction vector
/// (income, unique senders, count).
fn extract_features(
    dataset: &Dataset,
    oracle: &PriceOracle,
    record: &DomainRecord,
) -> Option<DomainFeatures> {
    let (owner, window, lex) = feature_frame(record)?;
    let window = Some(window);
    let income_usd = dataset.income_usd(owner, window, oracle).as_dollars_f64();
    let num_unique_senders = dataset.unique_senders(owner, window);
    let num_transactions = dataset.incoming(owner, window).count();
    Some(assemble_features(
        lex,
        income_usd,
        num_unique_senders,
        num_transactions,
    ))
}

/// The §4.3 comparison with per-domain re-registration detection for the
/// group split and triple full-vector scans per feature vector, run
/// sequentially. Identical to
/// [`features::compare_features`](crate::features::compare_features).
pub fn compare_features(
    dataset: &Dataset,
    oracle: &PriceOracle,
    control_seed: u64,
) -> FeatureComparison {
    let mut rereg: Vec<&DomainRecord> = Vec::new();
    let mut expired_pool: Vec<&DomainRecord> = Vec::new();
    for d in &dataset.domains {
        match classify(d, dataset.observation_end) {
            DomainOutcome::ReRegistered => rereg.push(d),
            DomainOutcome::ExpiredNotReRegistered => expired_pool.push(d),
            DomainOutcome::ActiveOriginal => {}
        }
    }
    let control = sample_control(expired_pool, rereg.len(), control_seed);

    let f_rereg: Vec<DomainFeatures> = rereg
        .iter()
        .filter_map(|d| extract_features(dataset, oracle, d))
        .collect();
    let f_control: Vec<DomainFeatures> = control
        .iter()
        .filter_map(|d| extract_features(dataset, oracle, d))
        .collect();
    build_comparison(f_rereg, f_control)
}

/// Finds common senders for one re-registration by filter-scanning both
/// wallets' full transaction vectors.
fn common_senders(
    dataset: &Dataset,
    oracle: &PriceOracle,
    r: &ReRegistration,
) -> Vec<CommonSender> {
    let a1 = r.prev_wallet;
    let a2 = r.new_owner;
    if a1 == a2 {
        return Vec::new();
    }

    // Senders to a1 inside the half-open `[0, at)` window, and whether
    // they ever sent to a1 afterwards (which disqualifies them). A tx at
    // exactly `r.at` is outside `prev_window` — new-owner side only.
    let mut to_prev: HashMap<Address, usize> = HashMap::new();
    let mut disqualified: Vec<Address> = Vec::new();
    for tx in dataset.incoming(a1, None) {
        if tx.from == a2 {
            continue;
        }
        if window_contains(r.prev_window(), tx.timestamp) {
            *to_prev.entry(tx.from).or_default() += 1;
        } else {
            disqualified.push(tx.from);
        }
    }
    for d in disqualified {
        to_prev.remove(&d);
    }
    if to_prev.is_empty() {
        return Vec::new();
    }

    // Senders to a2: count only txs inside the `[at, new_expiry)` tenure;
    // any earlier tx to a2 means c already knew a2 — not a misdirection.
    let mut to_new: HashMap<Address, Vec<(Timestamp, f64)>> = HashMap::new();
    let mut knew_a2: Vec<Address> = Vec::new();
    for tx in dataset.incoming(a2, None) {
        if tx.from == a1 {
            continue;
        }
        if window_contains(r.prev_window(), tx.timestamp) {
            knew_a2.push(tx.from);
        } else if window_contains(r.new_window(), tx.timestamp) {
            to_new.entry(tx.from).or_default().push((
                tx.timestamp,
                oracle.to_usd(tx.value, tx.timestamp).as_dollars_f64(),
            ));
        }
    }
    for k in knew_a2 {
        to_new.remove(&k);
    }

    finish_common_senders(&dataset.labels, to_prev, to_new)
}

/// The §4.4 analysis that re-detects re-registrations and filter-scans the
/// full transaction vectors for every one of them, sequentially. Identical
/// to [`losses::analyze_losses`](crate::losses::analyze_losses).
pub fn analyze_losses(dataset: &Dataset, oracle: &PriceOracle) -> LossReport {
    let rereg = detect_all(&dataset.domains);
    let senders_per: Vec<Vec<CommonSender>> = rereg
        .iter()
        .map(|r| common_senders(dataset, oracle, r))
        .collect();
    assemble_loss_report(
        &rereg,
        senders_per,
        oracle,
        hijackable_funds(dataset, |wallet, window| {
            dataset.income_usd(wallet, Some(window), oracle)
        }),
    )
}

fn wallet_with(policy: WarningPolicy) -> WalletProfile {
    WalletProfile {
        policy,
        ..production_wallets().remove(0)
    }
}

/// Evaluates one policy against every misdirected transaction
/// (interception) and every legitimate incoming transaction (annoyance)
/// with full-vector scans.
fn evaluate_policy(losses: &LossReport, dataset: &Dataset, policy: WarningPolicy) -> PolicyOutcome {
    let wallet = wallet_with(policy);
    let mut outcome = PolicyOutcome::default();

    // --- Interception over the flagged misdirected transfers. ---
    let mut flagged_set: HashSet<(Address, u64)> = HashSet::new();
    for finding in &losses.findings {
        let name = finding.name.as_deref();
        for sender in &finding.senders {
            if sender.kind == SenderKind::OtherCustodial {
                continue;
            }
            for &(send_time, usd) in &sender.transfers_to_new {
                flagged_set.insert((sender.sender, send_time.0));
                let reverse_matches =
                    name.map(|n| dataset.primary_name_at(finding.new_owner, send_time) == Some(n));
                let ctx = ResolutionContext {
                    resolved: Some(finding.new_owner),
                    expiry: None,
                    registered_at: Some(finding.caught_at),
                    // Misdirected sends by definition follow a catch.
                    owner_changed_at: Some(finding.caught_at),
                    reverse_matches,
                    now: send_time,
                };
                outcome.misdirected_txs += 1;
                outcome.misdirected_usd += usd;
                if wallet.displays_warning(&ctx) {
                    outcome.flagged_txs += 1;
                    outcome.flagged_usd += usd;
                }
            }
        }
    }

    // --- Annoyance over legitimate sends: every incoming transaction to a
    //     current registrant during their tenure, minus the flagged set. ---
    for domain in &dataset.domains {
        let name = domain.name.as_ref().map(|n| n.to_full());
        for (idx, reg) in domain.registrations.iter().enumerate() {
            let Some(expiry) = domain.expiry_of_registration(idx) else {
                continue;
            };
            let window_end = expiry.min(dataset.observation_end);
            if reg.registered_at >= window_end {
                continue;
            }
            // Did this registration change the name's owner (a dropcatch)?
            let owner_changed_at = (idx > 0
                && effective_owner_at_expiry(domain, idx - 1) != Some(reg.owner))
            .then_some(reg.registered_at);
            for tx in dataset.incoming(reg.owner, Some((reg.registered_at, window_end))) {
                if flagged_set.contains(&(tx.from, tx.timestamp.0)) {
                    continue;
                }
                let reverse_matches = name
                    .as_deref()
                    .map(|n| dataset.primary_name_at(reg.owner, tx.timestamp) == Some(n));
                let ctx = ResolutionContext {
                    resolved: Some(reg.owner),
                    expiry: Some(expiry),
                    registered_at: Some(reg.registered_at),
                    owner_changed_at,
                    reverse_matches,
                    now: tx.timestamp,
                };
                outcome.legit_txs += 1;
                if wallet.displays_warning(&ctx) {
                    outcome.false_positive_txs += 1;
                }
            }
        }
    }

    outcome
}

/// The countermeasure evaluation as one full sweep per policy. Identical
/// to
/// [`evaluate_countermeasure_with`](crate::countermeasures::evaluate_countermeasure_with)'s
/// fused sweep.
pub fn evaluate_countermeasure(
    losses: &LossReport,
    dataset: &Dataset,
    window: Duration,
) -> CountermeasureReport {
    report(
        policies(window).map(|policy| evaluate_policy(losses, dataset, policy)),
        window,
    )
}

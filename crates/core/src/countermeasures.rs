//! The wallet study of Appendix B (Table 2) and the countermeasure
//! evaluation of §6 — extended beyond the paper.
//!
//! The paper can only *propose* the expired/re-registered warning. With the
//! whole ecosystem simulated, this module measures two things the paper
//! could not:
//!
//! 1. **Interception** — how much misdirected value each warning policy
//!    would have flagged at the moment of the send; and
//! 2. **Annoyance** (false positives) — how often the same policy fires on
//!    perfectly legitimate sends, which is what actually decides whether a
//!    wallet vendor ships the warning.
//!
//! Four policies are evaluated: the paper's recent-registration/expiry
//! warning, its history-aware variant (recent ownership changes only), a
//! forward-and-back (reverse-record) check that exploits how rarely
//! dropcatchers claim primary names, and the freshness-or-reverse
//! combination. [`evaluate_countermeasure_with`] scores all four in one
//! sweep over the transactions; [`evaluate_countermeasure`] keeps one naive
//! sweep per policy as the equivalence oracle.

use std::collections::HashSet;

use ens_types::{Address, Duration, Timestamp};
use serde::{Deserialize, Serialize};
use wallet_sim::{production_wallets, ResolutionContext, WalletProfile, WarningPolicy};

use crate::dataset::{primary_name_in, Dataset};
use crate::index::AnalysisIndex;
use crate::losses::{LossReport, SenderKind};
use crate::registrations::effective_owner_at_expiry;

/// One row of Table 2.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Wallet name.
    pub wallet: String,
    /// Version/date tested.
    pub version: String,
    /// Does it display a warning on an expired/re-registered name?
    pub displays_warning: bool,
}

/// Interception + annoyance for one policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Misdirected transactions evaluated.
    pub misdirected_txs: usize,
    /// Misdirected transactions the policy flags.
    pub flagged_txs: usize,
    /// Misdirected USD evaluated.
    pub misdirected_usd: f64,
    /// Misdirected USD flagged.
    pub flagged_usd: f64,
    /// Legitimate transactions evaluated.
    pub legit_txs: usize,
    /// Legitimate transactions the policy (wrongly) flags.
    pub false_positive_txs: usize,
}

impl PolicyOutcome {
    /// Fraction of misdirected value intercepted.
    pub fn interception_rate(&self) -> f64 {
        if self.misdirected_usd == 0.0 {
            return 0.0;
        }
        self.flagged_usd / self.misdirected_usd
    }

    /// Fraction of legitimate sends that trigger a (spurious) warning.
    pub fn annoyance_rate(&self) -> f64 {
        if self.legit_txs == 0 {
            return 0.0;
        }
        self.false_positive_txs as f64 / self.legit_txs as f64
    }
}

/// Table 2 plus the countermeasure evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CountermeasureReport {
    /// Table 2, evaluated against a canonical expired-name context.
    pub table2: Vec<Table2Row>,
    /// A naive freshness warning: any *registration* younger than the
    /// window (what a wallet can do with on-chain state alone).
    pub risk_policy: PolicyOutcome,
    /// The history-aware warning: only *re-registrations* (ownership
    /// changes through expiry) younger than the window — what the paper
    /// actually proposes, implementable with a subgraph query.
    pub rereg_policy: PolicyOutcome,
    /// The forward-and-back (reverse record) check.
    pub reverse_policy: PolicyOutcome,
    /// Both combined.
    pub combined_policy: PolicyOutcome,
    /// The window used for the "recently registered" warning.
    pub warning_window_days: u64,
    /// Misdirected transactions evaluated (risk policy; kept at the top
    /// level for report rendering).
    pub misdirected_txs: usize,
    /// Misdirected transactions flagged (risk policy).
    pub flagged_txs: usize,
}

impl CountermeasureReport {
    /// Fraction of misdirected value the paper's warning would intercept.
    pub fn interception_rate(&self) -> f64 {
        self.risk_policy.interception_rate()
    }
}

/// Evaluates Table 2 the way the paper does: resolve a name that is past
/// expiry (and later freshly re-registered) in each production wallet and
/// record whether a warning appears.
pub fn table2(expired_ctx: &ResolutionContext) -> Vec<Table2Row> {
    production_wallets()
        .into_iter()
        .map(|w| Table2Row {
            wallet: w.name.to_string(),
            version: w.version.to_string(),
            displays_warning: w.displays_warning(expired_ctx),
        })
        .collect()
}

/// A canonical "expired but still resolving" context for Table 2.
pub fn canonical_expired_context() -> ResolutionContext {
    let registered_at = Timestamp::from_ymd(2021, 1, 1);
    let expiry = Timestamp::from_ymd(2022, 1, 1);
    ResolutionContext {
        resolved: Some(ens_types::Address::derive(b"previous-owner")),
        expiry: Some(expiry),
        registered_at: Some(registered_at),
        owner_changed_at: None,
        reverse_matches: Some(false),
        now: expiry + Duration::from_days(30),
    }
}

fn wallet_with(policy: WarningPolicy) -> WalletProfile {
    WalletProfile {
        policy,
        ..production_wallets().remove(0)
    }
}

/// The four policies the report scores, in report order: the naive
/// freshness warning, the history-aware one, the reverse-record check,
/// and the freshness-or-reverse combination.
fn policies(window: Duration) -> [WarningPolicy; 4] {
    [
        WarningPolicy::WarnOnRisk {
            recent_window: window,
        },
        WarningPolicy::WarnOnRecentOwnerChange {
            recent_window: window,
        },
        WarningPolicy::WarnOnReverseMismatch,
        WarningPolicy::WarnOnRiskOrReverseMismatch {
            recent_window: window,
        },
    ]
}

/// Evaluates one policy against every misdirected transaction (interception)
/// and every legitimate incoming transaction (annoyance) with the naive
/// full-vector scans of the seed. This is the naive reference only:
/// [`evaluate_countermeasure`] runs it once per policy, and the fused
/// sweep behind [`evaluate_countermeasure_with`] must match it byte for
/// byte.
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

/// Every policy of `policies` in one sweep: the same interception and
/// annoyance loops as [`evaluate_policy`], but each registration's name,
/// expiry, owner-change time, tenure slice and reverse claims are looked
/// up once, the flagged set is built once, and each transaction's
/// [`ResolutionContext`] is built once and handed to every policy. Each
/// outcome accumulates in the naive sweep's order, so its f64 sums are
/// bit-identical to a separate [`evaluate_policy`] call.
fn evaluate_policies(
    losses: &LossReport,
    dataset: &Dataset,
    index: &AnalysisIndex,
    policies: &[WarningPolicy; 4],
) -> [PolicyOutcome; 4] {
    let mut outcomes = [PolicyOutcome::default(); 4];

    let mut flagged_set: HashSet<(Address, u64)> = HashSet::new();
    for finding in &losses.findings {
        let name = finding.name.as_deref();
        let claims = dataset.reverse_claims_of(finding.new_owner);
        for sender in &finding.senders {
            if sender.kind == SenderKind::OtherCustodial {
                continue;
            }
            for &(send_time, usd) in &sender.transfers_to_new {
                flagged_set.insert((sender.sender, send_time.0));
                let ctx = ResolutionContext {
                    resolved: Some(finding.new_owner),
                    expiry: None,
                    registered_at: Some(finding.caught_at),
                    owner_changed_at: Some(finding.caught_at),
                    reverse_matches: name.map(|n| primary_name_in(claims, send_time) == Some(n)),
                    now: send_time,
                };
                for (policy, outcome) in policies.iter().zip(&mut outcomes) {
                    outcome.misdirected_txs += 1;
                    outcome.misdirected_usd += usd;
                    if policy.evaluate(&ctx).is_some() {
                        outcome.flagged_txs += 1;
                        outcome.flagged_usd += usd;
                    }
                }
            }
        }
    }

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
            let owner_changed_at = (idx > 0
                && effective_owner_at_expiry(domain, idx - 1) != Some(reg.owner))
            .then_some(reg.registered_at);
            let claims = dataset.reverse_claims_of(reg.owner);
            for tx in index.incoming(reg.owner, Some((reg.registered_at, window_end))) {
                if flagged_set.contains(&(tx.from, tx.timestamp.0)) {
                    continue;
                }
                let ctx = ResolutionContext {
                    resolved: Some(reg.owner),
                    expiry: Some(expiry),
                    registered_at: Some(reg.registered_at),
                    owner_changed_at,
                    reverse_matches: name
                        .as_deref()
                        .map(|n| primary_name_in(claims, tx.timestamp) == Some(n)),
                    now: tx.timestamp,
                };
                for (policy, outcome) in policies.iter().zip(&mut outcomes) {
                    outcome.legit_txs += 1;
                    if policy.evaluate(&ctx).is_some() {
                        outcome.false_positive_txs += 1;
                    }
                }
            }
        }
    }

    outcomes
}

/// Evaluates the proposed countermeasure (and the reverse-check variant)
/// against a loss report, on the naive scan path: one full sweep per
/// policy, kept as the equivalence oracle for
/// [`evaluate_countermeasure_with`].
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

/// [`evaluate_countermeasure`] on the analysis substrate — identical
/// output from one sweep that scores all four policies, with the
/// annoyance loop's tenure scans served by the index.
pub fn evaluate_countermeasure_with(
    losses: &LossReport,
    dataset: &Dataset,
    index: &AnalysisIndex,
    window: Duration,
) -> CountermeasureReport {
    report(
        evaluate_policies(losses, dataset, index, &policies(window)),
        window,
    )
}

/// The report for the four outcomes of [`policies`], in that order.
fn report(
    [risk_policy, rereg_policy, reverse_policy, combined_policy]: [PolicyOutcome; 4],
    window: Duration,
) -> CountermeasureReport {
    CountermeasureReport {
        table2: table2(&canonical_expired_context()),
        misdirected_txs: risk_policy.misdirected_txs,
        flagged_txs: risk_policy.flagged_txs,
        risk_policy,
        rereg_policy,
        reverse_policy,
        combined_policy,
        warning_window_days: window.as_days(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{collect_clean, Dataset};
    use crate::losses::analyze_losses;
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    fn setup() -> (Dataset, LossReport) {
        let world = WorldConfig::default().with_seed(80).build();
        let ds = collect_clean(&world, SubgraphConfig::lossless());
        let losses = analyze_losses(&ds, world.oracle());
        (ds, losses)
    }

    #[test]
    fn table2_reproduces_the_all_no_column() {
        let rows = table2(&canonical_expired_context());
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert!(
                !row.displays_warning,
                "{} should not warn (paper Table 2)",
                row.wallet
            );
        }
        let names: Vec<&str> = rows.iter().map(|r| r.wallet.as_str()).collect();
        assert!(names.contains(&"Metamask"));
        assert!(names.contains(&"Coinbase"));
    }

    #[test]
    fn risk_policy_interception_scales_with_window() {
        let (ds, losses) = setup();
        assert!(!losses.findings.is_empty());

        let year = evaluate_countermeasure(&losses, &ds, Duration::from_days(365));
        assert!(year.risk_policy.misdirected_txs > 0);
        assert!(
            year.interception_rate() > 0.95,
            "interception {}",
            year.interception_rate()
        );

        let month = evaluate_countermeasure(&losses, &ds, Duration::from_days(30));
        assert!(month.interception_rate() < year.interception_rate());

        let none = evaluate_countermeasure(&losses, &ds, Duration::ZERO);
        assert_eq!(none.risk_policy.flagged_txs, 0);
    }

    #[test]
    fn risk_policy_annoyance_is_low_but_nonzero() {
        let (ds, losses) = setup();
        let report = evaluate_countermeasure(&losses, &ds, Duration::from_days(90));
        let annoyance = report.risk_policy.annoyance_rate();
        assert!(report.risk_policy.legit_txs > 10_000);
        // Legit sends to freshly registered names do trigger the warning —
        // that is the real cost of the countermeasure.
        assert!(annoyance > 0.01, "annoyance {annoyance}");
        assert!(annoyance < 0.5, "annoyance {annoyance}");
    }

    #[test]
    fn history_aware_policy_has_far_lower_annoyance_at_equal_interception() {
        let (ds, losses) = setup();
        let report = evaluate_countermeasure(&losses, &ds, Duration::from_days(365));
        // Same (or better) interception than the naive freshness warning...
        assert!(
            report.rereg_policy.interception_rate() >= report.risk_policy.interception_rate() * 0.9
        );
        // ...at a small fraction of the false positives: legitimate new
        // names never changed hands, so they never warn.
        assert!(
            report.rereg_policy.annoyance_rate() < report.risk_policy.annoyance_rate() * 0.5,
            "rereg {} vs naive {}",
            report.rereg_policy.annoyance_rate(),
            report.risk_policy.annoyance_rate()
        );
    }

    #[test]
    fn reverse_policy_catches_most_misdirections_but_annoys_more() {
        let (ds, losses) = setup();
        let report = evaluate_countermeasure(&losses, &ds, Duration::from_days(90));
        // Catchers claim reverse records only ~5% of the time → very high
        // interception.
        assert!(
            report.reverse_policy.interception_rate() > 0.80,
            "reverse interception {}",
            report.reverse_policy.interception_rate()
        );
        // But most honest owners never claim one either → a much larger
        // false-positive rate. This is the quantified trade-off.
        assert!(
            report.reverse_policy.annoyance_rate() > report.risk_policy.annoyance_rate(),
            "reverse {} vs risk {}",
            report.reverse_policy.annoyance_rate(),
            report.risk_policy.annoyance_rate()
        );
        // Combined policy intercepts at least as much as either alone.
        assert!(
            report.combined_policy.interception_rate()
                >= report
                    .risk_policy
                    .interception_rate()
                    .max(report.reverse_policy.interception_rate())
                    - 1e-9
        );
    }
}

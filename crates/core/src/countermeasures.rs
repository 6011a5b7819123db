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
//! combination. [`evaluate_countermeasures`] scores all four in one
//! sweep over the transactions, its annoyance half sharded over blocks of
//! domains;
//! [`naive::evaluate_countermeasure`](crate::naive::evaluate_countermeasure)
//! keeps one sweep per policy as the equivalence reference.

use std::collections::HashSet;

use ens_obs::Metrics;
use ens_subgraph::DomainRecord;
use ens_types::{Address, Duration, Timestamp};
use serde::{Deserialize, Serialize};
use wallet_sim::{production_wallets, ResolutionContext, WarningPolicy};

use crate::dataset::{primary_name_in, Dataset};
use crate::index::AnalysisIndex;
use crate::losses::{LossReport, SenderKind};
use crate::registrations::effective_owner_at_expiry;
use crate::shard::shard_map;

/// Domains per block of the sharded annoyance sweep: each block returns
/// four pairs of counts, so a 60 K-domain sweep keeps a few hundred
/// results rather than one per domain.
const SWEEP_BLOCK: usize = 256;

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

/// The four policies the report scores, in report order: the naive
/// freshness warning, the history-aware one, the reverse-record check,
/// and the freshness-or-reverse combination.
pub(crate) fn policies(window: Duration) -> [WarningPolicy; 4] {
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

/// Every policy of `policies` in one sweep: the same interception and
/// annoyance loops as the naive reference's one sweep per policy, but each
/// registration's name, expiry, owner-change time, tenure slice and
/// reverse claims are looked up once, the flagged set is built once, and
/// each transaction's [`ResolutionContext`] is built once and handed to
/// every policy. The interception loop holds the f64 USD sums, so it runs
/// in finding order, as the naive sweep does, and its sums are
/// bit-identical to a separate per-policy sweep. The annoyance loop only
/// counts; it runs on [`shard_map`] over blocks of domains, and the
/// blocks' counts add up to the same integers at any `threads`.
fn evaluate_policies(
    losses: &LossReport,
    dataset: &Dataset,
    index: &AnalysisIndex,
    policies: &[WarningPolicy; 4],
    threads: usize,
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

    let blocks: Vec<&[DomainRecord]> = dataset.domains.chunks(SWEEP_BLOCK).collect();
    let counts = shard_map(&blocks, threads, |block| {
        legit_counts(block, dataset, index, policies, &flagged_set)
    });
    for block in counts {
        for (outcome, (legit, false_positives)) in outcomes.iter_mut().zip(block) {
            outcome.legit_txs += legit;
            outcome.false_positive_txs += false_positives;
        }
    }
    outcomes
}

/// The annoyance sweep over one block of domains: per policy, the
/// legitimate sends into each registration's tenure (every incoming
/// transfer not in `flagged`) and how many of them the policy warns on.
fn legit_counts(
    domains: &[DomainRecord],
    dataset: &Dataset,
    index: &AnalysisIndex,
    policies: &[WarningPolicy; 4],
    flagged: &HashSet<(Address, u64)>,
) -> [(usize, usize); 4] {
    let mut counts = [(0, 0); 4];
    for domain in domains {
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
                if flagged.contains(&(tx.from, tx.timestamp.0)) {
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
                for (policy, (legit, false_positives)) in policies.iter().zip(&mut counts) {
                    *legit += 1;
                    if policy.evaluate(&ctx).is_some() {
                        *false_positives += 1;
                    }
                }
            }
        }
    }
    counts
}

/// Evaluates the proposed countermeasure (and the reverse-check variants)
/// against a loss report on the analysis substrate, under a
/// `countermeasures` span: one sweep scores all four policies, with the
/// annoyance loop's tenure scans served by the index and spread over
/// `threads` scoped workers. The report is identical to
/// [`naive::evaluate_countermeasure`](crate::naive::evaluate_countermeasure)'s
/// at any thread count.
pub fn evaluate_countermeasures(
    losses: &LossReport,
    dataset: &Dataset,
    index: &AnalysisIndex,
    window: Duration,
    threads: usize,
    metrics: &Metrics,
) -> CountermeasureReport {
    let _span = metrics.span("countermeasures");
    report(
        evaluate_policies(losses, dataset, index, &policies(window), threads),
        window,
    )
}

/// [`evaluate_countermeasures`] on one thread, without metrics: the entry
/// the `ablations` bin, the `strategy_economics` and
/// `wallet_countermeasure` examples, `tests/index_equivalence.rs`,
/// `tests/ablation_invariants.rs` and `perfbench/tracer` call for one
/// window at a time.
pub fn evaluate_countermeasure_with(
    losses: &LossReport,
    dataset: &Dataset,
    index: &AnalysisIndex,
    window: Duration,
) -> CountermeasureReport {
    evaluate_countermeasures(losses, dataset, index, window, 1, &Metrics::disabled())
}

/// The report for the four outcomes of [`policies`], in that order.
pub(crate) fn report(
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
    use ens_obs::Metrics;
    use ens_subgraph::SubgraphConfig;
    use workload::WorldConfig;

    fn setup() -> (Dataset, AnalysisIndex, LossReport) {
        let world = WorldConfig::default().with_seed(80).build();
        let ds = collect_clean(&world, SubgraphConfig::lossless());
        let index = AnalysisIndex::build(&ds, world.oracle(), 1, &Metrics::disabled());
        let losses = analyze_losses(&ds, world.oracle(), &index, 1, &Metrics::disabled());
        (ds, index, losses)
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
    fn the_sharded_sweep_scores_alike_at_any_thread_count() {
        let (ds, index, losses) = setup();
        let window = Duration::from_days(365);
        let one = evaluate_countermeasure_with(&losses, &ds, &index, window);
        assert!(
            ds.domains.len() > 2 * SWEEP_BLOCK,
            "the sweep spans several blocks"
        );
        for threads in [2, 8] {
            let metrics = Metrics::new();
            let sharded = evaluate_countermeasures(&losses, &ds, &index, window, threads, &metrics);
            assert_eq!(
                serde_json::to_string(&sharded).unwrap(),
                serde_json::to_string(&one).unwrap(),
                "at {threads} threads"
            );
            let spans = metrics.snapshot().spans;
            assert_eq!(spans.len(), 1);
            assert_eq!(
                (spans[0].path.as_str(), spans[0].calls),
                ("countermeasures", 1)
            );
        }
    }

    #[test]
    fn risk_policy_interception_scales_with_window() {
        let (ds, index, losses) = setup();
        assert!(!losses.findings.is_empty());

        let year = evaluate_countermeasure_with(&losses, &ds, &index, Duration::from_days(365));
        assert!(year.risk_policy.misdirected_txs > 0);
        assert!(
            year.interception_rate() > 0.95,
            "interception {}",
            year.interception_rate()
        );

        let month = evaluate_countermeasure_with(&losses, &ds, &index, Duration::from_days(30));
        assert!(month.interception_rate() < year.interception_rate());

        let none = evaluate_countermeasure_with(&losses, &ds, &index, Duration::ZERO);
        assert_eq!(none.risk_policy.flagged_txs, 0);
    }

    #[test]
    fn risk_policy_annoyance_is_low_but_nonzero() {
        let (ds, index, losses) = setup();
        let report = evaluate_countermeasure_with(&losses, &ds, &index, Duration::from_days(90));
        let annoyance = report.risk_policy.annoyance_rate();
        assert!(report.risk_policy.legit_txs > 10_000);
        // Legit sends to freshly registered names do trigger the warning —
        // that is the real cost of the countermeasure.
        assert!(annoyance > 0.01, "annoyance {annoyance}");
        assert!(annoyance < 0.5, "annoyance {annoyance}");
    }

    #[test]
    fn history_aware_policy_has_far_lower_annoyance_at_equal_interception() {
        let (ds, index, losses) = setup();
        let report = evaluate_countermeasure_with(&losses, &ds, &index, Duration::from_days(365));
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
        let (ds, index, losses) = setup();
        let report = evaluate_countermeasure_with(&losses, &ds, &index, Duration::from_days(90));
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

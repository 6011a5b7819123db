//! Ownership-timeline reconstruction and re-registration (dropcatch)
//! detection — §4's core primitive: "we identify new ownership by searching
//! for domains that are held by new wallets post-expiration vs
//! pre-expiration".

use ens_subgraph::DomainRecord;
use ens_types::{Address, Duration, EnsName, LabelHash, Timestamp, Wei};
use serde::{Deserialize, Serialize};

/// The 90-day grace period length.
pub const GRACE_PERIOD: Duration = Duration::from_days(90);

/// The 21-day premium auction length.
pub const PREMIUM_PERIOD: Duration = Duration::from_days(21);

/// One detected re-registration: a domain expired under one wallet and was
/// registered by a *different* wallet.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReRegistration {
    /// The domain.
    pub label_hash: LabelHash,
    /// Readable name, when recovered.
    pub name: Option<EnsName>,
    /// Index of the new registration in the domain record.
    pub reg_index: usize,
    /// The wallet that effectively held the name at its expiry
    /// (registrant after any transfers).
    pub prev_owner: Address,
    /// The wallet the name *resolved to* pre-expiry (where stray funds
    /// keep landing); falls back to `prev_owner` if no record is known.
    pub prev_wallet: Address,
    /// The re-registering wallet.
    pub new_owner: Address,
    /// When the previous registration expired.
    pub prev_expiry: Timestamp,
    /// When anyone could register again (expiry + 90 days).
    pub grace_end: Timestamp,
    /// When the Dutch-auction premium reached zero (grace end + 21 days).
    pub premium_end: Timestamp,
    /// When the new owner registered.
    pub at: Timestamp,
    /// `at - prev_expiry` (the x-axis of Fig 3).
    pub delay: Duration,
    /// Base rent the new owner paid.
    pub base_cost: Wei,
    /// Premium the new owner paid (non-zero ⇒ caught inside the auction).
    pub premium: Wei,
    /// End of the new owner's registration period.
    pub new_expiry: Timestamp,
}

impl ReRegistration {
    /// True if this catch paid a temporary premium.
    pub fn paid_premium(&self) -> bool {
        !self.premium.is_zero()
    }

    /// The previous owner's attribution window, half-open `[0, at)`.
    ///
    /// Together with [`new_window`](Self::new_window) this pins the §4.4
    /// ownership-boundary contract: a transfer timestamped *exactly* at the
    /// re-registration instant `at` falls outside this window and inside the
    /// new owner's — it is attributed to `a2` only, never double-counted.
    pub fn prev_window(&self) -> (Timestamp, Timestamp) {
        (Timestamp(0), self.at)
    }

    /// The new owner's tenure window, half-open `[at, new_expiry)`.
    ///
    /// Complements [`prev_window`](Self::prev_window) with no overlap and
    /// no gap: every timestamp before `new_expiry` belongs to exactly one
    /// of the two windows.
    pub fn new_window(&self) -> (Timestamp, Timestamp) {
        (self.at, self.new_expiry)
    }

    /// True if the catch landed within `window` of the premium's end —
    /// "re-registered shortly after their temporary premium periods
    /// concluded".
    pub fn near_premium_end(&self, window: Duration) -> bool {
        self.at >= self.premium_end && self.at < self.premium_end + window
    }
}

/// True iff `t` lies in the half-open window `[w.0, w.1)` — the single
/// definition of window membership the loss passes share, matching
/// [`Dataset::incoming`](crate::dataset::Dataset::incoming) and the
/// indexed slice queries.
pub fn window_contains(w: (Timestamp, Timestamp), t: Timestamp) -> bool {
    t >= w.0 && t < w.1
}

/// The wallet that effectively held the name at the end of registration
/// period `idx`: the registrant, updated by any transfers during the period.
pub fn effective_owner_at_expiry(record: &DomainRecord, idx: usize) -> Option<Address> {
    let reg = record.registrations.get(idx)?;
    let expiry = record.expiry_of_registration(idx)?;
    let mut owner = reg.owner;
    for t in &record.transfers {
        if t.at >= reg.registered_at && t.at < expiry {
            owner = t.to;
        }
    }
    Some(owner)
}

/// The address the name resolved to at time `t` (the last `addr` record
/// written strictly before `t`).
pub fn resolved_wallet_at(record: &DomainRecord, t: Timestamp) -> Option<Address> {
    record
        .addr_changes
        .iter()
        .rfind(|a| a.at < t)
        .map(|a| a.addr)
}

/// Detects every re-registration in a domain record.
pub fn detect_reregistrations(record: &DomainRecord) -> Vec<ReRegistration> {
    let mut out = Vec::new();
    for idx in 1..record.registrations.len() {
        let prev_expiry = match record.expiry_of_registration(idx - 1) {
            Some(e) => e,
            None => continue,
        };
        let new_reg = &record.registrations[idx];
        // Same-wallet re-registrations (an owner who let the name lapse and
        // took it back) are not dropcatches: the paper counts domains
        // "registered by two or more unique entities".
        let prev_owner = match effective_owner_at_expiry(record, idx - 1) {
            Some(o) => o,
            None => continue,
        };
        if new_reg.owner == prev_owner {
            continue;
        }
        let grace_end = prev_expiry + GRACE_PERIOD;
        let prev_wallet = resolved_wallet_at(record, new_reg.registered_at).unwrap_or(prev_owner);
        out.push(ReRegistration {
            label_hash: record.label_hash,
            name: record.name.clone(),
            reg_index: idx,
            prev_owner,
            prev_wallet,
            new_owner: new_reg.owner,
            prev_expiry,
            grace_end,
            premium_end: grace_end + PREMIUM_PERIOD,
            at: new_reg.registered_at,
            delay: new_reg.registered_at.saturating_since(prev_expiry),
            base_cost: new_reg.base_cost,
            premium: new_reg.premium,
            new_expiry: record
                .expiry_of_registration(idx)
                .unwrap_or(new_reg.expires),
        });
    }
    out
}

/// Detects re-registrations across a whole dataset.
pub fn detect_all(domains: &[DomainRecord]) -> Vec<ReRegistration> {
    domains.iter().flat_map(detect_reregistrations).collect()
}

/// [`detect_all`] with the per-domain detection fanned across up to
/// `threads` scoped workers by [`shard_map`](crate::shard_map), results
/// concatenated in domain order — the output is identical to
/// [`detect_all`] at any thread count.
pub(crate) fn detect_all_with_threads(
    domains: &[DomainRecord],
    threads: usize,
) -> Vec<ReRegistration> {
    crate::shard::shard_map(domains, threads, detect_reregistrations)
        .into_iter()
        .flatten()
        .collect()
}

/// Ablation variant: detection that compares raw *registrants* instead of
/// the transfer-adjusted effective owner. A user who buys a name privately
/// and later re-registers it after a lapse looks like a dropcatch to this
/// detector — quantifying why the effective-owner logic matters.
pub fn detect_reregistrations_ignoring_transfers(record: &DomainRecord) -> Vec<ReRegistration> {
    let mut out = Vec::new();
    for idx in 1..record.registrations.len() {
        let prev_expiry = match record.expiry_of_registration(idx - 1) {
            Some(e) => e,
            None => continue,
        };
        let prev_reg = &record.registrations[idx - 1];
        let new_reg = &record.registrations[idx];
        if new_reg.owner == prev_reg.owner {
            continue;
        }
        let grace_end = prev_expiry + GRACE_PERIOD;
        out.push(ReRegistration {
            label_hash: record.label_hash,
            name: record.name.clone(),
            reg_index: idx,
            prev_owner: prev_reg.owner,
            prev_wallet: resolved_wallet_at(record, new_reg.registered_at)
                .unwrap_or(prev_reg.owner),
            new_owner: new_reg.owner,
            prev_expiry,
            grace_end,
            premium_end: grace_end + PREMIUM_PERIOD,
            at: new_reg.registered_at,
            delay: new_reg.registered_at.saturating_since(prev_expiry),
            base_cost: new_reg.base_cost,
            premium: new_reg.premium,
            new_expiry: record
                .expiry_of_registration(idx)
                .unwrap_or(new_reg.expires),
        });
    }
    out
}

/// Classification of a domain's lifecycle within the observation window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainOutcome {
    /// Still held by its only-ever registrant lineage at window end.
    ActiveOriginal,
    /// Expired at least once and was never taken by a different wallet.
    ExpiredNotReRegistered,
    /// Taken by a different wallet after an expiry at least once.
    ReRegistered,
}

/// Classifies one domain, re-running detection on the record.
pub fn classify(record: &DomainRecord, observation_end: Timestamp) -> DomainOutcome {
    classify_with_detected(
        record,
        observation_end,
        !detect_reregistrations(record).is_empty(),
    )
}

/// [`classify`] with the re-registration verdict already known — lets a
/// caller holding a [`detect_all`] result (e.g. via an
/// [`AnalysisIndex`](crate::index::AnalysisIndex)) classify every domain
/// without re-running detection per record.
pub fn classify_with_detected(
    record: &DomainRecord,
    observation_end: Timestamp,
    was_reregistered: bool,
) -> DomainOutcome {
    if was_reregistered {
        return DomainOutcome::ReRegistered;
    }
    let ever_expired = (0..record.registrations.len()).any(|i| {
        record
            .expiry_of_registration(i)
            .is_some_and(|e| e < observation_end)
    });
    if ever_expired {
        DomainOutcome::ExpiredNotReRegistered
    } else {
        DomainOutcome::ActiveOriginal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_subgraph::{AddrEntry, RegistrationEntry, TransferEntry};
    use ens_types::{BlockNumber, Label};

    fn addr(s: &str) -> Address {
        Address::derive(s.as_bytes())
    }

    fn reg(owner: &str, at: u64, years: u64) -> RegistrationEntry {
        RegistrationEntry {
            owner: addr(owner),
            registered_at: Timestamp(at),
            expires: Timestamp(at) + Duration::from_years(years),
            base_cost: Wei::from_milli_eth(10),
            premium: Wei::ZERO,
            block: BlockNumber(0),
            tx: None,
            legacy: false,
        }
    }

    fn record(regs: Vec<RegistrationEntry>) -> DomainRecord {
        DomainRecord {
            label_hash: Label::parse("example").unwrap().hash(),
            name: Some(EnsName::parse("example.eth").unwrap()),
            registrations: regs,
            ..DomainRecord::default()
        }
    }

    const YEAR: u64 = 365 * 86_400;

    #[test]
    fn detects_a_basic_dropcatch() {
        let rec = record(vec![reg("alice", 0, 1), reg("bob", 2 * YEAR, 1)]);
        let found = detect_reregistrations(&rec);
        assert_eq!(found.len(), 1);
        let r = &found[0];
        assert_eq!(r.prev_owner, addr("alice"));
        assert_eq!(r.new_owner, addr("bob"));
        assert_eq!(r.prev_expiry, Timestamp(YEAR));
        assert_eq!(r.delay, Duration::from_secs(YEAR));
        assert_eq!(r.grace_end, Timestamp(YEAR) + GRACE_PERIOD);
        assert!(!r.paid_premium());
    }

    #[test]
    fn same_owner_reregistration_is_not_a_catch() {
        let rec = record(vec![reg("alice", 0, 1), reg("alice", 2 * YEAR, 1)]);
        assert!(detect_reregistrations(&rec).is_empty());
        assert_eq!(
            classify(&rec, Timestamp(3 * YEAR)),
            DomainOutcome::ExpiredNotReRegistered
        );
    }

    #[test]
    fn transfers_update_the_effective_owner() {
        let mut rec = record(vec![reg("alice", 0, 1), reg("bob", 2 * YEAR, 1)]);
        // Alice transferred to Bob mid-period; Bob's later re-registration
        // is therefore the SAME entity taking its own name back.
        rec.transfers.push(TransferEntry {
            at: Timestamp(YEAR / 2),
            from: addr("alice"),
            to: addr("bob"),
            block: BlockNumber(1),
        });
        assert!(detect_reregistrations(&rec).is_empty());
    }

    #[test]
    fn renewals_shift_the_expiry_used_for_delay() {
        let mut rec = record(vec![reg("alice", 0, 1), reg("bob", 3 * YEAR, 1)]);
        rec.renewals.push(ens_subgraph::RenewalEntry {
            at: Timestamp(YEAR / 2),
            new_expiry: Timestamp(2 * YEAR),
            cost: Wei::from_milli_eth(5),
            block: BlockNumber(2),
            tx: None,
        });
        let found = detect_reregistrations(&rec);
        assert_eq!(found[0].prev_expiry, Timestamp(2 * YEAR));
        assert_eq!(found[0].delay, Duration::from_secs(YEAR));
    }

    #[test]
    fn prev_wallet_prefers_the_resolver_record() {
        let mut rec = record(vec![reg("alice", 0, 1), reg("bob", 2 * YEAR, 1)]);
        rec.addr_changes.push(AddrEntry {
            at: Timestamp(10),
            addr: addr("alice-cold-wallet"),
        });
        let found = detect_reregistrations(&rec);
        assert_eq!(found[0].prev_wallet, addr("alice-cold-wallet"));
        assert_eq!(found[0].prev_owner, addr("alice"));
    }

    #[test]
    fn multiple_catches_are_all_detected() {
        let rec = record(vec![
            reg("alice", 0, 1),
            reg("bob", 2 * YEAR, 1),
            reg("carol", 4 * YEAR, 1),
        ]);
        let found = detect_reregistrations(&rec);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].new_owner, addr("bob"));
        assert_eq!(found[1].new_owner, addr("carol"));
        assert_eq!(found[1].prev_owner, addr("bob"));
    }

    #[test]
    fn classify_distinguishes_the_three_outcomes() {
        let active = record(vec![reg("alice", 0, 10)]);
        assert_eq!(
            classify(&active, Timestamp(YEAR)),
            DomainOutcome::ActiveOriginal
        );
        let lapsed = record(vec![reg("alice", 0, 1)]);
        assert_eq!(
            classify(&lapsed, Timestamp(3 * YEAR)),
            DomainOutcome::ExpiredNotReRegistered
        );
        let caught = record(vec![reg("alice", 0, 1), reg("bob", 2 * YEAR, 1)]);
        assert_eq!(
            classify(&caught, Timestamp(3 * YEAR)),
            DomainOutcome::ReRegistered
        );
    }

    #[test]
    fn premium_flag_round_trips() {
        let mut catch_reg = reg("bob", (1.3 * YEAR as f64) as u64, 1);
        catch_reg.premium = Wei::from_milli_eth(500);
        let rec = record(vec![reg("alice", 0, 1), catch_reg]);
        let found = detect_reregistrations(&rec);
        assert!(found[0].paid_premium());
        // Registered before the premium ended.
        assert!(found[0].at < found[0].premium_end);
        assert!(!found[0].near_premium_end(Duration::from_days(7)));
    }
}

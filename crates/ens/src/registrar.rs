//! The `.eth` base registrar: who holds which second-level name, and until
//! when.
//!
//! Modelled on the production `BaseRegistrarImplementation`: registrations
//! are ERC-721 tokens keyed by label hash with an expiry timestamp, a
//! 90-day grace period during which only the old registrant can renew, and
//! availability for anyone afterwards.

use std::collections::HashMap;

use ens_types::{Address, Label, LabelHash, Timestamp};
use serde::{Deserialize, Serialize};

use crate::pricing::GRACE_PERIOD;

/// One live (or lapsed but remembered) registration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Registration {
    /// The plaintext label (kept for simulation introspection; on the real
    /// chain only the hash exists).
    pub label: Label,
    /// Current registrant (NFT holder).
    pub registrant: Address,
    /// Expiry timestamp. The grace period runs for 90 days after this.
    pub expiry: Timestamp,
    /// When the *current* registrant registered the name.
    pub registered_at: Timestamp,
}

impl Registration {
    /// End of the grace period: the moment the name becomes registrable by
    /// anyone (and the premium auction opens).
    pub fn grace_end(&self) -> Timestamp {
        self.expiry + GRACE_PERIOD
    }

    /// True while the registration confers ownership (not yet past grace).
    pub fn is_held_at(&self, now: Timestamp) -> bool {
        now < self.grace_end()
    }

    /// True while the name actually resolves ownership rights (pre-expiry).
    pub fn is_active_at(&self, now: Timestamp) -> bool {
        now < self.expiry
    }
}

/// The base registrar state machine.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BaseRegistrar {
    registrations: HashMap<LabelHash, Registration>,
}

impl BaseRegistrar {
    /// Creates an empty registrar.
    pub fn new() -> BaseRegistrar {
        BaseRegistrar::default()
    }

    /// The registration record for `label_hash`, lapsed or not.
    pub fn registration(&self, label_hash: LabelHash) -> Option<&Registration> {
        self.registrations.get(&label_hash)
    }

    /// The current registrant, honouring expiry semantics: like the
    /// production `ownerOf`, this is `None` once the name expires (even
    /// during grace, when the old registrant can still renew but no longer
    /// "owns" the token for resolution purposes).
    pub fn registrant_of(&self, label_hash: LabelHash, now: Timestamp) -> Option<Address> {
        self.registrations
            .get(&label_hash)
            .filter(|r| r.is_active_at(now))
            .map(|r| r.registrant)
    }

    /// True if anyone may register the name right now (never registered, or
    /// past expiry + grace).
    pub fn available(&self, label_hash: LabelHash, now: Timestamp) -> bool {
        match self.registrations.get(&label_hash) {
            None => true,
            Some(r) => now >= r.grace_end(),
        }
    }

    /// The moment the name (if currently taken) becomes available.
    pub fn available_at(&self, label_hash: LabelHash) -> Option<Timestamp> {
        self.registrations.get(&label_hash).map(|r| r.grace_end())
    }

    /// Records a registration under `label_hash`, the hash of
    /// `registration.label`. The caller (controller) must have verified
    /// availability and taken payment.
    pub(crate) fn set_registration(&mut self, label_hash: LabelHash, registration: Registration) {
        self.registrations.insert(label_hash, registration);
    }

    /// Extends an existing registration's expiry. Caller must have verified
    /// the grace window.
    pub(crate) fn extend(&mut self, label_hash: LabelHash, new_expiry: Timestamp) {
        if let Some(r) = self.registrations.get_mut(&label_hash) {
            r.expiry = new_expiry;
        }
    }

    /// Reassigns the registrant (ERC-721 transfer). Caller must have
    /// verified ownership.
    pub(crate) fn set_registrant(&mut self, label_hash: LabelHash, to: Address) {
        if let Some(r) = self.registrations.get_mut(&label_hash) {
            r.registrant = to;
        }
    }

    /// All registrations (simulation ground truth; not part of the
    /// measurable surface).
    pub fn iter(&self) -> impl Iterator<Item = &Registration> {
        self.registrations.values()
    }

    /// Number of label hashes ever registered.
    pub fn len(&self) -> usize {
        self.registrations.len()
    }

    /// True if no name was ever registered.
    pub fn is_empty(&self) -> bool {
        self.registrations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::Duration;

    fn label(s: &str) -> Label {
        Label::parse(s).unwrap()
    }

    fn reg(l: &str, who: &str, expiry: Timestamp) -> Registration {
        Registration {
            label: label(l),
            registrant: Address::derive(who.as_bytes()),
            expiry,
            registered_at: Timestamp(0),
        }
    }

    #[test]
    fn fresh_names_are_available() {
        let r = BaseRegistrar::new();
        assert!(r.available(label("gold").hash(), Timestamp(0)));
        assert!(r.is_empty());
    }

    #[test]
    fn grace_period_blocks_availability_for_90_days() {
        let mut r = BaseRegistrar::new();
        let expiry = Timestamp::from_ymd(2022, 1, 1);
        let h = label("gold").hash();
        r.set_registration(h, reg("gold", "alice", expiry));

        assert!(!r.available(h, expiry - Duration::from_secs(1)));
        // Expired but in grace: still unavailable.
        assert!(!r.available(h, expiry));
        assert!(!r.available(h, expiry + Duration::from_days(89)));
        // One second before grace end: unavailable; at grace end: available.
        assert!(!r.available(h, expiry + Duration::from_days(90) - Duration::from_secs(1)));
        assert!(r.available(h, expiry + Duration::from_days(90)));
    }

    #[test]
    fn registrant_of_is_none_after_expiry() {
        let mut r = BaseRegistrar::new();
        let expiry = Timestamp::from_ymd(2022, 1, 1);
        let h = label("gold").hash();
        r.set_registration(h, reg("gold", "alice", expiry));
        assert_eq!(
            r.registrant_of(h, expiry - Duration::from_secs(1)),
            Some(Address::derive(b"alice"))
        );
        // During grace the token no longer resolves an owner...
        assert_eq!(r.registrant_of(h, expiry + Duration::from_days(1)), None);
        // ...but the record still exists, so the old registrant can renew.
        assert!(r
            .registration(h)
            .unwrap()
            .is_held_at(expiry + Duration::from_days(1)));
    }

    #[test]
    fn extend_moves_expiry() {
        let mut r = BaseRegistrar::new();
        let expiry = Timestamp::from_ymd(2022, 1, 1);
        let h = label("gold").hash();
        r.set_registration(h, reg("gold", "alice", expiry));
        r.extend(h, expiry + Duration::from_years(1));
        assert!(r
            .registrant_of(h, expiry + Duration::from_days(10))
            .is_some());
    }

    #[test]
    fn available_at_reports_grace_end() {
        let mut r = BaseRegistrar::new();
        let expiry = Timestamp::from_ymd(2022, 1, 1);
        r.set_registration(label("gold").hash(), reg("gold", "alice", expiry));
        assert_eq!(
            r.available_at(label("gold").hash()),
            Some(expiry + GRACE_PERIOD)
        );
        assert_eq!(r.available_at(label("other").hash()), None);
    }
}

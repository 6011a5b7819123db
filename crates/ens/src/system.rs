//! The assembled ENS deployment: controller + registrar + registry +
//! resolver, wired to a [`sim_chain::Chain`] for payments and time.

use std::collections::HashMap;

use ens_types::{
    keccak256, Address, Duration, EnsName, Hash32, Label, LabelHash, NameHash, Timestamp, TxHash,
    UsdCents, Wei, ETH_NODE,
};
use serde::{Deserialize, Serialize};
use sim_chain::{Chain, TxKind};

use crate::error::EnsError;
use crate::events::{EnsEvent, EnsEventKind};
use crate::pricing::{premium_after_grace, usd_to_wei, RentSchedule, MIN_REGISTRATION};
use crate::registrar::{BaseRegistrar, Registration};
use crate::registry::{PublicResolver, Registry};
use crate::reverse::ReverseRegistrar;

/// Minimum commitment age before `register` accepts it (front-running guard,
/// as in the production controller).
pub const MIN_COMMITMENT_AGE: Duration = Duration::from_secs(60);

/// Maximum commitment age.
pub const MAX_COMMITMENT_AGE: Duration = Duration::from_days(1);

/// A successful registration or renewal, with everything the caller paid.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Receipt {
    /// The name concerned.
    pub label: Label,
    /// Payment transaction.
    pub tx: TxHash,
    /// Base rent paid.
    pub base_cost: Wei,
    /// Premium paid (zero outside the Dutch auction window).
    pub premium: Wei,
    /// New expiry.
    pub expires: Timestamp,
}

impl Receipt {
    /// Total wei paid.
    pub fn total(&self) -> Wei {
        self.base_cost + self.premium
    }
}

/// The full simulated ENS deployment.
///
/// ```
/// use ens_registry::{commit_and_register, EnsSystem};
/// use ens_types::{Address, Duration, EnsName, Label, Timestamp, Wei};
/// use sim_chain::Chain;
///
/// let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
/// let mut ens = EnsSystem::new();
/// let alice = Address::derive(b"alice");
/// chain.mint(alice, Wei::from_eth(10));
///
/// let label = Label::parse("gold").unwrap();
/// commit_and_register(
///     &mut ens, &mut chain, &label, alice, 1,
///     Duration::from_years(1), 200_000, Some(alice),
/// ).unwrap();
///
/// let name: EnsName = "gold.eth".parse().unwrap();
/// assert_eq!(ens.resolve(&name), Some(alice));
/// // The paper's hazard: years after expiry it still resolves to alice.
/// chain.advance(Duration::from_years(3));
/// assert_eq!(ens.registrant_of(&label, chain.now()), None);
/// assert_eq!(ens.resolve(&name), Some(alice));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnsSystem {
    registrar: BaseRegistrar,
    registry: Registry,
    resolver: PublicResolver,
    reverse: ReverseRegistrar,
    rents: RentSchedule,
    premium_enabled: bool,
    commitments: HashMap<Hash32, Timestamp>,
    /// Emitted events not yet taken by [`EnsSystem::take_events`].
    events: Vec<EnsEvent>,
    /// Events emitted so far, taken or not: the next one's id.
    next_event_id: u64,
    controller_address: Address,
}

impl Default for EnsSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl EnsSystem {
    /// Creates a deployment with the production rent schedule.
    pub fn new() -> EnsSystem {
        EnsSystem {
            registrar: BaseRegistrar::new(),
            registry: Registry::new(),
            resolver: PublicResolver::new(),
            reverse: ReverseRegistrar::new(),
            rents: RentSchedule::default(),
            premium_enabled: true,
            commitments: HashMap::new(),
            events: Vec::new(),
            next_event_id: 0,
            controller_address: Address::derive(b"contract/ens-controller"),
        }
    }

    /// Overrides the rent schedule.
    pub fn with_rents(mut self, rents: RentSchedule) -> EnsSystem {
        self.rents = rents;
        self
    }

    /// Disables the temporary-premium Dutch auction — the counterfactual
    /// protocol the paper's §2.1 implicitly contrasts ENS against (DNS-style
    /// fastest-finger drops). Released names become registrable at base
    /// rent the moment the grace period ends.
    pub fn with_premium_disabled(mut self) -> EnsSystem {
        self.premium_enabled = false;
        self
    }

    /// The controller contract's payment address.
    pub fn controller_address(&self) -> Address {
        self.controller_address
    }

    // ------------------------------------------------------------------
    // Read API
    // ------------------------------------------------------------------

    /// True if `label` can be registered right now.
    pub fn available(&self, label: &Label, now: Timestamp) -> bool {
        self.registrar.available(label.hash(), now)
    }

    /// Quote for registering `label` for `duration` at the given ETH price:
    /// `(base_rent, premium)` in USD cents.
    pub fn price_usd(
        &self,
        label: &Label,
        duration: Duration,
        now: Timestamp,
    ) -> (UsdCents, UsdCents) {
        self.quote(label, label.hash(), duration, now)
    }

    /// [`EnsSystem::price_usd`] for a label whose hash the caller holds.
    fn quote(
        &self,
        label: &Label,
        hash: LabelHash,
        duration: Duration,
        now: Timestamp,
    ) -> (UsdCents, UsdCents) {
        let rent = self.rents.rent_for(label, duration);
        let premium = match self.registrar.registration(hash) {
            Some(r) if self.premium_enabled && now >= r.grace_end() => {
                premium_after_grace(now.saturating_since(r.grace_end()))
            }
            _ => UsdCents::ZERO,
        };
        (rent, premium)
    }

    /// The registrar record for a label (lapsed or live).
    pub fn registration(&self, label: &Label) -> Option<&Registration> {
        self.registrar.registration(label.hash())
    }

    /// Current registrant (None once expired).
    pub fn registrant_of(&self, label: &Label, now: Timestamp) -> Option<Address> {
        self.registrar.registrant_of(label.hash(), now)
    }

    /// Resolves a name to a wallet address the way a digital wallet would:
    /// straight through the resolver, with **no expiry check**. This is the
    /// behaviour all seven wallets in the paper's Table 2 exhibit.
    pub fn resolve(&self, name: &EnsName) -> Option<Address> {
        self.resolver.addr(name.namehash())
    }

    /// The event log in chain order: every event emitted since the log
    /// was last taken, so all of them if it never was.
    pub fn events(&self) -> &[EnsEvent] {
        &self.events
    }

    /// Moves the event log out of the deployment, in chain order, for an
    /// indexer that folds it while the chain keeps growing. Ids keep
    /// counting, so every later event carries the id a deployment whose
    /// log was never taken gives it.
    pub fn take_events(&mut self) -> Vec<EnsEvent> {
        let next = Vec::with_capacity(self.events.len());
        std::mem::replace(&mut self.events, next)
    }

    /// Number of distinct label hashes ever registered.
    pub fn name_count(&self) -> usize {
        self.registrar.len()
    }

    /// Registry/resolver accessors for advanced consumers.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared public resolver.
    pub fn resolver(&self) -> &PublicResolver {
        &self.resolver
    }

    /// The base registrar (simulation ground truth).
    pub fn registrar(&self) -> &BaseRegistrar {
        &self.registrar
    }

    /// The primary (reverse) name claimed by `addr`, if any.
    pub fn primary_name(&self, addr: Address) -> Option<&EnsName> {
        self.reverse.primary_name(addr)
    }

    /// Claims `name` as the caller's primary name. Like mainnet, this is
    /// permissionless for one's *own* address — integrity comes from the
    /// forward-and-back check, not from write control.
    pub fn set_primary_name(&mut self, chain: &Chain, caller: Address, name: &EnsName) {
        self.reverse.set_primary_name(caller, name.clone());
        self.emit(
            chain,
            None,
            EnsEventKind::ReverseClaimed {
                addr: caller,
                name: name.to_full(),
            },
        );
    }

    /// Clears the caller's primary name.
    pub fn clear_primary_name(&mut self, caller: Address) {
        self.reverse.clear(caller);
    }

    /// The forward-and-back integrity check dApps use: the name resolves
    /// to an address whose primary name is the same name.
    pub fn forward_and_back_match(&self, name: &EnsName) -> bool {
        match self.resolve(name) {
            Some(addr) => self.primary_name(addr) == Some(name),
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Commit–reveal
    // ------------------------------------------------------------------

    /// Computes the commitment hash for a pending registration.
    pub fn make_commitment(label: &Label, owner: Address, secret: u64) -> Hash32 {
        let mut buf = Vec::with_capacity(label.len() + 20 + 8);
        buf.extend_from_slice(label.as_str().as_bytes());
        buf.extend_from_slice(&owner.0);
        buf.extend_from_slice(&secret.to_be_bytes());
        Hash32(keccak256(&buf))
    }

    /// Records a commitment at the current chain time.
    pub fn commit(&mut self, chain: &Chain, commitment: Hash32) {
        self.commitments.insert(commitment, chain.now());
    }

    /// Checks that `commitment` exists and is old enough, without consuming
    /// it: a registration removes its commitment only once payment went
    /// through, because a reverted transaction leaves chain state as it was.
    fn check_commitment(&self, now: Timestamp, commitment: Hash32) -> Result<(), EnsError> {
        let made_at = *self
            .commitments
            .get(&commitment)
            .ok_or(EnsError::CommitmentNotFound)?;
        let age = now.saturating_since(made_at);
        if age < MIN_COMMITMENT_AGE {
            return Err(EnsError::CommitmentTooNew);
        }
        if age > MAX_COMMITMENT_AGE {
            return Err(EnsError::CommitmentTooOld);
        }
        Ok(())
    }

    /// Fails with [`EnsError::NotAvailable`] unless anyone may register
    /// the label (hash `hash`) right now.
    fn ensure_available(
        &self,
        label: &Label,
        hash: LabelHash,
        now: Timestamp,
    ) -> Result<(), EnsError> {
        if self.registrar.available(hash, now) {
            return Ok(());
        }
        Err(EnsError::NotAvailable {
            label: label.clone(),
            available_at: self
                .registrar
                .available_at(hash)
                .unwrap_or(Timestamp(u64::MAX)),
        })
    }

    /// Fails unless `caller` is the current (unexpired) registrant of the
    /// label (hash `hash`).
    fn ensure_registrant(
        &self,
        label: &Label,
        hash: LabelHash,
        caller: Address,
        now: Timestamp,
    ) -> Result<(), EnsError> {
        let current = self
            .registrar
            .registrant_of(hash, now)
            .ok_or_else(|| EnsError::NotRegistered(label.clone()))?;
        if current != caller {
            return Err(EnsError::NotOwner(label.clone()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Write API. Each write hashes its label once and derives the node
    // from that hash, so a write costs the keccak calls whose values it
    // stores, not one namehash recursion per use.
    // ------------------------------------------------------------------

    /// Registers `label` to `owner` for `duration`, paying rent + premium at
    /// `cents_per_eth`. Requires a prior [`EnsSystem::commit`] older than
    /// [`MIN_COMMITMENT_AGE`], which a successful registration consumes; a
    /// failed payment leaves it for a retry. If `resolve_to` is given, the
    /// resolver `addr` record is set in the same breath (the common
    /// "register + set address" flow).
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        &mut self,
        chain: &mut Chain,
        label: &Label,
        owner: Address,
        secret: u64,
        duration: Duration,
        cents_per_eth: u64,
        resolve_to: Option<Address>,
    ) -> Result<Receipt, EnsError> {
        let now = chain.now();
        if duration < MIN_REGISTRATION {
            return Err(EnsError::DurationTooShort);
        }
        let hash = label.hash();
        self.ensure_available(label, hash, now)?;
        let commitment = Self::make_commitment(label, owner, secret);
        self.check_commitment(now, commitment)?;

        let (rent_usd, premium_usd) = self.quote(label, hash, duration, now);
        let base_cost = usd_to_wei(rent_usd, cents_per_eth);
        let premium = usd_to_wei(premium_usd, cents_per_eth);
        let tx = chain.transfer(
            owner,
            self.controller_address,
            base_cost + premium,
            TxKind::ContractPayment {
                contract: "ens-controller".to_string(),
            },
        )?;
        self.commitments.remove(&commitment);

        let expires = now + duration;
        self.registrar.set_registration(
            hash,
            Registration {
                label: label.clone(),
                registrant: owner,
                expiry: expires,
                registered_at: now,
            },
        );
        let node = ETH_NODE.child(hash);
        self.registry.set_owner(node, owner, now);
        self.emit(
            chain,
            Some(tx),
            EnsEventKind::NameRegistered {
                label_hash: hash,
                label: Some(label.clone()),
                owner,
                expires,
                base_cost,
                premium,
                legacy: false,
            },
        );
        if let Some(addr) = resolve_to {
            self.resolver.set_addr(node, addr);
            self.emit(chain, None, EnsEventKind::AddrChanged { node, addr });
        }
        Ok(Receipt {
            label: label.clone(),
            tx,
            base_cost,
            premium,
            expires,
        })
    }

    /// Renews `label` for `duration` more, paid by `payer`. Allowed any time
    /// before the grace period ends — including by someone other than the
    /// registrant (anyone can pay rent for a name, as on mainnet).
    pub fn renew(
        &mut self,
        chain: &mut Chain,
        label: &Label,
        payer: Address,
        duration: Duration,
        cents_per_eth: u64,
    ) -> Result<Receipt, EnsError> {
        let now = chain.now();
        let hash = label.hash();
        let reg = self
            .registrar
            .registration(hash)
            .ok_or_else(|| EnsError::NotRegistered(label.clone()))?;
        if now >= reg.grace_end() {
            return Err(EnsError::PastGracePeriod(label.clone()));
        }
        let expires = reg.expiry + duration;
        let rent_usd = self.rents.rent_for(label, duration);
        let cost = usd_to_wei(rent_usd, cents_per_eth);
        let tx = chain.transfer(
            payer,
            self.controller_address,
            cost,
            TxKind::ContractPayment {
                contract: "ens-controller".to_string(),
            },
        )?;
        self.registrar.extend(hash, expires);
        self.emit(
            chain,
            Some(tx),
            EnsEventKind::NameRenewed {
                label_hash: hash,
                label: Some(label.clone()),
                expires,
                cost,
            },
        );
        Ok(Receipt {
            label: label.clone(),
            tx,
            base_cost: cost,
            premium: Wei::ZERO,
            expires,
        })
    }

    /// Transfers the registration NFT (and registry ownership) from the
    /// current registrant to `to`. Fails past expiry.
    pub fn transfer(
        &mut self,
        chain: &Chain,
        label: &Label,
        from: Address,
        to: Address,
    ) -> Result<(), EnsError> {
        let now = chain.now();
        let hash = label.hash();
        self.ensure_registrant(label, hash, from, now)?;
        self.registrar.set_registrant(hash, to);
        self.registry.set_owner(ETH_NODE.child(hash), to, now);
        self.emit(
            chain,
            None,
            EnsEventKind::NameTransferred {
                label_hash: hash,
                from,
                to,
            },
        );
        Ok(())
    }

    /// Sets the resolver `addr` record for a second-level name. Only the
    /// *current* (unexpired) registrant may write — which is exactly why
    /// stale records linger after expiry: the old owner can no longer clear
    /// them, and has no incentive to anyway.
    pub fn set_addr(
        &mut self,
        chain: &Chain,
        label: &Label,
        caller: Address,
        addr: Address,
    ) -> Result<(), EnsError> {
        let hash = label.hash();
        self.ensure_registrant(label, hash, caller, chain.now())?;
        let node = ETH_NODE.child(hash);
        self.resolver.set_addr(node, addr);
        self.emit(chain, None, EnsEventKind::AddrChanged { node, addr });
        Ok(())
    }

    /// Creates a subdomain `sub.label.eth` owned by `sub_owner`, optionally
    /// with an `addr` record. Only the parent's current registrant may call.
    pub fn create_subdomain(
        &mut self,
        chain: &Chain,
        label: &Label,
        caller: Address,
        sub_label: &Label,
        sub_owner: Address,
        resolve_to: Option<Address>,
    ) -> Result<NameHash, EnsError> {
        let now = chain.now();
        let hash = label.hash();
        self.ensure_registrant(label, hash, caller, now)?;
        let parent = ETH_NODE.child(hash);
        let node = parent.child(sub_label.hash());
        self.registry.set_owner(node, sub_owner, now);
        self.emit(
            chain,
            None,
            EnsEventKind::SubnodeCreated {
                parent,
                node,
                label: sub_label.clone(),
                owner: sub_owner,
            },
        );
        if let Some(addr) = resolve_to {
            self.resolver.set_addr(node, addr);
            self.emit(chain, None, EnsEventKind::AddrChanged { node, addr });
        }
        Ok(node)
    }

    /// Imports a legacy (auction-era) registration during the 2020 contract
    /// migration: no payment, no commitment, expiry fixed by the migration
    /// deadline. When `publish_label` is false the emitted event carries
    /// **no plaintext label**, modelling pre-controller names whose strings
    /// never reached the index — these are the names the subgraph fails to
    /// recover (paper §3.1).
    pub fn import_legacy(
        &mut self,
        chain: &Chain,
        label: &Label,
        owner: Address,
        expiry: Timestamp,
        resolve_to: Option<Address>,
    ) -> Result<(), EnsError> {
        self.import_legacy_with(chain, label, owner, expiry, resolve_to, false)
    }

    /// [`EnsSystem::import_legacy`] with control over whether the event
    /// publishes the plaintext label (the migration tooling published most
    /// names; a residue stayed hash-only).
    pub fn import_legacy_with(
        &mut self,
        chain: &Chain,
        label: &Label,
        owner: Address,
        expiry: Timestamp,
        resolve_to: Option<Address>,
        publish_label: bool,
    ) -> Result<(), EnsError> {
        let now = chain.now();
        let hash = label.hash();
        self.ensure_available(label, hash, now)?;
        self.registrar.set_registration(
            hash,
            Registration {
                label: label.clone(),
                registrant: owner,
                expiry,
                registered_at: now,
            },
        );
        let node = ETH_NODE.child(hash);
        self.registry.set_owner(node, owner, now);
        self.emit(
            chain,
            None,
            EnsEventKind::NameRegistered {
                label_hash: hash,
                label: publish_label.then(|| label.clone()),
                owner,
                expires: expiry,
                base_cost: Wei::ZERO,
                premium: Wei::ZERO,
                legacy: true,
            },
        );
        if let Some(addr) = resolve_to {
            self.resolver.set_addr(node, addr);
            self.emit(chain, None, EnsEventKind::AddrChanged { node, addr });
        }
        Ok(())
    }

    fn emit(&mut self, chain: &Chain, tx: Option<TxHash>, kind: EnsEventKind) {
        self.events.push(EnsEvent {
            id: self.next_event_id,
            block: chain.block_number(),
            timestamp: chain.now(),
            tx,
            kind,
        });
        self.next_event_id += 1;
    }
}

/// Convenience: full commit–wait–register flow for tests and simple callers.
/// Advances the chain clock by [`MIN_COMMITMENT_AGE`].
#[allow(clippy::too_many_arguments)]
pub fn commit_and_register(
    ens: &mut EnsSystem,
    chain: &mut Chain,
    label: &Label,
    owner: Address,
    secret: u64,
    duration: Duration,
    cents_per_eth: u64,
    resolve_to: Option<Address>,
) -> Result<Receipt, EnsError> {
    let commitment = EnsSystem::make_commitment(label, owner, secret);
    ens.commit(chain, commitment);
    chain.advance(MIN_COMMITMENT_AGE);
    ens.register(
        chain,
        label,
        owner,
        secret,
        duration,
        cents_per_eth,
        resolve_to,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::{GRACE_PERIOD, PREMIUM_PERIOD};

    const PRICE: u64 = 200_000; // $2,000 / ETH

    fn setup() -> (EnsSystem, Chain, Address) {
        let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
        let alice = Address::derive(b"alice");
        chain.mint(alice, Wei::from_eth(1_000));
        (EnsSystem::new(), chain, alice)
    }

    fn label(s: &str) -> Label {
        Label::parse(s).unwrap()
    }

    #[test]
    fn register_sets_ownership_and_resolution() {
        let (mut ens, mut chain, alice) = setup();
        let gold = label("gold");
        let receipt = commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();

        assert_eq!(receipt.premium, Wei::ZERO);
        // "gold" is 4 chars → $160/yr, at $2,000/ETH that is 0.08 ETH.
        assert_eq!(receipt.base_cost, Wei::from_milli_eth(80));
        assert_eq!(ens.registrant_of(&gold, chain.now()), Some(alice));
        let name = EnsName::parse("gold.eth").unwrap();
        assert_eq!(ens.resolve(&name), Some(alice));
    }

    #[test]
    fn register_without_commitment_fails() {
        let (mut ens, mut chain, alice) = setup();
        let err = ens
            .register(
                &mut chain,
                &label("gold"),
                alice,
                1,
                Duration::from_years(1),
                PRICE,
                None,
            )
            .unwrap_err();
        assert_eq!(err, EnsError::CommitmentNotFound);
    }

    #[test]
    fn commitment_age_window_is_enforced() {
        let (mut ens, mut chain, alice) = setup();
        let gold = label("gold");
        let c = EnsSystem::make_commitment(&gold, alice, 7);
        ens.commit(&chain, c);
        // Too new.
        let err = ens
            .register(
                &mut chain,
                &gold,
                alice,
                7,
                Duration::from_years(1),
                PRICE,
                None,
            )
            .unwrap_err();
        assert_eq!(err, EnsError::CommitmentTooNew);
        // Too old.
        chain.advance(MAX_COMMITMENT_AGE + Duration::from_secs(1));
        let err = ens
            .register(
                &mut chain,
                &gold,
                alice,
                7,
                Duration::from_years(1),
                PRICE,
                None,
            )
            .unwrap_err();
        assert_eq!(err, EnsError::CommitmentTooOld);
    }

    #[test]
    fn registered_names_are_unavailable_until_grace_ends() {
        let (mut ens, mut chain, alice) = setup();
        let bob = Address::derive(b"bob");
        chain.mint(bob, Wei::from_eth(1_000_000));
        let gold = label("gold");
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();

        // Bob cannot take it while held.
        let err = commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            bob,
            2,
            Duration::from_years(1),
            PRICE,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, EnsError::NotAvailable { .. }));

        // Jump past expiry + grace + premium window: Bob can take it cheaply.
        chain.advance(Duration::from_years(1) + GRACE_PERIOD + PREMIUM_PERIOD);
        let receipt = commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            bob,
            3,
            Duration::from_years(1),
            PRICE,
            Some(bob),
        )
        .unwrap();
        assert_eq!(receipt.premium, Wei::ZERO);
        assert_eq!(ens.registrant_of(&gold, chain.now()), Some(bob));
    }

    #[test]
    fn reregistration_during_premium_window_costs_a_premium() {
        let (mut ens, mut chain, alice) = setup();
        let whale = Address::derive(b"whale");
        chain.mint(whale, Wei::from_eth(100_000));
        let gold = label("gold");
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();

        // 10 days into the premium window.
        chain.advance(Duration::from_years(1) + GRACE_PERIOD + Duration::from_days(10));
        let (_, premium_usd) = ens.price_usd(&gold, Duration::from_years(1), chain.now());
        // 100M * 2^-10 ≈ $97,656 minus offset.
        assert!(premium_usd > UsdCents::from_dollars(90_000));
        assert!(premium_usd < UsdCents::from_dollars(100_000));

        let receipt = commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            whale,
            9,
            Duration::from_years(1),
            PRICE,
            Some(whale),
        )
        .unwrap();
        assert!(receipt.premium > Wei::ZERO);
    }

    #[test]
    fn renewal_works_during_grace_but_not_after() {
        let (mut ens, mut chain, alice) = setup();
        let gold = label("gold");
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();

        // 30 days into grace: renewal still allowed.
        chain.advance(Duration::from_years(1) + Duration::from_days(30));
        let receipt = ens
            .renew(&mut chain, &gold, alice, Duration::from_years(1), PRICE)
            .unwrap();
        assert!(receipt.expires > chain.now());

        // Let it lapse fully this time.
        chain.advance(Duration::from_years(2));
        let err = ens
            .renew(&mut chain, &gold, alice, Duration::from_years(1), PRICE)
            .unwrap_err();
        assert_eq!(err, EnsError::PastGracePeriod(gold));
    }

    #[test]
    fn resolver_record_survives_expiry_until_overwritten() {
        let (mut ens, mut chain, alice) = setup();
        let bob = Address::derive(b"bob");
        chain.mint(bob, Wei::from_eth(1_000));
        let gold = label("gold");
        let name = EnsName::parse("gold.eth").unwrap();
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();

        // Long after expiry, the name still resolves to Alice — the paper's
        // central hazard.
        chain.advance(Duration::from_years(3));
        assert_eq!(ens.registrant_of(&gold, chain.now()), None);
        assert_eq!(ens.resolve(&name), Some(alice));

        // Bob re-registers and overwrites the record: silent switch.
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            bob,
            2,
            Duration::from_years(1),
            PRICE,
            Some(bob),
        )
        .unwrap();
        assert_eq!(ens.resolve(&name), Some(bob));
    }

    #[test]
    fn expired_owner_cannot_update_records() {
        let (mut ens, mut chain, alice) = setup();
        let gold = label("gold");
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();
        chain.advance(Duration::from_years(2));
        let err = ens
            .set_addr(&chain, &gold, alice, Address::derive(b"new"))
            .unwrap_err();
        assert_eq!(err, EnsError::NotRegistered(gold));
    }

    #[test]
    fn transfer_requires_current_ownership() {
        let (mut ens, mut chain, alice) = setup();
        let bob = Address::derive(b"bob");
        let carol = Address::derive(b"carol");
        let gold = label("gold");
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();

        assert_eq!(
            ens.transfer(&chain, &gold, bob, carol),
            Err(EnsError::NotOwner(gold.clone()))
        );
        ens.transfer(&chain, &gold, alice, bob).unwrap();
        assert_eq!(ens.registrant_of(&gold, chain.now()), Some(bob));
        // Registry owner follows the NFT.
        let node = EnsName::from_label(gold).namehash();
        assert_eq!(ens.registry().owner(node), Some(bob));
    }

    #[test]
    fn short_durations_are_rejected() {
        let (mut ens, mut chain, alice) = setup();
        let err = commit_and_register(
            &mut ens,
            &mut chain,
            &label("gold"),
            alice,
            1,
            Duration::from_days(27),
            PRICE,
            None,
        )
        .unwrap_err();
        assert_eq!(err, EnsError::DurationTooShort);
    }

    #[test]
    fn payment_failure_leaves_no_state() {
        let (mut ens, mut chain, _) = setup();
        let pauper = Address::derive(b"pauper");
        let gold = label("gold");
        let err = commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            pauper,
            1,
            Duration::from_years(1),
            PRICE,
            Some(pauper),
        )
        .unwrap_err();
        assert!(matches!(err, EnsError::Payment(_)));
        assert!(ens.available(&gold, chain.now()));
        assert_eq!(ens.resolve(&EnsName::parse("gold.eth").unwrap()), None);

        // The reverted registration leaves its commitment in place, as on
        // chain: once funded, a retry with the same secret goes through.
        chain.mint(pauper, Wei::from_eth(1));
        ens.register(
            &mut chain,
            &gold,
            pauper,
            1,
            Duration::from_years(1),
            PRICE,
            Some(pauper),
        )
        .unwrap();
        assert_eq!(
            ens.resolve(&EnsName::parse("gold.eth").unwrap()),
            Some(pauper)
        );
    }

    #[test]
    fn legacy_import_emits_nameless_event() {
        let (mut ens, chain, alice) = setup();
        let gold = label("gold");
        ens.import_legacy(
            &chain,
            &gold,
            alice,
            Timestamp::from_ymd(2021, 5, 1),
            Some(alice),
        )
        .unwrap();
        let ev = &ens.events()[0];
        match &ev.kind {
            EnsEventKind::NameRegistered { label, premium, .. } => {
                assert!(label.is_none());
                assert_eq!(*premium, Wei::ZERO);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn subdomains_are_created_under_live_parents_only() {
        let (mut ens, mut chain, alice) = setup();
        let bob = Address::derive(b"bob");
        let gold = label("gold");
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();
        let sub = Label::parse_any("pay").unwrap();
        let node = ens
            .create_subdomain(&chain, &gold, alice, &sub, bob, Some(bob))
            .unwrap();
        assert_eq!(ens.registry().owner(node), Some(bob));
        assert_eq!(node, ens_types::namehash("pay.gold.eth"));

        chain.advance(Duration::from_years(2));
        let err = ens
            .create_subdomain(&chain, &gold, alice, &sub, bob, None)
            .unwrap_err();
        assert_eq!(err, EnsError::NotRegistered(gold));
    }

    #[test]
    fn events_are_ordered_and_dense() {
        let (mut ens, mut chain, alice) = setup();
        commit_and_register(
            &mut ens,
            &mut chain,
            &label("gold"),
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();
        ens.renew(
            &mut chain,
            &label("gold"),
            alice,
            Duration::from_years(1),
            PRICE,
        )
        .unwrap();
        let ids: Vec<u64> = ens.events().iter().map(|e| e.id).collect();
        assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
    }

    /// The event log of a replay that takes it every `take_every` events
    /// (never if `None`), stitched back together.
    fn replay_taking(take_every: Option<usize>) -> Vec<EnsEvent> {
        let (mut ens, mut chain, alice) = setup();
        let gold = label("gold");
        commit_and_register(
            &mut ens,
            &mut chain,
            &gold,
            alice,
            1,
            Duration::from_years(1),
            PRICE,
            Some(alice),
        )
        .unwrap();
        let mut log = Vec::new();
        for i in 1..=12 {
            ens.renew(&mut chain, &gold, alice, Duration::from_years(1), PRICE)
                .unwrap();
            if take_every.is_some_and(|k| i % k == 0) {
                log.extend(ens.take_events());
            }
        }
        log.extend(ens.take_events());
        assert!(ens.events().is_empty());
        log
    }

    #[test]
    fn taking_the_log_mid_replay_keeps_every_event_id() {
        let whole = replay_taking(None);
        let ids: Vec<u64> = whole.iter().map(|e| e.id).collect();
        assert_eq!(ids, (0..14).collect::<Vec<_>>());
        for k in [1, 5, 12] {
            assert_eq!(replay_taking(Some(k)), whole, "taken every {k}");
        }
    }
}

//! # ens-subgraph
//!
//! A simulation of the ENS subgraph (\[10\] in the paper): an off-chain
//! indexer that folds the raw ENS event log into per-domain records and
//! serves them through a paged, GraphQL-flavoured API. The paper's data
//! collection (§3.1) is built entirely on this endpoint, including its
//! failure mode — 34K of 3.1M names (≈0.1%) could not be recovered due to
//! API limitations, modelled here by [`SubgraphConfig::name_loss_rate`].
//!
//! Build one with [`Subgraph::index`] over an [`ens_registry::EnsSystem`]'s
//! events, then page through [`Subgraph::domains`] like a crawler would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod indexer;
pub mod model;
pub mod query;

use ens_registry::EnsEvent;
use ens_types::{EnsName, LabelHash};
pub use indexer::SubgraphConfig;
pub use model::{
    AddrEntry, DomainRecord, RegistrationEntry, RenewalEntry, SubdomainEntry, SubgraphStats,
    TransferEntry,
};
pub use query::{Page, PageRequest, MAX_PAGE_SIZE};

use std::collections::HashMap;
use std::sync::Arc;

use ens_types::{Address, PageError, PagedBatch, PagedSource, Timestamp};

/// A continuously syncing indexer, like the real subgraph node: feed it
/// event batches as the chain grows, then finish it into the queryable
/// [`Subgraph`] a crawler pages through.
///
/// ```
/// use ens_subgraph::{SubgraphConfig, SubgraphIndexer};
/// let mut indexer = SubgraphIndexer::new();
/// indexer.sync(&[]); // nothing yet
/// let endpoint = indexer.finish(SubgraphConfig::lossless());
/// assert_eq!(endpoint.stats().domains, 0);
/// ```
#[derive(Default)]
pub struct SubgraphIndexer {
    state: indexer::IndexState,
    /// Next event id expected (events below this are skipped, making
    /// overlapping batches idempotent).
    cursor: u64,
}

impl SubgraphIndexer {
    /// An empty indexer.
    pub fn new() -> SubgraphIndexer {
        SubgraphIndexer::default()
    }

    /// Applies every not-yet-seen event (by id); overlapping or repeated
    /// batches are idempotent. Returns how many events were applied.
    pub fn sync(&mut self, events: &[EnsEvent]) -> usize {
        let mut applied = 0;
        for event in events {
            if event.id < self.cursor {
                continue;
            }
            self.state.apply(event);
            self.cursor = event.id + 1;
            applied += 1;
        }
        applied
    }

    /// Number of events applied so far.
    pub fn events_indexed(&self) -> u64 {
        self.cursor
    }

    /// Materializes the queryable endpoint once the last batch is in.
    pub fn finish(self, config: SubgraphConfig) -> Subgraph {
        Subgraph::from_state(self.state, config)
    }
}

/// The queryable subgraph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// Domains ordered by label hash (the endpoint's stable order, and
    /// what point lookups binary-search).
    ordered: Vec<DomainRecord>,
    /// addr → (claim time, full name) primary-name history. Shared so that
    /// dataset assembly can take an owned snapshot without a deep copy.
    reverse_history: Arc<HashMap<Address, Vec<(Timestamp, String)>>>,
    stats: SubgraphStats,
    unattributed_addr_changes: usize,
}

impl Subgraph {
    /// Indexes a full event log: one [`SubgraphIndexer::sync`] of the
    /// whole log, then [`SubgraphIndexer::finish`].
    pub fn index(events: &[EnsEvent], config: SubgraphConfig) -> Subgraph {
        let mut indexer = SubgraphIndexer::new();
        indexer.sync(events);
        indexer.finish(config)
    }

    /// Materializes the endpoint view from folded indexer state.
    fn from_state(state: indexer::IndexState, config: SubgraphConfig) -> Subgraph {
        let mut unrecoverable = 0usize;
        let mut ordered: Vec<DomainRecord> = state
            .domains
            .into_values()
            .map(|mut record| {
                // Apply the API-limit loss model: some names are known to the
                // chain but not recoverable through the endpoint.
                if record.name.is_some() && config.loses_name(record.label_hash) {
                    record.name = None;
                }
                if record.name.is_none() {
                    unrecoverable += 1;
                }
                record
            })
            .collect();
        // Label hashes are the map's keys, so no two are equal and the
        // unstable sort gives the one order.
        ordered.sort_unstable_by_key(|r| r.label_hash);

        let stats = SubgraphStats {
            domains: ordered.len(),
            subdomains: state.subdomain_count,
            registrations: state.registrations,
            renewals: state.renewals,
            transfers: state.transfers,
            unrecoverable_names: unrecoverable,
            reverse_claims: state.reverse_claims,
        };
        Subgraph {
            ordered,
            reverse_history: Arc::new(state.reverse_history),
            stats,
            unattributed_addr_changes: state.unattributed_addr_changes,
        }
    }

    /// Pages through all domains in label-hash order.
    pub fn domains(&self, request: PageRequest) -> Page<DomainRecord> {
        query::page_slice(&self.ordered, request)
    }

    /// Looks up one domain by label hash.
    pub fn domain(&self, label_hash: LabelHash) -> Option<&DomainRecord> {
        self.ordered
            .binary_search_by_key(&label_hash, |r| r.label_hash)
            .ok()
            .map(|i| &self.ordered[i])
    }

    /// Looks up one domain by (recovered) name. A domain whose name the
    /// endpoint lost is found by [`Subgraph::domain`] but not here.
    pub fn domain_by_name(&self, name: &EnsName) -> Option<&DomainRecord> {
        self.domain(name.label().hash())
            .filter(|r| r.name.as_ref() == Some(name))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SubgraphStats {
        self.stats
    }

    /// The primary-name (reverse) claim history of every address.
    pub fn reverse_history(&self) -> &HashMap<Address, Vec<(Timestamp, String)>> {
        &self.reverse_history
    }

    /// An owned, shared snapshot of the reverse-claim history. Cloning the
    /// returned handle is a reference-count bump, not a deep copy — this is
    /// what dataset assembly stores.
    pub fn reverse_history_snapshot(&self) -> Arc<HashMap<Address, Vec<(Timestamp, String)>>> {
        Arc::clone(&self.reverse_history)
    }

    /// The primary name `addr` had claimed as of time `t`.
    pub fn primary_name_at(&self, addr: Address, t: Timestamp) -> Option<&str> {
        self.reverse_history
            .get(&addr)?
            .iter()
            .rfind(|(at, _)| *at <= t)
            .map(|(_, name)| name.as_str())
    }

    /// `AddrChanged` events that could not be tied to any known domain
    /// (hash-only legacy names).
    pub fn unattributed_addr_changes(&self) -> usize {
        self.unattributed_addr_changes
    }

    /// Iterates over every indexed domain (test/ground-truth convenience;
    /// crawlers should use [`Subgraph::domains`]).
    pub fn iter(&self) -> impl Iterator<Item = &DomainRecord> {
        self.ordered.iter()
    }
}

/// The subgraph as a generic paged source: items are [`DomainRecord`]s in
/// label-hash order, the total is known up front (so crawls can be sharded
/// by page range), and the server-side `first` cap of [`MAX_PAGE_SIZE`]
/// still applies to every fetch.
impl PagedSource for Subgraph {
    type Item = DomainRecord;

    fn source_name(&self) -> &'static str {
        "subgraph"
    }

    fn total_hint(&self) -> Option<usize> {
        Some(self.ordered.len())
    }

    fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<DomainRecord>, PageError> {
        if limit == 0 {
            // A zero-limit request can never make progress; surface it as a
            // typed malformed-request fault instead of looping forever.
            return Err(PageError::malformed(
                self.source_name(),
                offset,
                "zero-limit page request",
            ));
        }
        let page = self.domains(PageRequest {
            first: limit,
            skip: offset,
        });
        let has_more = offset + page.items.len() < page.total;
        Ok(PagedBatch {
            items: page.items,
            has_more,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_registry::{commit_and_register, EnsSystem};
    use ens_types::{Address, Duration, Label, Timestamp, Wei};
    use sim_chain::Chain;

    const PRICE: u64 = 200_000;

    fn world() -> (EnsSystem, Chain) {
        let mut chain = Chain::new(Timestamp::from_ymd(2021, 1, 1));
        let ens = EnsSystem::new();
        for who in ["alice", "bob", "carol"] {
            chain.mint(Address::derive(who.as_bytes()), Wei::from_eth(10_000));
        }
        (ens, chain)
    }

    fn register(
        ens: &mut EnsSystem,
        chain: &mut Chain,
        label: &str,
        who: &str,
        years: u64,
        secret: u64,
    ) {
        commit_and_register(
            ens,
            chain,
            &Label::parse(label).unwrap(),
            Address::derive(who.as_bytes()),
            secret,
            Duration::from_years(years),
            PRICE,
            Some(Address::derive(who.as_bytes())),
        )
        .unwrap();
    }

    #[test]
    fn indexes_registration_lifecycle() {
        let (mut ens, mut chain) = world();
        register(&mut ens, &mut chain, "gold", "alice", 1, 1);
        ens.renew(
            &mut chain,
            &Label::parse("gold").unwrap(),
            Address::derive(b"alice"),
            Duration::from_years(1),
            PRICE,
        )
        .unwrap();
        ens.transfer(
            &chain,
            &Label::parse("gold").unwrap(),
            Address::derive(b"alice"),
            Address::derive(b"bob"),
        )
        .unwrap();

        let sg = Subgraph::index(ens.events(), SubgraphConfig::lossless());
        let record = sg
            .domain_by_name(&EnsName::parse("gold.eth").unwrap())
            .unwrap();
        assert_eq!(record.registrations.len(), 1);
        assert_eq!(record.renewals.len(), 1);
        assert_eq!(record.transfers.len(), 1);
        assert_eq!(record.addr_changes.len(), 1);
        assert!(!record.was_reregistered());
        // Renewal extends the effective expiry by a year.
        assert_eq!(
            record.current_expiry().unwrap(),
            record.registrations[0].expires + Duration::from_years(1)
        );
    }

    #[test]
    fn reregistration_is_visible_as_two_registrations() {
        let (mut ens, mut chain) = world();
        register(&mut ens, &mut chain, "gold", "alice", 1, 1);
        chain.advance(Duration::from_years(2));
        register(&mut ens, &mut chain, "gold", "bob", 1, 2);

        let sg = Subgraph::index(ens.events(), SubgraphConfig::lossless());
        let record = sg
            .domain_by_name(&EnsName::parse("gold.eth").unwrap())
            .unwrap();
        assert!(record.was_reregistered());
        assert_eq!(record.registrations[0].owner, Address::derive(b"alice"));
        assert_eq!(record.registrations[1].owner, Address::derive(b"bob"));
        // Per-registration expiry resolution.
        assert_eq!(
            record.expiry_of_registration(0).unwrap(),
            record.registrations[0].expires
        );
    }

    #[test]
    fn pagination_is_stable_and_complete() {
        let (mut ens, mut chain) = world();
        for i in 0..25 {
            register(&mut ens, &mut chain, &format!("name{i:03}"), "alice", 1, i);
        }
        let sg = Subgraph::index(ens.events(), SubgraphConfig::lossless());

        let mut request = PageRequest::first(10);
        let mut collected = Vec::new();
        loop {
            let page = sg.domains(request);
            assert_eq!(page.total, 25);
            collected.extend(page.items.iter().map(|r| r.label_hash));
            if !page.has_more(request) {
                break;
            }
            request = request.next();
        }
        assert_eq!(collected.len(), 25);
        let mut sorted = collected.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 25, "no duplicates or gaps across pages");
    }

    #[test]
    fn page_size_is_capped() {
        let request = PageRequest::first(5000);
        assert_eq!(request.effective_first(), MAX_PAGE_SIZE);
    }

    #[test]
    fn name_loss_hides_names_but_keeps_history() {
        let (mut ens, mut chain) = world();
        for i in 0..300 {
            register(&mut ens, &mut chain, &format!("name{i:03}"), "alice", 1, i);
        }
        // A high loss rate so the effect is visible at this scale.
        let sg = Subgraph::index(
            ens.events(),
            SubgraphConfig {
                name_loss_rate: 0.10,
                seed: 7,
            },
        );
        let stats = sg.stats();
        assert_eq!(stats.domains, 300);
        assert!(
            stats.unrecoverable_names > 10 && stats.unrecoverable_names < 80,
            "loss ≈ 10%, got {}",
            stats.unrecoverable_names
        );
        // Histories survive even when the name doesn't.
        let lost = sg.iter().find(|r| r.name.is_none()).unwrap();
        assert_eq!(lost.registrations.len(), 1);
        assert!((stats.recovery_rate() - 0.9).abs() < 0.1);
    }

    #[test]
    fn a_lost_name_is_found_by_hash_but_not_by_name() {
        let (mut ens, mut chain) = world();
        for i in 0..300 {
            register(&mut ens, &mut chain, &format!("name{i:03}"), "alice", 1, i);
        }
        let sg = Subgraph::index(
            ens.events(),
            SubgraphConfig {
                name_loss_rate: 0.10,
                seed: 7,
            },
        );
        let mut lost = 0;
        for i in 0..300 {
            let name = EnsName::parse(&format!("name{i:03}")).unwrap();
            let record = sg
                .domain(name.label().hash())
                .expect("every domain is indexed");
            if record.name.is_some() {
                assert_eq!(record.name.as_ref(), Some(&name));
                assert_eq!(sg.domain_by_name(&name), Some(record));
            } else {
                lost += 1;
                assert_eq!(sg.domain_by_name(&name), None, "{name} was lost");
            }
        }
        assert_eq!(lost, sg.stats().unrecoverable_names);
        assert!(lost > 0);
        // A name never registered is found by neither lookup.
        let absent = EnsName::parse("absent.eth").unwrap();
        assert_eq!(sg.domain(absent.label().hash()), None);
        assert_eq!(sg.domain_by_name(&absent), None);
    }

    #[test]
    fn legacy_imports_index_without_names() {
        let (mut ens, chain) = world();
        ens.import_legacy(
            &chain,
            &Label::parse("oldname").unwrap(),
            Address::derive(b"alice"),
            Timestamp::from_ymd(2021, 5, 1),
            Some(Address::derive(b"alice")),
        )
        .unwrap();
        let sg = Subgraph::index(ens.events(), SubgraphConfig::lossless());
        let record = sg.domain(Label::parse("oldname").unwrap().hash()).unwrap();
        assert!(record.name.is_none());
        assert!(record.registrations[0].legacy);
        // The AddrChanged for the unknown node cannot be attributed.
        assert_eq!(record.addr_changes.len(), 0);
        assert_eq!(sg.unattributed_addr_changes(), 1);
    }

    #[test]
    fn incremental_sync_matches_one_shot_indexing() {
        let (mut ens, mut chain) = world();
        for i in 0..40 {
            register(&mut ens, &mut chain, &format!("inc{i:02}"), "alice", 1, i);
        }
        ens.renew(
            &mut chain,
            &ens_types::Label::parse("inc00").unwrap(),
            Address::derive(b"alice"),
            Duration::from_years(1),
            PRICE,
        )
        .unwrap();
        let events = ens.events();

        // Feed in three chunks with an overlapping boundary: the cursor
        // makes re-delivery idempotent.
        let mut indexer = SubgraphIndexer::new();
        let n = events.len();
        assert_eq!(indexer.sync(&events[..n / 3]), n / 3);
        let applied = indexer.sync(&events[n / 4..2 * n / 3]);
        assert!(applied < 2 * n / 3 - n / 4, "overlap must be skipped");
        indexer.sync(&events[2 * n / 3..]);
        assert_eq!(indexer.events_indexed(), n as u64);

        let incremental = indexer.finish(SubgraphConfig::lossless());
        let one_shot = Subgraph::index(events, SubgraphConfig::lossless());
        assert_eq!(incremental.stats(), one_shot.stats());
        let a: Vec<_> = incremental.iter().map(|d| d.label_hash).collect();
        let b: Vec<_> = one_shot.iter().map(|d| d.label_hash).collect();
        assert_eq!(a, b);
        // Per-domain content matches too.
        for d in one_shot.iter() {
            assert_eq!(incremental.domain(d.label_hash), Some(d));
        }
    }

    #[test]
    fn subdomains_are_counted_and_attached() {
        let (mut ens, mut chain) = world();
        register(&mut ens, &mut chain, "gold", "alice", 1, 1);
        ens.create_subdomain(
            &chain,
            &Label::parse("gold").unwrap(),
            Address::derive(b"alice"),
            &Label::parse_any("pay").unwrap(),
            Address::derive(b"bob"),
            None,
        )
        .unwrap();
        let sg = Subgraph::index(ens.events(), SubgraphConfig::lossless());
        assert_eq!(sg.stats().subdomains, 1);
        let record = sg
            .domain_by_name(&EnsName::parse("gold.eth").unwrap())
            .unwrap();
        assert_eq!(record.subdomains.len(), 1);
        assert_eq!(record.subdomains[0].label, "pay");
    }
}

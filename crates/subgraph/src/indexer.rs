//! Builds the subgraph's domain view from the raw ENS event log.

use std::collections::HashMap;

use ens_registry::{EnsEvent, EnsEventKind};
use ens_types::{keccak256, Address, EnsName, LabelHash, NameHash, Timestamp, ETH_NODE};
use serde::{Deserialize, Serialize};

use crate::model::{
    AddrEntry, DomainRecord, RegistrationEntry, RenewalEntry, SubdomainEntry, TransferEntry,
};

/// Indexing configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SubgraphConfig {
    /// Probability that a domain's readable name is unrecoverable through
    /// the API, even though events carried it. The paper lost 34K of 3.1M
    /// names (≈1.1%) this way; pass `0.011` to mirror that, `0.0` for a
    /// perfect index.
    pub name_loss_rate: f64,
    /// Seed mixed into the per-domain loss decision.
    pub seed: u64,
}

impl Default for SubgraphConfig {
    fn default() -> Self {
        SubgraphConfig {
            name_loss_rate: 0.011,
            seed: 0,
        }
    }
}

impl SubgraphConfig {
    /// A lossless index (every name recoverable).
    pub fn lossless() -> SubgraphConfig {
        SubgraphConfig {
            name_loss_rate: 0.0,
            seed: 0,
        }
    }

    /// Deterministic per-domain decision: is this domain's name lost?
    pub(crate) fn loses_name(&self, label_hash: LabelHash) -> bool {
        if self.name_loss_rate <= 0.0 {
            return false;
        }
        let mut buf = [0u8; 40];
        buf[..32].copy_from_slice(&label_hash.0 .0);
        buf[32..].copy_from_slice(&self.seed.to_be_bytes());
        let h = keccak256(&buf);
        let r = u64::from_be_bytes(h[..8].try_into().expect("8 bytes")) as f64 / u64::MAX as f64;
        r < self.name_loss_rate
    }
}

/// Internal mutable index used while folding the event stream.
#[derive(Default)]
pub(crate) struct IndexState {
    pub domains: HashMap<LabelHash, DomainRecord>,
    /// namehash → label hash, learned from events that carry labels.
    pub node_to_label: HashMap<NameHash, LabelHash>,
    /// `AddrChanged` events we could not attribute to a known node.
    pub unattributed_addr_changes: usize,
    pub subdomain_count: usize,
    pub reverse_claims: usize,
    /// addr → (claim time, claimed full name) history, in event order.
    pub reverse_history: HashMap<Address, Vec<(Timestamp, String)>>,
    pub registrations: usize,
    pub renewals: usize,
    pub transfers: usize,
}

impl IndexState {
    pub(crate) fn apply(&mut self, event: &EnsEvent) {
        match &event.kind {
            EnsEventKind::NameRegistered {
                label_hash,
                label,
                owner,
                expires,
                base_cost,
                premium,
                legacy,
            } => {
                let record = self
                    .domains
                    .entry(*label_hash)
                    .or_insert_with(|| DomainRecord {
                        label_hash: *label_hash,
                        ..DomainRecord::default()
                    });
                if let Some(label) = label {
                    // The event carries the label hash, so the node is one
                    // keccak away.
                    self.node_to_label
                        .insert(ETH_NODE.child(*label_hash), *label_hash);
                    record.name = Some(EnsName::from_label(label.clone()));
                }
                record.registrations.push(RegistrationEntry {
                    owner: *owner,
                    registered_at: event.timestamp,
                    expires: *expires,
                    base_cost: *base_cost,
                    premium: *premium,
                    block: event.block,
                    tx: event.tx,
                    legacy: *legacy,
                });
                self.registrations += 1;
            }
            EnsEventKind::NameRenewed {
                label_hash,
                expires,
                cost,
                ..
            } => {
                if let Some(record) = self.domains.get_mut(label_hash) {
                    record.renewals.push(RenewalEntry {
                        at: event.timestamp,
                        new_expiry: *expires,
                        cost: *cost,
                        block: event.block,
                        tx: event.tx,
                    });
                    self.renewals += 1;
                }
            }
            EnsEventKind::NameTransferred {
                label_hash,
                from,
                to,
            } => {
                if let Some(record) = self.domains.get_mut(label_hash) {
                    record.transfers.push(TransferEntry {
                        at: event.timestamp,
                        from: *from,
                        to: *to,
                        block: event.block,
                    });
                    self.transfers += 1;
                }
            }
            EnsEventKind::AddrChanged { node, addr } => {
                match self.node_to_label.get(node) {
                    Some(label_hash) => {
                        if let Some(record) = self.domains.get_mut(label_hash) {
                            record.addr_changes.push(AddrEntry {
                                at: event.timestamp,
                                addr: *addr,
                            });
                        }
                    }
                    // Legacy domains whose plaintext we never saw: their
                    // namehash cannot be tied back to a label hash — the
                    // honest failure mode of hash-keyed storage (paper §3.1).
                    None => self.unattributed_addr_changes += 1,
                }
            }
            EnsEventKind::ReverseClaimed { addr, name } => {
                self.reverse_claims += 1;
                self.reverse_history
                    .entry(*addr)
                    .or_default()
                    .push((event.timestamp, name.clone()));
            }
            EnsEventKind::SubnodeCreated {
                parent,
                node,
                label,
                owner,
            } => {
                self.subdomain_count += 1;
                if let Some(label_hash) = self.node_to_label.get(parent) {
                    if let Some(record) = self.domains.get_mut(label_hash) {
                        record.subdomains.push(SubdomainEntry {
                            node: *node,
                            label: label.as_str().to_string(),
                            owner: *owner,
                            at: event.timestamp,
                        });
                    }
                }
            }
        }
    }
}

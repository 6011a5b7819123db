//! The ENS registry (namehash → owner) and the public resolver
//! (namehash → address record).
//!
//! The resolver is where the paper's central vulnerability lives: records
//! are **not** cleared when a registration expires (ENS FAQ, cited as \[23\]
//! in the paper). An expired name keeps resolving to the previous owner's
//! wallet until a new registrant overwrites the record — so there is no
//! "resolution failure" warning phase like an expired DNS domain would have.

use std::collections::HashMap;

use ens_types::{Address, NameHash, Timestamp};
use serde::{Deserialize, Serialize};

/// A registry record for one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegistryRecord {
    /// The node owner (controller of the record, not necessarily the NFT
    /// registrant).
    pub owner: Address,
    /// When this owner was set (for timeline reconstruction in tests).
    pub since: Timestamp,
}

/// namehash → owner mapping.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Registry {
    records: HashMap<NameHash, RegistryRecord>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The record for `node`.
    pub fn record(&self, node: NameHash) -> Option<&RegistryRecord> {
        self.records.get(&node)
    }

    /// The owner of `node`, if any.
    pub fn owner(&self, node: NameHash) -> Option<Address> {
        self.records.get(&node).map(|r| r.owner)
    }

    /// Sets the owner of `node`.
    pub(crate) fn set_owner(&mut self, node: NameHash, owner: Address, now: Timestamp) {
        self.records
            .insert(node, RegistryRecord { owner, since: now });
    }

    /// Number of nodes with records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no node has a record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The public resolver: namehash → wallet address.
///
/// Deliberately has **no notion of expiry**. `addr()` returns whatever was
/// last written, which is exactly the behaviour the paper measures (§4.4:
/// "domains ... continue to resolve to the addresses set by previous owners
/// even after expiration").
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PublicResolver {
    addrs: HashMap<NameHash, Address>,
}

impl PublicResolver {
    /// Creates an empty resolver.
    pub fn new() -> PublicResolver {
        PublicResolver::default()
    }

    /// The `addr` record for `node`, regardless of registration state.
    pub fn addr(&self, node: NameHash) -> Option<Address> {
        self.addrs.get(&node).copied()
    }

    /// Writes the `addr` record.
    pub(crate) fn set_addr(&mut self, node: NameHash, addr: Address) {
        self.addrs.insert(node, addr);
    }

    /// Number of nodes with an `addr` record.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if no records exist.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::namehash;

    #[test]
    fn owner_round_trip() {
        let mut reg = Registry::new();
        let node = namehash("gold.eth");
        assert_eq!(reg.owner(node), None);
        let alice = Address::derive(b"alice");
        reg.set_owner(node, alice, Timestamp(42));
        assert_eq!(reg.owner(node), Some(alice));
        assert_eq!(reg.record(node).unwrap().since, Timestamp(42));
    }

    #[test]
    fn resolver_keeps_records_until_overwritten() {
        let mut res = PublicResolver::new();
        let node = namehash("gold.eth");
        let alice = Address::derive(b"alice");
        let bob = Address::derive(b"bob");

        res.set_addr(node, alice);
        // No expiry parameter exists: the record persists unconditionally.
        assert_eq!(res.addr(node), Some(alice));
        res.set_addr(node, bob);
        assert_eq!(res.addr(node), Some(bob));
    }
}

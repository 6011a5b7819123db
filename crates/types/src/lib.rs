//! # ens-types
//!
//! Foundational Ethereum/ENS primitives shared by every crate in the
//! `ens-dropcatch` workspace:
//!
//! - [`keccak`] — a from-scratch Keccak-256 (Ethereum variant) with test
//!   vectors;
//! - [`hash`] — 32-byte hash newtypes ([`Hash32`], [`LabelHash`],
//!   [`NameHash`], [`TxHash`]);
//! - [`address`] — 20-byte [`Address`] with deterministic derivation and
//!   EIP-55 checksums;
//! - [`amount`] — integer-exact [`Wei`] and [`UsdCents`] amounts;
//! - [`time`] — [`Timestamp`], [`Duration`], [`BlockNumber`] and a small
//!   proleptic-Gregorian calendar;
//! - [`name`] — validated ENS [`Label`]s/[`EnsName`]s and the recursive
//!   [`namehash`](name::namehash);
//! - [`paged`] — the [`PagedSource`] trait every paged data-source endpoint
//!   implements, so one generic crawler can drive them all, plus the typed
//!   fault taxonomy ([`FaultKind`]) and the seeded chaos harness
//!   ([`ChaosSource`]/[`FaultProfile`]) used for failure injection.
//!
//! Everything is `#![forbid(unsafe_code)]`, dependency-light and
//! deterministic, per the simplicity-first idiom of the networking guides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod amount;
pub mod hash;
pub mod keccak;
pub mod name;
pub mod paged;
pub mod time;

pub use address::Address;
pub use amount::{UsdCents, Wei, WEI_PER_ETH};
pub use hash::{Hash32, LabelHash, NameHash, TxHash};
pub use keccak::{keccak256, Keccak256};
pub use name::{namehash, EnsName, Label, NameError, ETH_NODE};
pub use paged::{
    ChaosSource, FaultKind, FaultProfile, KillSwitch, PageError, PagedBatch, PagedSource, ShardKey,
    PPM,
};
pub use time::{BlockNumber, Duration, Timestamp, SECONDS_PER_BLOCK, SECONDS_PER_DAY};

/// Glob-import convenience for downstream crates.
pub mod prelude {
    pub use crate::address::Address;
    pub use crate::amount::{UsdCents, Wei};
    pub use crate::hash::{Hash32, LabelHash, NameHash, TxHash};
    pub use crate::keccak::keccak256;
    pub use crate::name::{namehash, EnsName, Label, NameError};
    pub use crate::time::{BlockNumber, Duration, Timestamp};
}

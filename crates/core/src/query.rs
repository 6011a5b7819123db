//! The shared read-only query layer behind the resident daemon
//! (`ens-serve`): typed query failures, the name → domain directory, and
//! the ownership/premium-status accessors the `name-risk` lookup needs.
//!
//! Everything here is a pure function of an already-built [`Dataset`] /
//! [`AnalysisIndex`](crate::index::AnalysisIndex) — no query mutates
//! state, and none may panic on adversarial input: an unparseable name,
//! an unknown address, an inverted window or an empty dataset all come
//! back as a [`QueryError`], never as a panic reaching a worker thread.
//!
//! [`Dataset`]: crate::dataset::Dataset

use std::fmt;
use std::ops::Range;

use ens_subgraph::DomainRecord;
use ens_types::{Address, EnsName, Timestamp};

use crate::registrations::{GRACE_PERIOD, PREMIUM_PERIOD};

/// The [`StudyReport`](crate::pipeline::StudyReport) sections a
/// `report-slice` query can name, in paper order.
pub const REPORT_SECTIONS: [&str; 6] = [
    "crawl",
    "overview",
    "features",
    "losses",
    "resale",
    "countermeasures",
];

/// A typed, non-panicking failure of a read-only query. Every serving
/// query returns `Result<_, QueryError>`; transports map these onto
/// status codes without inspecting message text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The input does not parse as a second-level `.eth` name.
    InvalidName {
        /// What the caller sent.
        input: String,
        /// Why it does not parse.
        reason: String,
    },
    /// A well-formed name that is not in the crawled dataset.
    UnknownName(String),
    /// The input is not 20-byte hex.
    InvalidAddress(String),
    /// A half-open window with `from > to`.
    InvalidWindow {
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        to: u64,
    },
    /// Not one of [`REPORT_SECTIONS`].
    UnknownSection(String),
    /// A malformed request the transport could not even dispatch
    /// (unknown endpoint, missing parameter, unparseable integer).
    BadRequest(String),
}

impl QueryError {
    /// A stable machine-readable discriminant (the `error` field of a
    /// serialized error reply).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryError::InvalidName { .. } => "invalid-name",
            QueryError::UnknownName(_) => "unknown-name",
            QueryError::InvalidAddress(_) => "invalid-address",
            QueryError::InvalidWindow { .. } => "invalid-window",
            QueryError::UnknownSection(_) => "unknown-section",
            QueryError::BadRequest(_) => "bad-request",
        }
    }

    /// True for errors that mean "the thing you asked about does not
    /// exist" rather than "your request was malformed" — transports map
    /// these to 404 and the rest to 400.
    pub fn is_not_found(&self) -> bool {
        matches!(
            self,
            QueryError::UnknownName(_) | QueryError::UnknownSection(_)
        )
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidName { input, reason } => {
                write!(f, "invalid name {input:?}: {reason}")
            }
            QueryError::UnknownName(name) => write!(f, "unknown name {name:?}"),
            QueryError::InvalidAddress(input) => {
                write!(f, "invalid address {input:?} (expected 20-byte hex)")
            }
            QueryError::InvalidWindow { from, to } => {
                write!(f, "invalid window [{from}, {to}): from > to")
            }
            QueryError::UnknownSection(section) => write!(
                f,
                "unknown report section {section:?} (expected one of {})",
                REPORT_SECTIONS.join(", ")
            ),
            QueryError::BadRequest(detail) => write!(f, "bad request: {detail}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Parses a 20-byte hex address or returns the typed error.
pub fn parse_address(input: &str) -> Result<Address, QueryError> {
    Address::from_hex(input.trim()).ok_or_else(|| QueryError::InvalidAddress(input.to_string()))
}

/// Validates an optional half-open query window.
pub fn parse_window(
    from: Option<u64>,
    to: Option<u64>,
) -> Result<Option<(Timestamp, Timestamp)>, QueryError> {
    match (from, to) {
        (None, None) => Ok(None),
        (from, to) => {
            let from = from.unwrap_or(0);
            let to = to.unwrap_or(u64::MAX);
            if from > to {
                return Err(QueryError::InvalidWindow { from, to });
            }
            Ok(Some((Timestamp(from), Timestamp(to))))
        }
    }
}

/// Where a domain sits in the registration lifecycle at a given instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DomainStatus {
    /// Crawled but never registered (no registration entries).
    NeverRegistered,
    /// Inside the current registration term.
    Active,
    /// Expired, inside the 90-day grace period (only the registrant can
    /// renew).
    Grace,
    /// Past grace, inside the 21-day Dutch-auction premium window —
    /// anyone can catch it at a premium.
    Premium,
    /// Past the premium window: registrable at base price.
    Available,
}

impl DomainStatus {
    /// Stable lower-case serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            DomainStatus::NeverRegistered => "never-registered",
            DomainStatus::Active => "active",
            DomainStatus::Grace => "grace",
            DomainStatus::Premium => "premium",
            DomainStatus::Available => "available",
        }
    }
}

/// The registration-lifecycle status of `record` at instant `at`,
/// renewal-aware (uses [`DomainRecord::current_expiry`]). Boundaries are
/// half-open on the left of each phase: at exactly `expiry` the domain is
/// in grace, at exactly `grace_end` it is in premium, at exactly
/// `premium_end` it is available — matching the half-open window
/// convention of [`ReRegistration`](crate::registrations::ReRegistration).
pub fn domain_status(record: &DomainRecord, at: Timestamp) -> DomainStatus {
    let Some(expiry) = record.current_expiry() else {
        return DomainStatus::NeverRegistered;
    };
    if at < expiry {
        return DomainStatus::Active;
    }
    let grace_end = expiry + GRACE_PERIOD;
    if at < grace_end {
        return DomainStatus::Grace;
    }
    if at < grace_end + PREMIUM_PERIOD {
        return DomainStatus::Premium;
    }
    DomainStatus::Available
}

/// The wallet that effectively holds the name under its latest
/// registration: the registrant, updated by any later NFT transfers.
/// `None` for a never-registered record.
pub fn current_owner(record: &DomainRecord) -> Option<Address> {
    let reg = record.registrations.last()?;
    let mut owner = reg.owner;
    for t in &record.transfers {
        if t.at >= reg.registered_at {
            owner = t.to;
        }
    }
    Some(owner)
}

/// The name → domain lookup the serving layer resolves every `name-risk`
/// query through: each distinct label mapped to its position in the
/// dataset's domain vector. The labels are copied end to end into one
/// string and the entries sorted by a hash of their label, then by label,
/// so the build is one pass and one sort with no string per name, and a
/// lookup hashes the label and binary-searches. O(log n) per lookup.
///
/// Unnamed records (the ~0.1% whose label the crawl could not recover)
/// are unreachable by name, exactly as they are for a real resolver.
#[derive(Clone, Debug, Default)]
pub struct NameDirectory {
    /// The labels of the named records, in domain order, end to end.
    labels: String,
    /// Per distinct label: its [`label_key`], where it lies in `labels`,
    /// and the position of the record it resolves to; ascending by key,
    /// then label.
    entries: Vec<(u64, Range<usize>, usize)>,
}

/// 64-bit FNV-1a of a label: the directory's sort key, so that most
/// comparisons are one integer compare rather than two string reads. On
/// the 59 K names of a 60 K-name world (2-vCPU host), a sort by label
/// alone built the directory in 25–27 ms, and this key first in 10–11 ms.
fn label_key(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl NameDirectory {
    /// Indexes `domains` by name. Later records win duplicate names (the
    /// crawl never produces duplicates; this just makes the directory
    /// total).
    pub fn build(domains: &[DomainRecord]) -> NameDirectory {
        let mut labels = String::new();
        let mut entries: Vec<(u64, Range<usize>, usize)> = domains
            .iter()
            .enumerate()
            .filter_map(|(i, d)| {
                let label = d.name.as_ref()?.label().as_str();
                let start = labels.len();
                labels.push_str(label);
                Some((label_key(label), start..labels.len(), i))
            })
            .collect();
        // Among records of one name the latest sorts first, and the dedup
        // keeps the first of each run.
        entries.sort_unstable_by(|(ka, a, i), (kb, b, j)| {
            ka.cmp(kb)
                .then_with(|| labels[a.clone()].cmp(&labels[b.clone()]))
                .then(j.cmp(i))
        });
        entries
            .dedup_by(|(ka, a, _), (kb, b, _)| ka == kb && labels[a.clone()] == labels[b.clone()]);
        NameDirectory { labels, entries }
    }

    /// Number of resolvable names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no record has a recovered name.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolves user input to a domain position: parses it as a
    /// second-level `.eth` name (bare labels accepted, like the ENS
    /// manager's search box), then looks it up. Both failure modes are
    /// typed: unparseable input is [`QueryError::InvalidName`], a missing
    /// name is [`QueryError::UnknownName`].
    pub fn resolve(&self, input: &str) -> Result<usize, QueryError> {
        let name = EnsName::parse(input).map_err(|e| QueryError::InvalidName {
            input: input.to_string(),
            reason: e.to_string(),
        })?;
        let label = name.label().as_str();
        let key = label_key(label);
        self.entries
            .binary_search_by(|(k, range, _)| {
                k.cmp(&key)
                    .then_with(|| self.labels[range.clone()].cmp(label))
            })
            .map(|i| self.entries[i].2)
            .map_err(|_| QueryError::UnknownName(name.to_full()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_subgraph::RegistrationEntry;
    use ens_types::{BlockNumber, Duration, LabelHash, Wei};

    fn record(name: Option<&str>, registered_at: u64, expires: u64) -> DomainRecord {
        let mut r = DomainRecord {
            label_hash: LabelHash::default(),
            name: name.map(|n| EnsName::parse(n).unwrap()),
            ..DomainRecord::default()
        };
        if expires > 0 {
            r.registrations.push(RegistrationEntry {
                owner: Address::derive(b"owner"),
                registered_at: Timestamp(registered_at),
                expires: Timestamp(expires),
                base_cost: Wei::from_eth(1),
                premium: Wei::ZERO,
                block: BlockNumber(1),
                tx: None,
                legacy: false,
            });
        }
        r
    }

    #[test]
    fn status_walks_the_lifecycle_with_half_open_boundaries() {
        let expiry = Timestamp::from_ymd(2023, 1, 1);
        let r = record(Some("gold.eth"), 0, expiry.0);
        let grace_end = expiry + GRACE_PERIOD;
        let premium_end = grace_end + PREMIUM_PERIOD;
        let day = Duration::from_days(1);
        assert_eq!(domain_status(&r, Timestamp(0)), DomainStatus::Active);
        assert_eq!(domain_status(&r, expiry), DomainStatus::Grace);
        assert_eq!(domain_status(&r, grace_end - day), DomainStatus::Grace);
        assert_eq!(domain_status(&r, grace_end), DomainStatus::Premium);
        assert_eq!(domain_status(&r, premium_end), DomainStatus::Available);
        assert_eq!(
            domain_status(&record(None, 0, 0), expiry),
            DomainStatus::NeverRegistered
        );
    }

    #[test]
    fn directory_resolves_names_and_types_both_failure_modes() {
        let domains = vec![
            record(Some("gold.eth"), 0, 100),
            record(None, 0, 100),
            record(Some("silver.eth"), 0, 100),
        ];
        let dir = NameDirectory::build(&domains);
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.resolve("gold.eth"), Ok(0));
        assert_eq!(dir.resolve("gold"), Ok(0), "bare labels are accepted");
        assert_eq!(dir.resolve("silver.eth"), Ok(2));
        assert_eq!(
            dir.resolve("missing.eth"),
            Err(QueryError::UnknownName("missing.eth".into()))
        );
        assert!(matches!(
            dir.resolve("bad name!.eth"),
            Err(QueryError::InvalidName { .. })
        ));
        assert!(matches!(
            dir.resolve("sub.domain.eth"),
            Err(QueryError::InvalidName { .. })
        ));
        let empty = NameDirectory::build(&[]);
        assert!(empty.is_empty());
        assert!(matches!(
            empty.resolve("gold.eth"),
            Err(QueryError::UnknownName(_))
        ));
    }

    /// The directory this one replaced: one `String` per name in a
    /// `BTreeMap`, later records winning duplicates.
    fn reference_resolve(domains: &[DomainRecord], input: &str) -> Result<usize, QueryError> {
        let by_name: std::collections::BTreeMap<String, usize> = domains
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.name.as_ref().map(|n| (n.to_full(), i)))
            .collect();
        let name = EnsName::parse(input).map_err(|e| QueryError::InvalidName {
            input: input.to_string(),
            reason: e.to_string(),
        })?;
        by_name
            .get(&name.to_full())
            .copied()
            .ok_or_else(|| QueryError::UnknownName(name.to_full()))
    }

    const LABELS: [&str; 6] = ["gold", "silver", "abc", "abd", "vitalik", "a-b_c"];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Over records drawn from a few labels (so names repeat and some
        /// records are unnamed), every query resolves as the `BTreeMap`
        /// directory resolved it: bare labels and `.eth` names, upper case,
        /// unknown and invalid input, and the later record of a duplicate.
        #[test]
        fn directory_resolves_every_input_as_the_btreemap_did(
            picks in proptest::collection::vec(0usize..8, 0..24),
            queries in proptest::collection::vec((0usize..10, 0u8..4), 1..12),
        ) {
            let domains: Vec<DomainRecord> = picks
                .iter()
                .map(|&k| record(LABELS.get(k).copied(), 0, 100))
                .collect();
            let dir = NameDirectory::build(&domains);
            let distinct: std::collections::BTreeSet<&str> =
                picks.iter().filter_map(|&k| LABELS.get(k).copied()).collect();
            proptest::prop_assert_eq!(dir.len(), distinct.len());
            for (k, form) in queries {
                let label = LABELS.get(k).copied().unwrap_or("missing");
                let input = match form {
                    0 => label.to_string(),
                    1 => format!("{label}.eth"),
                    2 => format!(" {}.eth ", label.to_uppercase()),
                    _ => format!("{label}.sub.eth"),
                };
                proptest::prop_assert_eq!(
                    dir.resolve(&input),
                    reference_resolve(&domains, &input)
                );
            }
        }
    }

    #[test]
    fn window_and_address_parsing_reject_adversarial_input() {
        assert_eq!(parse_window(None, None), Ok(None));
        assert_eq!(
            parse_window(Some(5), None),
            Ok(Some((Timestamp(5), Timestamp(u64::MAX))))
        );
        assert_eq!(
            parse_window(None, Some(9)),
            Ok(Some((Timestamp(0), Timestamp(9))))
        );
        assert_eq!(
            parse_window(Some(9), Some(5)),
            Err(QueryError::InvalidWindow { from: 9, to: 5 })
        );
        let addr = Address::derive(b"x");
        assert_eq!(parse_address(&addr.to_hex()), Ok(addr));
        assert!(matches!(
            parse_address("0x1234"),
            Err(QueryError::InvalidAddress(_))
        ));
        assert!(matches!(
            parse_address("not hex"),
            Err(QueryError::InvalidAddress(_))
        ));
    }

    #[test]
    fn current_owner_applies_transfers_after_the_last_registration() {
        use ens_subgraph::TransferEntry;
        let mut r = record(Some("gold.eth"), 100, 1000);
        assert_eq!(current_owner(&r), Some(Address::derive(b"owner")));
        r.transfers.push(TransferEntry {
            at: Timestamp(150),
            from: Address::derive(b"owner"),
            to: Address::derive(b"buyer"),
            block: BlockNumber(2),
        });
        assert_eq!(current_owner(&r), Some(Address::derive(b"buyer")));
        // A transfer from *before* the current term does not count.
        r.transfers.insert(
            0,
            TransferEntry {
                at: Timestamp(50),
                from: Address::derive(b"ancient"),
                to: Address::derive(b"older"),
                block: BlockNumber(0),
            },
        );
        assert_eq!(current_owner(&r), Some(Address::derive(b"buyer")));
        assert_eq!(current_owner(&record(None, 0, 0)), None);
    }
}

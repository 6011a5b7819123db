//! ENS names: label validation, label hashes, and the recursive namehash.
//!
//! ENS contracts never see human-readable strings — a name like `gold.eth`
//! lives on chain as `namehash("gold.eth")` and its registration token as
//! `keccak256("gold")`. This module implements both hashes plus the (ENSIP-1
//! inspired, ASCII-subset) normalization rules the simulators enforce.
//!
//! A node's namehash is one keccak over its parent's node and its own label
//! hash ([`NameHash::child`]), so code that already holds a label hash
//! derives the `.eth` node from [`ETH_NODE`] in one call instead of
//! rehashing the whole name from the root.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hash::{Hash32, LabelHash, NameHash};
use crate::keccak::keccak256;

/// Errors raised while validating an ENS label or name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NameError {
    /// The label is empty.
    Empty,
    /// `.eth` second-level labels must be at least 3 characters.
    TooShort(String),
    /// The label contains a character outside `[a-z0-9-_]`.
    InvalidChar(String, char),
    /// A full name did not end in `.eth`.
    NotDotEth(String),
    /// The name contains nested subdomain labels where a 2LD was required.
    NotSecondLevel(String),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::Empty => write!(f, "empty label"),
            NameError::TooShort(l) => write!(f, "label {l:?} is shorter than 3 characters"),
            NameError::InvalidChar(l, c) => write!(f, "label {l:?} contains invalid char {c:?}"),
            NameError::NotDotEth(n) => write!(f, "name {n:?} is not under .eth"),
            NameError::NotSecondLevel(n) => write!(f, "name {n:?} is not a second-level name"),
        }
    }
}

impl std::error::Error for NameError {}

/// Minimum length of a registrable `.eth` label.
pub const MIN_LABEL_LEN: usize = 3;

/// A validated, normalized ENS label (one dot-free component).
///
/// Allowed characters are the ASCII subset `[a-z0-9-_]`; upper-case input is
/// lowered during normalization. (Real ENS allows a much larger Unicode set
/// via ENSIP-15; the paper's lexical features — digits, hyphens,
/// underscores, dictionary words — are all ASCII phenomena, so the ASCII
/// subset preserves the analysis while keeping normalization simple.)
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Label(String);

impl Label {
    /// Normalizes and validates a label for `.eth` registration
    /// (3-character minimum).
    pub fn parse(s: &str) -> Result<Label, NameError> {
        let label = Self::parse_any(s)?;
        if label.0.len() < MIN_LABEL_LEN {
            return Err(NameError::TooShort(label.0));
        }
        Ok(label)
    }

    /// Normalizes and validates a label without the 3-char minimum (used for
    /// subdomain components).
    pub fn parse_any(s: &str) -> Result<Label, NameError> {
        if s.is_empty() {
            return Err(NameError::Empty);
        }
        let lowered = s.to_ascii_lowercase();
        if let Some(c) = lowered
            .chars()
            .find(|c| !matches!(c, 'a'..='z' | '0'..='9' | '-' | '_'))
        {
            return Err(NameError::InvalidChar(lowered, c));
        }
        Ok(Label(lowered))
    }

    /// The normalized text of the label.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// `keccak256(label)` — the token id of the registration NFT.
    pub fn hash(&self) -> LabelHash {
        LabelHash(Hash32(keccak256(self.0.as_bytes())))
    }

    /// Number of characters (== bytes for this ASCII subset).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always false — empty labels cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for Label {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Label::parse(s)
    }
}

/// A validated second-level `.eth` name such as `gold.eth`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EnsName {
    label: Label,
}

impl EnsName {
    /// Parses `"<label>.eth"` (or a bare label) into a second-level name.
    pub fn parse(s: &str) -> Result<EnsName, NameError> {
        let s = s.trim();
        let body = match s.strip_suffix(".eth") {
            Some(body) => body,
            None if s.contains('.') => return Err(NameError::NotDotEth(s.to_string())),
            None => s,
        };
        if body.contains('.') {
            return Err(NameError::NotSecondLevel(s.to_string()));
        }
        Ok(EnsName {
            label: Label::parse(body)?,
        })
    }

    /// Builds from an already-validated label.
    pub fn from_label(label: Label) -> EnsName {
        EnsName { label }
    }

    /// The second-level label (`gold` for `gold.eth`).
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// The full name with TLD, e.g. `gold.eth`.
    pub fn to_full(&self) -> String {
        format!("{}.eth", self.label)
    }

    /// The recursive namehash of the full name: two keccak calls, the
    /// label hash and the node under [`ETH_NODE`].
    pub fn namehash(&self) -> NameHash {
        ETH_NODE.child(self.label.hash())
    }
}

impl fmt::Debug for EnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EnsName({:?})", self.to_full())
    }
}

impl fmt::Display for EnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.eth", self.label)
    }
}

impl std::str::FromStr for EnsName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EnsName::parse(s)
    }
}

/// `namehash("eth")`: the node every second-level `.eth` name hangs off.
pub const ETH_NODE: NameHash = NameHash(Hash32([
    0x93, 0xcd, 0xeb, 0x70, 0x8b, 0x75, 0x45, 0xdc, 0x66, 0x8e, 0xb9, 0x28, 0x01, 0x76, 0x16, 0x9d,
    0x1c, 0x33, 0xcf, 0xd8, 0xed, 0x6f, 0x04, 0x69, 0x0a, 0x0b, 0xcc, 0x88, 0xa9, 0x3f, 0xc4, 0xae,
]));

impl NameHash {
    /// The node of the child labelled `label` under this node,
    /// `keccak256(self || label)`: one step of the namehash recursion.
    pub fn child(self, label: LabelHash) -> NameHash {
        let mut buf = [0u8; 64];
        buf[..32].copy_from_slice(&self.0 .0);
        buf[32..].copy_from_slice(&label.0 .0);
        NameHash(Hash32(keccak256(&buf)))
    }
}

/// Computes the ENS namehash of a dot-separated name (ENSIP-1):
/// `namehash("") = 0x00..0`, and
/// `namehash(l "." rest) = keccak256(namehash(rest) || keccak256(l))`.
pub fn namehash(name: &str) -> NameHash {
    if name.is_empty() {
        return NameHash(Hash32::ZERO);
    }
    namehash_labels(name.split('.'))
}

/// Namehash over an iterator of labels ordered left-to-right
/// (`["gold", "eth"]` for `gold.eth`).
pub fn namehash_labels<'a>(labels: impl IntoIterator<Item = &'a str>) -> NameHash {
    let labels: Vec<&str> = labels.into_iter().collect();
    let mut node = [0u8; 32];
    for label in labels.into_iter().rev() {
        let label_hash = keccak256(label.as_bytes());
        let mut buf = [0u8; 64];
        buf[..32].copy_from_slice(&node);
        buf[32..].copy_from_slice(&label_hash);
        node = keccak256(&buf);
    }
    NameHash(Hash32(node))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namehash_known_vectors() {
        // From ENSIP-1 / EIP-137.
        assert_eq!(namehash("").to_hex(), format!("0x{}", "00".repeat(32)));
        assert_eq!(
            namehash("eth").to_hex(),
            "0x93cdeb708b7545dc668eb9280176169d1c33cfd8ed6f04690a0bcc88a93fc4ae"
        );
        assert_eq!(
            namehash("foo.eth").to_hex(),
            "0xde9b09fd7c5f901e23a3f19fecc54828e9c848539801e86591bd9801b019f84f"
        );
    }

    #[test]
    fn ens_name_namehash_matches_generic_namehash() {
        let name = EnsName::parse("gold.eth").unwrap();
        assert_eq!(name.namehash(), namehash("gold.eth"));
    }

    #[test]
    fn eth_node_is_the_namehash_of_eth() {
        assert_eq!(ETH_NODE, namehash("eth"));
        // ...which is one `child` step below the root node.
        let eth = Label::parse("eth").unwrap();
        assert_eq!(NameHash(Hash32::ZERO).child(eth.hash()), ETH_NODE);
    }

    proptest::proptest! {
        #[test]
        fn ens_name_namehash_matches_the_reference_for_any_label(
            label in proptest::string::string_regex("[a-z0-9][a-z0-9_-]{2,18}").unwrap(),
        ) {
            let name = EnsName::parse(&label).unwrap();
            proptest::prop_assert_eq!(name.namehash(), namehash(&format!("{label}.eth")));
        }
    }

    #[test]
    fn parse_accepts_bare_label_and_full_name() {
        assert_eq!(
            EnsName::parse("gold").unwrap(),
            EnsName::parse("gold.eth").unwrap()
        );
        assert_eq!(EnsName::parse("GOLD.eth").unwrap().to_full(), "gold.eth");
    }

    #[test]
    fn parse_rejects_invalid() {
        assert!(matches!(
            EnsName::parse("ab.eth"),
            Err(NameError::TooShort(_))
        ));
        assert!(matches!(
            EnsName::parse("has space.eth"),
            Err(NameError::InvalidChar(..))
        ));
        assert!(matches!(
            EnsName::parse("gold.com"),
            Err(NameError::NotDotEth(_))
        ));
        assert!(matches!(
            EnsName::parse("sub.gold.eth"),
            Err(NameError::NotSecondLevel(_))
        ));
        assert!(matches!(EnsName::parse(""), Err(NameError::Empty)));
    }

    #[test]
    fn labels_allow_paper_feature_characters() {
        // Digits, hyphens and underscores appear as lexical features in
        // Table 1, so they must be registrable.
        for l in ["000", "a-b", "a_b", "x2y", "crypto-whale_99"] {
            assert!(Label::parse(l).is_ok(), "{l} should parse");
        }
    }

    #[test]
    fn label_hash_is_keccak_of_text() {
        let l = Label::parse("eth-like").unwrap();
        assert_eq!(l.hash().0 .0, keccak256(b"eth-like"));
    }

    #[test]
    fn subdomain_labels_can_be_short() {
        assert!(Label::parse_any("a").is_ok());
        assert!(Label::parse("a").is_err());
    }
}

//! Round-trip guarantees of the columnar (`.ensc`) storage layer, pinned
//! at the integration level:
//!
//! - property: `JSON → columnar → JSON` is a fixed point over generated
//!   worlds — the reconstructed dataset re-serializes byte-identically to
//!   the direct JSON export, and re-encoding it columnar reproduces the
//!   columnar bytes too;
//! - a chaos-degraded dataset (recorded `CrawlGap`s, partial recovery
//!   stats) survives the same round trip;
//! - an entirely empty dataset encodes 13 present-but-empty sections and
//!   round-trips;
//! - duplicate addresses and names intern once (observable through the
//!   encode metrics);
//! - the container header, checksum function, and intern-table layout are
//!   pinned byte-for-byte — version-1 files may never change shape;
//! - the section decoders' own checks (row accounting, id ranges, tags,
//!   owner order, label validation, trailing bytes) reject files whose
//!   checksums are valid, and no single flipped byte of a re-framed
//!   section makes decode panic.

use ens_dropcatch_suite::analysis::{CrawlConfig, Dataset, FailurePolicy, Format};
use ens_dropcatch_suite::columnar::{
    checksum64, is_columnar, ColumnarError, Cursor, FileBuilder, FileView, StrPool, StrTable,
    MAGIC, NONE_ID, VERSION,
};
use ens_dropcatch_suite::obs::Metrics;
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::FaultProfile;
use ens_dropcatch_suite::workload::WorldConfig;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A clean collection from a small world of `names` names.
fn clean_dataset(names: usize, seed: u64) -> Dataset {
    let world = WorldConfig::small()
        .with_names(names)
        .with_seed(seed)
        .build();
    let sg = world.subgraph(SubgraphConfig::default());
    let (ds, _) = Dataset::try_collect_with(
        &sg,
        &world.etherscan(),
        world.opensea(),
        world.observation_end(),
        &CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail");
    ds
}

/// Asserts the two fixed points on one dataset: reconstructing from the
/// columnar bytes reproduces the JSON export, and re-encoding the
/// reconstruction reproduces the columnar bytes.
fn assert_fixed_point(ds: &Dataset) {
    let json = ds.to_json().expect("json export");
    let cols = ds
        .to_columnar(&Metrics::disabled())
        .expect("columnar export");
    assert!(is_columnar(&cols), "missing magic");
    assert_eq!(&cols[0..4], &MAGIC);

    let back = Dataset::from_columnar(&cols, &Metrics::disabled()).expect("columnar decode");
    assert_eq!(
        back.to_json().expect("re-serialize"),
        json,
        "JSON -> columnar -> JSON is not a fixed point"
    );
    assert_eq!(
        back.to_columnar(&Metrics::disabled()).expect("re-encode"),
        cols,
        "columnar -> Dataset -> columnar is not a fixed point"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clean worlds across sizes and seeds: both round trips are exact.
    #[test]
    fn generated_worlds_round_trip_to_a_fixed_point(
        names in 10usize..60,
        seed in 0u64..1_000,
    ) {
        assert_fixed_point(&clean_dataset(names, seed));
    }
}

/// A permanent subgraph hole ridden over by the degrade policy: the
/// dataset carries `CrawlGap`s and partial recovery stats, and must
/// round-trip exactly like a clean one.
#[test]
fn chaos_degraded_dataset_round_trips() {
    let world = WorldConfig::small().with_names(150).with_seed(77).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let (ds, _) = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig {
            chaos: Some(FaultProfile::new(77).with_hole(16, 48)),
            failure: FailurePolicy::degrade(),
            subgraph_page_size: 16,
            ..CrawlConfig::default()
        },
    )
    .expect("degrade policy completes under chaos");
    assert!(ds.crawl_report.degraded, "the hole must degrade the crawl");
    assert!(!ds.crawl_report.gaps.is_empty(), "gaps must be recorded");
    assert_fixed_point(&ds);
}

#[test]
fn empty_dataset_round_trips_with_all_sections_present() {
    let ds = Dataset::default();
    assert_fixed_point(&ds);

    // Every section is present even when empty — readers never probe.
    let cols = ds.to_columnar(&Metrics::disabled()).unwrap();
    let view = FileView::parse(&cols).expect("parses");
    assert_eq!(view.version(), VERSION);
    assert_eq!(view.section_count(), 13, "all 13 sections present");
}

#[test]
fn duplicate_addresses_intern_once() {
    let ds = clean_dataset(80, 9);

    let metrics = Metrics::new();
    let cols = ds.to_columnar(&metrics).expect("encode");
    let snap = metrics.snapshot();
    let lookups = snap.counter("columnar/encode/addr_lookups");
    let hits = snap.counter("columnar/encode/addr_hits");
    assert!(
        hits > 0 && hits < lookups,
        "addresses recur across sections and must intern once \
         (lookups {lookups}, hits {hits})"
    );
    assert!(
        snap.counter("columnar/encode/str_hits") > 0,
        "names recur and must intern once"
    );
    assert_eq!(
        snap.counter("columnar/encode/bytes"),
        cols.len() as u64,
        "encode metric reports the file size"
    );

    let decode_metrics = Metrics::new();
    let back = Dataset::from_columnar(&cols, &decode_metrics).expect("decode");
    let snap = decode_metrics.snapshot();
    assert_eq!(snap.counter("columnar/decode/bytes"), cols.len() as u64);
    assert_eq!(
        snap.counter("columnar/decode/addresses"),
        lookups - hits,
        "decoded address pool is exactly the distinct interned set"
    );
    assert_eq!(back.to_json().unwrap(), ds.to_json().unwrap());
}

#[test]
fn detection_and_corruption_errors_are_typed() {
    let ds = clean_dataset(20, 3);
    let cols = ds.to_columnar(&Metrics::disabled()).unwrap();
    let json = ds.to_json().unwrap();

    // Auto-detection sees through both formats.
    assert_eq!(Format::detect(&cols), Format::Columnar);
    assert_eq!(Format::detect(json.as_bytes()), Format::Json);
    assert!(Dataset::from_bytes(&cols).is_ok());
    assert!(Dataset::from_bytes(json.as_bytes()).is_ok());

    // A flipped payload byte is a checksum mismatch, not garbage data.
    let mut bad = cols.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    assert!(matches!(
        Dataset::from_columnar(&bad, &Metrics::disabled()),
        Err(ColumnarError::ChecksumMismatch { .. })
    ));

    // Truncation is reported as such.
    assert!(matches!(
        Dataset::from_columnar(&cols[..cols.len() / 2], &Metrics::disabled()),
        Err(ColumnarError::Truncated { .. })
    ));
}

/// The version-1 container and intern-table layouts, pinned byte-for-byte
/// from outside the crate: magic, LE header fields, 28-byte directory
/// entries, trailing directory checksum, and the cumulative-ends string
/// table. These bytes are on disk — they may never change for version 1.
#[test]
fn container_and_intern_layouts_are_pinned() {
    assert_eq!(checksum64(b""), 0xaf63_bd4c_8601_b7df);
    assert_eq!(checksum64(b"ens"), 0x7954_5308_7524_f8b5);
    assert_eq!(checksum64(b"panning for gold.eth"), 0x06a5_14d3_53eb_b9c9);

    let mut b = FileBuilder::new();
    b.add(7, vec![0xAB, 0xCD]);
    let bytes = b.finish();
    assert_eq!(&bytes[0..4], b"ENSC");
    assert_eq!(&bytes[4..8], &1u32.to_le_bytes(), "version");
    assert_eq!(&bytes[8..12], &1u32.to_le_bytes(), "section count");
    assert_eq!(&bytes[12..16], &7u32.to_le_bytes(), "section id");
    assert_eq!(&bytes[16..24], &48u64.to_le_bytes(), "payload offset");
    assert_eq!(&bytes[24..32], &2u64.to_le_bytes(), "payload length");
    assert_eq!(&bytes[32..40], &checksum64(&[0xAB, 0xCD]).to_le_bytes());
    assert_eq!(&bytes[40..48], &checksum64(&bytes[..40]).to_le_bytes());
    assert_eq!(&bytes[48..], &[0xAB, 0xCD]);

    let mut t = StrTable::new();
    assert_eq!(t.intern("gold"), 0);
    assert_eq!(t.intern("eth"), 1);
    assert_eq!(t.intern("gold"), 0, "dedup");
    let mut buf = Vec::new();
    t.encode(&mut buf);
    let expected: Vec<u8> = [
        2u32.to_le_bytes().as_slice(), // count
        4u32.to_le_bytes().as_slice(), // end of "gold"
        7u32.to_le_bytes().as_slice(), // end of "eth"
        b"goldeth",
    ]
    .concat();
    assert_eq!(buf, expected);
    let mut cur = Cursor::new(&buf, "strings");
    let pool = StrPool::decode(&mut cur).unwrap();
    assert_eq!(pool.get(0).unwrap(), "gold");
    assert_eq!(pool.get_opt(NONE_ID).unwrap(), None);
}

// ---------------------------------------------------------------------------
// The section decoders' own checks
//
// A flipped byte under a checksum never reaches a section decoder:
// `FileView::parse` rejects it first. These cases edit one section payload
// and re-frame the file with valid checksums, so each one lands on the
// check it names.
// ---------------------------------------------------------------------------

/// Section ids of the version-1 dataset schema (stable; see DESIGN.md
/// "On-disk formats").
const STRINGS: u32 = 1;
const ADDRESSES: u32 = 2;
const DOMAINS: u32 = 3;
const REGISTRATIONS: u32 = 4;
const TRANSACTIONS: u32 = 9;

/// Bytes of one transaction row across its fixed-width columns: hash (32),
/// block (8), timestamp (8), from (4), to (4), value (16).
const TX_ROW_BYTES: usize = 72;

/// Re-frames `file` with section `id`'s payload passed through `edit`.
/// Every other section keeps its bytes, and every checksum is recomputed.
fn reframe(file: &[u8], id: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let view = FileView::parse(file).expect("source file parses");
    let mut edit = Some(edit);
    let mut out = FileBuilder::new();
    for (sid, _) in view.section_sizes() {
        let mut payload = view.section(sid).expect("listed section").to_vec();
        if sid == id {
            (edit.take().expect("section ids are unique"))(&mut payload);
        }
        out.add(sid, payload);
    }
    assert!(edit.is_none(), "section {id} is not in the file");
    out.finish()
}

fn section_of(file: &[u8], id: u32) -> Vec<u8> {
    FileView::parse(file).unwrap().section(id).unwrap().to_vec()
}

fn u32_at(payload: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(payload[at..at + 4].try_into().unwrap())
}

fn set_u32(payload: &mut [u8], at: usize, v: u32) {
    payload[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The message of the `Corrupt` error decoding `file` must fail with.
fn corrupt_message(file: &[u8]) -> String {
    match Dataset::from_columnar(file, &Metrics::disabled()) {
        Err(ColumnarError::Corrupt(msg)) => msg,
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("expected Corrupt, the file decoded"),
    }
}

/// The columnar bytes of one small clean world, shared by the checks.
fn decoder_fixture() -> &'static [u8] {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(|| {
        clean_dataset(60, 11)
            .to_columnar(&Metrics::disabled())
            .unwrap()
    })
}

#[test]
fn reframing_without_an_edit_reproduces_the_file() {
    let file = decoder_fixture();
    for id in 1..=13 {
        assert_eq!(reframe(file, id, |_| {}), file, "section {id}");
    }
}

#[test]
fn registration_rows_must_be_claimed_exactly() {
    let file = decoder_fixture();
    let dom = section_of(file, DOMAINS);
    let n = u32_at(&dom, 0) as usize;
    let reg_counts = 4 + 36 * n;
    let first_with = (0..n)
        .find(|&i| u32_at(&dom, reg_counts + 4 * i) > 0)
        .expect("some domain has a registration");
    let at = reg_counts + 4 * first_with;
    let count = u32_at(&dom, at);

    let more = reframe(file, DOMAINS, |p| set_u32(p, at, count + 1));
    let msg = corrupt_message(&more);
    assert!(msg.contains("registration column exhausted"), "{msg}");

    let fewer = reframe(file, DOMAINS, |p| set_u32(p, at, count - 1));
    let msg = corrupt_message(&fewer);
    assert!(msg.contains("1 unclaimed registration rows"), "{msg}");
}

#[test]
fn an_address_id_equal_to_the_pool_size_is_out_of_range() {
    let file = decoder_fixture();
    let pool_size = u32_at(&section_of(file, ADDRESSES), 0);
    assert!(u32_at(&section_of(file, REGISTRATIONS), 0) > 0);
    // The owner column starts right after the row count.
    let bad = reframe(file, REGISTRATIONS, |p| set_u32(p, 4, pool_size));
    let msg = corrupt_message(&bad);
    assert!(
        msg.contains(&format!("id {pool_size} out of range")),
        "{msg}"
    );
}

/// `(owner count, row count, offset of the kind-tag column)` of a
/// TRANSACTIONS payload.
fn tx_layout(txs: &[u8]) -> (usize, usize, usize) {
    let owners = u32_at(txs, 0) as usize;
    let rows: usize = (0..owners)
        .map(|i| u32_at(txs, 4 + 4 * owners + 4 * i) as usize)
        .sum();
    (owners, rows, 4 + 8 * owners + TX_ROW_BYTES * rows)
}

#[test]
fn an_unknown_transaction_kind_tag_is_rejected() {
    let file = decoder_fixture();
    let txs = section_of(file, TRANSACTIONS);
    let (_, rows, tags) = tx_layout(&txs);
    // A non-contract row, so the contract-tag column keeps its length.
    let row = (0..rows)
        .find(|&i| txs[tags + i] != 1)
        .expect("some transaction is not a contract payment");
    let bad = reframe(file, TRANSACTIONS, |p| p[tags + row] = 0xEE);
    let msg = corrupt_message(&bad);
    assert!(msg.contains("unknown kind tag 238"), "{msg}");
}

/// The first two transaction owner ids of the fixture.
fn first_two_tx_owners(file: &[u8]) -> (u32, u32) {
    let txs = section_of(file, TRANSACTIONS);
    let (owners, _, _) = tx_layout(&txs);
    assert!(owners >= 2, "the fixture needs two transaction owners");
    (u32_at(&txs, 4), u32_at(&txs, 8))
}

#[test]
fn a_duplicated_transaction_owner_is_rejected() {
    let file = decoder_fixture();
    let (first, _) = first_two_tx_owners(file);
    let bad = reframe(file, TRANSACTIONS, |p| set_u32(p, 8, first));
    let msg = corrupt_message(&bad);
    assert!(msg.contains("owner"), "{msg}");
}

/// Two owners swapped: every id is valid, only the order is wrong. The
/// encoder walks a `BTreeMap`, so it never writes this.
#[test]
fn transaction_owners_out_of_order_are_rejected() {
    let file = decoder_fixture();
    let (first, second) = first_two_tx_owners(file);
    let bad = reframe(file, TRANSACTIONS, |p| {
        set_u32(p, 4, second);
        set_u32(p, 8, first);
    });
    let msg = corrupt_message(&bad);
    assert!(msg.contains("owner"), "{msg}");
}

#[test]
fn a_domain_name_that_is_not_a_label_is_rejected() {
    let file = decoder_fixture();
    let dom = section_of(file, DOMAINS);
    let n = u32_at(&dom, 0) as usize;
    let name_ids = 4 + 32 * n;
    let name_id = (0..n)
        .map(|i| u32_at(&dom, name_ids + 4 * i))
        .find(|&id| id != NONE_ID)
        .expect("some domain has a name");

    // Re-intern the pool in id order with that one string replaced, so
    // every other id keeps its string.
    let bad = reframe(file, STRINGS, |p| {
        let mut cur = Cursor::new(p, "strings");
        let pool = StrPool::decode(&mut cur).unwrap();
        let mut table = StrTable::new();
        for id in 0..pool.len() as u32 {
            let s = pool.get(id).unwrap();
            let s = if id == name_id { "not a label!" } else { s };
            assert_eq!(table.intern(s), id, "replacement collides");
        }
        p.clear();
        table.encode(p);
    });
    let msg = corrupt_message(&bad);
    assert!(msg.contains("bad name \"not a label!\""), "{msg}");
}

#[test]
fn one_trailing_byte_in_any_section_is_rejected() {
    let file = decoder_fixture();
    for id in 1..=13 {
        let bad = reframe(file, id, |p| p.push(0));
        let msg = corrupt_message(&bad);
        assert!(msg.contains("1 trailing bytes"), "section {id}: {msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// One byte of one re-framed section XORed with a non-zero mask:
    /// decode returns the dataset or a typed error, and never panics.
    #[test]
    fn flipping_one_byte_of_a_reframed_section_never_panics(
        section in 1u32..14,
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let file = decoder_fixture();
        let bad = reframe(file, section, |p| {
            let i = (at % p.len() as u64) as usize;
            p[i] ^= mask;
        });
        let _ = Dataset::from_columnar(&bad, &Metrics::disabled());
    }
}

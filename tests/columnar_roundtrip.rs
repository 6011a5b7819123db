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
//!   pinned byte-for-byte — version-1 files may never change shape.

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
    let cols = ds.to_columnar().expect("columnar export");
    assert!(is_columnar(&cols), "missing magic");
    assert_eq!(&cols[0..4], &MAGIC);

    let back = Dataset::from_columnar(&cols).expect("columnar decode");
    assert_eq!(
        back.to_json().expect("re-serialize"),
        json,
        "JSON -> columnar -> JSON is not a fixed point"
    );
    assert_eq!(
        back.to_columnar().expect("re-encode"),
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
    let cols = ds.to_columnar().unwrap();
    let view = FileView::parse(&cols).expect("parses");
    assert_eq!(view.version(), VERSION);
    assert_eq!(view.section_count(), 13, "all 13 sections present");
}

#[test]
fn duplicate_addresses_intern_once() {
    let ds = clean_dataset(80, 9);

    let metrics = Metrics::new();
    let cols = ds.to_columnar_metered(&metrics).expect("encode");
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
    let back = Dataset::from_columnar_metered(&cols, &decode_metrics).expect("decode");
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
    let cols = ds.to_columnar().unwrap();
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
        Dataset::from_columnar(&bad),
        Err(ColumnarError::ChecksumMismatch { .. })
    ));

    // Truncation is reported as such.
    assert!(matches!(
        Dataset::from_columnar(&cols[..cols.len() / 2]),
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

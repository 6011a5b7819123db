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
//!   section makes decode panic;
//! - a file read from disk one section at a time (`Dataset::load`) is
//!   rejected with the same typed error as its bytes in memory, and a
//!   header whose counts, offsets or lengths run past the end of the file
//!   fails before anything is read or sized from them;
//! - a decode whose rows split over 2 or 8 threads gives the same dataset,
//!   the same decode counters and, on every corrupt file above, the same
//!   error as a one-thread decode, wherever the split falls.

use ens_dropcatch_suite::analysis::{
    CrawlConfig, Dataset, DatasetFile, FailurePolicy, Format, StorageError, TxTable,
};
use ens_dropcatch_suite::chain::{Transaction, TxKind};
use ens_dropcatch_suite::columnar::{
    checksum64, is_columnar, ColumnarError, Cursor, FileBuilder, FileReader, ReadError, StrPool,
    StrTable, MAGIC, NONE_ID, VERSION,
};
use ens_dropcatch_suite::obs::Metrics;
use ens_dropcatch_suite::subgraph::{
    AddrEntry, DomainRecord, RegistrationEntry, RenewalEntry, SubdomainEntry, SubgraphConfig,
    TransferEntry,
};
use ens_dropcatch_suite::types::{
    Address, BlockNumber, EnsName, FaultProfile, Hash32, LabelHash, NameHash, Timestamp, TxHash,
    Wei,
};
use ens_dropcatch_suite::workload::WorldConfig;
use proptest::prelude::*;
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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

    for threads in THREADS {
        let back = read_split(&cols, threads, &Metrics::disabled()).expect("columnar read");
        assert_eq!(
            back.to_json().expect("re-serialize"),
            json,
            "JSON -> columnar -> JSON is not a fixed point at {threads} threads"
        );
        assert_eq!(
            back.to_columnar(&Metrics::disabled()).expect("re-encode"),
            cols,
            "columnar -> Dataset -> columnar is not a fixed point at {threads} threads"
        );
    }
}

/// The thread counts every decode check runs at.
const THREADS: [usize; 3] = [1, 2, 8];

/// Decodes `bytes` as the CLI decodes a file, one section at a time with
/// each stage's rows split over `threads`, from memory.
fn read_split(bytes: &[u8], threads: usize, metrics: &Metrics) -> Result<Dataset, ReadError> {
    Dataset::read_columnar(std::io::Cursor::new(bytes), threads, metrics)
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

/// The dataset a split decode rebuilds, and the decode counters it
/// records, are the same at 1, 2 and 8 threads, from memory and from a
/// file alike.
#[test]
fn a_split_decode_gives_the_same_dataset_and_counters_at_any_thread_count() {
    let ds = clean_dataset(300, 5);
    let json = ds.to_json().unwrap();
    let cols = ds.to_columnar(&Metrics::disabled()).unwrap();
    let disk = TempFile::new(&cols);
    let mut sections = Vec::new();
    for threads in THREADS {
        let metrics = Metrics::new();
        let back = read_split(&cols, threads, &metrics).unwrap();
        assert_eq!(
            back.to_json().unwrap(),
            json,
            "from memory at {threads} threads"
        );
        sections.push(metrics.snapshot().deterministic_json());

        let metrics = Metrics::new();
        let back = DatasetFile::open(&disk.0)
            .unwrap()
            .decode(threads, &metrics)
            .unwrap();
        assert_eq!(
            back.to_json().unwrap(),
            json,
            "from a file at {threads} threads"
        );
        sections.push(metrics.snapshot().deterministic_json());
    }
    assert!(
        sections[0].contains("columnar/decode/events"),
        "{}",
        sections[0]
    );
    for section in &sections[1..] {
        assert_eq!(section, &sections[0]);
    }
}

/// A dataset of `n` domains whose domain `heavy % n` holds `rows` entries
/// of every nested kind while the others hold none, and `owners`
/// transaction owners of which only the last has rows (`tx_rows`): the
/// runs of a split decode start on empty domains and owners, and one run
/// takes every nested row.
fn lopsided_dataset(n: usize, heavy: usize, rows: usize, owners: usize, tx_rows: usize) -> Dataset {
    let addr = |i: usize| Address([i as u8 + 1; 20]);
    let hash = |i: usize, salt: u8| Hash32([i as u8 ^ salt; 32]);
    let domains = (0..n)
        .map(|i| {
            let mut d = DomainRecord {
                label_hash: LabelHash(hash(i, 0x11)),
                // Every third domain's name was not recovered.
                name: (i % 3 != 2).then(|| EnsName::parse(&format!("domain{i}")).unwrap()),
                ..DomainRecord::default()
            };
            if i == heavy % n {
                for j in 0..rows {
                    let at = Timestamp(1_000 + j as u64);
                    d.registrations.push(RegistrationEntry {
                        owner: addr(j),
                        registered_at: at,
                        expires: Timestamp(5_000 + j as u64),
                        base_cost: Wei(j as u128),
                        premium: Wei::ZERO,
                        block: BlockNumber(j as u64),
                        // Every other hash is missing, so runs start at
                        // every rank of the presence bitmap.
                        tx: (j % 2 == 0).then(|| TxHash(hash(j, 0x22))),
                        legacy: j % 3 == 0,
                    });
                    d.renewals.push(RenewalEntry {
                        at,
                        new_expiry: Timestamp(9_000 + j as u64),
                        cost: Wei(7),
                        block: BlockNumber(j as u64),
                        tx: (j % 2 == 1).then(|| TxHash(hash(j, 0x33))),
                    });
                    d.transfers.push(TransferEntry {
                        at,
                        from: addr(j),
                        to: addr(j + 1),
                        block: BlockNumber(j as u64),
                    });
                    d.addr_changes.push(AddrEntry { at, addr: addr(j) });
                    d.subdomains.push(SubdomainEntry {
                        node: NameHash(hash(j, 0x44)),
                        label: format!("sub{j}"),
                        owner: addr(j),
                        at,
                    });
                }
            }
            d
        })
        .collect();
    let histories = (0..owners).map(|i| {
        let txs = if i + 1 == owners {
            (0..tx_rows)
                .map(|k| Transaction {
                    hash: TxHash(hash(k, 0x55)),
                    block: BlockNumber(k as u64),
                    timestamp: Timestamp(2_000 + k as u64),
                    from: addr(k),
                    to: addr(i),
                    value: Wei(k as u128),
                    kind: match k % 3 {
                        0 => TxKind::Transfer,
                        1 => TxKind::ContractPayment {
                            contract: format!("contract{}", k % 2),
                        },
                        _ => TxKind::Mint,
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        (addr(i), txs)
    });
    Dataset {
        domains,
        transactions: TxTable::from_histories(histories),
        ..Dataset::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splits over empty domains and owners, a domain holding every nested
    /// row, and n = 0, 1, 2...: every thread count rebuilds the dataset.
    #[test]
    fn a_split_decode_rebuilds_lopsided_datasets(
        n in 0usize..7,
        heavy in 0usize..7,
        rows in 0usize..6,
        owners in 0usize..5,
        tx_rows in 0usize..8,
    ) {
        let ds = lopsided_dataset(n, heavy, rows, owners, tx_rows);
        let json = ds.to_json().unwrap();
        let cols = ds.to_columnar(&Metrics::disabled()).unwrap();
        for threads in THREADS {
            let back = read_split(&cols, threads, &Metrics::disabled()).unwrap();
            prop_assert_eq!(back.to_json().unwrap(), json.clone());
            prop_assert_eq!(&back.transactions, &ds.transactions);
        }
    }
}

#[test]
fn empty_dataset_round_trips_with_all_sections_present() {
    let ds = Dataset::default();
    assert_fixed_point(&ds);

    // Every section is present even when empty — readers never probe.
    let cols = ds.to_columnar(&Metrics::disabled()).unwrap();
    let reader = FileReader::open(std::io::Cursor::new(&cols)).expect("parses");
    assert_eq!(reader.version(), VERSION);
    assert_eq!(reader.section_count(), 13, "all 13 sections present");
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
    let back = read_split(&cols, 1, &decode_metrics).expect("decode");
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

    // Bytes that are not UTF-8 are a malformed JSON dataset, not a failed
    // read.
    assert!(matches!(
        Dataset::from_bytes(&[0xFF, 0xFE, 0x7B, 0x7D]),
        Err(StorageError::Json(_))
    ));

    // A flipped payload byte is a checksum mismatch, not garbage data.
    let mut bad = cols.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    assert!(matches!(
        Dataset::from_bytes(&bad),
        Err(StorageError::Columnar(
            ColumnarError::ChecksumMismatch { .. }
        ))
    ));

    // Truncation is reported as such.
    assert!(matches!(
        Dataset::from_bytes(&cols[..cols.len() / 2]),
        Err(StorageError::Columnar(ColumnarError::Truncated { .. }))
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
// A flipped byte under a checksum never reaches a section decoder: the
// reader's checksum check rejects it first. These cases edit one section
// payload and re-frame the file with valid checksums, so each one lands on
// the check it names.
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

/// Every section of `file` as `(id, payload)`, in file order, each read
/// and checksummed by a [`FileReader`].
fn sections(file: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let mut reader = FileReader::open(std::io::Cursor::new(file)).expect("source file parses");
    directory(file)
        .into_iter()
        .map(|(id, _, _)| (id, reader.section(id).expect("listed section")))
        .collect()
}

/// Re-frames `file` with section `id`'s payload passed through `edit`.
/// Every other section keeps its bytes, and every checksum is recomputed.
fn reframe(file: &[u8], id: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut edit = Some(edit);
    let mut out = FileBuilder::new();
    for (sid, mut payload) in sections(file) {
        if sid == id {
            (edit.take().expect("section ids are unique"))(&mut payload);
        }
        out.add(sid, payload);
    }
    assert!(edit.is_none(), "section {id} is not in the file");
    out.finish()
}

fn section_of(file: &[u8], id: u32) -> Vec<u8> {
    FileReader::open(std::io::Cursor::new(file))
        .unwrap()
        .section(id)
        .unwrap()
}

fn u32_at(payload: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(payload[at..at + 4].try_into().unwrap())
}

fn set_u32(payload: &mut [u8], at: usize, v: u32) {
    payload[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// The message of the `Corrupt` error decoding `file` must fail with, in
/// memory and read from disk alike.
fn corrupt_message(file: &[u8]) -> String {
    match rejection(file) {
        StorageError::Columnar(ColumnarError::Corrupt(msg)) => msg,
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// A file in the temp directory holding `bytes`, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(bytes: &[u8]) -> TempFile {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "ensc-roundtrip-{}-{}.ensc",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).expect("temp file written");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The error `Dataset::from_bytes` rejects `bytes` with, after checking
/// that `Dataset::load` rejects the same bytes written to a file with the
/// same error, and that a decode of the file split over 2 and 8 threads
/// does too.
fn rejection(bytes: &[u8]) -> StorageError {
    let memory = Dataset::from_bytes(bytes).expect_err("the bytes must not decode");
    let file = TempFile::new(bytes);
    let disk = Dataset::load(&file.0).expect_err("the file must not decode");
    let same = |other: &StorageError, how: &str| match (&memory, other) {
        (StorageError::Columnar(a), StorageError::Columnar(b)) => assert_eq!(a, b, "{how}"),
        (a, b) => assert_eq!(a.to_string(), b.to_string(), "{how}"),
    };
    same(&disk, "Dataset::load");
    for threads in [2, 8] {
        let split = DatasetFile::open(&file.0)
            .and_then(|f| f.decode(threads, &Metrics::disabled()))
            .expect_err("the file must not decode at any thread count");
        same(&split, &format!("DatasetFile::decode at {threads} threads"));
    }
    memory
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
/// encoder walks the table's ascending owners, so it never writes this.
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
        // Whatever a one-thread decode makes of the file, a read split over
        // 2 or 8 threads makes too.
        let one = read_split(&bad, 1, &Metrics::disabled())
            .map(|ds| ds.to_json().unwrap())
            .map_err(|e| e.to_string());
        for threads in [2, 8] {
            let split = read_split(&bad, threads, &Metrics::disabled())
                .map(|ds| ds.to_json().unwrap())
                .map_err(|e| e.to_string());
            prop_assert_eq!(split, one.clone(), "at {} threads", threads);
        }
    }
}

// ---------------------------------------------------------------------------
// The file path
//
// `Dataset::load` reads a columnar file one section at a time. Every file
// it rejects, `Dataset::from_bytes` rejects with the same typed error, and
// the reader bounds what the header claims by the file's size before it
// reads or sizes anything from it.
// ---------------------------------------------------------------------------

/// Bytes before the directory, and of one directory entry.
const PREAMBLE: usize = 12;
const DIR_ENTRY: usize = 28;

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// `(id, offset, length)` of every directory entry of `file`.
fn directory(file: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32_at(file, 8) as usize;
    (0..count)
        .map(|i| {
            let at = PREAMBLE + DIR_ENTRY * i;
            (
                u32_at(file, at),
                u64_at(file, at + 4) as usize,
                u64_at(file, at + 12) as usize,
            )
        })
        .collect()
}

/// `file` with directory entry `entry`'s offset and length replaced and
/// the directory checksum recomputed, so only the bounds are wrong.
fn redirect(file: &[u8], entry: usize, offset: u64, len: u64) -> Vec<u8> {
    let mut out = file.to_vec();
    let at = PREAMBLE + DIR_ENTRY * entry;
    out[at + 4..at + 12].copy_from_slice(&offset.to_le_bytes());
    out[at + 12..at + 20].copy_from_slice(&len.to_le_bytes());
    let dir_end = PREAMBLE + DIR_ENTRY * directory(file).len();
    let checksum = checksum64(&out[..dir_end]);
    out[dir_end..dir_end + 8].copy_from_slice(&checksum.to_le_bytes());
    out
}

#[test]
fn a_file_on_disk_decodes_like_its_bytes_in_memory() {
    let file = decoder_fixture();
    let disk = TempFile::new(file);
    let loaded = Dataset::load(&disk.0).expect("the fixture loads");
    let decoded = Dataset::from_bytes(file).expect("the fixture decodes");
    assert_eq!(loaded.to_json().unwrap(), decoded.to_json().unwrap());

    // The section-at-a-time decode records the same counters.
    let metrics = Metrics::new();
    let reader = std::fs::File::open(&disk.0).unwrap();
    Dataset::read_columnar(reader, 1, &metrics).expect("the fixture reads");
    let from_memory = Metrics::new();
    read_split(file, 1, &from_memory).unwrap();
    assert_eq!(
        metrics.snapshot().deterministic_json(),
        from_memory.snapshot().deterministic_json()
    );
}

#[test]
fn a_file_on_disk_is_rejected_like_its_bytes_in_memory() {
    let file = decoder_fixture();
    let entries = directory(file);
    let dir_end = PREAMBLE + DIR_ENTRY * entries.len();

    // Truncation: no magic, inside the preamble, inside the directory,
    // inside its checksum, and inside each section's payload.
    let mut cuts = vec![0, 3, 11, 12, 40, dir_end + 3];
    cuts.extend(entries.iter().map(|&(_, offset, len)| offset + len / 2));
    cuts.push(file.len() - 1);
    for cut in cuts {
        let err = rejection(&file[..cut]);
        if cut >= PREAMBLE {
            assert!(
                matches!(err, StorageError::Columnar(ColumnarError::Truncated { .. })),
                "cut at {cut}: {err:?}"
            );
        }
    }

    // A flipped byte in each section fails that section's checksum.
    for &(id, offset, len) in &entries {
        let mut bad = file.to_vec();
        bad[offset + len / 2] ^= 0x40;
        assert!(
            matches!(
                rejection(&bad),
                StorageError::Columnar(ColumnarError::ChecksumMismatch { section }) if section == id
            ),
            "section {id}"
        );
    }

    // The directory checksum, the magic and the version.
    let mut bad = file.to_vec();
    bad[PREAMBLE + 1] ^= 0x01;
    assert!(matches!(
        rejection(&bad),
        StorageError::Columnar(ColumnarError::DirectoryChecksumMismatch)
    ));
    let mut bad = file.to_vec();
    bad[0] = b'X';
    assert!(
        !matches!(rejection(&bad), StorageError::Columnar(_)),
        "bad magic reads as JSON"
    );
    let mut bad = file.to_vec();
    bad[4] = 99;
    assert!(matches!(
        rejection(&bad),
        StorageError::Columnar(ColumnarError::UnsupportedVersion(99))
    ));

    // A section the schema does not know, with a bad checksum: the reader
    // never decodes it, but still verifies it.
    let mut extra = FileBuilder::new();
    for (id, payload) in sections(file) {
        extra.add(id, payload);
    }
    extra.add(99, vec![1, 2, 3]);
    let mut bad = extra.finish();
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert!(matches!(
        rejection(&bad),
        StorageError::Columnar(ColumnarError::ChecksumMismatch { section: 99 })
    ));
}

/// A reader over bytes that counts how many it hands out.
struct Counted<'a> {
    inner: std::io::Cursor<&'a [u8]>,
    read: &'a AtomicUsize,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read.fetch_add(n, Ordering::Relaxed);
        Ok(n)
    }
}

impl Seek for Counted<'_> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// Opens `bytes` with a [`FileReader`]; returns its error and the bytes it
/// read before failing.
fn open_error(bytes: &[u8]) -> (ColumnarError, usize) {
    let read = AtomicUsize::new(0);
    let reader = Counted {
        inner: std::io::Cursor::new(bytes),
        read: &read,
    };
    match FileReader::open(reader) {
        Err(ReadError::Columnar(e)) => (e, read.load(Ordering::Relaxed)),
        Err(ReadError::Io(e)) => panic!("expected a columnar error, got {e}"),
        Ok(_) => panic!("expected the header to be refused"),
    }
}

#[test]
fn a_header_past_the_end_of_the_file_fails_before_any_read() {
    let file = decoder_fixture();
    let entries = directory(file);
    let dir_end = PREAMBLE + DIR_ENTRY * entries.len();

    // A directory of u32::MAX sections: refused after the preamble alone,
    // before a directory buffer is sized from the count.
    let mut huge = file.to_vec();
    huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let (err, read) = open_error(&huge);
    assert!(
        matches!(
            err,
            ColumnarError::Truncated {
                context: "section directory",
                ..
            }
        ),
        "{err:?}"
    );
    assert_eq!(read, PREAMBLE, "only the preamble is read");
    assert!(matches!(
        rejection(&huge),
        StorageError::Columnar(ColumnarError::Truncated { .. })
    ));

    // A section whose offset, or length, runs past the end of the file, or
    // whose end overflows: refused after the directory, before any payload
    // is read or sized.
    let (_, offset, len) = entries[entries.len() / 2];
    let past = file.len() as u64;
    for (offset, len) in [
        (past, len as u64),
        (offset as u64, past),
        (u64::MAX, len as u64),
        (offset as u64, u64::MAX),
    ] {
        let bad = redirect(file, entries.len() / 2, offset, len);
        let (err, read) = open_error(&bad);
        assert!(
            matches!(
                err,
                ColumnarError::Truncated {
                    context: "section payload",
                    ..
                }
            ),
            "offset {offset}, length {len}: {err:?}"
        );
        assert_eq!(
            read,
            dir_end + 8,
            "only the preamble and directory are read"
        );
        assert!(matches!(
            rejection(&bad),
            StorageError::Columnar(ColumnarError::Truncated { .. })
        ));
    }
}

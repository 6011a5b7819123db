//! Checkpoint durability edge cases: every way a checkpoint file can be
//! damaged — truncation at any byte, a flipped checksum, the wrong magic,
//! an unsupported schema version, a dataset file passed by mistake — must
//! surface as a typed [`StorageError`], never a panic, and the resume
//! loader must classify each case so collection can fall back cleanly.
//! Segments re-framed with one edited section and valid checksums reach
//! the shard decoder's own checks, and no single flipped byte of such a
//! section makes decode panic.

use ens_dropcatch_suite::analysis::checkpoint::{
    config_fingerprint, load_for_resume, CheckpointLoad, CrawlCheckpoint,
};
use ens_dropcatch_suite::analysis::{
    CheckpointSpec, CollectError, CommittedShard, CrawlConfig, CrawlGap, Crawler, DataSources,
    Dataset, FailurePolicy, Format, Metrics, SourceStats, StorageError,
};
use ens_dropcatch_suite::columnar::{ColumnarError, FileBuilder, FileView};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::{FaultKind, KillSwitch, Timestamp};
use ens_dropcatch_suite::workload::WorldConfig;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Section ids of the checkpoint schema: the header, then the subgraph,
/// txlist and market shards.
const HEADER: u32 = 64;
const SUBGRAPH: u32 = 65;
const TXLIST: u32 = 66;
const MARKET: u32 = 67;

/// A checkpoint with real crawled content in every section.
fn populated_checkpoint() -> CrawlCheckpoint {
    let world = WorldConfig::small().with_names(120).with_seed(93).build();
    let sg = world.subgraph(SubgraphConfig::lossless());
    let crawled = Crawler::with_page_size(32).crawl(&sg).expect("clean crawl");
    let mut ckpt = CrawlCheckpoint::new(0xDEAD_BEEF);
    ckpt.subgraph.insert(
        0,
        CommittedShard {
            items: crawled.items,
            stats: crawled.stats,
            gaps: crawled.gaps,
        },
    );
    ckpt.market.insert(
        7,
        CommittedShard {
            items: Vec::new(),
            stats: SourceStats {
                pages: 1,
                ..SourceStats::default()
            },
            gaps: Vec::new(),
        },
    );
    ckpt
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ens-ckpt-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.ckpt"))
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let bytes = populated_checkpoint().to_bytes().expect("serializes");
    // Cut at a spread of byte positions: inside the magic, the directory,
    // each section payload, and one byte short of complete.
    let cuts: Vec<usize> = (0..8)
        .map(|i| i * bytes.len() / 8)
        .chain([bytes.len() - 1])
        .collect();
    for cut in cuts {
        let err = CrawlCheckpoint::from_bytes(&bytes[..cut])
            .expect_err("a truncated checkpoint must not parse");
        assert!(
            matches!(err, StorageError::Columnar(_)),
            "cut at {cut}: expected a typed columnar error, got {err}"
        );
    }
}

#[test]
fn every_single_flipped_bit_in_the_header_and_directory_is_caught() {
    let bytes = populated_checkpoint().to_bytes().expect("serializes");
    // The magic, version, section count and directory entries live at the
    // front; a flip anywhere there must be detected (bad magic, bad
    // version, directory checksum, or a section checksum downstream).
    for pos in 0..64.min(bytes.len()) {
        for bit in [0x01u8, 0x80] {
            let mut dam = bytes.clone();
            dam[pos] ^= bit;
            match CrawlCheckpoint::from_bytes(&dam) {
                Err(StorageError::Columnar(_)) => {}
                Err(other) => panic!("flip at {pos}: unexpected error type {other}"),
                Ok(back) => panic!(
                    "flip at byte {pos} bit {bit:#x} parsed silently \
                     (fingerprint {:#x})",
                    back.fingerprint
                ),
            }
        }
    }
}

#[test]
fn flipped_payload_bytes_fail_the_section_checksum() {
    let bytes = populated_checkpoint().to_bytes().expect("serializes");
    // Sample positions across the payload region.
    for i in 1..=16 {
        let pos = 64 + (bytes.len() - 65) * i / 16;
        let mut dam = bytes.clone();
        dam[pos] ^= 0xFF;
        let err =
            CrawlCheckpoint::from_bytes(&dam).expect_err("a corrupted payload must not parse");
        assert!(
            matches!(err, StorageError::Columnar(_)),
            "flip at {pos}: got {err}"
        );
    }
}

/// Re-frames checkpoint `file` with section `id`'s payload passed through
/// `edit`. Every other section keeps its bytes, and every checksum is
/// recomputed, so what catches the edit is the shard decoder itself.
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

/// `file` re-framed as a schema-1 segment: only the header's version word
/// changes.
fn as_schema_1(file: &[u8]) -> Vec<u8> {
    reframe(file, HEADER, |p| {
        p[..4].copy_from_slice(&1u32.to_le_bytes())
    })
}

/// The message of the `Corrupt` error decoding `file` must fail with.
fn corrupt_message(file: &[u8]) -> String {
    match CrawlCheckpoint::from_bytes(file) {
        Err(StorageError::Columnar(ColumnarError::Corrupt(msg))) => msg,
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("expected Corrupt, the segment decoded"),
    }
}

#[test]
fn wrong_magic_and_unsupported_version_are_distinct_errors() {
    let bytes = populated_checkpoint().to_bytes().expect("serializes");
    let mut magic = bytes.clone();
    magic[..4].copy_from_slice(b"NOPE");
    assert!(matches!(
        CrawlCheckpoint::from_bytes(&magic),
        Err(StorageError::Columnar(ColumnarError::BadMagic))
    ));
    assert!(matches!(
        CrawlCheckpoint::from_bytes(b"{}"),
        Err(StorageError::Columnar(ColumnarError::BadMagic))
    ));
    assert!(CrawlCheckpoint::from_bytes(&[]).is_err());

    // An intact segment of the old schema is a version error, and the
    // resume loader calls it stale (another build's crawl), not corrupt.
    let old = as_schema_1(&bytes);
    assert!(matches!(
        CrawlCheckpoint::from_bytes(&old),
        Err(StorageError::Columnar(ColumnarError::UnsupportedVersion(1)))
    ));
    let path = temp_path("schema-1");
    std::fs::write(&path, &old).unwrap();
    assert!(matches!(
        load_for_resume(&path, 0xDEAD_BEEF),
        CheckpointLoad::DiscardedStale
    ));
}

#[test]
fn collect_over_a_schema_1_chain_falls_back_to_a_clean_crawl() {
    let world = WorldConfig::small().with_names(150).with_seed(17).build();
    let sg = world.subgraph(SubgraphConfig::lossless());
    let scan = world.etherscan();
    let sources = DataSources {
        subgraph: &sg,
        etherscan: &scan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: CrawlConfig {
            subgraph_page_size: 16,
            txlist_page_size: 8,
            ..CrawlConfig::default()
        },
    };
    let clean = sources
        .collect(&Metrics::disabled(), None, None)
        .expect("clean endpoints cannot fail")
        .0
        .to_columnar(&Metrics::disabled())
        .unwrap();

    // A killed run leaves a chain; rewrite its first segment as schema 1.
    let path = temp_path("schema-1-chain");
    let spec = CheckpointSpec::new(&path).every(4);
    match sources.collect(&Metrics::disabled(), Some(&spec), Some(KillSwitch::new(40))) {
        Err(CollectError::Crawl(e)) if matches!(e.kind, FaultKind::Killed { .. }) => {}
        other => panic!("expected an injected kill, got {:?}", other.map(|_| ())),
    }
    let first = std::fs::read(&path).expect("the kill left a chain");
    std::fs::write(&path, as_schema_1(&first)).unwrap();

    let metrics = Metrics::new();
    let (resumed, _) = sources
        .collect(&metrics, Some(&spec.clone().resuming()), None)
        .expect("a stale chain falls back to a clean crawl");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("checkpoint/stale_fallback"), 1);
    assert_eq!(snap.counter("checkpoint/corrupt_fallback"), 0);
    assert_eq!(snap.counter("checkpoint/loads"), 0);
    assert_eq!(resumed.to_columnar(&Metrics::disabled()).unwrap(), clean);
}

#[test]
fn a_dataset_file_is_not_mistaken_for_a_checkpoint() {
    // Both formats share the columnar container; the disjoint section-id
    // spaces must keep them apart at both the sniff and the parse layer.
    let world = WorldConfig::small().with_names(120).with_seed(93).build();
    let sg = world.subgraph(SubgraphConfig::lossless());
    let scan = world.etherscan();
    let ds = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail")
    .0;
    let path = temp_path("dataset-not-checkpoint");
    ds.save(&path, Format::Columnar, &Metrics::disabled())
        .expect("dataset saves");
    let bytes = std::fs::read(&path).unwrap();
    assert!(
        !CrawlCheckpoint::sniff(&bytes),
        "a dataset file sniffed as a checkpoint"
    );
    let err = CrawlCheckpoint::from_bytes(&bytes)
        .expect_err("a dataset file must not parse as a checkpoint");
    assert!(matches!(err, StorageError::Columnar(_)), "{err}");
    // And the loader classifies it as corrupt-for-resume, not a crash.
    assert!(matches!(
        load_for_resume(&path, 1),
        CheckpointLoad::DiscardedCorrupt(_)
    ));
}

#[test]
fn round_trip_survives_and_fingerprint_gates_the_splice() {
    let ckpt = populated_checkpoint();
    let path = temp_path("roundtrip");
    ckpt.save(&path).expect("atomic save");
    match load_for_resume(&path, 0xDEAD_BEEF) {
        CheckpointLoad::Resumed(back) => {
            assert_eq!(*back, ckpt);
            assert!(back.committed_pages() > 0);
        }
        other => panic!("expected Resumed, got {other:?}"),
    }
    assert!(matches!(
        load_for_resume(&path, 0xDEAD_BEE0),
        CheckpointLoad::DiscardedStale
    ));
}

#[test]
fn fingerprints_separate_configs_that_shape_content() {
    let end = Timestamp(1_700_000_000);
    let base = CrawlConfig::default();
    let mut seen = vec![config_fingerprint(&base, end, 0)];
    for variant in [
        CrawlConfig {
            subgraph_page_size: 31,
            ..base.clone()
        },
        CrawlConfig {
            txlist_page_size: 99,
            ..base.clone()
        },
        CrawlConfig {
            market_page_size: 5,
            ..base.clone()
        },
    ] {
        let fp = config_fingerprint(&variant, end, 0);
        assert!(!seen.contains(&fp), "fingerprint collision for {variant:?}");
        seen.push(fp);
    }
    // ...but the thread count is presentation, not content.
    assert_eq!(
        config_fingerprint(
            &CrawlConfig {
                threads: 16,
                ..base.clone()
            },
            end,
            0
        ),
        seen[0]
    );
}

/// A segment with real rows in every shard section: domains with every
/// nested entry kind, transaction histories, the market stream, and a gap.
fn decoder_fixture() -> &'static [u8] {
    static FILE: OnceLock<Vec<u8>> = OnceLock::new();
    FILE.get_or_init(|| {
        let world = WorldConfig::small().with_names(200).with_seed(30).build();
        let sg = world.subgraph(SubgraphConfig::default());
        let scan = world.etherscan();
        let (ds, _) = Dataset::try_collect_with(
            &sg,
            &scan,
            world.opensea(),
            world.observation_end(),
            &CrawlConfig {
                failure: FailurePolicy::degrade(),
                ..CrawlConfig::default()
            },
        )
        .expect("clean endpoints cannot fail");
        let report = &ds.crawl_report;
        let mut ckpt = CrawlCheckpoint::new(0xF0CC);
        ckpt.subgraph.insert(
            0,
            CommittedShard {
                // The first domains, plus a few with the rarer entry kinds.
                items: ds
                    .domains
                    .iter()
                    .take(30)
                    .chain(
                        ds.domains
                            .iter()
                            .filter(|d| !d.transfers.is_empty())
                            .take(4),
                    )
                    .chain(
                        ds.domains
                            .iter()
                            .filter(|d| !d.subdomains.is_empty())
                            .take(4),
                    )
                    .cloned()
                    .collect(),
                stats: report.subgraph,
                gaps: vec![CrawlGap {
                    source: "subgraph".into(),
                    key: None,
                    start: 40,
                    end: Some(50),
                    lost_estimate: 10,
                    attempts: 4,
                    kind: FaultKind::ServerError,
                }],
            },
        );
        for (addr, txs) in ds.transactions.iter().take(12) {
            ckpt.txlist.insert(
                *addr,
                CommittedShard {
                    items: txs.clone(),
                    stats: SourceStats {
                        pages: 1,
                        items: txs.len(),
                        ..SourceStats::default()
                    },
                    gaps: Vec::new(),
                },
            );
        }
        ckpt.market.insert(
            0,
            CommittedShard {
                items: ds.market.all_events().to_vec(),
                stats: report.market,
                gaps: Vec::new(),
            },
        );
        assert_eq!(
            CrawlCheckpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap(),
            ckpt,
            "the fixture round-trips"
        );
        ckpt.to_bytes().unwrap()
    })
}

#[test]
fn the_fixture_exercises_every_row_kind() {
    let ckpt = CrawlCheckpoint::from_bytes(decoder_fixture()).unwrap();
    let domains = &ckpt.subgraph[&0].items;
    assert!(domains.iter().any(|d| !d.renewals.is_empty()));
    assert!(domains.iter().any(|d| !d.transfers.is_empty()));
    assert!(domains.iter().any(|d| !d.subdomains.is_empty()));
    assert!(ckpt.txlist.values().any(|c| c.items.len() > 1));
    assert!(!ckpt.market[&0].items.is_empty());
    assert_eq!(ckpt.subgraph[&0].gaps.len(), 1);
}

#[test]
fn one_trailing_byte_in_any_shard_section_is_rejected() {
    let file = decoder_fixture();
    for id in [HEADER, SUBGRAPH, TXLIST, MARKET] {
        let msg = corrupt_message(&reframe(file, id, |p| p.push(0)));
        assert!(msg.contains("1 trailing bytes"), "section {id}: {msg}");
    }
}

#[test]
fn a_txlist_shard_must_hold_the_history_of_its_own_key() {
    let file = decoder_fixture();
    // Rewrite the first shard's 20-byte key (after the u32 shard count).
    let bad = reframe(file, TXLIST, |p| p[4..24].copy_from_slice(&[0xAB; 20]));
    let msg = corrupt_message(&bad);
    assert!(msg.contains("expected exactly the history of"), "{msg}");
}

#[test]
fn shard_counts_and_lengths_past_the_data_are_typed_errors() {
    let file = decoder_fixture();
    for id in [SUBGRAPH, TXLIST, MARKET] {
        // A shard count far past the section's bytes.
        let bad = reframe(file, id, |p| {
            p[..4].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        assert!(
            matches!(
                CrawlCheckpoint::from_bytes(&bad),
                Err(StorageError::Columnar(ColumnarError::Truncated { .. }))
            ),
            "section {id}"
        );
        // The first shard's byte length far past the section's bytes.
        let key = if id == TXLIST { 20 } else { 8 };
        let bad = reframe(file, id, |p| {
            p[4 + key..8 + key].copy_from_slice(&u32::MAX.to_le_bytes())
        });
        assert!(
            matches!(
                CrawlCheckpoint::from_bytes(&bad),
                Err(StorageError::Columnar(ColumnarError::Truncated { .. }))
            ),
            "section {id}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// One byte of one re-framed segment section XORed with a non-zero
    /// mask: decode returns the checkpoint or a typed error, and never
    /// panics.
    #[test]
    fn flipping_one_byte_of_a_reframed_section_never_panics(
        section in HEADER..=MARKET,
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let bad = reframe(decoder_fixture(), section, |p| {
            let i = (at % p.len() as u64) as usize;
            p[i] ^= mask;
        });
        let decoded = CrawlCheckpoint::from_bytes(&bad);
        prop_assert!(
            matches!(decoded, Ok(_) | Err(StorageError::Columnar(_))),
            "untyped error: {:?}",
            decoded.err()
        );
    }
}

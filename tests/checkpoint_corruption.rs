//! Checkpoint durability edge cases: every way a checkpoint file can be
//! damaged — truncation at any byte, a flipped checksum, the wrong magic,
//! an unsupported schema version, a dataset file passed by mistake — must
//! surface as a typed [`StorageError`], never a panic, and the resume
//! loader must classify each case so collection can fall back cleanly.

use ens_dropcatch_suite::analysis::checkpoint::{
    config_fingerprint, load_for_resume, CheckpointLoad, CrawlCheckpoint,
};
use ens_dropcatch_suite::analysis::{
    CommittedShard, CrawlConfig, Crawler, Dataset, Format, SourceStats, StorageError,
};
use ens_dropcatch_suite::columnar::ColumnarError;
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::Timestamp;
use ens_dropcatch_suite::workload::WorldConfig;
use std::path::PathBuf;

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
    ds.save(&path, Format::Columnar).expect("dataset saves");
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

//! Crash-safe crawl checkpoints: resume watermarks for every phase of a
//! collection, persisted atomically in the `ens-columnar` container.
//!
//! # What a checkpoint is
//!
//! The crawl engine's unit of work is a *shard* (one fixed page range of a
//! totaled source, or one key's whole source for the keyed `txlist`
//! crawl). A [`CrawlCheckpoint`] is simply the set of fully-committed
//! shards of each collection phase — items, per-shard [`SourceStats`], and
//! per-shard gaps — keyed by shard index (subgraph, market) or address
//! (txlist). Because each shard's drain is a pure function of `(source,
//! chaos profile, shard range)` and the crawler merges shards in canonical
//! order, splicing committed shards back into a resumed crawl reproduces
//! the uninterrupted run byte-for-byte — dataset *and* `CrawlReport` — at
//! any thread count. That equivalence is gated by
//! `tests/resume_equivalence.rs` under every named chaos profile.
//!
//! # Commit protocol
//!
//! A checkpoint on disk is a *segment chain*: the spec's path holds the
//! first segment, and each cadence save appends a sibling (`P.1`, `P.2`,
//! …) containing only the shards committed since the previous save. The
//! journal serializes each newly committed shard *once* (on the worker
//! thread that finished it) and a save writes only those pending blobs —
//! O(delta) per save, O(total state) across the whole crawl, so
//! checkpointing costs each byte one serialization and one write no
//! matter the cadence. Every segment is published by the classic
//! write-to-temp + `rename` protocol ([`crate::export::write_atomic`]): a
//! crash at any point — including between the temp write and the rename,
//! the window the kill-point tests target — leaves the chain's intact
//! prefix plus at most one ignorable staging file, never a torn segment.
//! Per-section checksums and the `ENSC` magic make torn or rotted
//! segments *detectable* as typed errors; a bad first segment degrades to
//! a clean full crawl, and a bad later segment truncates the chain to its
//! intact prefix (resume refetches the rest).
//!
//! "A crash" here means process death, which the kill-point tests and the
//! kill/resume CI matrix exercise. Segments are not fsynced, so power loss
//! or an OS crash can still leave a torn segment behind a completed
//! rename; it then fails its section checksum and takes the same
//! corrupt-segment path, so the loss is progress, never correctness.
//!
//! # File layout
//!
//! Each segment reuses the generic `ens-columnar` container (magic,
//! versioned directory, checksummed sections) with its own section-id
//! space, disjoint from the dataset schema's ids 1..=13 (see
//! [`crate::storage`]): 64 = header (schema version + config fingerprint),
//! 65/66/67 = committed subgraph/txlist/market shards. Shard payloads are
//! JSON blobs of [`CommittedShard`] — small, already-deterministic, and
//! cheap to re-encode incrementally — framed by fixed-width lengths so a
//! load never scans.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ens_columnar::{is_columnar, ColumnarError, Cursor, FileBuilder, FileView, PutLe};
use ens_subgraph::DomainRecord;
use ens_types::{Address, Timestamp};
use opensea_sim::MarketEvent;
use serde::de::DeserializeOwned;
use serde::Serialize;
use sim_chain::Transaction;

use crate::crawl::{CommittedShard, SourceStats};
use crate::dataset::CrawlConfig;
use crate::export::{write_atomic, StorageError};

/// Default checkpoint cadence: a save every this many committed pages.
/// Chosen from the `resume_bench` cadence sweep (`BENCH_resume.json`) to
/// keep crawl-throughput overhead under 5%.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 256;

/// Checkpoint schema version inside the header section.
const CKPT_SCHEMA_VERSION: u32 = 1;

/// Section ids of the checkpoint schema. The id space 64.. is reserved for
/// checkpoints and disjoint from the dataset schema's 1..=13, so magic-byte
/// detection plus the first directory id tells the two file kinds apart
/// ([`CrawlCheckpoint::sniff`]). Ids are stable: never reuse or
/// reinterpret one.
mod section {
    /// Schema version + config fingerprint.
    pub const HEADER: u32 = 64;
    /// Committed subgraph shards (by shard index).
    pub const SUBGRAPH: u32 = 65;
    /// Committed txlist shards (by address).
    pub const TXLIST: u32 = 66;
    /// Committed market shards (by shard index).
    pub const MARKET: u32 = 67;
}

/// FNV-1a over a byte string (stable across runs/platforms).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A stable fingerprint of everything that shapes shard *content*: retry
/// and failure policies, the chaos profile, the page sizes, the
/// observation window, plus a caller-supplied extra word (the CLI hashes
/// its world parameters into it). `threads` is deliberately excluded —
/// shard content is thread-count independent, so a crawl killed at 8
/// threads may resume at 1 and still reproduce the same bytes. A
/// checkpoint whose fingerprint does not match is *stale* (it describes a
/// different crawl) and is discarded rather than spliced.
pub fn config_fingerprint(config: &CrawlConfig, observation_end: Timestamp, extra: u64) -> u64 {
    let key = format!(
        "{:?}|{:?}|{:?}|{}|{}|{}|{}|{}",
        config.retry,
        config.failure,
        config.chaos,
        config.subgraph_page_size,
        config.txlist_page_size,
        config.market_page_size,
        observation_end.0,
        extra,
    );
    fnv1a(key.as_bytes())
}

/// How a collection run uses its checkpoint file.
#[derive(Clone, Debug)]
pub struct CheckpointSpec {
    /// Where the checkpoint chain lives: this path is the first segment,
    /// later saves append `<path>.1`, `<path>.2`, … (each with a `.tmp`
    /// staging sibling during its atomic write).
    pub path: PathBuf,
    /// Save cadence: one atomic delta-segment write per this many
    /// committed pages (phase boundaries always flush). Clamped to at
    /// least 1.
    pub every_pages: usize,
    /// If true, an existing matching checkpoint at `path` is loaded and
    /// its shards spliced; if false, any existing file is ignored and
    /// overwritten.
    pub resume: bool,
    /// Extra word folded into [`config_fingerprint`] — hash the identity
    /// of the *world* being crawled into this so a checkpoint from one
    /// world is never spliced into another.
    pub fingerprint_extra: u64,
}

impl CheckpointSpec {
    /// A spec at `path` with the default cadence, not resuming.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointSpec {
        CheckpointSpec {
            path: path.into(),
            every_pages: DEFAULT_CHECKPOINT_EVERY,
            resume: false,
            fingerprint_extra: 0,
        }
    }

    /// Sets the save cadence in committed pages.
    pub fn every(mut self, pages: usize) -> CheckpointSpec {
        self.every_pages = pages.max(1);
        self
    }

    /// Enables resuming from an existing checkpoint at the path.
    pub fn resuming(mut self) -> CheckpointSpec {
        self.resume = true;
        self
    }

    /// Folds a world-identity word into the fingerprint.
    pub fn with_fingerprint_extra(mut self, extra: u64) -> CheckpointSpec {
        self.fingerprint_extra = extra;
        self
    }
}

/// The durable state of an interrupted collection: every fully-committed
/// shard of each phase, plus the fingerprint of the configuration that
/// produced them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CrawlCheckpoint {
    /// [`config_fingerprint`] of the producing run.
    pub fingerprint: u64,
    /// Committed subgraph shards by shard index.
    pub subgraph: BTreeMap<u64, CommittedShard<DomainRecord>>,
    /// Committed txlist shards by address.
    pub txlist: BTreeMap<Address, CommittedShard<Transaction>>,
    /// Committed market shards by shard index.
    pub market: BTreeMap<u64, CommittedShard<MarketEvent>>,
}

impl CrawlCheckpoint {
    /// An empty checkpoint for the given fingerprint.
    pub fn new(fingerprint: u64) -> CrawlCheckpoint {
        CrawlCheckpoint {
            fingerprint,
            ..CrawlCheckpoint::default()
        }
    }

    /// Committed shards across all phases.
    pub fn committed_shards(&self) -> usize {
        self.subgraph.len() + self.txlist.len() + self.market.len()
    }

    /// Pages a resumed crawl will *not* refetch: the sum of every
    /// committed shard's page count (feeds the `checkpoint/skipped_pages`
    /// counter).
    pub fn committed_pages(&self) -> u64 {
        let sum = |s: &SourceStats| s.pages as u64;
        self.subgraph.values().map(|c| sum(&c.stats)).sum::<u64>()
            + self.txlist.values().map(|c| sum(&c.stats)).sum::<u64>()
            + self.market.values().map(|c| sum(&c.stats)).sum::<u64>()
    }

    /// True if `bytes` look like a checkpoint file: the columnar magic
    /// with the checkpoint header section listed first in the directory
    /// (dataset files lead with their lowest dataset-schema id instead).
    pub fn sniff(bytes: &[u8]) -> bool {
        if !is_columnar(bytes) || bytes.len() < 16 {
            return false;
        }
        let first_id = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        first_id == section::HEADER
    }

    /// Serializes the checkpoint into container bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StorageError> {
        let mut subgraph = BTreeMap::new();
        for (shard, c) in &self.subgraph {
            subgraph.insert(*shard, shard_blob(c)?);
        }
        let mut txlist = BTreeMap::new();
        for (addr, c) in &self.txlist {
            txlist.insert(*addr, shard_blob(c)?);
        }
        let mut market = BTreeMap::new();
        for (shard, c) in &self.market {
            market.insert(*shard, shard_blob(c)?);
        }
        Ok(encode_file(self.fingerprint, &subgraph, &txlist, &market))
    }

    /// Parses a checkpoint from container bytes, verifying magic, version,
    /// directory and per-section checksums. Every failure mode — wrong
    /// magic, truncation, bit rot, a dataset file passed by mistake — is a
    /// typed [`StorageError`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<CrawlCheckpoint, StorageError> {
        let view = FileView::parse(bytes)?;
        let mut header = Cursor::new(view.section(section::HEADER)?, "checkpoint header");
        let schema = header.take_u32()?;
        if schema != CKPT_SCHEMA_VERSION {
            return Err(StorageError::Columnar(ColumnarError::UnsupportedVersion(
                schema,
            )));
        }
        let fingerprint = header.take_u64()?;
        header.expect_end()?;
        Ok(CrawlCheckpoint {
            fingerprint,
            subgraph: decode_indexed(view.section(section::SUBGRAPH)?, "subgraph shards")?,
            txlist: decode_keyed(view.section(section::TXLIST)?, "txlist shards")?,
            market: decode_indexed(view.section(section::MARKET)?, "market shards")?,
        })
    }

    /// Atomically writes the checkpoint to `path` (temp + rename).
    pub fn save(&self, path: &Path) -> Result<(), StorageError> {
        write_atomic(path, &self.to_bytes()?)
    }

    /// Reads and verifies a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<CrawlCheckpoint, StorageError> {
        CrawlCheckpoint::from_bytes(&std::fs::read(path)?)
    }
}

/// What loading a checkpoint for resumption concluded.
#[derive(Debug)]
pub enum CheckpointLoad {
    /// No file at the path — start a clean crawl.
    Fresh,
    /// A valid checkpoint with a matching fingerprint — splice it.
    Resumed(Box<CrawlCheckpoint>),
    /// The file exists but failed verification (truncated, bad checksum,
    /// wrong magic, unsupported version) — fall back to a clean crawl.
    DiscardedCorrupt(String),
    /// The file is valid but was produced by a different configuration —
    /// fall back to a clean crawl.
    DiscardedStale,
}

/// The on-disk path of chain segment `idx`: segment 0 is the spec path
/// itself, segment `k` is `<path>.<k>`.
fn segment_path(path: &Path, idx: u64) -> PathBuf {
    if idx == 0 {
        path.to_path_buf()
    } else {
        PathBuf::from(format!("{}.{idx}", path.display()))
    }
}

/// Deletes the segment chain rooted at `path` from segment `from` upward
/// (plus staging siblings), best-effort, stopping at the first missing
/// segment.
fn prune_chain_from(path: &Path, from: u64) {
    for idx in from.. {
        let seg = segment_path(path, idx);
        let existed = std::fs::remove_file(&seg).is_ok();
        let _ = std::fs::remove_file(format!("{}.tmp", seg.display()));
        if !existed {
            break;
        }
    }
}

/// Deletes every segment of the checkpoint chain rooted at `path` (and
/// their staging siblings), best-effort. Called when a collection
/// completes — a finished run needs no resume point — and before a
/// non-resuming run reuses the path.
pub fn remove_chain(path: &Path) {
    prune_chain_from(path, 0);
}

/// Segments currently present in the chain rooted at `path`.
fn chain_len(path: &Path) -> u64 {
    let mut idx = 0;
    while segment_path(path, idx).exists() {
        idx += 1;
    }
    idx
}

/// Loads the checkpoint chain at `path` for a run whose fingerprint is
/// `fingerprint`, classifying every outcome so the caller can count
/// warnings instead of panicking or silently mis-splicing. Later segments
/// extend the first; the first unreadable or mismatched segment truncates
/// the chain to its intact prefix (everything past it is pruned so new
/// saves continue the chain consistently) — a resume then simply
/// refetches what the pruned tail had covered.
pub fn load_for_resume(path: &Path, fingerprint: u64) -> CheckpointLoad {
    let bytes = match std::fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointLoad::Fresh,
        Err(e) => return CheckpointLoad::DiscardedCorrupt(e.to_string()),
        Ok(bytes) => bytes,
    };
    let mut ckpt = match CrawlCheckpoint::from_bytes(&bytes) {
        Err(e) => return CheckpointLoad::DiscardedCorrupt(e.to_string()),
        Ok(ckpt) if ckpt.fingerprint != fingerprint => return CheckpointLoad::DiscardedStale,
        Ok(ckpt) => ckpt,
    };
    for idx in 1.. {
        let seg = segment_path(path, idx);
        let bytes = match std::fs::read(&seg) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
            Err(_) => {
                prune_chain_from(path, idx);
                break;
            }
            Ok(bytes) => bytes,
        };
        match CrawlCheckpoint::from_bytes(&bytes) {
            Ok(delta) if delta.fingerprint == fingerprint => {
                ckpt.subgraph.extend(delta.subgraph);
                ckpt.txlist.extend(delta.txlist);
                ckpt.market.extend(delta.market);
            }
            _ => {
                prune_chain_from(path, idx);
                break;
            }
        }
    }
    CheckpointLoad::Resumed(Box::new(ckpt))
}

// ---------------------------------------------------------------------------
// The journal: incremental commits + cadence saves
// ---------------------------------------------------------------------------

/// The in-memory side of the commit protocol. Shards are serialized once,
/// on whichever crawl worker finished them (outside the journal lock), the
/// lock only guards pending-blob insertion and the cadence decision, and a
/// save writes only the blobs committed since the previous save as a new
/// chain segment — so checkpointing costs each committed byte one
/// serialization and one write, regardless of the cadence.
///
/// The cadence is bucket-based: a save happens when the cumulative
/// committed-page count crosses a multiple of `every_pages`. Which shards
/// each segment contains (and, for multi-page keyed shards, the exact
/// segment count) depends on worker interleaving — deliberately so: the
/// guarantee crashes need is that *any* intact chain prefix is a valid,
/// self-consistent resume point, not that crash timing is deterministic.
/// The final dataset is byte-identical either way.
pub struct CheckpointJournal {
    path: PathBuf,
    every_pages: u64,
    fingerprint: u64,
    state: Mutex<JournalState>,
}

struct JournalState {
    /// Blobs committed since the last save — the next segment's payload.
    subgraph: BTreeMap<u64, Vec<u8>>,
    txlist: BTreeMap<Address, Vec<u8>>,
    market: BTreeMap<u64, Vec<u8>>,
    pages_total: u64,
    flushed_bucket: u64,
    /// Index of the next segment to write (= segments already on disk).
    segments: u64,
    dirty: bool,
    writes: u64,
    error: Option<String>,
}

impl CheckpointJournal {
    /// A journal over `spec`. A non-empty `resumed` (the checkpoint being
    /// spliced) continues the existing segment chain — its shards are
    /// already durable, so they are never re-serialized or re-written; an
    /// empty one clears any leftover chain at the path and starts fresh.
    pub fn new(
        spec: &CheckpointSpec,
        fingerprint: u64,
        resumed: &CrawlCheckpoint,
    ) -> Result<CheckpointJournal, StorageError> {
        let pages = |s: &SourceStats| s.pages as u64;
        let pages_total = resumed
            .subgraph
            .values()
            .map(|c| pages(&c.stats))
            .sum::<u64>()
            + resumed
                .txlist
                .values()
                .map(|c| pages(&c.stats))
                .sum::<u64>()
            + resumed
                .market
                .values()
                .map(|c| pages(&c.stats))
                .sum::<u64>();
        let segments = if resumed.committed_shards() > 0 {
            chain_len(&spec.path)
        } else {
            remove_chain(&spec.path);
            0
        };
        let every_pages = spec.every_pages.max(1) as u64;
        let state = JournalState {
            subgraph: BTreeMap::new(),
            txlist: BTreeMap::new(),
            market: BTreeMap::new(),
            pages_total,
            flushed_bucket: pages_total / every_pages,
            segments,
            dirty: false,
            writes: 0,
            error: None,
        };
        Ok(CheckpointJournal {
            path: spec.path.clone(),
            every_pages,
            fingerprint,
            state: Mutex::new(state),
        })
    }

    /// Commits one subgraph shard; returns true if this commit triggered a
    /// cadence save.
    pub fn commit_subgraph(&self, shard: u64, c: &CommittedShard<DomainRecord>) -> bool {
        let blob = match shard_blob(c) {
            Ok(b) => b,
            Err(e) => return self.record_error(e),
        };
        self.insert(c.stats.pages as u64, |s| {
            s.subgraph.insert(shard, blob);
        })
    }

    /// Commits one txlist shard (one address's whole source).
    pub fn commit_txlist(&self, addr: Address, c: &CommittedShard<Transaction>) -> bool {
        let blob = match shard_blob(c) {
            Ok(b) => b,
            Err(e) => return self.record_error(e),
        };
        self.insert(c.stats.pages as u64, |s| {
            s.txlist.insert(addr, blob);
        })
    }

    /// Commits one market shard.
    pub fn commit_market(&self, shard: u64, c: &CommittedShard<MarketEvent>) -> bool {
        let blob = match shard_blob(c) {
            Ok(b) => b,
            Err(e) => return self.record_error(e),
        };
        self.insert(c.stats.pages as u64, |s| {
            s.market.insert(shard, blob);
        })
    }

    /// Forces a save if anything was committed since the last one. Called
    /// at phase boundaries so a kill early in the next phase cannot lose a
    /// completed phase's tail.
    pub fn flush(&self) -> bool {
        let mut state = self.state.lock().expect("checkpoint journal poisoned");
        if !state.dirty {
            return false;
        }
        self.save_locked(&mut state)
    }

    /// Atomic saves performed so far.
    pub fn writes(&self) -> u64 {
        self.state
            .lock()
            .expect("checkpoint journal poisoned")
            .writes
    }

    /// The first save/serialization error, if any occurred. Commit hooks
    /// cannot propagate errors through the crawler, so the collection
    /// layer checks this after each phase.
    pub fn take_error(&self) -> Option<String> {
        self.state
            .lock()
            .expect("checkpoint journal poisoned")
            .error
            .take()
    }

    fn record_error(&self, e: StorageError) -> bool {
        let mut state = self.state.lock().expect("checkpoint journal poisoned");
        state.error.get_or_insert(e.to_string());
        false
    }

    fn insert(&self, pages: u64, apply: impl FnOnce(&mut JournalState)) -> bool {
        let mut state = self.state.lock().expect("checkpoint journal poisoned");
        apply(&mut state);
        state.dirty = true;
        state.pages_total += pages;
        let bucket = state.pages_total / self.every_pages;
        if bucket > state.flushed_bucket {
            state.flushed_bucket = bucket;
            self.save_locked(&mut state)
        } else {
            false
        }
    }

    fn save_locked(&self, state: &mut JournalState) -> bool {
        let bytes = encode_file(
            self.fingerprint,
            &state.subgraph,
            &state.txlist,
            &state.market,
        );
        let seg = segment_path(&self.path, state.segments);
        match write_atomic(&seg, &bytes) {
            Ok(()) => {
                state.subgraph.clear();
                state.txlist.clear();
                state.market.clear();
                state.segments += 1;
                state.dirty = false;
                state.writes += 1;
                true
            }
            Err(e) => {
                state.error.get_or_insert(e.to_string());
                false
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding / decoding
// ---------------------------------------------------------------------------

fn shard_blob<T: Serialize>(c: &CommittedShard<T>) -> Result<Vec<u8>, StorageError> {
    Ok(serde_json::to_string(c)?.into_bytes())
}

fn encode_file(
    fingerprint: u64,
    subgraph: &BTreeMap<u64, Vec<u8>>,
    txlist: &BTreeMap<Address, Vec<u8>>,
    market: &BTreeMap<u64, Vec<u8>>,
) -> Vec<u8> {
    let mut header = Vec::with_capacity(12);
    header.put_u32(CKPT_SCHEMA_VERSION);
    header.put_u64(fingerprint);
    let mut builder = FileBuilder::new();
    builder.add(section::HEADER, header);
    builder.add(section::SUBGRAPH, encode_indexed(subgraph));
    builder.add(section::TXLIST, encode_keyed(txlist));
    builder.add(section::MARKET, encode_indexed(market));
    builder.finish()
}

fn encode_indexed(blobs: &BTreeMap<u64, Vec<u8>>) -> Vec<u8> {
    let total: usize = blobs.values().map(|b| b.len() + 12).sum();
    let mut out = Vec::with_capacity(4 + total);
    out.put_u32(blobs.len() as u32);
    for (shard, blob) in blobs {
        out.put_u64(*shard);
        out.put_u32(blob.len() as u32);
        out.put_bytes(blob);
    }
    out
}

fn encode_keyed(blobs: &BTreeMap<Address, Vec<u8>>) -> Vec<u8> {
    let total: usize = blobs.values().map(|b| b.len() + 24).sum();
    let mut out = Vec::with_capacity(4 + total);
    out.put_u32(blobs.len() as u32);
    for (addr, blob) in blobs {
        out.put_bytes(&addr.0);
        out.put_u32(blob.len() as u32);
        out.put_bytes(blob);
    }
    out
}

fn decode_shard<T: DeserializeOwned>(
    blob: &[u8],
    context: &'static str,
) -> Result<CommittedShard<T>, StorageError> {
    let text = std::str::from_utf8(blob).map_err(|e| {
        StorageError::Columnar(ColumnarError::Corrupt(format!(
            "{context}: shard blob is not UTF-8: {e}"
        )))
    })?;
    Ok(serde_json::from_str(text)?)
}

fn decode_indexed<T: DeserializeOwned>(
    bytes: &[u8],
    context: &'static str,
) -> Result<BTreeMap<u64, CommittedShard<T>>, StorageError> {
    let mut cur = Cursor::new(bytes, context);
    let n = cur.take_u32()? as usize;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let shard = cur.take_u64()?;
        let len = cur.take_u32()? as usize;
        let blob = cur.take_bytes(len)?;
        map.insert(shard, decode_shard(blob, context)?);
    }
    cur.expect_end()?;
    Ok(map)
}

fn decode_keyed<T: DeserializeOwned>(
    bytes: &[u8],
    context: &'static str,
) -> Result<BTreeMap<Address, CommittedShard<T>>, StorageError> {
    let mut cur = Cursor::new(bytes, context);
    let n = cur.take_u32()? as usize;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let raw = cur.take_bytes(20)?;
        let mut addr = [0u8; 20];
        addr.copy_from_slice(raw);
        let len = cur.take_u32()? as usize;
        let blob = cur.take_bytes(len)?;
        map.insert(Address(addr), decode_shard(blob, context)?);
    }
    cur.expect_end()?;
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::{CrawlGap, SourceStats};
    use ens_types::paged::FaultKind;

    fn sample() -> CrawlCheckpoint {
        let mut ckpt = CrawlCheckpoint::new(0xABCD);
        ckpt.market.insert(
            3,
            CommittedShard {
                items: Vec::new(),
                stats: SourceStats {
                    pages: 2,
                    items: 0,
                    retries: 1,
                    retries_by_kind: Default::default(),
                    backoff_virtual_ms: 150,
                },
                gaps: vec![CrawlGap {
                    source: "market".into(),
                    key: None,
                    start: 10,
                    end: Some(20),
                    lost_estimate: 10,
                    attempts: 4,
                    kind: FaultKind::ServerError,
                }],
            },
        );
        ckpt.txlist.insert(
            Address::derive(b"someone"),
            CommittedShard {
                items: Vec::new(),
                stats: SourceStats {
                    pages: 1,
                    ..Default::default()
                },
                gaps: Vec::new(),
            },
        );
        ckpt
    }

    #[test]
    fn checkpoint_round_trips_through_the_container() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes().unwrap();
        assert!(CrawlCheckpoint::sniff(&bytes));
        let back = CrawlCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.committed_pages(), 3);
        assert_eq!(back.committed_shards(), 2);
    }

    #[test]
    fn sniff_rejects_non_checkpoints() {
        assert!(!CrawlCheckpoint::sniff(b"{\"json\": true}"));
        assert!(!CrawlCheckpoint::sniff(b"ENSC"));
        // A columnar file whose first section is a *dataset* section is
        // not a checkpoint.
        let mut builder = FileBuilder::new();
        builder.add(1, vec![0u8; 4]);
        assert!(!CrawlCheckpoint::sniff(&builder.finish()));
    }

    #[test]
    fn corruption_is_a_typed_error_never_a_panic() {
        let bytes = sample().to_bytes().unwrap();
        // Truncation.
        let err = CrawlCheckpoint::from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, StorageError::Columnar(_)), "{err}");
        // Flipped payload byte → section checksum mismatch.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        let err = CrawlCheckpoint::from_bytes(&flipped).unwrap_err();
        assert!(matches!(err, StorageError::Columnar(_)), "{err}");
        // Wrong magic.
        let mut magic = bytes.clone();
        magic[0] = b'X';
        let err = CrawlCheckpoint::from_bytes(&magic).unwrap_err();
        assert!(
            matches!(err, StorageError::Columnar(ColumnarError::BadMagic)),
            "{err}"
        );
    }

    #[test]
    fn load_for_resume_classifies_every_outcome() {
        let dir = std::env::temp_dir().join(format!("ens-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.ensc");
        // Missing file → fresh.
        assert!(matches!(
            load_for_resume(&path, 0xABCD),
            CheckpointLoad::Fresh
        ));
        // Valid + matching fingerprint → resumed.
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        match load_for_resume(&path, 0xABCD) {
            CheckpointLoad::Resumed(back) => assert_eq!(*back, ckpt),
            other => panic!("expected Resumed, got {other:?}"),
        }
        // Fingerprint mismatch → stale.
        assert!(matches!(
            load_for_resume(&path, 0x9999),
            CheckpointLoad::DiscardedStale
        ));
        // Corrupt file → discarded with the reason.
        std::fs::write(&path, b"not a checkpoint at all").unwrap();
        assert!(matches!(
            load_for_resume(&path, 0xABCD),
            CheckpointLoad::DiscardedCorrupt(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_saves_on_the_page_cadence_and_flush() {
        let dir = std::env::temp_dir().join(format!("ens-ckpt-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.ensc");
        let spec = CheckpointSpec::new(&path).every(4);
        let journal = CheckpointJournal::new(&spec, 0xF00D, &CrawlCheckpoint::new(0xF00D)).unwrap();
        let shard = |pages: usize| CommittedShard::<DomainRecord> {
            items: Vec::new(),
            stats: SourceStats {
                pages,
                ..Default::default()
            },
            gaps: Vec::new(),
        };
        // 3 pages: below the cadence, nothing on disk yet.
        assert!(!journal.commit_subgraph(0, &shard(3)));
        assert!(!path.exists());
        // 2 more pages cross the 4-page bucket: atomic segment write.
        assert!(journal.commit_subgraph(1, &shard(2)));
        assert!(path.exists());
        assert_eq!(journal.writes(), 1);
        let on_disk = CrawlCheckpoint::load(&path).unwrap();
        assert_eq!(on_disk.subgraph.len(), 2);
        assert_eq!(on_disk.fingerprint, 0xF00D);
        // A clean flush appends the tail as a delta segment — the first
        // segment is never rewritten; a second flush is a no-op.
        assert!(!journal.commit_subgraph(2, &shard(1)));
        assert!(journal.flush());
        assert!(!journal.flush());
        assert_eq!(journal.writes(), 2);
        assert_eq!(CrawlCheckpoint::load(&path).unwrap().subgraph.len(), 2);
        match load_for_resume(&path, 0xF00D) {
            CheckpointLoad::Resumed(union) => assert_eq!(union.subgraph.len(), 3),
            other => panic!("expected Resumed, got {other:?}"),
        }
        assert!(journal.take_error().is_none());
        // Completion removes the whole chain.
        remove_chain(&path);
        assert!(!path.exists());
        assert!(matches!(
            load_for_resume(&path, 0xF00D),
            CheckpointLoad::Fresh
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_later_segment_truncates_the_chain_to_its_intact_prefix() {
        let dir = std::env::temp_dir().join(format!("ens-ckpt-chain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.ensc");
        let spec = CheckpointSpec::new(&path).every(1);
        let journal = CheckpointJournal::new(&spec, 0xABCD, &CrawlCheckpoint::new(0xABCD)).unwrap();
        let shard = || CommittedShard::<DomainRecord> {
            items: Vec::new(),
            stats: SourceStats {
                pages: 1,
                ..Default::default()
            },
            gaps: Vec::new(),
        };
        for i in 0..3 {
            assert!(journal.commit_subgraph(i, &shard()));
        }
        assert_eq!(journal.writes(), 3);
        // Rot the middle segment: the chain truncates to segment 0 and the
        // damaged tail is pruned so future saves stay consistent.
        let seg1 = PathBuf::from(format!("{}.1", path.display()));
        let seg2 = PathBuf::from(format!("{}.2", path.display()));
        std::fs::write(&seg1, b"rotted").unwrap();
        match load_for_resume(&path, 0xABCD) {
            CheckpointLoad::Resumed(union) => {
                assert_eq!(union.subgraph.len(), 1);
                assert!(union.subgraph.contains_key(&0));
            }
            other => panic!("expected Resumed, got {other:?}"),
        }
        assert!(!seg1.exists(), "the corrupt segment is pruned");
        assert!(!seg2.exists(), "segments past the break are pruned");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_fingerprint_tracks_content_knobs_not_threads() {
        let end = Timestamp(1_700_000_000);
        let base = CrawlConfig::default();
        let fp = config_fingerprint(&base, end, 0);
        let threaded = CrawlConfig {
            threads: 8,
            ..base.clone()
        };
        assert_eq!(
            config_fingerprint(&threaded, end, 0),
            fp,
            "threads never invalidate a checkpoint"
        );
        let repaged = CrawlConfig {
            subgraph_page_size: 64,
            ..base.clone()
        };
        assert_ne!(config_fingerprint(&repaged, end, 0), fp);
        assert_ne!(config_fingerprint(&base, Timestamp(1), 0), fp);
        assert_ne!(config_fingerprint(&base, end, 7), fp);
    }
}

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
//! [`crate::storage`]): 64 = header (schema version 2 + config
//! fingerprint), 65/66/67 = committed subgraph/txlist/market shards. Each
//! shard section is a `u32` shard count, then per shard its key (a `u64`
//! shard index, or the 20-byte address of a txlist shard), a `u32` byte
//! length and the shard itself:
//!
//! ```text
//! stats   pages, items, retries, 4 per-kind retry counts, backoff ms   8 × u64
//! gaps    u64 byte length + JSON (length 0: no gaps)
//! rows    string pool, address pool, then the dataset sections the
//!         rows occupy (domains: 6, txlist: 1 with one owner, market: 1),
//!         each behind a u32 byte length
//! ```
//!
//! The rows are the dataset's own binary form: `storage.rs`'s column
//! writers encode them, and its section readers decode them, so a
//! checkpoint and a `.ensc` dataset share one codec. Every length is
//! bounds-checked against the bytes present before anything is sized by
//! it. Schema version 1 carried shards as JSON; a version-1 chain now
//! loads as [`CheckpointLoad::DiscardedStale`] and the crawl starts clean.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ens_columnar::{ColumnarError, Cursor, FileBuilder, FileReader, PutLe};
use ens_subgraph::DomainRecord;
use ens_types::{Address, Timestamp};
use opensea_sim::MarketEvent;
use sim_chain::Transaction;

use crate::crawl::{CrawlGap, Crawled, RetryCounts, SourceStats};
use crate::dataset::CrawlConfig;
use crate::export::{write_atomic, StorageError};
use crate::storage::{
    put_domain_rows, put_market_rows, put_txlist_rows, take_domain_rows, take_market_rows,
    take_txlist_rows,
};

/// Default checkpoint cadence: a save every this many committed pages.
/// Chosen from the `resume_bench` cadence sweep (`BENCH_resume.json`) to
/// keep crawl-throughput overhead under 5%.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 256;

/// Checkpoint schema version inside the header section. Version 1 carried
/// shards as JSON; version 2 carries them in the dataset's binary form.
const CKPT_SCHEMA_VERSION: u32 = 2;

/// Section ids of the checkpoint schema. The id space 64.. is reserved for
/// checkpoints and disjoint from the dataset schema's 1..=13, so a dataset
/// file read as a checkpoint fails with the header section missing. Ids
/// are stable: never reuse or reinterpret one.
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

/// FNV-1a over a byte string: stable across runs, builds and platforms,
/// so it can key what a later process reads back.
pub fn fnv1a(bytes: &[u8]) -> u64 {
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
    pub subgraph: BTreeMap<u64, Crawled<DomainRecord>>,
    /// Committed txlist shards by address.
    pub txlist: BTreeMap<Address, Crawled<Transaction>>,
    /// Committed market shards by shard index.
    pub market: BTreeMap<u64, Crawled<MarketEvent>>,
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

    /// Serializes the checkpoint into container bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StorageError> {
        let mut blobs = Pending::default();
        for (shard, c) in &self.subgraph {
            let blob = shard_blob(c, put_domain_rows)?;
            blobs.subgraph.insert(*shard, blob);
        }
        for (addr, c) in &self.txlist {
            let blob = shard_blob(c, |txs, buf| put_txlist_rows(*addr, txs, buf))?;
            blobs.txlist.insert(*addr, blob);
        }
        for (shard, c) in &self.market {
            let blob = shard_blob(c, put_market_rows)?;
            blobs.market.insert(*shard, blob);
        }
        Ok(encode_file(self.fingerprint, &blobs))
    }

    /// Parses a checkpoint from container bytes, verifying magic, version,
    /// directory and per-section checksums, then every shard's framing and
    /// rows. Every failure mode — wrong magic, truncation, bit rot, a
    /// dataset file passed by mistake — is a typed [`StorageError`], never
    /// a panic; a checkpoint of another schema version is
    /// [`ColumnarError::UnsupportedVersion`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CrawlCheckpoint, StorageError> {
        read_segment(std::io::Cursor::new(bytes))
    }
}

/// Reads one segment section by section: the header, whose schema version
/// must be [`CKPT_SCHEMA_VERSION`], then the three shard sections. Each
/// section's checksum is verified as it is read, and
/// [`FileReader::finish`] verifies any section the schema never reads.
fn read_segment<R: Read + Seek>(segment: R) -> Result<CrawlCheckpoint, StorageError> {
    let mut reader = FileReader::open(segment)?;
    let header = reader.section(section::HEADER)?;
    let mut header = Cursor::new(&header, "checkpoint header");
    let schema = header.take_u32()?;
    if schema != CKPT_SCHEMA_VERSION {
        return Err(ColumnarError::UnsupportedVersion(schema).into());
    }
    let fingerprint = header.take_u64()?;
    header.expect_end()?;
    let subgraph = decode_indexed(
        &reader.section(section::SUBGRAPH)?,
        "subgraph shards",
        take_domain_rows,
    )?;
    let txlist = decode_keyed(&reader.section(section::TXLIST)?, "txlist shards")?;
    let market = decode_indexed(
        &reader.section(section::MARKET)?,
        "market shards",
        take_market_rows,
    )?;
    reader.finish()?;
    Ok(CrawlCheckpoint {
        fingerprint,
        subgraph,
        txlist,
        market,
    })
}

/// What loading a checkpoint for resumption concluded.
#[derive(Debug)]
pub enum CheckpointLoad {
    /// No file at the path — start a clean crawl.
    Fresh,
    /// A valid checkpoint with a matching fingerprint — splice it.
    Resumed(Box<CrawlCheckpoint>),
    /// The file exists but failed verification (truncated, bad checksum,
    /// wrong magic, undecodable shards) — fall back to a clean crawl.
    DiscardedCorrupt(String),
    /// The file is intact but describes another crawl: a different
    /// configuration, or a schema version this build does not read (an
    /// older build's chain) — fall back to a clean crawl.
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
    let file = match File::open(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointLoad::Fresh,
        Err(e) => return CheckpointLoad::DiscardedCorrupt(e.to_string()),
        Ok(file) => file,
    };
    let mut ckpt = match read_segment(file) {
        Err(StorageError::Columnar(ColumnarError::UnsupportedVersion(_))) => {
            return CheckpointLoad::DiscardedStale
        }
        Err(e) => return CheckpointLoad::DiscardedCorrupt(e.to_string()),
        Ok(ckpt) if ckpt.fingerprint != fingerprint => return CheckpointLoad::DiscardedStale,
        Ok(ckpt) => ckpt,
    };
    for idx in 1.. {
        let delta = match File::open(segment_path(path, idx)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => break,
            Err(e) => Err(e.into()),
            Ok(file) => read_segment(file),
        };
        match delta {
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
/// serialization and one write, regardless of the cadence. The saving
/// worker takes the pending blobs and encodes and writes the segment under
/// a second lock that keeps segment writes in chain order, so the other
/// workers keep committing meanwhile.
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
    chain: Mutex<Chain>,
}

struct JournalState {
    /// Blobs committed since the last save — the next segment's payload.
    pending: Pending,
    pages_total: u64,
    flushed_bucket: u64,
    error: Option<String>,
}

/// Committed shard blobs not yet in a segment.
#[derive(Default)]
struct Pending {
    subgraph: BTreeMap<u64, Vec<u8>>,
    txlist: BTreeMap<Address, Vec<u8>>,
    market: BTreeMap<u64, Vec<u8>>,
}

impl Pending {
    fn is_empty(&self) -> bool {
        self.subgraph.is_empty() && self.txlist.is_empty() && self.market.is_empty()
    }
}

/// The segment chain on disk, guarded apart from the pending blobs.
struct Chain {
    /// Index of the next segment to write (= segments already on disk).
    segments: u64,
    writes: u64,
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
        let pages_total = resumed.committed_pages();
        let segments = if resumed.committed_shards() > 0 {
            chain_len(&spec.path)
        } else {
            remove_chain(&spec.path);
            0
        };
        let every_pages = spec.every_pages.max(1) as u64;
        let state = JournalState {
            pending: Pending::default(),
            pages_total,
            flushed_bucket: pages_total / every_pages,
            error: None,
        };
        Ok(CheckpointJournal {
            path: spec.path.clone(),
            every_pages,
            fingerprint,
            state: Mutex::new(state),
            chain: Mutex::new(Chain {
                segments,
                writes: 0,
            }),
        })
    }

    /// Commits one subgraph shard; returns true if this commit triggered a
    /// cadence save.
    pub fn commit_subgraph(&self, shard: u64, c: &Crawled<DomainRecord>) -> bool {
        let blob = match shard_blob(c, put_domain_rows) {
            Ok(b) => b,
            Err(e) => return self.record_error(e),
        };
        self.insert(c.stats.pages as u64, |p| {
            p.subgraph.insert(shard, blob);
        })
    }

    /// Commits one txlist shard (one address's whole source).
    pub fn commit_txlist(&self, addr: Address, c: &Crawled<Transaction>) -> bool {
        let blob = match shard_blob(c, |txs, buf| put_txlist_rows(addr, txs, buf)) {
            Ok(b) => b,
            Err(e) => return self.record_error(e),
        };
        self.insert(c.stats.pages as u64, |p| {
            p.txlist.insert(addr, blob);
        })
    }

    /// Commits one market shard.
    pub fn commit_market(&self, shard: u64, c: &Crawled<MarketEvent>) -> bool {
        let blob = match shard_blob(c, put_market_rows) {
            Ok(b) => b,
            Err(e) => return self.record_error(e),
        };
        self.insert(c.stats.pages as u64, |p| {
            p.market.insert(shard, blob);
        })
    }

    /// Forces a save if anything was committed since the last one. Called
    /// at phase boundaries so a kill early in the next phase cannot lose a
    /// completed phase's tail.
    pub fn flush(&self) -> bool {
        let pending = std::mem::take(&mut self.lock_state().pending);
        !pending.is_empty() && self.save(&pending)
    }

    /// Atomic saves performed so far.
    pub fn writes(&self) -> u64 {
        self.chain.lock().expect("checkpoint chain poisoned").writes
    }

    /// The first save/serialization error, if any occurred. Commit hooks
    /// cannot propagate errors through the crawler, so the collection
    /// layer checks this after each phase.
    pub fn take_error(&self) -> Option<String> {
        self.lock_state().error.take()
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, JournalState> {
        self.state.lock().expect("checkpoint journal poisoned")
    }

    fn record_error(&self, e: StorageError) -> bool {
        self.lock_state().error.get_or_insert(e.to_string());
        false
    }

    fn insert(&self, pages: u64, apply: impl FnOnce(&mut Pending)) -> bool {
        let pending = {
            let mut state = self.lock_state();
            apply(&mut state.pending);
            state.pages_total += pages;
            let bucket = state.pages_total / self.every_pages;
            if bucket <= state.flushed_bucket {
                return false;
            }
            state.flushed_bucket = bucket;
            std::mem::take(&mut state.pending)
        };
        self.save(&pending)
    }

    /// Writes `pending` as the next segment of the chain. A failed write
    /// is recorded, and the collection fails at its next phase check; the
    /// chain on disk keeps its intact prefix.
    fn save(&self, pending: &Pending) -> bool {
        let mut chain = self.chain.lock().expect("checkpoint chain poisoned");
        let bytes = encode_file(self.fingerprint, pending);
        match write_atomic(&segment_path(&self.path, chain.segments), &bytes) {
            Ok(()) => {
                chain.segments += 1;
                chain.writes += 1;
                true
            }
            Err(e) => self.record_error(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding / decoding
// ---------------------------------------------------------------------------

/// One committed shard in its binary form: the accounting as fixed-width
/// words, the gaps, then the rows `put_rows` writes with the dataset's own
/// column writers.
fn shard_blob<T>(
    c: &Crawled<T>,
    put_rows: impl FnOnce(&[T], &mut Vec<u8>),
) -> Result<Vec<u8>, StorageError> {
    let mut blob = Vec::new();
    put_stats(&c.stats, &mut blob);
    put_gaps(&c.gaps, &mut blob)?;
    put_rows(&c.items, &mut blob);
    Ok(blob)
}

/// Reads one shard written by [`shard_blob`] from a section cursor: its
/// `u32` length, then accounting, gaps and rows (`take_rows`), which must
/// use up exactly that length.
fn take_shard<T>(
    cur: &mut Cursor<'_>,
    context: &'static str,
    take_rows: impl FnOnce(&mut Cursor<'_>) -> Result<Vec<T>, ColumnarError>,
) -> Result<Crawled<T>, ColumnarError> {
    let len = cur.take_u32()? as usize;
    let mut blob = Cursor::new(cur.take_bytes(len)?, context);
    let stats = take_stats(&mut blob)?;
    let gaps = take_gaps(&mut blob, context)?;
    let items = take_rows(&mut blob)?;
    blob.expect_end()?;
    Ok(Crawled { items, stats, gaps })
}

/// [`SourceStats`] as eight `u64` words: pages, items, retries, the four
/// per-kind retry counts, and the virtual backoff.
fn put_stats(s: &SourceStats, buf: &mut Vec<u8>) {
    let r = &s.retries_by_kind;
    for count in [
        s.pages,
        s.items,
        s.retries,
        r.rate_limited,
        r.timeout,
        r.server_error,
        r.malformed,
    ] {
        buf.put_u64(count as u64);
    }
    buf.put_u64(s.backoff_virtual_ms);
}

fn take_stats(cur: &mut Cursor<'_>) -> Result<SourceStats, ColumnarError> {
    let pages = cur.take_len()?;
    let items = cur.take_len()?;
    let retries = cur.take_len()?;
    let retries_by_kind = RetryCounts {
        rate_limited: cur.take_len()?,
        timeout: cur.take_len()?,
        server_error: cur.take_len()?,
        malformed: cur.take_len()?,
    };
    Ok(SourceStats {
        pages,
        items,
        retries,
        retries_by_kind,
        backoff_virtual_ms: cur.take_u64()?,
    })
}

/// A shard's gaps as embedded JSON behind a `u64` byte length, as the
/// dataset's META section carries its crawl report. A clean shard — all
/// but a handful — writes length 0 and no JSON.
fn put_gaps(gaps: &[CrawlGap], buf: &mut Vec<u8>) -> Result<(), StorageError> {
    let json = if gaps.is_empty() {
        String::new()
    } else {
        serde_json::to_string(gaps)?
    };
    buf.put_u64(json.len() as u64);
    buf.put_bytes(json.as_bytes());
    Ok(())
}

fn take_gaps(cur: &mut Cursor<'_>, context: &'static str) -> Result<Vec<CrawlGap>, ColumnarError> {
    let len = cur.take_len()?;
    let json = cur.take_bytes(len)?;
    if json.is_empty() {
        return Ok(Vec::new());
    }
    let text = std::str::from_utf8(json)
        .map_err(|e| ColumnarError::Corrupt(format!("{context}: gaps not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| ColumnarError::Corrupt(format!("{context}: gaps: {e}")))
}

fn encode_file(fingerprint: u64, blobs: &Pending) -> Vec<u8> {
    let mut header = Vec::with_capacity(12);
    header.put_u32(CKPT_SCHEMA_VERSION);
    header.put_u64(fingerprint);
    let mut builder = FileBuilder::new();
    builder.add(section::HEADER, header);
    builder.add(section::SUBGRAPH, encode_indexed(&blobs.subgraph));
    builder.add(section::TXLIST, encode_keyed(&blobs.txlist));
    builder.add(section::MARKET, encode_indexed(&blobs.market));
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

fn decode_indexed<T>(
    bytes: &[u8],
    context: &'static str,
    take_rows: impl Fn(&mut Cursor<'_>) -> Result<Vec<T>, ColumnarError>,
) -> Result<BTreeMap<u64, Crawled<T>>, ColumnarError> {
    let mut cur = Cursor::new(bytes, context);
    let n = cur.take_u32()?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let shard = cur.take_u64()?;
        map.insert(shard, take_shard(&mut cur, context, &take_rows)?);
    }
    cur.expect_end()?;
    Ok(map)
}

fn decode_keyed(
    bytes: &[u8],
    context: &'static str,
) -> Result<BTreeMap<Address, Crawled<Transaction>>, ColumnarError> {
    let mut cur = Cursor::new(bytes, context);
    let n = cur.take_u32()?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let raw = cur.take_bytes(20)?;
        let mut addr = [0u8; 20];
        addr.copy_from_slice(raw);
        let addr = Address(addr);
        let shard = take_shard(&mut cur, context, |rows| take_txlist_rows(rows, addr))?;
        map.insert(addr, shard);
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
            Crawled {
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
            Crawled {
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
        let back = CrawlCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.committed_pages(), 3);
        assert_eq!(back.committed_shards(), 2);
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
        std::fs::write(&path, ckpt.to_bytes().unwrap()).unwrap();
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
        let shard = |pages: usize| Crawled::<DomainRecord> {
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
        let on_disk = CrawlCheckpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(on_disk.subgraph.len(), 2);
        assert_eq!(on_disk.fingerprint, 0xF00D);
        // A clean flush appends the tail as a delta segment — the first
        // segment is never rewritten; a second flush is a no-op.
        assert!(!journal.commit_subgraph(2, &shard(1)));
        assert!(journal.flush());
        assert!(!journal.flush());
        assert_eq!(journal.writes(), 2);
        let first = CrawlCheckpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(first.subgraph.len(), 2);
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
        let shard = || Crawled::<DomainRecord> {
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

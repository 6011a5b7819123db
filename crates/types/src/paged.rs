//! The unified paged-source abstraction every crawler in the workspace
//! drives: a cursor goes in, a batch of items plus a has-more flag comes
//! out. The ENS subgraph, the transaction explorer and the NFT marketplace
//! all expose their query surfaces through this one trait, so pagination,
//! retry and partial-failure accounting live in exactly one place — the
//! generic `Crawler` in `ens-dropcatch::crawl` — instead of three
//! hand-rolled loops.
//!
//! Failures are *typed*: every [`PageError`] carries a [`FaultKind`] so the
//! crawler can tell a rate limit (back off and retry, honoring
//! `retry_after`) from a permanent hole (record a gap and move on). The
//! [`ChaosSource`] wrapper injects every fault kind deterministically from a
//! seeded [`FaultProfile`], which is what the failure-injection tests, the
//! chaos CI job and the CLI's `--chaos` flag all drive.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::address::Address;

/// One page of items pulled from a paged endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PagedBatch<T> {
    /// The items on this page, in the endpoint's stable order.
    pub items: Vec<T>,
    /// True if a subsequent request past these items would return more.
    pub has_more: bool,
}

/// What kind of failure a page request hit. The crawler's retry policy
/// keys off this: transient kinds are retried with (virtual-clock) backoff,
/// [`FaultKind::PermanentHole`] is never retried, and
/// [`FaultKind::RateLimited`] carries the server's requested wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The endpoint throttled the request; `retry_after_ms` is the wait the
    /// server asked for (0 if it didn't say).
    RateLimited {
        /// Server-requested wait before the next attempt, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request timed out.
    Timeout,
    /// A 5xx-style transient server failure.
    ServerError,
    /// The offset range is permanently unavailable (deleted data, an
    /// indexing hole); retrying cannot help.
    PermanentHole,
    /// The endpoint returned a response the crawler cannot trust — e.g. a
    /// batch larger than the requested limit, which would corrupt shard
    /// merges if accepted.
    Malformed,
    /// The crawling *process* died after serving `after_n_pages` pages — a
    /// simulated crash injected by a [`KillSwitch`]. Unlike every other
    /// kind this is not a property of the endpoint: it aborts the whole
    /// crawl (no retry, no degrade-with-gaps) and is what the
    /// checkpoint/resume machinery recovers from.
    Killed {
        /// The page budget the kill switch was armed with.
        after_n_pages: u64,
    },
}

impl FaultKind {
    /// True if retrying the same request can ever succeed.
    pub fn is_retryable(self) -> bool {
        !matches!(self, FaultKind::PermanentHole | FaultKind::Killed { .. })
    }

    /// The server-requested wait, if this fault carries one.
    pub fn retry_after_ms(self) -> Option<u64> {
        match self {
            FaultKind::RateLimited { retry_after_ms } => Some(retry_after_ms),
            _ => None,
        }
    }

    /// Short stable label for reports ("rate-limited", "timeout", ...).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::RateLimited { .. } => "rate-limited",
            FaultKind::Timeout => "timeout",
            FaultKind::ServerError => "server-error",
            FaultKind::PermanentHole => "permanent-hole",
            FaultKind::Malformed => "malformed",
            FaultKind::Killed { .. } => "killed",
        }
    }

    /// Stable snake_case key for metric names ("rate_limited", ...) — the
    /// counter-name counterpart of [`FaultKind::label`].
    pub fn metric_key(self) -> &'static str {
        match self {
            FaultKind::RateLimited { .. } => "rate_limited",
            FaultKind::Timeout => "timeout",
            FaultKind::ServerError => "server_error",
            FaultKind::PermanentHole => "permanent_hole",
            FaultKind::Malformed => "malformed",
            FaultKind::Killed { .. } => "killed",
        }
    }
}

/// A failure of one page request, classified by [`FaultKind`]. The crawler
/// retries the transient kinds up to its configured budget (accounting for
/// every attempt and every virtual millisecond of backoff) and turns the
/// permanent ones into recorded gaps or hard errors depending on its
/// failure policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageError {
    /// Which source failed (its [`PagedSource::source_name`]).
    pub source: &'static str,
    /// The item offset of the failed request.
    pub offset: usize,
    /// What kind of failure this is.
    pub kind: FaultKind,
    /// Human-readable cause.
    pub message: String,
}

impl PageError {
    /// A typed page error.
    pub fn new(
        kind: FaultKind,
        source: &'static str,
        offset: usize,
        message: impl Into<String>,
    ) -> PageError {
        PageError {
            source,
            offset,
            kind,
            message: message.into(),
        }
    }

    /// A rate-limit error carrying the server's requested wait.
    pub fn rate_limited(
        source: &'static str,
        offset: usize,
        retry_after_ms: u64,
        message: impl Into<String>,
    ) -> PageError {
        PageError::new(
            FaultKind::RateLimited { retry_after_ms },
            source,
            offset,
            message,
        )
    }

    /// A timeout error.
    pub fn timeout(source: &'static str, offset: usize, message: impl Into<String>) -> PageError {
        PageError::new(FaultKind::Timeout, source, offset, message)
    }

    /// A transient 5xx-style server error.
    pub fn server_error(
        source: &'static str,
        offset: usize,
        message: impl Into<String>,
    ) -> PageError {
        PageError::new(FaultKind::ServerError, source, offset, message)
    }

    /// A permanent hole: the range can never be fetched.
    pub fn permanent_hole(
        source: &'static str,
        offset: usize,
        message: impl Into<String>,
    ) -> PageError {
        PageError::new(FaultKind::PermanentHole, source, offset, message)
    }

    /// A malformed/untrustworthy response.
    pub fn malformed(source: &'static str, offset: usize, message: impl Into<String>) -> PageError {
        PageError::new(FaultKind::Malformed, source, offset, message)
    }

    /// A simulated process death from a tripped [`KillSwitch`].
    pub fn killed(source: &'static str, offset: usize, after_n_pages: u64) -> PageError {
        PageError::new(
            FaultKind::Killed { after_n_pages },
            source,
            offset,
            format!("injected process death after {after_n_pages} served pages"),
        )
    }
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} page at offset {} failed ({}): {}",
            self.source,
            self.offset,
            self.kind.label(),
            self.message
        )
    }
}

impl std::error::Error for PageError {}

/// A paged query endpoint with a stable item order.
///
/// Offsets are item cursors (not page numbers): `fetch(offset, limit)`
/// returns up to `limit` items starting at the `offset`-th item of the
/// stable ordering. Endpoints may return fewer than `limit` items (server
/// page caps); callers advance the cursor by the number of items actually
/// returned. Implementations must be cheap to query concurrently — the
/// sharded crawler calls `fetch` from multiple threads.
pub trait PagedSource {
    /// The item type this source serves.
    type Item;

    /// A short stable name for reports and errors ("subgraph", "txlist",
    /// "market").
    fn source_name(&self) -> &'static str;

    /// Total number of items, if the endpoint exposes it cheaply. Sources
    /// that report a total can be sharded by page range across threads;
    /// sources that don't are drained through a sequential cursor walk.
    fn total_hint(&self) -> Option<usize>;

    /// Fetches up to `limit` items starting at item `offset`.
    fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<Self::Item>, PageError>;
}

impl<S: PagedSource> PagedSource for &S {
    type Item = S::Item;
    fn source_name(&self) -> &'static str {
        (**self).source_name()
    }
    fn total_hint(&self) -> Option<usize> {
        (**self).total_hint()
    }
    fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<Self::Item>, PageError> {
        (**self).fetch(offset, limit)
    }
}

/// A key of a keyed crawl (one `txlist` per address). The hash must be
/// stable across runs and platforms: it seeds the key's derived fault
/// profile ([`FaultProfile::derive_keyed`]), never a `HashMap`.
pub trait ShardKey {
    /// A stable 64-bit hash of the key.
    fn shard_hash(&self) -> u64;
}

impl ShardKey for Address {
    fn shard_hash(&self) -> u64 {
        // FNV-1a over the address bytes: stable and cheap.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.0 {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
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

/// splitmix64 finalizer: turns a structured input into a well-mixed word.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One million — fault probabilities are expressed in parts per million so
/// profiles stay integral (and therefore `Eq` and exactly serializable).
pub const PPM: u32 = 1_000_000;

/// A deterministic fault injection plan for one source. All decisions are
/// pure functions of `(seed, offset)`, so the same profile produces the
/// same faults at the same offsets regardless of thread count, retry
/// interleaving, or wall-clock — chaos runs are byte-reproducible.
///
/// Probabilities are per *offset* in parts per million ([`PPM`]); at a
/// selected offset the fault repeats for `*_burst` consecutive attempts
/// (rate-limit bursts, timeout clusters) before the endpoint recovers.
/// `holes` are offset ranges that fail permanently on every attempt.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Seed for every per-offset decision.
    pub seed: u64,
    /// Probability (ppm) that an offset hits a rate limit.
    pub rate_limited_ppm: u32,
    /// Consecutive rate-limited attempts at a selected offset.
    pub rate_limit_burst: u32,
    /// The `retry_after` the simulated throttle asks for.
    pub retry_after_ms: u64,
    /// Probability (ppm) that an offset times out.
    pub timeout_ppm: u32,
    /// Consecutive timeouts at a selected offset (a timeout cluster).
    pub timeout_burst: u32,
    /// Probability (ppm) of a transient 5xx.
    pub server_error_ppm: u32,
    /// Consecutive 5xx responses at a selected offset.
    pub server_error_burst: u32,
    /// Probability (ppm) that a page comes back short/truncated (lossless:
    /// the cursor walk re-fetches the remainder, it just costs more pages).
    pub truncate_ppm: u32,
    /// Probability (ppm) that the endpoint over-delivers — returns more
    /// items than the requested limit, which the crawler must classify as
    /// [`FaultKind::Malformed`] instead of corrupting its shard merge.
    pub oversize_ppm: u32,
    /// Offset ranges `[start, end)` that permanently fail every request
    /// touching them.
    pub holes: Vec<(usize, usize)>,
}

impl FaultProfile {
    /// A fault-free profile with the given seed.
    pub fn new(seed: u64) -> FaultProfile {
        FaultProfile {
            seed,
            ..FaultProfile::default()
        }
    }

    /// Adds rate-limit bursts.
    pub fn with_rate_limits(mut self, ppm: u32, burst: u32, retry_after_ms: u64) -> FaultProfile {
        self.rate_limited_ppm = ppm;
        self.rate_limit_burst = burst;
        self.retry_after_ms = retry_after_ms;
        self
    }

    /// Adds timeout clusters.
    pub fn with_timeouts(mut self, ppm: u32, burst: u32) -> FaultProfile {
        self.timeout_ppm = ppm;
        self.timeout_burst = burst;
        self
    }

    /// Adds transient server errors.
    pub fn with_server_errors(mut self, ppm: u32, burst: u32) -> FaultProfile {
        self.server_error_ppm = ppm;
        self.server_error_burst = burst;
        self
    }

    /// Adds short/truncated pages.
    pub fn with_truncation(mut self, ppm: u32) -> FaultProfile {
        self.truncate_ppm = ppm;
        self
    }

    /// Adds over-delivering (malformed) pages.
    pub fn with_oversize(mut self, ppm: u32) -> FaultProfile {
        self.oversize_ppm = ppm;
        self
    }

    /// Adds a permanent hole over `[start, end)`.
    pub fn with_hole(mut self, start: usize, end: usize) -> FaultProfile {
        self.holes.push((start, end));
        self
    }

    /// A named profile for the CLI's `--chaos` flag. Bursts stay within the
    /// default retry budget (3) except where the point is to exhaust it.
    ///
    /// Known names: `none`, `flaky`, `rate-limit-storm`, `timeouts`,
    /// `holes`, `mixed`.
    pub fn named(name: &str, seed: u64) -> Option<FaultProfile> {
        Some(match name {
            "none" => FaultProfile::new(seed),
            "flaky" => FaultProfile::new(seed).with_server_errors(150_000, 2),
            "rate-limit-storm" => FaultProfile::new(seed).with_rate_limits(400_000, 3, 750),
            "timeouts" => FaultProfile::new(seed).with_timeouts(250_000, 2),
            "holes" => FaultProfile::new(seed)
                .with_hole(48, 80)
                .with_hole(512, 560)
                .with_server_errors(50_000, 1),
            "mixed" => FaultProfile::new(seed)
                .with_rate_limits(150_000, 2, 500)
                .with_timeouts(100_000, 2)
                .with_server_errors(100_000, 1)
                .with_truncation(100_000)
                .with_hole(100, 140),
            _ => return None,
        })
    }

    /// The names [`FaultProfile::named`] accepts, for usage messages.
    pub const NAMED: &'static [&'static str] = &[
        "none",
        "flaky",
        "rate-limit-storm",
        "timeouts",
        "holes",
        "mixed",
    ];

    /// This profile re-seeded for a named source, so wrapped sources do not
    /// fault in lockstep at the same offsets.
    pub fn derive(&self, tag: &str) -> FaultProfile {
        FaultProfile {
            seed: mix64(self.seed ^ fnv1a(tag.as_bytes())),
            ..self.clone()
        }
    }

    /// [`FaultProfile::derive`] further specialized by a shard-key hash —
    /// one independent fault stream per keyed source (per address).
    pub fn derive_keyed(&self, tag: &str, key_hash: u64) -> FaultProfile {
        FaultProfile {
            seed: mix64(self.seed ^ fnv1a(tag.as_bytes()) ^ key_hash.rotate_left(17)),
            ..self.clone()
        }
    }

    /// The hole covering any part of `[offset, offset + limit)`, if one
    /// exists.
    fn hole_over(&self, offset: usize, limit: usize) -> Option<(usize, usize)> {
        let end = offset.saturating_add(limit);
        self.holes
            .iter()
            .copied()
            .find(|&(lo, hi)| offset < hi && end > lo)
    }

    /// The per-offset decision bucket in `[0, PPM)`.
    fn bucket(&self, offset: usize) -> u32 {
        (mix64(self.seed ^ (offset as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % u64::from(PPM))
            as u32
    }

    /// The transient fault (kind + burst length) injected at `offset`, if
    /// any. Exactly one category can be selected per offset.
    fn transient_at(&self, offset: usize) -> Option<(FaultKind, u32)> {
        let b = self.bucket(offset);
        let mut acc = self.rate_limited_ppm;
        if b < acc {
            return Some((
                FaultKind::RateLimited {
                    retry_after_ms: self.retry_after_ms,
                },
                self.rate_limit_burst,
            ));
        }
        acc += self.timeout_ppm;
        if b < acc {
            return Some((FaultKind::Timeout, self.timeout_burst));
        }
        acc += self.server_error_ppm;
        if b < acc {
            return Some((FaultKind::ServerError, self.server_error_burst));
        }
        None
    }

    /// True if the page at `offset` comes back truncated.
    fn truncates_at(&self, offset: usize) -> bool {
        let b = self.bucket(offset);
        let lo = self.rate_limited_ppm + self.timeout_ppm + self.server_error_ppm;
        b >= lo && b < lo + self.truncate_ppm
    }

    /// True if the page at `offset` over-delivers.
    fn oversizes_at(&self, offset: usize) -> bool {
        let b = self.bucket(offset);
        let lo =
            self.rate_limited_ppm + self.timeout_ppm + self.server_error_ppm + self.truncate_ppm;
        b >= lo && b < lo + self.oversize_ppm
    }
}

/// A process-wide page budget simulating crash death mid-crawl: after
/// `after_n_pages` pages have been served (across *every* source sharing
/// the switch), each subsequent fetch fails with [`FaultKind::Killed`].
///
/// One switch is shared by all of a collection's wrapped sources, because a
/// process death is global — it does not respect source boundaries. At one
/// worker thread the kill lands after exactly `after_n_pages` pages; under
/// concurrency a handful of in-flight fetches may still land after the
/// budget is spent (just like real crashes, which are not synchronized with
/// page boundaries either).
#[derive(Debug)]
pub struct KillSwitch {
    after_n_pages: u64,
    served: AtomicU64,
}

impl KillSwitch {
    /// A switch that trips after `after_n_pages` successfully served pages.
    pub fn new(after_n_pages: u64) -> Arc<KillSwitch> {
        Arc::new(KillSwitch {
            after_n_pages,
            served: AtomicU64::new(0),
        })
    }

    /// The page budget this switch was armed with.
    pub fn after_n_pages(&self) -> u64 {
        self.after_n_pages
    }

    /// Pages served so far across all sources sharing the switch.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// True once the budget is exhausted — every fetch from here on dies.
    pub fn tripped(&self) -> bool {
        self.served() >= self.after_n_pages
    }

    /// Records one successfully served page.
    fn record_page(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }
}

/// A chaos wrapper injecting the faults of a [`FaultProfile`] into any
/// [`PagedSource`]. Deterministic under any thread interleaving: fault
/// selection is a pure function of `(seed, offset)` and burst exhaustion is
/// tracked per offset, never globally.
pub struct ChaosSource<S> {
    inner: S,
    profile: FaultProfile,
    attempts: Mutex<HashMap<usize, u32>>,
    kill: Option<Arc<KillSwitch>>,
}

impl<S> ChaosSource<S> {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: S, profile: FaultProfile) -> ChaosSource<S> {
        ChaosSource {
            inner,
            profile,
            attempts: Mutex::new(HashMap::new()),
            kill: None,
        }
    }

    /// Wraps `inner` with a fault plan plus an optional shared kill switch.
    /// Pass the same `Arc` to every source of a collection so the simulated
    /// process death is global, like the real thing.
    pub fn with_kill_switch(
        inner: S,
        profile: FaultProfile,
        kill: Option<Arc<KillSwitch>>,
    ) -> ChaosSource<S> {
        ChaosSource {
            inner,
            profile,
            attempts: Mutex::new(HashMap::new()),
            kill,
        }
    }

    /// The wrapped profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }
}

impl<S: PagedSource> PagedSource for ChaosSource<S> {
    type Item = S::Item;

    fn source_name(&self) -> &'static str {
        self.inner.source_name()
    }

    fn total_hint(&self) -> Option<usize> {
        self.inner.total_hint()
    }

    fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<Self::Item>, PageError> {
        let name = self.inner.source_name();
        if let Some(kill) = &self.kill {
            if kill.tripped() {
                return Err(PageError::killed(name, offset, kill.after_n_pages()));
            }
        }
        if let Some((lo, hi)) = self.profile.hole_over(offset, limit) {
            return Err(PageError::permanent_hole(
                name,
                offset,
                format!("injected permanent hole over offsets {lo}..{hi}"),
            ));
        }
        if let Some((kind, burst)) = self.profile.transient_at(offset) {
            let mut attempts = self.attempts.lock().expect("attempt log poisoned");
            let n = attempts.entry(offset).or_insert(0);
            if *n < burst {
                *n = n.saturating_add(1);
                let msg = format!("injected {} (attempt {n} of burst {burst})", kind.label());
                return Err(PageError::new(kind, name, offset, msg));
            }
        }
        if self.profile.oversizes_at(offset) {
            // A misbehaving endpoint that over-delivers: hand back more
            // genuine items than the caller asked for (when available) and
            // let the crawler's limit check catch the corruption.
            let batch = self
                .inner
                .fetch(offset, limit.saturating_mul(2).max(limit + 1))?;
            if let Some(kill) = &self.kill {
                kill.record_page();
            }
            return Ok(batch);
        }
        let mut batch = self.inner.fetch(offset, limit)?;
        if self.profile.truncates_at(offset) && batch.items.len() > 1 {
            // Short page: drop the tail; the dropped items remain fetchable
            // at later offsets, so this is lossless but costs extra pages.
            batch.items.truncate(batch.items.len() / 2);
            batch.has_more = true;
        }
        if let Some(kill) = &self.kill {
            kill.record_page();
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Numbers(usize);

    impl PagedSource for Numbers {
        type Item = usize;
        fn source_name(&self) -> &'static str {
            "numbers"
        }
        fn total_hint(&self) -> Option<usize> {
            Some(self.0)
        }
        fn fetch(&self, offset: usize, limit: usize) -> Result<PagedBatch<usize>, PageError> {
            let end = (offset + limit).min(self.0);
            Ok(PagedBatch {
                items: (offset..end).collect(),
                has_more: end < self.0,
            })
        }
    }

    #[test]
    fn flaky_source_fails_then_recovers_per_offset() {
        let flaky = ChaosSource::new(Numbers(10), FaultProfile::new(0).with_server_errors(PPM, 2));
        assert!(flaky.fetch(0, 5).is_err());
        assert!(flaky.fetch(0, 5).is_err());
        let batch = flaky.fetch(0, 5).expect("third attempt succeeds");
        assert_eq!(batch.items, vec![0, 1, 2, 3, 4]);
        assert!(batch.has_more);
        // A different offset starts its own failure budget.
        assert!(flaky.fetch(5, 5).is_err());
    }

    #[test]
    fn flaky_errors_are_typed_server_errors() {
        let flaky = ChaosSource::new(Numbers(10), FaultProfile::new(0).with_server_errors(PPM, 1));
        let err = flaky.fetch(0, 5).unwrap_err();
        assert_eq!(err.kind, FaultKind::ServerError);
        assert!(err.kind.is_retryable());
    }

    #[test]
    fn shard_hash_is_stable_and_spread() {
        let a = Address::derive(b"a").shard_hash();
        let b = Address::derive(b"b").shard_hash();
        assert_ne!(a, b);
        assert_eq!(a, Address::derive(b"a").shard_hash(), "stable across calls");
    }

    #[test]
    fn holes_fail_permanently_and_report_the_range() {
        let chaos = ChaosSource::new(Numbers(100), FaultProfile::new(7).with_hole(10, 20));
        // Any request touching the hole fails, forever.
        for _ in 0..5 {
            let err = chaos.fetch(15, 5).unwrap_err();
            assert_eq!(err.kind, FaultKind::PermanentHole);
            assert!(!err.kind.is_retryable());
        }
        // Overlap from below also fails; disjoint requests succeed.
        assert!(chaos.fetch(5, 6).is_err());
        assert!(chaos.fetch(20, 5).is_ok());
        assert!(chaos.fetch(0, 10).is_ok());
    }

    #[test]
    fn rate_limit_bursts_carry_retry_after_and_clear() {
        let profile = FaultProfile::new(3).with_rate_limits(PPM, 2, 1234);
        let chaos = ChaosSource::new(Numbers(10), profile);
        for _ in 0..2 {
            let err = chaos.fetch(0, 5).unwrap_err();
            assert_eq!(err.kind.retry_after_ms(), Some(1234));
        }
        assert!(
            chaos.fetch(0, 5).is_ok(),
            "burst exhausted, endpoint recovers"
        );
    }

    #[test]
    fn truncated_pages_are_short_but_lossless() {
        let profile = FaultProfile::new(11).with_truncation(PPM);
        let chaos = ChaosSource::new(Numbers(10), profile);
        let batch = chaos.fetch(0, 8).unwrap();
        assert_eq!(batch.items, vec![0, 1, 2, 3]);
        assert!(batch.has_more, "truncation must not end the cursor walk");
        // The dropped tail is still fetchable at its own offset.
        let rest = chaos.fetch(4, 2).unwrap();
        assert_eq!(rest.items[0], 4);
    }

    #[test]
    fn oversized_pages_exceed_the_requested_limit() {
        let profile = FaultProfile::new(1).with_oversize(PPM);
        let chaos = ChaosSource::new(Numbers(100), profile);
        let batch = chaos.fetch(0, 5).unwrap();
        assert!(batch.items.len() > 5, "endpoint over-delivers");
    }

    #[test]
    fn fault_decisions_are_deterministic_per_offset() {
        let make = || {
            ChaosSource::new(
                Numbers(1000),
                FaultProfile::new(99)
                    .with_rate_limits(200_000, 1, 10)
                    .with_timeouts(200_000, 1)
                    .with_server_errors(200_000, 1),
            )
        };
        let a = make();
        let b = make();
        for offset in (0..1000).step_by(13) {
            let ra = a.fetch(offset, 13).map_err(|e| e.kind);
            let rb = b.fetch(offset, 13).map_err(|e| e.kind);
            assert_eq!(ra.is_ok(), rb.is_ok(), "offset {offset}");
            if let (Err(ka), Err(kb)) = (ra, rb) {
                assert_eq!(ka, kb, "offset {offset}");
            }
        }
    }

    #[test]
    fn derived_profiles_differ_per_source_and_key() {
        let base = FaultProfile::new(42).with_timeouts(500_000, 1);
        let a = base.derive("subgraph");
        let b = base.derive("market");
        assert_ne!(a.seed, b.seed);
        assert_ne!(
            base.derive_keyed("txlist", 1).seed,
            base.derive_keyed("txlist", 2).seed
        );
        // Re-deriving is stable.
        assert_eq!(a, base.derive("subgraph"));
    }

    #[test]
    fn kill_switch_trips_after_the_page_budget() {
        let kill = KillSwitch::new(3);
        let chaos =
            ChaosSource::with_kill_switch(Numbers(100), FaultProfile::new(0), Some(kill.clone()));
        for i in 0..3 {
            assert!(chaos.fetch(i * 5, 5).is_ok(), "page {i} within budget");
        }
        assert!(kill.tripped());
        let err = chaos.fetch(15, 5).unwrap_err();
        assert_eq!(err.kind, FaultKind::Killed { after_n_pages: 3 });
        assert!(!err.kind.is_retryable(), "a dead process cannot retry");
        assert_eq!(err.kind.label(), "killed");
        // Dead is dead: every subsequent fetch fails too.
        assert!(chaos.fetch(0, 5).is_err());
    }

    #[test]
    fn kill_switch_is_global_across_sources() {
        let kill = KillSwitch::new(2);
        let a =
            ChaosSource::with_kill_switch(Numbers(50), FaultProfile::new(1), Some(kill.clone()));
        let b = ChaosSource::with_kill_switch(Numbers(50), FaultProfile::new(2), Some(kill));
        assert!(a.fetch(0, 5).is_ok());
        assert!(b.fetch(0, 5).is_ok());
        // The budget is shared: the process is dead for *both* sources.
        assert!(a.fetch(5, 5).is_err());
        assert!(b.fetch(5, 5).is_err());
    }

    #[test]
    fn failed_fetches_do_not_consume_the_kill_budget() {
        let kill = KillSwitch::new(1);
        let chaos = ChaosSource::with_kill_switch(
            Numbers(50),
            FaultProfile::new(0).with_hole(10, 20),
            Some(kill.clone()),
        );
        assert!(chaos.fetch(10, 5).is_err(), "hole fails");
        assert_eq!(kill.served(), 0, "a failed page is not a served page");
        assert!(chaos.fetch(0, 5).is_ok());
        assert!(chaos.fetch(20, 5).is_err(), "budget spent, process dies");
    }

    #[test]
    fn named_profiles_resolve_and_unknown_is_rejected() {
        for name in FaultProfile::NAMED {
            assert!(FaultProfile::named(name, 1).is_some(), "{name}");
        }
        assert!(FaultProfile::named("frobnicate", 1).is_none());
    }
}

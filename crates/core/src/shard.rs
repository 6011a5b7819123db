//! The one scheduler behind every parallel loop in this crate: the crawl,
//! the index builds and the sharded §4 passes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Blocks per worker. Finer blocks let idle workers take over more of a
/// skewed input; one item per claim slowed the cheap per-domain detection.
const BLOCKS_PER_WORKER: usize = 16;

/// The most workers one call runs, whatever thread count it is handed, so
/// no caller can make it start thousands of OS threads. The serving
/// daemon caps its worker pool at the same count.
pub const MAX_WORKERS: usize = 64;

/// Maps `f` over `items` on up to `min(threads, items.len(), 64)` scoped
/// workers, the calling thread among them; the result is
/// `items.iter().map(f).collect()` at any thread count. Workers claim contiguous blocks in input order from one
/// counter and write each result into its item's slot, so a worker held up
/// by one expensive item leaves the rest to the others: skewed work
/// balances itself, without a cost hint. One thread maps inline.
pub fn shard_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(MAX_WORKERS).clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let block = items.len().div_ceil(threads * BLOCKS_PER_WORKER);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    // The counter publishes no data — results reach the caller through the
    // slots and the scope's join — so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let worker = || loop {
        let start = next.fetch_add(block, Ordering::Relaxed);
        if start >= items.len() {
            break;
        }
        let end = (start + block).min(items.len());
        for (item, slot) in items[start..end].iter().zip(&slots[start..end]) {
            let _ = slot.set(f(item));
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every block was claimed and mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 7, 16, 2000] {
            assert_eq!(shard_map(&items, threads, |x| x * 3), expect);
        }
        let empty: Vec<u64> = Vec::new();
        assert!(shard_map(&empty, 4, |x| *x).is_empty());
    }

    #[test]
    fn shard_map_runs_at_most_max_workers_threads() {
        let items: Vec<u64> = (0..1000).collect();
        let workers: std::collections::HashSet<std::thread::ThreadId> =
            shard_map(&items, 2000, |_| std::thread::current().id())
                .into_iter()
                .collect();
        assert!(
            workers.len() <= MAX_WORKERS,
            "{} workers ran",
            workers.len()
        );
    }
}

//! The one scheduler behind every parallel loop in this crate: the crawl,
//! the index builds, the split dataset decode, the sharded §4 passes and
//! the source views folded beside the world's replay. [`shard_map`]
//! spreads one loop over workers, [`each_part`] hands the disjoint parts
//! of one output to workers of their own, [`join`] runs two pieces of
//! work that share no output side by side, and [`fold_beside`] folds what
//! one piece of work produces on a worker while it runs. Every thread this
//! crate starts is started here, and every worker count is sized here.
//!
//! Each call starts at most [`MAX_WORKERS`] threads. The arms of a
//! [`join`] may each run a sharded loop at the caller's full thread count
//! (whichever arm ends first leaves its cores to the other's loop), so a
//! join whose two arms both shard has up to `2 × MAX_WORKERS` threads
//! alive: the caller, the join's worker, and up to `MAX_WORKERS - 1` of
//! each arm's loop. No join in this crate nests inside another's arm.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Mutex, OnceLock};

/// Blocks per worker. Finer blocks let idle workers take over more of a
/// skewed input; one item per claim slowed the cheap per-domain detection.
const BLOCKS_PER_WORKER: usize = 16;

/// The most workers one call runs, whatever thread count it is handed, so
/// no caller can make it start thousands of OS threads. The serving
/// daemon caps its worker pool at the same count.
pub const MAX_WORKERS: usize = 64;

/// How many workers a loop over `items` items runs at `threads`: at most
/// `threads`, [`MAX_WORKERS`] and `items`, and at least one.
pub(crate) fn workers(items: usize, threads: usize) -> usize {
    threads.min(MAX_WORKERS).clamp(1, items.max(1))
}

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
    let threads = workers(items.len(), threads);
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

/// Runs `task` on each of `parts` — disjoint pieces of one output, such as
/// the runs of a preallocated vector cut with `split_at_mut` — through
/// [`shard_map`] at `threads`, so a caller that cuts [`workers`] parts
/// gives each part a worker of its own. Returns the error of the first
/// failing part in part order: the error a one-thread run over the parts
/// in order stops at.
pub(crate) fn each_part<P, E>(
    parts: Vec<P>,
    threads: usize,
    task: impl Fn(P) -> Result<(), E> + Sync,
) -> Result<(), E>
where
    P: Send,
    E: Send + Sync,
{
    // `shard_map` hands each worker a shared reference; the mutex lets the
    // one worker that maps a part take it by value.
    let parts: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    shard_map(&parts, threads, |part| {
        let part = part.lock().expect("never held across a task").take();
        task(part.expect("shard_map maps each item once"))
    })
    .into_iter()
    .collect()
}

/// Runs `a` and `b` and returns both results. With `threads > 1`, `b` runs
/// on one scoped worker while the calling thread runs `a`; otherwise both
/// run inline on the calling thread, `a` first, and nothing is spawned. A
/// panic in either arm reaches the caller once both arms have ended.
///
/// A worker arm that records spans takes a [`Metrics::fork`] of the
/// caller's handle, so its spans nest under the ones open at the join.
///
/// [`Metrics::fork`]: ens_obs::Metrics::fork
pub fn join<RA, RB>(
    threads: usize,
    a: impl FnOnce() -> RA,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RB: Send,
{
    if threads <= 1 {
        let ra = a();
        return (ra, b());
    }
    std::thread::scope(|scope| {
        let worker = scope.spawn(b);
        let ra = a();
        match worker.join() {
            Ok(rb) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// Where the producer of a [`fold_beside`] puts what it makes.
pub struct Sink<'a, T>(SinkTo<'a, T>);

enum SinkTo<'a, T> {
    /// One thread: fold each item as it is put.
    Inline(&'a mut dyn FnMut(T)),
    /// The worker's bounded queue.
    Queue(SyncSender<T>),
}

impl<T> Sink<'_, T> {
    /// Hands `item` to the fold: folds it now at one thread; otherwise
    /// queues it, waiting while the queue is full. Once the worker has
    /// died, the item is dropped, and its panic reaches the caller of
    /// [`fold_beside`] when the producer returns.
    pub fn put(&mut self, item: T) {
        match &mut self.0 {
            SinkTo::Inline(fold) => fold(item),
            SinkTo::Queue(queue) => {
                let _ = queue.send(item);
            }
        }
    }
}

/// Runs `produce` on the calling thread and folds everything it puts into
/// its [`Sink`] into `state`, in order, then `finish`es the folded state.
/// Returns what `produce` and `finish` return.
///
/// With `threads > 1` the fold and the finish run on one scoped worker fed
/// through a queue of `depth` items, so the producer runs ahead of the
/// fold by at most `depth` items, and whatever `produce` does after it
/// drops its sink runs beside the finish. Otherwise nothing is spawned:
/// each item is folded inline when it is put, and `finish` runs once
/// `produce` has returned. A panic on either side reaches the caller, and
/// neither side waits for the other forever: a producer that unwinds drops
/// its sink, which ends the worker's stream, and a dead worker's sink
/// drops what it is handed.
pub fn fold_beside<T, S, RP, RF>(
    threads: usize,
    depth: usize,
    produce: impl FnOnce(Sink<'_, T>) -> RP,
    mut state: S,
    mut fold: impl FnMut(&mut S, T) + Send,
    finish: impl FnOnce(S) -> RF + Send,
) -> (RP, RF)
where
    T: Send,
    S: Send,
    RF: Send,
{
    if threads <= 1 {
        let mut inline = |item| fold(&mut state, item);
        let rp = produce(Sink(SinkTo::Inline(&mut inline)));
        return (rp, finish(state));
    }
    let (queue, stream) = sync_channel(depth);
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || {
            for item in stream {
                fold(&mut state, item);
            }
            finish(state)
        });
        let rp = produce(Sink(SinkTo::Queue(queue)));
        match worker.join() {
            Ok(rf) => (rp, rf),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
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

    #[test]
    fn a_join_of_two_sharded_arms_runs_at_most_twice_max_workers_threads() {
        let items: Vec<u64> = (0..1000).collect();
        let ids = || shard_map(&items, 2000, |_| std::thread::current().id());
        let (a, b) = join(2000, ids, ids);
        let workers: std::collections::HashSet<std::thread::ThreadId> =
            a.into_iter().chain(b).collect();
        assert!(
            workers.len() <= 2 * MAX_WORKERS,
            "{} workers ran",
            workers.len()
        );
    }

    #[test]
    fn each_part_fills_disjoint_parts_and_reports_the_first_error() {
        for threads in [1, 2, 8, 2000] {
            let mut out = vec![0u64; 100];
            let parts: Vec<(usize, &mut [u64])> = out.chunks_mut(7).enumerate().collect();
            let failed = each_part(parts, threads, |(k, part)| {
                part.iter_mut().for_each(|x| *x = k as u64);
                if k % 4 == 3 {
                    return Err(k);
                }
                Ok(())
            });
            assert_eq!(failed, Err(3), "at {threads} threads");
            let expect: Vec<u64> = (0..100).map(|i| i / 7).collect();
            assert_eq!(out, expect, "every part ran at {threads} threads");
        }
        assert_eq!(each_part(Vec::<u8>::new(), 4, |_| Err(())), Ok(()));
    }

    #[test]
    fn join_at_one_thread_runs_inline_and_in_order() {
        let order = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        let (a, b) = join(
            1,
            || {
                order.lock().unwrap().push("a");
                std::thread::current().id()
            },
            || {
                order.lock().unwrap().push("b");
                std::thread::current().id()
            },
        );
        assert_eq!((a, b), (caller, caller));
        assert_eq!(*order.lock().unwrap(), ["a", "b"]);
    }

    #[test]
    fn join_at_two_threads_returns_both_results() {
        let items: Vec<u64> = (0..100).collect();
        let (sum, ids) = join(
            2,
            || items.iter().sum::<u64>(),
            || (std::thread::current().id(), items.len()),
        );
        assert_eq!(sum, 4950);
        assert_ne!(ids.0, std::thread::current().id(), "b ran on a worker");
        assert_eq!(ids.1, 100);
    }

    #[test]
    fn a_join_inside_a_span_records_the_same_section_at_one_and_two_threads() {
        let section = |threads| {
            let metrics = ens_obs::Metrics::new();
            // At two threads each arm waits inside its span until the other
            // is inside its own, so both children of `study` are open at once.
            let barrier = std::sync::Barrier::new(threads);
            {
                let _study = metrics.span("study");
                let side = metrics.fork();
                join(
                    threads,
                    || {
                        let _span = metrics.span("features");
                        barrier.wait();
                        metrics.add("features/rows", 3);
                    },
                    || {
                        let _span = side.span("losses");
                        barrier.wait();
                        side.observe("losses/senders", 2);
                    },
                );
                let _after = metrics.span("resale");
            }
            metrics.snapshot().deterministic_json()
        };
        let inline = section(1);
        assert!(inline.contains("\"study/losses\""), "{inline}");
        assert!(inline.contains("\"study/resale\""), "{inline}");
        for _ in 0..10 {
            assert_eq!(section(2), inline);
        }
    }

    /// Folds `0..n` into a sum and a list through [`fold_beside`], the
    /// producer counting what it put; returns both sides' results.
    fn fold_numbers(threads: usize, depth: usize, n: u64) -> (u64, (u64, Vec<u64>)) {
        fold_beside(
            threads,
            depth,
            |mut sink| {
                (0..n).for_each(|i| sink.put(i));
                n
            },
            Vec::new(),
            |seen: &mut Vec<u64>, i| seen.push(i),
            |seen| (seen.iter().sum(), seen),
        )
    }

    #[test]
    fn fold_beside_folds_in_order_at_any_thread_count() {
        let expect = (1000, (499_500, (0..1000).collect::<Vec<u64>>()));
        for (threads, depth) in [(1, 1), (2, 1), (2, 4), (8, 64)] {
            assert_eq!(
                fold_numbers(threads, depth, 1000),
                expect,
                "{threads}/{depth}"
            );
        }
    }

    #[test]
    fn fold_beside_at_one_thread_folds_each_item_when_it_is_put() {
        let folded = Mutex::new(0);
        let caller = std::thread::current().id();
        let ((), (ran_on, n)) = fold_beside(
            1,
            1,
            |mut sink| {
                for i in 1..=3 {
                    sink.put(i);
                    assert_eq!(*folded.lock().unwrap(), i, "folded before the next put");
                }
            },
            0,
            |n: &mut usize, i| {
                *n += 1;
                *folded.lock().unwrap() = i;
            },
            |n| (std::thread::current().id(), n),
        );
        assert_eq!((ran_on, n), (caller, 3));
    }

    #[test]
    fn a_panic_on_either_side_of_fold_beside_reaches_the_caller() {
        for threads in [1, 2] {
            // The producer dies with items queued and the fold still running.
            let produced = std::panic::catch_unwind(|| {
                fold_beside(
                    threads,
                    1,
                    |mut sink| {
                        (0..100).for_each(|i| sink.put(i));
                        panic!("producer")
                    },
                    0u64,
                    |sum, i| *sum += i,
                    |sum| sum,
                )
            });
            let message = produced
                .expect_err("a panic in produce")
                .downcast::<&str>()
                .unwrap();
            assert_eq!(*message, "producer", "at {threads} threads");
            // The fold dies early; the producer keeps putting into a full
            // queue whose reader is gone, and must not block on it.
            let folded = std::panic::catch_unwind(|| {
                fold_beside(
                    threads,
                    1,
                    |mut sink| (0..10_000).for_each(|i| sink.put(i)),
                    0u64,
                    |_, i| {
                        if i == 3 {
                            panic!("fold")
                        }
                    },
                    |sum| sum,
                )
            });
            let message = folded
                .expect_err("a panic in fold")
                .downcast::<&str>()
                .unwrap();
            assert_eq!(*message, "fold", "at {threads} threads");
        }
    }

    #[test]
    fn a_panic_in_either_arm_of_a_join_propagates() {
        for threads in [1, 2] {
            let in_a = std::panic::catch_unwind(|| join(threads, || panic!("arm a"), || 1));
            assert!(in_a.is_err(), "a panic in a at {threads} threads");
            let in_b = std::panic::catch_unwind(|| join(threads, || 1, || panic!("arm b")));
            let message = in_b.expect_err("a panic in b").downcast::<&str>().unwrap();
            assert_eq!(*message, "arm b", "at {threads} threads");
        }
    }
}

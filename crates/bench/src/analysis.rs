//! The analysis-substrate bench: times the naive (pre-index) loss and
//! feature passes against their [`AnalysisIndex`]-backed replacements at
//! several thread counts, checks the reports stay byte-identical, and
//! writes the whole trajectory to `BENCH_analysis.json`.

use std::time::Instant;

use ens_dropcatch::{
    analyze_losses, compare_features, naive, run_study_on, AnalysisIndex, Dataset, Metrics,
    StudyConfig,
};
use price_oracle::PriceOracle;
use serde::Serialize;
use workload::WorldConfig;

use crate::Fixture;

/// Wall time of the two hot passes, milliseconds (min over repeats).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PassTimings {
    /// §4.4 loss analysis.
    pub analyze_losses_ms: f64,
    /// §4.3 feature comparison.
    pub compare_features_ms: f64,
    /// Sum of the two.
    pub total_ms: f64,
}

/// One indexed run at a fixed thread count.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ThreadedRun {
    /// Worker threads the passes sharded across.
    pub threads: usize,
    /// Index build time at this thread count, ms (reported separately
    /// from the passes — it is paid once per study, not per pass).
    pub index_build_ms: f64,
    /// The indexed pass timings.
    pub passes: PassTimings,
    /// Naive pass total / indexed pass total.
    pub speedup_vs_naive: f64,
    /// Naive pass total / (index build + indexed pass total).
    pub speedup_incl_index_build: f64,
    /// Whether the full `StudyReport` JSON at this thread count is
    /// byte-identical to the naive study.
    pub report_identical_to_naive: bool,
}

/// The instrumentation-overhead measurement: the full study timed with a
/// disabled metrics handle vs a live one, plus the deterministic section
/// of the live run's snapshot (embedded so `BENCH_analysis.json` carries
/// the per-pass counters alongside the timings).
#[derive(Clone, Debug, Serialize)]
pub struct MetricsOverhead {
    /// How many interleaved repeats each arm's minimum was taken over —
    /// without this the overhead percentage is uninterpretable (a single
    /// interleaved run is noise-dominated and can even go negative).
    pub repeats: usize,
    /// Full `run_study_on` wall time over a prebuilt index, disabled
    /// handle, ms (min over repeats).
    pub unmetered_study_ms: f64,
    /// Same study with a live handle, ms (min over repeats).
    pub metered_study_ms: f64,
    /// `(metered - unmetered) / unmetered`, percent — the acceptance gate
    /// requires this to stay under 5%.
    pub overhead_pct: f64,
    /// The deterministic metrics snapshot (counters, histograms, spans)
    /// from the metered run, as a parsed JSON value.
    pub metrics: serde::value::Value,
}

/// The paper-scale end-to-end measurement: the full
/// crawl → ingest → index → study pipeline on
/// [`WorldConfig::paper_scale`] (3.1M names / ~9.7M transactions — the
/// dataset size the paper studies), with the same thread trajectory and
/// byte-identical-report gate as the standard world.
#[derive(Clone, Debug, Serialize)]
pub struct PaperScaleReport {
    /// Names simulated (3.1M unless scaled down for a smoke run).
    pub names: usize,
    /// World seed.
    pub seed: u64,
    /// Transactions in the crawled dataset.
    pub transactions: usize,
    /// Re-registrations detected.
    pub reregistrations: usize,
    /// Timing repeats (min is reported).
    pub repeats: usize,
    /// Plan + execute the world, ms (measured once — it dominates).
    pub world_build_ms: f64,
    /// Crawl the subgraph/explorer views and ingest the dataset, ms.
    pub crawl_ingest_ms: f64,
    /// The pre-index baseline passes.
    pub naive: PassTimings,
    /// Indexed runs, one per requested thread count.
    pub runs: Vec<ThreadedRun>,
    /// True iff every indexed run's report matched the naive one.
    pub outputs_identical: bool,
    /// Full `run_study_on` over a prebuilt index at the highest thread
    /// count, ms.
    pub study_ms: f64,
    /// world build + crawl/ingest + index build (highest thread count)
    /// + study — the complete pipeline wall time.
    pub end_to_end_ms: f64,
}

/// The `BENCH_analysis.json` document.
#[derive(Clone, Debug, Serialize)]
pub struct AnalysisBenchReport {
    /// World size (names).
    pub names: usize,
    /// World seed.
    pub seed: u64,
    /// Transactions in the crawled dataset.
    pub transactions: usize,
    /// Re-registrations detected (work items for the loss pass).
    pub reregistrations: usize,
    /// Timing repeats (min is reported).
    pub repeats: usize,
    /// The pre-index baseline: full-vector scans, per-call re-pricing,
    /// per-pass re-detection, sequential.
    pub naive: PassTimings,
    /// Indexed runs, one per requested thread count.
    pub runs: Vec<ThreadedRun>,
    /// True iff every indexed run's report matched the naive one.
    pub outputs_identical: bool,
    /// Metered-vs-unmetered study timing and the embedded snapshot.
    pub metrics_overhead: MetricsOverhead,
    /// The paper-scale end-to-end run (present when the bench was invoked
    /// with `--paper-scale`).
    pub paper_scale: Option<PaperScaleReport>,
}

impl AnalysisBenchReport {
    /// The best pass speedup across the thread trajectory.
    pub fn best_speedup(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.speedup_vs_naive)
            .fold(0.0, f64::max)
    }

    /// Serializes (indented) with a trailing newline, ready for disk.
    pub fn to_json(&self) -> String {
        let compact = serde_json::to_string(self).expect("bench report serializes");
        let mut s = indent_json(&compact);
        s.push('\n');
        s
    }
}

/// Re-indents compact JSON (the vendored `serde_json` has no pretty
/// printer). String-aware, two-space indent.
pub(crate) fn indent_json(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in compact.chars() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out
}

/// Min wall-clock over `repeats` runs of `f`, in ms, plus the last result.
fn time_ms<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    assert!(repeats > 0);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..repeats {
        // Drop the previous repeat's result *before* starting the clock —
        // tearing down a paper-scale index costs whole seconds, and that
        // belongs to the previous repeat, not this one.
        drop(out.take());
        let t = Instant::now();
        out = Some(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, out.expect("repeats > 0"))
}

/// Times the two naive passes and serializes the naive study report —
/// the baseline every indexed run is compared against.
fn naive_baseline(
    dataset: &Dataset,
    oracle: &PriceOracle,
    config: &StudyConfig,
    repeats: usize,
) -> (PassTimings, String) {
    let (naive_losses_ms, _) = time_ms(repeats, || naive::analyze_losses(dataset, oracle));
    let (naive_features_ms, _) = time_ms(repeats, || {
        naive::compare_features(dataset, oracle, config.control_seed)
    });
    let naive = PassTimings {
        analyze_losses_ms: naive_losses_ms,
        compare_features_ms: naive_features_ms,
        total_ms: naive_losses_ms + naive_features_ms,
    };
    let naive_report_json =
        serde_json::to_string(&naive::run_study_on(dataset, oracle, config)).expect("serializes");
    (naive, naive_report_json)
}

/// One [`ThreadedRun`] per requested thread count: index build + indexed
/// passes timed min-of-`repeats`, with the byte-identical-report gate
/// against the naive baseline. Returns the runs and the re-registration
/// count.
fn threaded_runs(
    dataset: &Dataset,
    oracle: &PriceOracle,
    config: &StudyConfig,
    naive: &PassTimings,
    naive_report_json: &str,
    thread_counts: &[usize],
    repeats: usize,
) -> (Vec<ThreadedRun>, usize) {
    // Untimed warmup builds, sequential and at the widest fan-out: the
    // first index build after a fresh fixture pays first-touch page
    // faults and cold allocator arenas for gigabytes of index (on the
    // paper-scale world that inflated whichever thread count happened to
    // run first by 5-10x). Paying those process-lifecycle costs here puts
    // every measured thread count on the same warm footing.
    let warm_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let build = |threads| AnalysisIndex::build(dataset, oracle, threads, &Metrics::disabled());
    drop(build(1));
    if warm_threads > 1 {
        drop(build(warm_threads));
    }
    let mut runs = Vec::new();
    let mut reregistrations = 0;
    for &threads in thread_counts {
        let (index_build_ms, index) = time_ms(repeats, || build(threads));
        reregistrations = index.reregistrations().len();

        let (losses_ms, _) = time_ms(repeats, || {
            analyze_losses(dataset, oracle, &index, threads, &Metrics::disabled())
        });
        let (features_ms, _) = time_ms(repeats, || {
            compare_features(
                dataset,
                config.control_seed,
                &index,
                threads,
                &Metrics::disabled(),
            )
        });
        let passes = PassTimings {
            analyze_losses_ms: losses_ms,
            compare_features_ms: features_ms,
            total_ms: losses_ms + features_ms,
        };

        let threaded_config = StudyConfig { threads, ..*config };
        let indexed_report_json = serde_json::to_string(&run_study_on(
            dataset,
            oracle,
            &threaded_config,
            Some(&index),
            &Metrics::disabled(),
        ))
        .expect("serializes");

        runs.push(ThreadedRun {
            threads,
            index_build_ms,
            passes,
            speedup_vs_naive: naive.total_ms / passes.total_ms,
            speedup_incl_index_build: naive.total_ms / (index_build_ms + passes.total_ms),
            report_identical_to_naive: indexed_report_json == naive_report_json,
        });
    }
    (runs, reregistrations)
}

/// Runs the full crawl → ingest → index → study pipeline on the
/// paper-scale world (or a seed-compatible scaled-down smoke of it) and
/// returns the end-to-end section for `BENCH_analysis.json`.
pub fn run_paper_scale_bench(
    names: usize,
    seed: u64,
    thread_counts: &[usize],
    repeats: usize,
) -> PaperScaleReport {
    let config = StudyConfig::default();

    let t = Instant::now();
    let world = WorldConfig::paper_scale()
        .with_names(names)
        .with_seed(seed)
        .build();
    let world_build_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let fixture = Fixture::from_world(world);
    let crawl_ingest_ms = t.elapsed().as_secs_f64() * 1e3;

    let dataset = &fixture.dataset;
    let oracle = fixture.world.oracle();
    let (naive, naive_report_json) = naive_baseline(dataset, oracle, &config, repeats);
    let (runs, reregistrations) = threaded_runs(
        dataset,
        oracle,
        &config,
        &naive,
        &naive_report_json,
        thread_counts,
        repeats,
    );
    let outputs_identical = runs.iter().all(|r| r.report_identical_to_naive);

    // The complete pipeline at the widest fan-out: what one study costs
    // end to end at the paper's dataset size.
    let max_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let index = AnalysisIndex::build(dataset, oracle, max_threads, &Metrics::disabled());
    let study_config = StudyConfig {
        threads: max_threads,
        ..config
    };
    let (study_ms, _) = time_ms(repeats, || {
        run_study_on(
            dataset,
            oracle,
            &study_config,
            Some(&index),
            &Metrics::disabled(),
        )
    });
    let max_run_build = runs
        .iter()
        .find(|r| r.threads == max_threads)
        .map(|r| r.index_build_ms)
        .unwrap_or(0.0);

    PaperScaleReport {
        names,
        seed,
        transactions: dataset.crawl_report.transactions,
        reregistrations,
        repeats,
        world_build_ms,
        crawl_ingest_ms,
        naive,
        runs,
        outputs_identical,
        study_ms,
        end_to_end_ms: world_build_ms + crawl_ingest_ms + max_run_build + study_ms,
    }
}

/// Runs the naive-vs-indexed comparison on a fixture and returns the
/// report for `BENCH_analysis.json`.
pub fn run_analysis_bench(
    fixture: &Fixture,
    thread_counts: &[usize],
    repeats: usize,
) -> AnalysisBenchReport {
    let dataset = &fixture.dataset;
    let oracle = fixture.world.oracle();
    let config = StudyConfig::default();

    let (naive, naive_report_json) = naive_baseline(dataset, oracle, &config, repeats);
    let (runs, reregistrations) = threaded_runs(
        dataset,
        oracle,
        &config,
        &naive,
        &naive_report_json,
        thread_counts,
        repeats,
    );
    let outputs_identical = runs.iter().all(|r| r.report_identical_to_naive);

    let study = |index: &AnalysisIndex, metrics: &Metrics| {
        run_study_on(dataset, oracle, &config, Some(index), metrics)
    };

    // Instrumentation overhead: the same full study (sequential, against a
    // fresh sequential index) with the disabled handle vs a live one. The
    // acceptance gate is < 5% — in practice the cost is a handful of mutex
    // locks per pass plus relaxed atomic increments per window query.
    // Min-of-repeats on a ~100 ms study is noisy at roughly the same
    // magnitude as the overhead itself, so floor the repeat count and
    // interleave the two variants pairwise — back-to-back blocks would
    // fold clock/cache drift between the blocks into the delta.
    let overhead_repeats = repeats.max(5);
    let overhead_index = AnalysisIndex::build(dataset, oracle, 1, &Metrics::disabled());
    let mut unmetered_study_ms = f64::INFINITY;
    let mut metered_study_ms = f64::INFINITY;
    let mut metrics = Metrics::disabled();
    for _ in 0..overhead_repeats {
        let (off_ms, _) = time_ms(1, || study(&overhead_index, &Metrics::disabled()));
        unmetered_study_ms = unmetered_study_ms.min(off_ms);
        // A fresh handle per repeat so the embedded snapshot reflects
        // exactly one study, not `overhead_repeats` of them.
        let (on_ms, handle) = time_ms(1, || {
            let metrics = Metrics::new();
            study(&overhead_index, &metrics);
            metrics
        });
        metered_study_ms = metered_study_ms.min(on_ms);
        metrics = handle;
    }
    let snapshot_json = metrics.snapshot().deterministic_json();
    let metrics_overhead = MetricsOverhead {
        repeats: overhead_repeats,
        unmetered_study_ms,
        metered_study_ms,
        overhead_pct: (metered_study_ms - unmetered_study_ms) / unmetered_study_ms * 100.0,
        metrics: serde_json::from_str(&snapshot_json).expect("snapshot is valid JSON"),
    };

    AnalysisBenchReport {
        names: fixture.world.config.n_names,
        seed: fixture.world.config.seed,
        transactions: dataset.crawl_report.transactions,
        reregistrations,
        repeats,
        naive,
        runs,
        outputs_identical,
        metrics_overhead,
        paper_scale: None,
    }
}

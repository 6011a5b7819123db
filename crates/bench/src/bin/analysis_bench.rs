//! Times the naive vs indexed analysis passes and writes
//! `BENCH_analysis.json`.
//!
//! ```sh
//! cargo run --release -p ens-bench --bin analysis_bench -- \
//!     --names 8000 --seed 48879 --out BENCH_analysis.json
//! ```
//!
//! Exits non-zero if any run's report diverges from the naive baseline,
//! if the best speedup falls below `--min-speedup` (when given), or if
//! the gated run's `speedup_incl_index_build` is at or below
//! `--min-incl-speedup` (when given). The gated run is the widest
//! requested thread count the host has cores for (see
//! [`ens_bench::gated_run`]); every thread count is still recorded.
//!
//! `--paper-scale` appends the end-to-end pipeline run on
//! `WorldConfig::paper_scale` (3.1M names by default; scale with
//! `--paper-names` for smoke runs).

use ens_bench::{
    gate, gated_run, nproc, run_analysis_bench, run_paper_scale_bench, time_ms, write_report,
    Fixture, Flags,
};

fn main() {
    let mut names = 8_000;
    let mut seed = 0xBEEF;
    let mut out: Option<String> = None;
    let mut threads = vec![1, 2, 8];
    let mut repeats = 3;
    let mut min_speedup: Option<f64> = None;
    let mut min_incl_speedup: Option<f64> = None;
    let mut paper_scale = false;
    let mut paper_names = 3_100_000;
    let mut paper_threads = vec![1, 2, 4, 8];
    let mut paper_repeats = 1;
    Flags::new("analysis_bench")
        .count("--names N", &mut names)
        .value("--seed S", &mut seed)
        .optional("--out PATH", &mut out)
        .counts("--threads 1,2,8", &mut threads)
        .count("--repeats R", &mut repeats)
        .optional("--min-speedup X", &mut min_speedup)
        .optional("--min-incl-speedup X", &mut min_incl_speedup)
        .switch("--paper-scale", &mut paper_scale)
        .count("--paper-names N", &mut paper_names)
        .counts("--paper-threads 1,2,4,8", &mut paper_threads)
        .count("--paper-repeats R", &mut paper_repeats)
        .parse_env();

    eprintln!("building the world ({names} names, seed {seed})...");
    let (ms, fixture) = time_ms(|| Fixture::build(names, seed));
    eprintln!(
        "  built in {:.1} s: {} transactions crawled",
        ms / 1e3,
        fixture.dataset.crawl_report.transactions
    );

    eprintln!(
        "benching naive vs indexed at threads {threads:?} ({repeats} repeats, min reported)..."
    );
    let mut report = run_analysis_bench(&fixture, &threads, repeats);

    if paper_scale {
        eprintln!(
            "paper-scale pipeline ({paper_names} names, threads {paper_threads:?}, \
             {paper_repeats} repeats)..."
        );
        let (ms, paper) =
            time_ms(|| run_paper_scale_bench(paper_names, seed, &paper_threads, paper_repeats));
        eprintln!("  paper-scale bench finished in {:.1} s", ms / 1e3);
        report.paper_scale = Some(paper);
    }

    write_report(&report, out.as_deref());

    eprintln!(
        "naive: losses {:.1} ms + features {:.1} ms = {:.1} ms",
        report.naive.analyze_losses_ms, report.naive.compare_features_ms, report.naive.total_ms
    );
    for run in &report.runs {
        eprintln!(
            "  threads {}: index build {:.1} ms, passes {:.1} ms \
             ({:.1}x vs naive; {:.1}x incl. build), identical: {}",
            run.threads,
            run.index_build_ms,
            run.passes.total_ms,
            run.speedup_vs_naive,
            run.speedup_incl_index_build,
            run.report_identical_to_naive
        );
    }

    let oh = &report.metrics_overhead;
    eprintln!(
        "metrics overhead: study {:.1} ms unmetered vs {:.1} ms metered \
         ({:+.2}%, min of {} repeats per arm)",
        oh.unmetered_study_ms, oh.metered_study_ms, oh.overhead_pct, oh.repeats
    );

    if let Some(paper) = &report.paper_scale {
        eprintln!(
            "paper scale: {} names, {} transactions, {} re-registrations",
            paper.names, paper.transactions, paper.reregistrations
        );
        eprintln!(
            "  world build {:.0} ms, crawl+ingest {:.0} ms, naive passes {:.0} ms",
            paper.world_build_ms, paper.crawl_ingest_ms, paper.naive.total_ms
        );
        for run in &paper.runs {
            eprintln!(
                "  threads {}: index build {:.0} ms, passes {:.0} ms \
                 ({:.1}x vs naive; {:.2}x incl. build), identical: {}",
                run.threads,
                run.index_build_ms,
                run.passes.total_ms,
                run.speedup_vs_naive,
                run.speedup_incl_index_build,
                run.report_identical_to_naive
            );
        }
        eprintln!(
            "  study {:.0} ms; end-to-end {:.0} ms",
            paper.study_ms, paper.end_to_end_ms
        );
    }

    gate(
        report.outputs_identical,
        &format!(
            "indexed reports identical to the naive baseline: {}",
            report.outputs_identical
        ),
    );
    if let Some(paper) = &report.paper_scale {
        gate(
            paper.outputs_identical,
            &format!(
                "paper-scale indexed reports identical to the naive baseline: {}",
                paper.outputs_identical
            ),
        );
    }
    if let Some(min) = min_speedup {
        let best = report.best_speedup();
        gate(
            best >= min,
            &format!("best speedup {best:.2}x, floor {min:.2}x"),
        );
    }
    if let Some(min) = min_incl_speedup {
        // At the widest fan-out the host can run at once, the index must
        // pay for itself *including* its own build time.
        let cores = nproc();
        let paper = report
            .paper_scale
            .as_ref()
            .map(|p| ("paper-scale", &p.runs));
        for (label, runs) in std::iter::once(("main-world", &report.runs)).chain(paper) {
            let run = gated_run(runs, cores).expect("the parser rejects an empty thread list");
            gate(
                run.speedup_incl_index_build > min,
                &format!(
                    "{label} speedup incl. index build at {} threads ({cores} cores): \
                     {:.2}x, need > {min:.2}x",
                    run.threads, run.speedup_incl_index_build
                ),
            );
        }
    }
}

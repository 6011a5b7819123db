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
//! the highest-thread run's `speedup_incl_index_build` is at or below
//! `--min-incl-speedup` (when given).
//!
//! `--paper-scale` appends the end-to-end pipeline run on
//! `WorldConfig::paper_scale` (3.1M names by default; scale with
//! `--paper-names` for smoke runs).

use std::time::Instant;

use ens_bench::{run_analysis_bench, run_paper_scale_bench, Fixture};

struct Args {
    names: usize,
    seed: u64,
    out: Option<String>,
    threads: Vec<usize>,
    repeats: usize,
    min_speedup: Option<f64>,
    min_incl_speedup: Option<f64>,
    paper_scale: bool,
    paper_names: usize,
    paper_threads: Vec<usize>,
    paper_repeats: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        names: 8_000,
        seed: 0xBEEF,
        out: None,
        threads: vec![1, 2, 8],
        repeats: 3,
        min_speedup: None,
        min_incl_speedup: None,
        paper_scale: false,
        paper_names: 3_100_000,
        paper_threads: vec![1, 2, 4, 8],
        paper_repeats: 1,
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--names" => parsed.names = next(&mut args, "--names").parse().expect("--names"),
            "--seed" => parsed.seed = next(&mut args, "--seed").parse().expect("--seed"),
            "--out" => parsed.out = Some(next(&mut args, "--out")),
            "--repeats" => {
                parsed.repeats = next(&mut args, "--repeats").parse().expect("--repeats")
            }
            "--min-speedup" => {
                parsed.min_speedup = Some(
                    next(&mut args, "--min-speedup")
                        .parse()
                        .expect("--min-speedup"),
                )
            }
            "--min-incl-speedup" => {
                parsed.min_incl_speedup = Some(
                    next(&mut args, "--min-incl-speedup")
                        .parse()
                        .expect("--min-incl-speedup"),
                )
            }
            "--threads" => {
                parsed.threads = next(&mut args, "--threads")
                    .split(',')
                    .map(|t| t.parse().expect("--threads takes e.g. 1,2,8"))
                    .collect()
            }
            "--paper-scale" => parsed.paper_scale = true,
            "--paper-names" => {
                parsed.paper_names = next(&mut args, "--paper-names")
                    .parse()
                    .expect("--paper-names")
            }
            "--paper-threads" => {
                parsed.paper_threads = next(&mut args, "--paper-threads")
                    .split(',')
                    .map(|t| t.parse().expect("--paper-threads takes e.g. 1,2,4,8"))
                    .collect()
            }
            "--paper-repeats" => {
                parsed.paper_repeats = next(&mut args, "--paper-repeats")
                    .parse()
                    .expect("--paper-repeats")
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: analysis_bench [--names N] [--seed S] [--out PATH] \
                     [--threads 1,2,8] [--repeats R] [--min-speedup X] \
                     [--min-incl-speedup X] [--paper-scale] [--paper-names N] \
                     [--paper-threads 1,2,4,8] [--paper-repeats R]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    parsed
}

fn main() {
    let args = parse_args();

    eprintln!(
        "building the world ({} names, seed {})...",
        args.names, args.seed
    );
    let t0 = Instant::now();
    let fixture = Fixture::build(args.names, args.seed);
    eprintln!(
        "  built in {:.1?}: {} transactions crawled",
        t0.elapsed(),
        fixture.dataset.crawl_report.transactions
    );

    eprintln!(
        "benching naive vs indexed at threads {:?} ({} repeats, min reported)...",
        args.threads, args.repeats
    );
    let mut report = run_analysis_bench(&fixture, &args.threads, args.repeats);

    if args.paper_scale {
        eprintln!(
            "paper-scale pipeline ({} names, threads {:?}, {} repeats)...",
            args.paper_names, args.paper_threads, args.paper_repeats
        );
        let t = Instant::now();
        let paper = run_paper_scale_bench(
            args.paper_names,
            args.seed,
            &args.paper_threads,
            args.paper_repeats,
        );
        eprintln!("  paper-scale bench finished in {:.1?}", t.elapsed());
        report.paper_scale = Some(paper);
    }

    let json = report.to_json();
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json).expect("write bench json");
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }

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

    if !report.outputs_identical {
        eprintln!("FAIL: an indexed report diverged from the naive baseline");
        std::process::exit(1);
    }
    if report
        .paper_scale
        .as_ref()
        .is_some_and(|p| !p.outputs_identical)
    {
        eprintln!("FAIL: a paper-scale indexed report diverged from the naive baseline");
        std::process::exit(1);
    }
    if let Some(min) = args.min_speedup {
        let best = report.best_speedup();
        if best < min {
            eprintln!("FAIL: best speedup {best:.2}x is below the required {min:.2}x");
            std::process::exit(1);
        }
        eprintln!("best speedup {best:.2}x >= required {min:.2}x");
    }
    if let Some(min) = args.min_incl_speedup {
        // The regression gate from the issue: at the widest fan-out the
        // index must pay for itself *including* its own build time.
        let gate = |label: &str, runs: &[ens_bench::ThreadedRun]| {
            let Some(top) = runs.iter().max_by_key(|r| r.threads) else {
                return;
            };
            if top.speedup_incl_index_build <= min {
                eprintln!(
                    "FAIL: {label} speedup incl. index build at {} threads is \
                     {:.2}x, need > {min:.2}x",
                    top.threads, top.speedup_incl_index_build
                );
                std::process::exit(1);
            }
            eprintln!(
                "{label} speedup incl. index build at {} threads: {:.2}x > {min:.2}x",
                top.threads, top.speedup_incl_index_build
            );
        };
        gate("main-world", &report.runs);
        if let Some(paper) = &report.paper_scale {
            gate("paper-scale", &paper.runs);
        }
    }
}

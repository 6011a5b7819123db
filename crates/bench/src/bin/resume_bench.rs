//! Prices crash-safe crawling: sweeps the checkpoint cadence against an
//! uncheckpointed baseline (at a modeled per-page service time — see
//! `ens_bench::resume` for why — and on the zero-latency source, for the
//! in-process cost), runs one kill/resume cycle through the full
//! pipeline, and writes `BENCH_resume.json`.
//!
//! ```sh
//! cargo run --release -p ens-bench --bin resume_bench -- \
//!     --names 4000 --seed 48879 --out BENCH_resume.json
//! ```
//!
//! Exits non-zero if any run's output diverges from the baseline, or if
//! the default-cadence overhead exceeds `--max-overhead-pct` (when given).

use ens_bench::{gate, run_resume_bench, write_report, Flags};

fn main() {
    let mut names = 4_000;
    let mut seed = 0xBEEF;
    let mut out: Option<String> = None;
    let mut cadences = vec![1, 4, 16, 64, 256, 1024];
    let mut repeats = 3;
    let mut service_time_us = 2_000;
    let mut max_overhead_pct: Option<f64> = None;
    Flags::new("resume_bench")
        .count("--names N", &mut names)
        .value("--seed S", &mut seed)
        .optional("--out PATH", &mut out)
        .counts("--cadences 1,16,256", &mut cadences)
        .count("--repeats R", &mut repeats)
        .value("--service-time-us US", &mut service_time_us)
        .optional("--max-overhead-pct X", &mut max_overhead_pct)
        .parse_env();
    let scratch = std::env::temp_dir().join(format!("ens-resume-bench-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    eprintln!(
        "sweeping checkpoint cadences {cadences:?} over a {names}-name world \
         (seed {seed}, {repeats} repeats, {service_time_us} us/page service time)..."
    );
    let report = run_resume_bench(names, seed, &cadences, repeats, service_time_us, &scratch);
    write_report(&report, out.as_deref());

    let sweep = &report.sweep;
    eprintln!(
        "baseline: {:.1} ms for {} pages at {} us/page ({:.1} ms raw, latency model off)",
        sweep.baseline_ms, sweep.pages, sweep.page_service_time_us, sweep.raw_baseline_ms
    );
    for run in &sweep.runs {
        eprintln!(
            "  every {:>5}: {:.1} ms ({:+.2}%); {:.1} ms raw ({:+.1}%); {} segments, identical: {}",
            run.every,
            run.crawl_ms,
            run.overhead_pct,
            run.raw_crawl_ms,
            run.raw_overhead_pct,
            run.checkpoint_writes,
            run.identical
        );
    }
    eprintln!(
        "kill/resume: died at page {} of {} in {:.1} ms, resumed in {:.1} ms \
         splicing {} pages, identical: {}",
        report.resume.killed_after_pages,
        report.resume.total_pages,
        report.resume.killed_attempt_ms,
        report.resume.resume_ms,
        report.resume.pages_spliced,
        report.resume.identical
    );

    std::fs::remove_dir_all(&scratch).ok();
    gate(
        report.outputs_identical,
        &format!(
            "checkpointed and resumed crawls identical to the baseline: {}",
            report.outputs_identical
        ),
    );
    if let Some(max) = max_overhead_pct {
        let got = report.default_overhead_pct;
        // NaN (default cadence missing from --cadences) must also fail.
        gate(
            got <= max,
            &format!(
                "default cadence (every {}) overhead {got:.2}%, ceiling {max:.2}% \
                 (is {} in --cadences?)",
                report.default_every, report.default_every
            ),
        );
    }
}

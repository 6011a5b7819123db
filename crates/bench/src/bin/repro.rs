//! The reproduction harness: builds a large simulated world, runs the full
//! study, prints every table and figure, and emits the paper-vs-measured
//! comparison that EXPERIMENTS.md records.
//!
//! ```sh
//! cargo run --release -p ens-bench --bin repro -- --names 60000 --seed 1
//! ```

use std::time::Instant;

use ens_bench::{compare_to_paper, render_comparison_markdown, Fixture};

fn parse_args() -> (usize, u64) {
    let mut names = 60_000usize;
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--names" => {
                names = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--names needs a number");
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--help" | "-h" => {
                eprintln!("usage: repro [--names N] [--seed S]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    (names, seed)
}

fn main() {
    let (names, seed) = parse_args();

    eprintln!("building the world ({names} names, seed {seed})...");
    let t0 = Instant::now();
    let fixture = Fixture::build(names, seed);
    eprintln!(
        "  built in {:.1?}: {} txs, {} ENS events",
        t0.elapsed(),
        fixture.world.chain().transaction_count(),
        fixture.world.ens().events().len()
    );

    eprintln!("running the study...");
    let t1 = Instant::now();
    let report = fixture.study();
    eprintln!("  analyzed in {:.1?}", t1.elapsed());

    println!("{}", report.render());

    println!("\n== paper vs measured ==");
    let rows = compare_to_paper(&fixture.world, &report);
    println!("{}", render_comparison_markdown(&rows));

    let failing = rows.iter().filter(|r| !r.holds).count();
    if failing > 0 {
        eprintln!("{failing} shape expectations DID NOT hold");
        std::process::exit(1);
    }
    eprintln!("all {} shape expectations hold", rows.len());
}

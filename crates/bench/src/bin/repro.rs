//! The reproduction harness: builds a large simulated world, runs the full
//! study, prints every table and figure, and emits the paper-vs-measured
//! comparison that EXPERIMENTS.md records.
//!
//! ```sh
//! cargo run --release -p ens-bench --bin repro -- --names 60000 --seed 1
//! ```

use ens_bench::{compare_to_paper, render_comparison_markdown, time_ms, Fixture, Flags};

fn main() {
    let mut names = 60_000;
    let mut seed = 1;
    Flags::new("repro")
        .count("--names N", &mut names)
        .value("--seed S", &mut seed)
        .parse_env();

    eprintln!("building the world ({names} names, seed {seed})...");
    let (ms, fixture) = time_ms(|| Fixture::build(names, seed));
    eprintln!(
        "  built in {:.1} s: {} txs, {} ENS events",
        ms / 1e3,
        fixture.world.chain().transaction_count(),
        fixture.world.ens().events().len()
    );

    eprintln!("running the study...");
    let (ms, report) = time_ms(|| fixture.study());
    eprintln!("  analyzed in {:.1} s", ms / 1e3);

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

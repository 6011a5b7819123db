//! Attacker economics: which dropcatching *strategy* pays?
//!
//! Fig 10 of the paper shows that 91% of observed dropcatchers profit.
//! With the simulator we can go one step further and compare strategies the
//! measurement can only observe in aggregate: when in the release window a
//! catcher strikes, and how picky it is about names, determine both its
//! costs (rent + premium) and its expected misdirected income.
//!
//! Strategies compared over the same world:
//! - **sniper**   — catches the moment the premium hits zero, takes
//!   everything (the 20,014-names-on-day-one crowd);
//! - **selective sniper** — same timing, but only high-value names
//!   (dictionary words / high prior income);
//! - **premium whale** — pays up to enter the Dutch auction early on the
//!   very best names (the gno.eth pattern);
//! - **scavenger** — waits a month after the premium, picks leftovers.
//!
//! ```sh
//! cargo run --release --example strategy_economics
//! ```

use ens_dropcatch_suite::analysis::countermeasures::evaluate_countermeasure_with;
use ens_dropcatch_suite::analysis::{
    analyze_losses, detect_all, AnalysisIndex, CrawlConfig, Dataset, Metrics,
};
use ens_dropcatch_suite::lexicon;
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::Duration;
use ens_dropcatch_suite::workload::WorldConfig;

#[derive(Clone, Copy)]
struct Strategy {
    name: &'static str,
    /// Earliest delay after grace end the strategy fires (days).
    min_delay: f64,
    /// Latest delay it still bothers (days).
    max_delay: f64,
    /// Minimum lexical score it demands (see `score`).
    min_score: f64,
}

const STRATEGIES: &[Strategy] = &[
    Strategy {
        name: "sniper (premium end, take all)",
        min_delay: 21.0,
        max_delay: 22.0,
        min_score: 0.0,
    },
    Strategy {
        name: "selective sniper (top names)",
        min_delay: 21.0,
        max_delay: 22.0,
        min_score: 2.0,
    },
    Strategy {
        name: "premium whale (pay to jump)",
        min_delay: 8.0,
        max_delay: 21.0,
        min_score: 2.0,
    },
    Strategy {
        name: "scavenger (a month later)",
        min_delay: 45.0,
        max_delay: 120.0,
        min_score: 0.0,
    },
];

fn score(label: &str) -> f64 {
    let mut s = 0.0;
    if lexicon::is_dictionary_word(label) {
        s += 3.0;
    } else if lexicon::contains_dictionary_word(label) {
        s += 1.0;
    }
    if lexicon::contains_digit(label) {
        s -= 1.0;
    }
    if lexicon::contains_hyphen(label) || lexicon::contains_underscore(label) {
        s -= 2.0;
    }
    s + (10.0 - label.len() as f64).max(0.0) * 0.2
}

fn main() {
    // One shared world: every strategy sees the same market.
    let world = WorldConfig::medium().with_seed(4242).build();
    let subgraph = world.subgraph(SubgraphConfig::lossless());
    let etherscan = world.etherscan();
    let dataset = Dataset::try_collect_with(
        &subgraph,
        &etherscan,
        world.opensea(),
        world.observation_end(),
        &CrawlConfig::default(),
    )
    .expect("clean endpoints cannot fail")
    .0;
    let index = AnalysisIndex::build(&dataset, world.oracle(), 1, &Metrics::disabled());
    let losses = analyze_losses(&dataset, world.oracle(), &index, 1, &Metrics::disabled());
    let rereg = detect_all(&dataset.domains);

    // Index misdirected income by (domain, catch index).
    use std::collections::HashMap;
    let mut income_by_catch: HashMap<_, f64> = HashMap::new();
    for f in &losses.findings {
        *income_by_catch
            .entry((f.label_hash, f.caught_at))
            .or_default() += f.misdirected_usd();
    }

    println!(
        "{} catches observed; {} produced misdirected income\n",
        rereg.len(),
        losses.findings.len()
    );
    println!(
        "{:36} {:>8} {:>12} {:>14} {:>12}",
        "strategy", "catches", "spent (USD)", "income (USD)", "net (USD)"
    );

    for strat in STRATEGIES {
        let mut catches = 0usize;
        let mut spent = 0.0f64;
        let mut income = 0.0f64;
        for r in &rereg {
            // Would this strategy have made this catch? Delay from the
            // auction opening (grace end), in days.
            let delay = r.at.saturating_since(r.grace_end).as_days_f64();
            if delay < strat.min_delay || delay >= strat.max_delay {
                continue;
            }
            let label_score = r
                .name
                .as_ref()
                .map(|n| score(n.label().as_str()))
                .unwrap_or(0.0);
            if label_score < strat.min_score {
                continue;
            }
            catches += 1;
            spent += world
                .oracle()
                .to_usd(r.base_cost + r.premium, r.at)
                .as_dollars_f64();
            income += income_by_catch
                .get(&(r.label_hash, r.at))
                .copied()
                .unwrap_or(0.0);
        }
        println!(
            "{:36} {:>8} {:>12.0} {:>14.0} {:>12.0}",
            strat.name,
            catches,
            spent,
            income,
            income - spent
        );
    }

    // The countermeasure changes the economics: how much of each flow would
    // a history-aware warning stop?
    let report = evaluate_countermeasure_with(&losses, &dataset, &index, Duration::from_days(180));
    println!(
        "\nonly broad, zero-premium sniping nets out positive — a volume play, \
         which is exactly why Fig 5's top addresses hold thousands of catches"
    );
    println!(
        "with a 180-day history-aware warning deployed, {:.0}% of that income \
         disappears (at a {:.2}% false-positive cost to honest users)",
        report.rereg_policy.interception_rate() * 100.0,
        report.rereg_policy.annoyance_rate() * 100.0
    );
}

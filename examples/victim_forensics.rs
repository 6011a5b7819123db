//! Victim forensics: reproduce the paper's case studies
//! (`profittrailer.eth`, `spambot.eth`, `gno.eth`) on simulated data —
//! find a dropcaught domain with misdirected funds and reconstruct its
//! whole timeline from public data only.
//!
//! ```sh
//! cargo run --release --example victim_forensics
//! ```

use ens_dropcatch_suite::analysis::{
    analyze_losses, detect_all, AnalysisIndex, DataSources, Metrics,
};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::workload::WorldConfig;

fn main() {
    let world = WorldConfig::medium().with_seed(1234).build();
    let subgraph = world.subgraph(SubgraphConfig::lossless());
    let etherscan = world.etherscan();
    let sources = DataSources {
        subgraph: &subgraph,
        etherscan: &etherscan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: Default::default(),
    };

    println!("collecting the dataset (subgraph + txlists)...");
    let (dataset, _) = sources
        .collect(&Metrics::disabled(), None, None)
        .expect("clean endpoints cannot fail");
    let index = AnalysisIndex::build(&dataset, world.oracle(), 1, &Metrics::disabled());
    let losses = analyze_losses(&dataset, world.oracle(), &index, 1, &Metrics::disabled());

    // Pick the most damaging finding: the domain whose new owner received
    // the most misdirected USD.
    let worst = losses
        .findings
        .iter()
        .max_by(|a, b| a.misdirected_usd().total_cmp(&b.misdirected_usd()))
        .expect("the default world plants misdirections");

    let name = worst
        .name
        .clone()
        .unwrap_or_else(|| worst.label_hash.to_hex());
    println!("\n=== case study: {name} ===");

    // Reconstruct the registration timeline from the subgraph record.
    let record = subgraph.domain(worst.label_hash).expect("domain indexed");
    println!("\nregistration history:");
    for (i, reg) in record.registrations.iter().enumerate() {
        let expiry = record.expiry_of_registration(i).expect("has expiry");
        println!(
            "  a{}: {} held {} -> {} (paid {} + premium {})",
            i + 1,
            reg.owner,
            reg.registered_at,
            expiry,
            reg.base_cost,
            reg.premium
        );
    }
    for r in detect_all(std::slice::from_ref(record)) {
        println!(
            "  dropcaught {} days after expiry ({} days after the premium ended)",
            r.delay.as_days(),
            r.at.saturating_since(r.premium_end).as_days()
        );
    }

    // The paper's common-sender narrative, per sender.
    println!("\ncommon senders (the c addresses):");
    for s in &worst.senders {
        println!(
            "  c = {}  [{:?}]  sent {} txs to a1 while a1 held the name, \
             then {} txs (${:.0}) to a2 — and never a1 again",
            s.sender, s.kind, s.txs_to_prev, s.txs_to_new, s.usd_to_new
        );
    }
    println!(
        "\nre-registration cost: ${:.0}; misdirected income: ${:.0} — {}",
        worst.reregistration_cost_usd,
        worst.misdirected_usd(),
        if worst.misdirected_usd() > worst.reregistration_cost_usd {
            "the catch paid for itself"
        } else {
            "the catch ran at a loss"
        }
    );

    // Cross-check against the simulator's ground truth (a luxury the paper
    // does not have): was this a planted misdirection?
    let truth = world
        .truth()
        .iter()
        .find(|t| t.label.hash() == worst.label_hash)
        .expect("domain in truth");
    println!(
        "\nground truth: {} misdirected txs planted, ${:.0} total",
        truth.misdirected.len(),
        truth.misdirected.iter().map(|m| m.usd).sum::<f64>()
    );
}

//! Metrics-snapshot validator: checks that an observability snapshot is
//! well-formed and that its counters reconcile with the crawl's own
//! accounting.
//!
//! Two modes:
//!
//! ```sh
//! # Self-contained: run a chaotic metered collection + study in-process,
//! # then reconcile the snapshot against the CrawlReport exactly.
//! cargo run --release --example metrics_reconcile
//!
//! # Validate an existing snapshot written by the CLI's `--metrics-json`:
//! # structural checks only (sections present, histogram shapes coherent,
//! # page/item counters positive and self-consistent).
//! cargo run --release --example metrics_reconcile -- metrics.json
//! ```
//!
//! Exits non-zero on any violated identity, so CI can gate on it.

use ens_dropcatch_suite::analysis::{
    run_study_on, CrawlConfig, DataSources, FailurePolicy, Metrics, StudyConfig,
};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::FaultProfile;
use ens_dropcatch_suite::workload::WorldConfig;
use serde::value::Value;

fn fail(msg: &str) -> ! {
    eprintln!("RECONCILE FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    match std::env::args().nth(1) {
        Some(path) => validate_file(&path),
        None => self_contained(),
    }
}

/// Runs a chaotic metered collection + study and reconciles the snapshot
/// against the `CrawlReport` identity by identity.
fn self_contained() {
    let world = WorldConfig::small().with_names(400).with_seed(88).build();
    let sg = world.subgraph(SubgraphConfig::default());
    let scan = world.etherscan();
    let config = CrawlConfig {
        chaos: FaultProfile::named("mixed", 4242),
        failure: FailurePolicy::degrade(),
        subgraph_page_size: 32,
        txlist_page_size: 16,
        market_page_size: 8,
        ..CrawlConfig::with_threads(4)
    };
    let sources = DataSources {
        subgraph: &sg,
        etherscan: &scan,
        opensea: world.opensea(),
        observation_end: world.observation_end(),
        crawl: config,
    };
    let metrics = Metrics::new();
    let (ds, _) = sources
        .collect(&metrics, None, None)
        .expect("degrade policy completes under chaos");
    run_study_on(&ds, world.oracle(), &StudyConfig::default(), None, &metrics);

    let snap = metrics.snapshot();
    let report = &ds.crawl_report;
    let mut checked = 0usize;
    let mut check = |name: &str, got: u64, want: u64| {
        if got != want {
            fail(&format!("{name}: counter {got} != report {want}"));
        }
        checked += 1;
    };
    for (name, stats) in [
        ("subgraph", &report.subgraph),
        ("txlist", &report.txlist),
        ("market", &report.market),
    ] {
        check(
            name,
            snap.counter(&format!("crawl/{name}/pages")),
            stats.pages as u64,
        );
        check(
            name,
            snap.counter(&format!("crawl/{name}/items")),
            stats.items as u64,
        );
        check(
            name,
            snap.counter(&format!("crawl/{name}/backoff_virtual_ms")),
            stats.backoff_virtual_ms,
        );
        let by_kind = [
            ("rate_limited", stats.retries_by_kind.rate_limited),
            ("timeout", stats.retries_by_kind.timeout),
            ("server_error", stats.retries_by_kind.server_error),
            ("malformed", stats.retries_by_kind.malformed),
        ];
        for (suffix, count) in by_kind {
            check(
                name,
                snap.counter(&format!("crawl/{name}/retries/{suffix}")),
                count as u64,
            );
        }
    }
    let gaps: u64 = ["subgraph", "txlist", "market"]
        .iter()
        .map(|n| snap.counter(&format!("crawl/{n}/gaps")))
        .sum();
    check("gaps", gaps, report.gaps.len() as u64);
    check(
        "collect/domains",
        snap.counter("collect/domains"),
        report.domains as u64,
    );
    check(
        "collect/transactions",
        snap.counter("collect/transactions"),
        report.transactions as u64,
    );

    // The JSON snapshot must parse back and describe the same structure
    // the typed accessors see.
    let parsed: Value =
        serde_json::from_str(&snap.deterministic_json()).expect("snapshot JSON parses");
    validate_deterministic(&parsed);

    println!("all {checked} crawl identities reconcile; snapshot JSON is well-formed");
}

/// Structural validation of a snapshot file written by `--metrics-json`.
fn validate_file(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let parsed: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(&format!("JSON parse: {e:?}")));
    let Value::Map(top) = &parsed else {
        fail("top level is not an object")
    };
    let deterministic = top
        .iter()
        .find(|(k, _)| k == "deterministic")
        .map(|(_, v)| v)
        .unwrap_or_else(|| fail("missing \"deterministic\" section"));
    if !top.iter().any(|(k, _)| k == "wall_clock_ms") {
        fail("missing \"wall_clock_ms\" section");
    }
    validate_deterministic(deterministic);
    println!("{path}: snapshot is well-formed and self-consistent");
}

/// Checks the deterministic section's internal structure: sections
/// present, counters all non-negative integers with at least one
/// positive, histogram shapes coherent, spans well-formed.
///
/// Deliberately *not* enforced here: per-source crawl positivity. An
/// `analyze` snapshot has no crawl counters at all (the dataset came
/// from a file), and a degraded chaos run can legitimately lose every
/// item of one source to a hole. The exact crawl identities are
/// asserted in the self-contained mode, where the `CrawlReport` is in
/// hand to reconcile against.
fn validate_deterministic(v: &Value) {
    let Value::Map(sections) = v else {
        fail("deterministic section is not an object")
    };
    let get = |name: &str| -> &Value {
        sections
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| fail(&format!("missing \"{name}\"")))
    };

    let Value::Map(counters) = get("counters") else {
        fail("counters is not an object")
    };
    if counters.is_empty() {
        fail("counters section is empty");
    }
    let mut any_positive = false;
    for (name, value) in counters.iter() {
        match value {
            Value::Uint(u) => any_positive |= *u > 0,
            Value::Int(i) if *i >= 0 => any_positive |= *i > 0,
            _ => fail(&format!("counter {name} is not a non-negative integer")),
        }
    }
    if !any_positive {
        fail("every counter is zero");
    }

    let Value::Map(histograms) = get("histograms") else {
        fail("histograms is not an object")
    };
    for (name, histo) in histograms.iter() {
        let Value::Map(fields) = histo else {
            fail(&format!("histogram {name} is not an object"))
        };
        let arr_len = |field: &str| -> usize {
            match fields.iter().find(|(k, _)| k == field) {
                Some((_, Value::Seq(a))) => a.len(),
                _ => fail(&format!("histogram {name} missing array \"{field}\"")),
            }
        };
        if arr_len("edges") != arr_len("counts") {
            fail(&format!("histogram {name}: edges/counts length mismatch"));
        }
    }

    let Value::Seq(spans) = get("spans") else {
        fail("spans is not an array")
    };
    if spans.is_empty() {
        fail("no spans recorded");
    }
    for span in spans {
        let Value::Map(fields) = span else {
            fail("span is not an object")
        };
        for field in ["path", "calls", "virtual_ms"] {
            if !fields.iter().any(|(k, _)| k == field) {
                fail(&format!("span missing \"{field}\""));
            }
        }
    }
}

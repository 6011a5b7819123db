//! Drives the resident serving layer (`ens-serve`) with a seeded
//! synthetic workload — Zipf-distributed names and addresses over a mixed
//! request stream — and writes `BENCH_serve.json` with throughput,
//! per-query-type latency histograms (via `ens-obs`), and the
//! determinism gate's verdict.
//!
//! ```sh
//! cargo run --release -p ens-bench --bin serve_bench -- \
//!     --names 8000 --seed 48879 --requests 1000000 --workers 1,2,8 \
//!     --out BENCH_serve.json
//! ```
//!
//! The gate: every run's reply digest (an order-independent XOR of
//! per-request FNV-1a hashes over the reply bytes, error replies
//! included) must equal the single-threaded reference's, and every
//! sampled raw reply must match byte-for-byte — the same replies, at any
//! worker count. Exits non-zero on divergence or (with `--min-rps`) a
//! throughput floor violation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ens_bench::{gate, time_ms, write_report, Fixture, Flags};
use ens_dropcatch::MAX_WORKERS;
use ens_obs::Metrics;
use ens_serve::{Request, ServeHandle, ServeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::value::Value;
use serde::Serialize;
use workload::dist::CumulativeTable;

/// Power-of-two latency buckets: bucket k counts requests in
/// `[2^k, 2^(k+1))` nanoseconds.
const LATENCY_BUCKETS: usize = 42;

/// Every SAMPLE_EVERY-th reply is kept verbatim for exact comparison on
/// top of the digest.
const SAMPLE_EVERY: usize = 10_000;

const QUERY_TYPES: [&str; 4] = [
    "name-risk",
    "address-forensics",
    "loss-findings",
    "report-slice",
];

/// A compact pre-generated request: indices into the workload context
/// instead of owned strings, so a million of them stay cheap and the
/// per-request materialization cost is identical across worker counts.
#[derive(Clone, Copy)]
enum Spec {
    /// Index into `names`; `>= names.len()` asks for an unknown name.
    NameRisk(u32),
    /// Address index (`== addrs.len()` → an uncrawled address) plus a
    /// window selector (0 none, 1 first half, 2 second half, 3 inverted
    /// — the typed-error path).
    Forensics(u32, u8),
    /// Index into `victims`; `>= victims.len()` → a no-loss address.
    Loss(u32),
    /// Index into `REPORT_SECTIONS`; `6` asks for an unknown section.
    Slice(u8),
}

impl Spec {
    fn type_index(self) -> usize {
        match self {
            Spec::NameRisk(_) => 0,
            Spec::Forensics(..) => 1,
            Spec::Loss(_) => 2,
            Spec::Slice(_) => 3,
        }
    }
}

/// The string pools specs index into.
struct Workload {
    names: Vec<String>,
    addrs: Vec<String>,
    victims: Vec<String>,
    mid: u64,
    end: u64,
}

impl Workload {
    fn materialize(&self, spec: Spec) -> Request {
        match spec {
            Spec::NameRisk(i) => Request::NameRisk {
                name: match self.names.get(i as usize) {
                    Some(n) => n.clone(),
                    None => format!("never-crawled-{i}.eth"),
                },
            },
            Spec::Forensics(i, w) => {
                let address = match self.addrs.get(i as usize) {
                    Some(a) => a.clone(),
                    None => "0x00000000000000000000000000000000000000aa".to_string(),
                };
                let (from, to) = match w {
                    0 => (None, None),
                    1 => (Some(0), Some(self.mid)),
                    2 => (Some(self.mid), Some(self.end)),
                    _ => (Some(self.end), Some(self.mid)), // inverted: typed error
                };
                Request::AddressForensics { address, from, to }
            }
            Spec::Loss(i) => Request::LossFindings {
                victim: match self.victims.get(i as usize) {
                    Some(v) => v.clone(),
                    None => "0x00000000000000000000000000000000000000bb".to_string(),
                },
            },
            Spec::Slice(s) => Request::ReportSlice {
                section: match ens_dropcatch::REPORT_SECTIONS.get(s as usize) {
                    Some(name) => name.to_string(),
                    None => "appendix-z".to_string(),
                },
            },
        }
    }
}

/// FNV-1a over the request id and the reply bytes.
fn fnv(id: u64, bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn latency_bucket(ns: u64) -> usize {
    ((64 - (ns | 1).leading_zeros() - 1) as usize).min(LATENCY_BUCKETS - 1)
}

/// `1/(rank+1)^s` Zipf weights over `n` items.
fn zipf_table(n: usize, s: f64) -> CumulativeTable {
    let weights: Vec<f64> = (0..n.max(1))
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(s))
        .collect();
    CumulativeTable::new(&weights)
}

struct RunResult {
    workers: usize,
    seconds: f64,
    rps: f64,
    digest: u64,
    identical: bool,
    latency: [[u64; LATENCY_BUCKETS]; 4],
    type_counts: [u64; 4],
    reply_bytes: u64,
}

/// Runs the full spec stream through `handle` with `workers` threads
/// pulling from a shared counter; returns the merged digest, per-type
/// latency buckets, and sampled replies.
#[allow(clippy::type_complexity)]
fn run(
    handle: &ServeHandle,
    workload: &Workload,
    specs: &[Spec],
    workers: usize,
) -> (RunResult, Vec<(usize, String)>) {
    let counter = AtomicUsize::new(0);
    let samples: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let merged = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(workers);
        for _ in 0..workers.max(1) {
            joins.push(scope.spawn(|| {
                let mut digest = 0u64;
                let mut latency = [[0u64; LATENCY_BUCKETS]; 4];
                let mut type_counts = [0u64; 4];
                let mut reply_bytes = 0u64;
                loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= specs.len() {
                        break;
                    }
                    let spec = specs[i];
                    let request = workload.materialize(spec);
                    let start = Instant::now();
                    let reply = match handle.query(&request) {
                        Ok(body) => body,
                        Err(e) => ServeHandle::error_body(&e),
                    };
                    let ns = start.elapsed().as_nanos() as u64;
                    let t = spec.type_index();
                    latency[t][latency_bucket(ns)] += 1;
                    type_counts[t] += 1;
                    reply_bytes += reply.len() as u64;
                    digest ^= fnv(i as u64, reply.as_bytes());
                    if i.is_multiple_of(SAMPLE_EVERY) {
                        samples.lock().expect("samples lock").push((i, reply));
                    }
                }
                (digest, latency, type_counts, reply_bytes)
            }));
        }
        let mut digest = 0u64;
        let mut latency = [[0u64; LATENCY_BUCKETS]; 4];
        let mut type_counts = [0u64; 4];
        let mut reply_bytes = 0u64;
        for j in joins {
            let (d, l, c, b) = j.join().expect("worker thread");
            digest ^= d;
            for (acc, add) in latency.iter_mut().zip(l) {
                for (a, v) in acc.iter_mut().zip(add) {
                    *a += v;
                }
            }
            for (a, v) in type_counts.iter_mut().zip(c) {
                *a += v;
            }
            reply_bytes += b;
        }
        (digest, latency, type_counts, reply_bytes)
    });
    let seconds = t0.elapsed().as_secs_f64();
    let (digest, latency, type_counts, reply_bytes) = merged;
    let mut samples = samples.into_inner().expect("samples lock");
    samples.sort_by_key(|(i, _)| *i);
    (
        RunResult {
            workers,
            seconds,
            rps: specs.len() as f64 / seconds,
            digest,
            identical: false, // filled by the caller against the reference
            latency,
            type_counts,
            reply_bytes,
        },
        samples,
    )
}

/// Generates the seeded request stream: ~50% name-risk, ~25% forensics,
/// ~15% loss-findings, ~10% report-slice, each pool Zipf-skewed with a
/// few percent of misses and malformed windows mixed in.
fn generate_specs(
    rng: &mut StdRng,
    requests: usize,
    zipf_s: f64,
    names: usize,
    addrs: usize,
    victims: usize,
) -> Vec<Spec> {
    let name_zipf = zipf_table(names, zipf_s);
    let addr_zipf = zipf_table(addrs, zipf_s);
    let mut specs = Vec::with_capacity(requests);
    for _ in 0..requests {
        let roll: f64 = rng.gen();
        specs.push(if roll < 0.50 {
            if rng.gen::<f64>() < 0.02 {
                Spec::NameRisk(names as u32 + rng.gen_range(0..1000) as u32)
            } else {
                Spec::NameRisk(name_zipf.sample(rng) as u32)
            }
        } else if roll < 0.75 {
            let addr = if rng.gen::<f64>() < 0.02 {
                addrs as u32
            } else {
                addr_zipf.sample(rng) as u32
            };
            Spec::Forensics(addr, rng.gen_range(0..100u8) % 4)
        } else if roll < 0.90 {
            if victims == 0 || rng.gen::<f64>() < 0.10 {
                Spec::Loss(victims as u32)
            } else {
                Spec::Loss(rng.gen_range(0..victims) as u32)
            }
        } else {
            Spec::Slice(rng.gen_range(0..100u8) % 7)
        });
    }
    specs
}

/// One replay of the request stream, as `BENCH_serve.json` records it.
#[derive(Serialize)]
struct ReplayRow {
    workers: usize,
    seconds: f64,
    rps: f64,
    /// The reply digest, as 16 hex digits.
    digest: String,
    identical_to_reference: bool,
}

/// The single-threaded reference replay.
#[derive(Serialize)]
struct ReferenceRow {
    seconds: f64,
    rps: f64,
    digest: String,
}

/// The `BENCH_serve.json` document.
#[derive(Serialize)]
struct ServeBenchReport {
    names: usize,
    seed: u64,
    requests: usize,
    zipf_s: f64,
    resolvable_names: usize,
    crawled_addresses: usize,
    victim_pool: usize,
    state_build_seconds: f64,
    reference: ReferenceRow,
    runs: Vec<ReplayRow>,
    all_identical: bool,
    /// The widest run's deterministic `ens-obs` snapshot.
    widest_run_metrics: Value,
}

fn main() {
    let mut names = 8_000;
    let mut seed = 0xBEEF;
    let mut requests = 1_000_000;
    let mut workers = vec![1, 2, 8];
    let mut zipf_s = 1.0;
    let mut out: Option<String> = None;
    let mut min_rps: Option<f64> = None;
    Flags::new("serve_bench")
        .count("--names N", &mut names)
        .value("--seed S", &mut seed)
        .count("--requests N", &mut requests)
        .counts_up_to("--workers 1,2,8", MAX_WORKERS, &mut workers)
        .value("--zipf-s S", &mut zipf_s)
        .optional("--min-rps X", &mut min_rps)
        .optional("--out PATH", &mut out)
        .parse_env();

    eprintln!("building the world ({names} names, seed {seed})...");
    let (ms, fixture) = time_ms(|| Fixture::build(names, seed));
    let dataset = fixture.dataset;
    eprintln!(
        "  built in {:.1} s: {} transactions crawled",
        ms / 1e3,
        dataset.crawl_report.transactions
    );

    eprintln!("building the resident serve state (index + study)...");
    let (ms, state) = time_ms(|| Arc::new(ServeState::build(dataset, 8)));
    let state_build_seconds = ms / 1e3;
    eprintln!(
        "  resident in {state_build_seconds:.1}s: {} incoming / {} outgoing transfers, \
         {} names, {} re-registrations",
        state.index.indexed_transfers(),
        state.outgoing.indexed_transfers(),
        state.names.len(),
        state.index.reregistrations().len(),
    );
    let handle = ServeHandle::new(Arc::clone(&state));

    let end = state.dataset.observation_end.0;
    let workload = Workload {
        mid: end / 2,
        end,
        names: state
            .dataset
            .domains
            .iter()
            .filter_map(|d| d.name.as_ref().map(|n| n.to_full()))
            .collect(),
        addrs: state
            .dataset
            .transactions
            .keys()
            .map(|a| a.to_hex())
            .collect(),
        victims: state
            .index
            .reregistrations()
            .iter()
            .map(|r| r.prev_wallet.to_hex())
            .collect(),
    };

    eprintln!("generating {requests} seeded requests (zipf s = {zipf_s})...");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_be4c);
    let specs = generate_specs(
        &mut rng,
        requests,
        zipf_s,
        workload.names.len(),
        workload.addrs.len(),
        workload.victims.len(),
    );

    eprintln!("sequential reference pass...");
    let (mut reference, ref_samples) = run(&handle, &workload, &specs, 1);
    reference.identical = true;
    eprintln!(
        "  {:.1}s ({:.0} req/s), digest {:016x}",
        reference.seconds, reference.rps, reference.digest
    );

    let mut runs: Vec<RunResult> = Vec::new();
    let mut all_identical = true;
    for &count in &workers {
        eprintln!("run: {count} worker(s), {} requests...", specs.len());
        let (mut result, samples) = run(&handle, &workload, &specs, count);
        result.identical = result.digest == reference.digest && samples == ref_samples;
        all_identical &= result.identical;
        eprintln!(
            "  {:.1}s ({:.0} req/s), digest {:016x}, identical: {}",
            result.seconds, result.rps, result.digest, result.identical
        );
        runs.push(result);
    }

    // Publish the widest run's latency + counters through ens-obs so the
    // artifact carries the same histogram schema (edges/counts/underflow)
    // as every other instrumented artifact in the repo.
    let metrics = Metrics::new();
    let edges: Vec<u64> = (0..LATENCY_BUCKETS as u32).map(|k| 1u64 << k).collect();
    let widest = runs.last().unwrap_or(&reference);
    for (t, name) in QUERY_TYPES.iter().enumerate() {
        let hist = format!("serve/latency_ns/{name}");
        metrics.register_histogram(&hist, &edges);
        for (k, &count) in widest.latency[t].iter().enumerate() {
            for _ in 0..count {
                metrics.observe(&hist, 1u64 << k);
            }
        }
        metrics.add(&format!("serve/requests/{name}"), widest.type_counts[t]);
    }
    metrics.add("serve/reply_bytes", widest.reply_bytes);
    let snapshot = metrics.snapshot();

    let digest = |d: u64| format!("{d:016x}");
    let report = ServeBenchReport {
        names,
        seed,
        requests,
        zipf_s,
        resolvable_names: workload.names.len(),
        crawled_addresses: workload.addrs.len(),
        victim_pool: workload.victims.len(),
        state_build_seconds,
        reference: ReferenceRow {
            seconds: reference.seconds,
            rps: reference.rps,
            digest: digest(reference.digest),
        },
        runs: runs
            .iter()
            .map(|r| ReplayRow {
                workers: r.workers,
                seconds: r.seconds,
                rps: r.rps,
                digest: digest(r.digest),
                identical_to_reference: r.identical,
            })
            .collect(),
        all_identical,
        widest_run_metrics: serde_json::parse_value(&snapshot.deterministic_json())
            .expect("snapshot is valid JSON"),
    };
    write_report(&report, out.as_deref());

    let best_rps = runs.iter().map(|r| r.rps).fold(reference.rps, f64::max);
    eprintln!(
        "best throughput: {best_rps:.0} req/s across {} run(s); identical replies: {all_identical}",
        runs.len()
    );
    gate(
        all_identical,
        &format!("replies identical across worker counts: {all_identical}"),
    );
    if let Some(floor) = min_rps {
        gate(
            best_rps >= floor,
            &format!("best throughput {best_rps:.0} req/s, floor {floor:.0}"),
        );
    }
}

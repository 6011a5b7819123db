//! Benches for the collection pipeline of §3: subgraph paging, txlist
//! crawling, dataset assembly (sequential and sharded across threads),
//! re-registration detection, and the full study.

#![allow(clippy::result_large_err)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ens_bench::bench_fixture;
use ens_dropcatch::{detect_all, CrawlConfig, Crawler, Dataset};

fn subgraph_crawl(c: &mut Criterion) {
    let f = bench_fixture();
    let mut g = c.benchmark_group("crawl");
    g.sample_size(20);
    g.bench_function("subgraph_full_paging", |b| {
        b.iter(|| Crawler::default().crawl(black_box(&f.subgraph)))
    });
    g.finish();
}

fn txlist_crawl(c: &mut Criterion) {
    let f = bench_fixture();
    let addresses = ens_dropcatch::crawl::relevant_addresses(&f.dataset.domains);
    let sources: Vec<_> = addresses
        .iter()
        .map(|&a| (a, f.etherscan.txlist_source(a)))
        .collect();
    let mut g = c.benchmark_group("crawl");
    g.sample_size(10);
    g.bench_function("txlist_all_relevant_addresses", |b| {
        b.iter(|| {
            Crawler {
                page_size: 10_000,
                ..Crawler::default()
            }
            .crawl_keyed(black_box(&sources))
        })
    });
    g.finish();
}

fn dataset_assembly(c: &mut Criterion) {
    let f = bench_fixture();
    let mut g = c.benchmark_group("crawl");
    g.sample_size(10);
    g.bench_function("dataset_collect_end_to_end", |b| {
        b.iter(|| {
            Dataset::try_collect_with(
                black_box(&f.subgraph),
                black_box(&f.etherscan),
                f.world.opensea(),
                f.world.observation_end(),
                &CrawlConfig::default(),
            )
        })
    });
    g.finish();
}

/// The headline of the sharded engine: end-to-end collection at 1/2/4/8
/// worker threads. The assembled dataset is byte-identical at every point;
/// only the wall clock moves.
fn crawl_sharded(c: &mut Criterion) {
    let f = bench_fixture();
    let mut g = c.benchmark_group("crawl_sharded");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    Dataset::try_collect_with(
                        black_box(&f.subgraph),
                        black_box(&f.etherscan),
                        f.world.opensea(),
                        f.world.observation_end(),
                        &CrawlConfig::with_threads(threads),
                    )
                })
            },
        );
    }
    g.finish();
}

fn detection(c: &mut Criterion) {
    let f = bench_fixture();
    c.bench_function("reregistration_detection", |b| {
        b.iter(|| detect_all(black_box(&f.dataset.domains)))
    });
}

fn full_study(c: &mut Criterion) {
    let f = bench_fixture();
    let mut g = c.benchmark_group("study");
    g.sample_size(10);
    g.bench_function("full_study_8k_names", |b| b.iter(|| f.study()));
    g.finish();
}

criterion_group!(
    pipeline,
    subgraph_crawl,
    txlist_crawl,
    dataset_assembly,
    crawl_sharded,
    detection,
    full_study
);
criterion_main!(pipeline);

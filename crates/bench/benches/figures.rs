//! One criterion bench per paper table/figure: each measures the
//! computation that regenerates that artifact from the crawled dataset.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ens_bench::{bench_fixture, Fixture};
use ens_dropcatch::countermeasures::evaluate_countermeasure_with;
use ens_dropcatch::losses::{analyze_losses, hijackable_funds};
use ens_dropcatch::overview::{
    fig2_timeline, fig3_delays, fig4_domain_frequency, fig5_catcher_concentration,
};
use ens_dropcatch::stats::Ecdf;
use ens_dropcatch::{analyze_resales, compare_features, detect_all, AnalysisIndex, Metrics};
use ens_types::Duration;

/// The fixture's analysis index, built once outside the measured loops.
fn index(f: &Fixture) -> AnalysisIndex {
    AnalysisIndex::build(&f.dataset, f.world.oracle(), 1, &Metrics::disabled())
}

fn fig2(c: &mut Criterion) {
    let f = bench_fixture();
    let rereg = detect_all(&f.dataset.domains);
    c.bench_function("fig2_timeline", |b| {
        b.iter(|| {
            fig2_timeline(
                black_box(&f.dataset.domains),
                f.dataset.observation_end,
                &rereg,
            )
        })
    });
}

fn fig3(c: &mut Criterion) {
    let f = bench_fixture();
    let rereg = detect_all(&f.dataset.domains);
    c.bench_function("fig3_delays", |b| b.iter(|| fig3_delays(black_box(&rereg))));
}

fn fig4(c: &mut Criterion) {
    let f = bench_fixture();
    let rereg = detect_all(&f.dataset.domains);
    c.bench_function("fig4_domain_frequency", |b| {
        b.iter(|| fig4_domain_frequency(black_box(&rereg)))
    });
}

fn fig5(c: &mut Criterion) {
    let f = bench_fixture();
    let rereg = detect_all(&f.dataset.domains);
    c.bench_function("fig5_catcher_concentration", |b| {
        b.iter(|| fig5_catcher_concentration(black_box(&rereg)))
    });
}

fn table1_and_fig6(c: &mut Criterion) {
    let f = bench_fixture();
    let index = index(f);
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    g.bench_function("table1_features_fig6_income", |b| {
        b.iter(|| compare_features(black_box(&f.dataset), 7, &index, 1, &Metrics::disabled()))
    });
    g.finish();
}

fn fig7(c: &mut Criterion) {
    let f = bench_fixture();
    let index = index(f);
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("fig7_hijackable", |b| {
        b.iter(|| {
            hijackable_funds(black_box(&f.dataset), |wallet, window| {
                index.income_usd(wallet, Some(window))
            })
        })
    });
    g.finish();
}

fn figs8_to_11(c: &mut Criterion) {
    let f = bench_fixture();
    let index = index(f);
    let losses = || {
        analyze_losses(
            &f.dataset,
            f.world.oracle(),
            &index,
            1,
            &Metrics::disabled(),
        )
    };
    let mut g = c.benchmark_group("losses");
    g.sample_size(10);
    // The shared §4.4 pass that Figs 8–11 all derive from.
    g.bench_function("common_sender_analysis", |b| b.iter(losses));
    let losses = losses();
    g.bench_function("fig8_misdirected_amounts", |b| {
        b.iter(|| black_box(&losses).fig8_amounts())
    });
    g.bench_function("fig9_scatter", |b| {
        b.iter(|| black_box(&losses).fig9_scatter())
    });
    g.bench_function("fig10_profit", |b| {
        b.iter(|| black_box(&losses).fig10_profit())
    });
    g.bench_function("fig11_scatter_noncustodial", |b| {
        b.iter(|| black_box(&losses).fig11_scatter())
    });
    g.finish();
}

fn resale(c: &mut Criterion) {
    let f = bench_fixture();
    let rereg = detect_all(&f.dataset.domains);
    c.bench_function("resale_market_s42", |b| {
        b.iter(|| analyze_resales(black_box(&rereg), f.world.opensea()))
    });
}

fn table2(c: &mut Criterion) {
    let f = bench_fixture();
    let index = index(f);
    let losses = analyze_losses(
        &f.dataset,
        f.world.oracle(),
        &index,
        1,
        &Metrics::disabled(),
    );
    c.bench_function("table2_countermeasure_eval", |b| {
        b.iter(|| {
            evaluate_countermeasure_with(
                black_box(&losses),
                &f.dataset,
                &index,
                Duration::from_days(365),
            )
        })
    });
}

fn income_cdf(c: &mut Criterion) {
    // Fig 6's raw building block: ECDF construction at scale.
    let values: Vec<f64> = (0..100_000)
        .map(|i| ((i * 2_654_435_761u64) % 1_000_000) as f64)
        .collect();
    c.bench_function("ecdf_build_100k", |b| {
        b.iter(|| Ecdf::new(black_box(values.clone())))
    });
}

criterion_group!(
    figures,
    fig2,
    fig3,
    fig4,
    fig5,
    table1_and_fig6,
    fig7,
    figs8_to_11,
    resale,
    table2,
    income_cdf
);
criterion_main!(figures);

//! Columnar storage benchmark: binary `.ensc` vs streaming JSON ingest.
//!
//! Builds worlds at several scales, exports each dataset in both formats,
//! and compares:
//!
//! - **encode** — [`Dataset::to_columnar`] vs [`Dataset::to_json`];
//! - **load** — [`Dataset::from_columnar`] vs the streaming
//!   [`Dataset::from_json`] over the same dataset;
//! - **footprint** — columnar bytes as a fraction of the JSON export.
//!
//! Every columnar decode is verified by re-serializing the reconstructed
//! dataset to JSON and comparing byte-for-byte against the direct JSON
//! export (`JSON → columnar → JSON` must be a fixed point), so the bench
//! doubles as a cross-format equivalence gate on realistic datasets.

use ens_dropcatch::{Dataset, Metrics};
use serde::Serialize;

/// One scale point of the columnar bench.
#[derive(Serialize)]
pub struct ColumnarScaleRun {
    /// Input-size multiplier relative to the base world.
    pub scale: usize,
    /// Names in this world (`base_names * scale`).
    pub names: usize,
    /// JSON export size in bytes.
    pub json_bytes: usize,
    /// Columnar export size in bytes.
    pub columnar_bytes: usize,
    /// `columnar_bytes / json_bytes` (the ≤0.5 acceptance target).
    pub footprint_ratio: f64,
    /// Best-of-repeats wall time for [`Dataset::to_json`].
    pub json_encode_ms: f64,
    /// Best-of-repeats wall time for [`Dataset::to_columnar`].
    pub columnar_encode_ms: f64,
    /// Best-of-repeats wall time for the streaming [`Dataset::from_json`].
    pub json_load_ms: f64,
    /// Best-of-repeats wall time for [`Dataset::from_columnar`].
    pub columnar_load_ms: f64,
    /// `json_load_ms / columnar_load_ms` (the ≥5× acceptance target).
    pub load_speedup: f64,
    /// Columnar load throughput over the columnar file size.
    pub columnar_mb_per_s: f64,
    /// Whether `JSON → columnar → JSON` reproduced the direct JSON export
    /// byte-for-byte.
    pub roundtrip_identical: bool,
}

/// The full columnar bench report written to `BENCH_columnar.json`.
#[derive(Serialize)]
pub struct ColumnarBenchReport {
    /// Names in the 1× world.
    pub base_names: usize,
    /// World seed.
    pub seed: u64,
    /// Timing repeats per path (minimum reported).
    pub repeats: usize,
    /// One entry per scale, ascending.
    pub runs: Vec<ColumnarScaleRun>,
    /// Load speedup over streaming JSON at the largest scale.
    pub load_speedup: f64,
    /// Footprint ratio at the largest scale.
    pub footprint_ratio: f64,
    /// AND of every run's `roundtrip_identical`.
    pub roundtrip_identical: bool,
}

impl ColumnarBenchReport {
    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }
}

fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t0 = std::time::Instant::now();
        let out = f();
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best_ms, last.expect("at least one repeat"))
}

/// Runs the columnar bench across `scales`.
pub fn run_columnar_bench(
    base_names: usize,
    seed: u64,
    scales: &[usize],
    repeats: usize,
) -> ColumnarBenchReport {
    let mut runs = Vec::new();
    for &scale in scales {
        let names = base_names * scale;
        eprintln!("  scale {scale}x: building the {names}-name world...");
        let fixture = crate::Fixture::build(names, seed);

        let (json_encode_ms, json) =
            best_of(repeats, || fixture.dataset.to_json().expect("json export"));
        let (columnar_encode_ms, columnar) = best_of(repeats, || {
            fixture
                .dataset
                .to_columnar(&Metrics::disabled())
                .expect("columnar export")
        });
        let json_bytes = json.len();
        let columnar_bytes = columnar.len();

        let (json_load_ms, _) = best_of(repeats, || {
            Dataset::from_json(&json).expect("streaming decode")
        });
        let (columnar_load_ms, decoded) = best_of(repeats, || {
            Dataset::from_columnar(&columnar, &Metrics::disabled()).expect("columnar decode")
        });
        let roundtrip_identical = decoded.to_json().expect("re-serialize") == json;

        let run = ColumnarScaleRun {
            scale,
            names,
            json_bytes,
            columnar_bytes,
            footprint_ratio: columnar_bytes as f64 / json_bytes as f64,
            json_encode_ms,
            columnar_encode_ms,
            json_load_ms,
            columnar_load_ms,
            load_speedup: json_load_ms / columnar_load_ms,
            columnar_mb_per_s: columnar_bytes as f64 / 1e6 / (columnar_load_ms / 1e3),
            roundtrip_identical,
        };
        eprintln!(
            "    json {:.2} MB, columnar {:.2} MB ({:.0}% footprint): \
             load {:.1} ms vs {:.2} ms ({:.1}x, {:.0} MB/s)",
            json_bytes as f64 / 1e6,
            columnar_bytes as f64 / 1e6,
            run.footprint_ratio * 100.0,
            json_load_ms,
            columnar_load_ms,
            run.load_speedup,
            run.columnar_mb_per_s,
        );
        runs.push(run);
    }

    let last = &runs[runs.len() - 1];
    let (load_speedup, footprint_ratio) = (last.load_speedup, last.footprint_ratio);
    let roundtrip_identical = runs.iter().all(|r| r.roundtrip_identical);
    ColumnarBenchReport {
        base_names,
        seed,
        repeats,
        runs,
        load_speedup,
        footprint_ratio,
        roundtrip_identical,
    }
}

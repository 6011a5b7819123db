//! The storage bench: what the released dataset costs to write and to
//! read, in both on-disk formats.
//!
//! Each scale's world is built once and encoded once per format. Against
//! that one export the bench times:
//!
//! - **encode** — [`Dataset::to_json`] and [`Dataset::to_columnar`];
//! - **decode** — the streaming [`Dataset::from_json`];
//!   `serde_json::from_str_buffered`, the same parser materializing the
//!   full `Value` tree first; `serde_json::legacy::from_str`, the original
//!   quadratic parser (opt-in, base scale only: at 2.3 MB it takes ~70 s
//!   per repeat); and [`Dataset::from_bytes`] on the columnar export,
//!   which reads it through `ens_columnar::FileReader` over a cursor, as a
//!   file on disk is read;
//! - **footprint** — columnar bytes as a fraction of the JSON export.
//!
//! Every decode must re-serialize to the JSON export byte for byte, and
//! the columnar decode must also re-encode to the columnar export, so
//! `JSON → columnar → JSON` is checked as a fixed point: the bench doubles
//! as the decoders' equivalence gate on realistic datasets.

use ens_dropcatch::{Dataset, Format, Metrics, StorageError};
use serde::Serialize;

use crate::harness::best_of;
use crate::Fixture;

/// One scale point of the storage bench. Times are min over repeats, ms.
#[derive(Serialize)]
pub struct StorageScaleRun {
    /// Input-size multiplier relative to the base world.
    pub scale: usize,
    /// Names in this world (`base_names * scale`).
    pub names: usize,
    /// JSON export size in bytes.
    pub json_bytes: usize,
    /// Columnar export size in bytes.
    pub columnar_bytes: usize,
    /// `columnar_bytes / json_bytes`.
    pub footprint_ratio: f64,
    /// [`Dataset::to_json`].
    pub json_encode_ms: f64,
    /// [`Dataset::to_columnar`].
    pub columnar_encode_ms: f64,
    /// The streaming [`Dataset::from_json`].
    pub streaming_ms: f64,
    /// The full-`Value`-tree decode.
    pub buffered_ms: f64,
    /// The original quadratic parser (timed only at scale 1 under
    /// `--legacy`).
    pub legacy_ms: Option<f64>,
    /// [`Dataset::from_bytes`] on the columnar export.
    pub columnar_load_ms: f64,
    /// Streaming JSON decode throughput over the JSON bytes.
    pub streaming_mb_per_s: f64,
    /// Columnar decode throughput over the columnar bytes.
    pub columnar_mb_per_s: f64,
    /// `streaming_ms / columnar_load_ms`.
    pub load_speedup: f64,
    /// Whether every decode reproduced its export byte for byte.
    pub roundtrip_identical: bool,
}

/// The `BENCH_storage.json` document.
#[derive(Serialize)]
pub struct StorageBenchReport {
    /// Names in the 1× world.
    pub base_names: usize,
    /// World seed.
    pub seed: u64,
    /// Timing repeats per path (minimum reported).
    pub repeats: usize,
    /// One entry per scale, in the order given.
    pub runs: Vec<StorageScaleRun>,
    /// Empirical exponent of streaming decode time vs input size across
    /// the first and last scales (1.0 = linear, 2.0 = quadratic).
    pub scaling_exponent: f64,
    /// Streaming speedup over the buffered decode at the last scale.
    pub speedup_vs_buffered: f64,
    /// Streaming speedup over the legacy parser at scale 1, when timed.
    pub speedup_vs_legacy: Option<f64>,
    /// Columnar load speedup over streaming JSON at the last scale.
    pub load_speedup: f64,
    /// Footprint ratio at the last scale.
    pub footprint_ratio: f64,
    /// AND of every run's `roundtrip_identical`.
    pub roundtrip_identical: bool,
}

/// Runs the storage bench across `scales`, timing the legacy parser at
/// scale 1 when `legacy` is set.
pub fn run_storage_bench(
    base_names: usize,
    seed: u64,
    scales: &[usize],
    repeats: usize,
    legacy: bool,
) -> StorageBenchReport {
    let mut runs = Vec::new();
    for &scale in scales {
        let names = base_names * scale;
        eprintln!("  scale {scale}x: building the {names}-name world...");
        let dataset = Fixture::build(names, seed).dataset;
        let (json_encode_ms, json) = best_of(repeats, || dataset.to_json().expect("json export"));
        let (columnar_encode_ms, columnar) = best_of(repeats, || {
            dataset
                .to_columnar(&Metrics::disabled())
                .expect("columnar export")
        });
        drop(dataset);

        // Each decoded dataset is checked, then dropped before the next
        // decode, so at most one copy is alive beside the exports.
        let reproduces_json =
            |(ms, decoded): (f64, Dataset)| (ms, decoded.to_json().expect("re-serialize") == json);
        let (streaming_ms, streaming_ok) = reproduces_json(best_of(repeats, || {
            Dataset::from_json(&json).expect("streaming decode")
        }));
        let (buffered_ms, buffered_ok) = reproduces_json(best_of(repeats, || {
            serde_json::from_str_buffered::<Dataset>(&json).expect("buffered decode")
        }));
        let (legacy_ms, legacy_ok) = if legacy && scale == 1 {
            eprintln!(
                "    timing the legacy quadratic parser ({:.1} MB)...",
                json.len() as f64 / 1e6
            );
            let (ms, ok) = reproduces_json(best_of(repeats, || {
                serde_json::legacy::from_str::<Dataset>(&json).expect("legacy decode")
            }));
            (Some(ms), ok)
        } else {
            (None, true)
        };
        let (columnar_load_ms, decoded) = best_of(repeats, || {
            Dataset::from_bytes(&columnar).expect("columnar decode")
        });
        let columnar_ok = decoded
            .to_columnar(&Metrics::disabled())
            .expect("re-encode")
            == columnar
            && reproduces_json((columnar_load_ms, decoded)).1;

        let megabytes = |bytes: usize| bytes as f64 / 1e6;
        let run = StorageScaleRun {
            scale,
            names,
            json_bytes: json.len(),
            columnar_bytes: columnar.len(),
            footprint_ratio: columnar.len() as f64 / json.len() as f64,
            json_encode_ms,
            columnar_encode_ms,
            streaming_ms,
            buffered_ms,
            legacy_ms,
            columnar_load_ms,
            streaming_mb_per_s: megabytes(json.len()) / (streaming_ms / 1e3),
            columnar_mb_per_s: megabytes(columnar.len()) / (columnar_load_ms / 1e3),
            load_speedup: streaming_ms / columnar_load_ms,
            roundtrip_identical: streaming_ok && buffered_ok && legacy_ok && columnar_ok,
        };
        eprintln!(
            "    json {:.2} MB: streaming {streaming_ms:.1} ms ({:.0} MB/s), buffered \
             {buffered_ms:.1} ms{}; columnar {:.2} MB ({:.0}% footprint): {columnar_load_ms:.2} ms \
             ({:.1}x, {:.0} MB/s); identical: {}",
            megabytes(run.json_bytes),
            run.streaming_mb_per_s,
            legacy_ms.map_or(String::new(), |ms| format!(", legacy {ms:.0} ms")),
            megabytes(run.columnar_bytes),
            run.footprint_ratio * 100.0,
            run.load_speedup,
            run.columnar_mb_per_s,
            run.roundtrip_identical,
        );
        runs.push(run);
    }

    let (first, last) = (&runs[0], &runs[runs.len() - 1]);
    let scaling_exponent = if last.json_bytes > first.json_bytes {
        (last.streaming_ms / first.streaming_ms).ln()
            / (last.json_bytes as f64 / first.json_bytes as f64).ln()
    } else {
        1.0
    };
    StorageBenchReport {
        base_names,
        seed,
        repeats,
        scaling_exponent,
        speedup_vs_buffered: last.buffered_ms / last.streaming_ms,
        speedup_vs_legacy: first.legacy_ms.map(|ms| ms / first.streaming_ms),
        load_speedup: last.load_speedup,
        footprint_ratio: last.footprint_ratio,
        roundtrip_identical: runs.iter().all(|r| r.roundtrip_identical),
        runs,
    }
}

/// One existing dataset file, decoded and re-encoded.
pub struct FileCheck {
    /// The format detected from the file's magic bytes.
    pub format: Format,
    /// [`Dataset::from_bytes`], min over repeats, ms.
    pub decode_ms: f64,
    /// Whether [`Dataset::to_bytes`] in `format` reproduced the file.
    pub identical: bool,
}

/// Decodes `bytes` (either format) and checks that re-encoding the
/// dataset in the detected format reproduces them byte for byte.
pub fn check_file(bytes: &[u8], repeats: usize) -> Result<FileCheck, StorageError> {
    let format = Format::detect(bytes);
    let (decode_ms, decoded) = best_of(repeats, || Dataset::from_bytes(bytes));
    Ok(FileCheck {
        format,
        decode_ms,
        identical: decoded?.to_bytes(format)? == bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_decode_path_reproduces_its_export() {
        let report = run_storage_bench(12, 7, &[1, 2], 1, true);
        assert_eq!(report.runs.len(), 2);
        assert!(report.runs[0].legacy_ms.is_some() && report.runs[1].legacy_ms.is_none());
        for run in &report.runs {
            assert!(run.roundtrip_identical, "scale {}", run.scale);
            assert!(run.footprint_ratio < 1.0, "scale {}", run.scale);
        }
        assert!(report.roundtrip_identical);
    }

    #[test]
    fn check_file_takes_both_formats_and_rejects_truncation() {
        let dataset = Fixture::build(12, 7).dataset;
        for format in [Format::Json, Format::Columnar] {
            let bytes = dataset.to_bytes(format).expect("encodes");
            let check = check_file(&bytes, 1).expect("decodes");
            assert_eq!(check.format, format);
            assert!(check.identical, "{format}");
            assert!(
                check_file(&bytes[..bytes.len() - 1], 1).is_err(),
                "{format}"
            );
        }
    }
}

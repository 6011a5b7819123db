//! Times the dataset release path in both formats — each encoder, every
//! decoder and the footprint — across input scales, and writes
//! `BENCH_storage.json`.
//!
//! ```sh
//! cargo run --release -p ens-bench --bin storage_bench -- \
//!     --names 300 --scales 1,4,16 --legacy --out BENCH_storage.json
//! ```
//!
//! Exits non-zero if any decode fails to reproduce its export byte for
//! byte, or, when given, if the base-scale streaming JSON decode exceeds
//! `--max-ingest-ms`, the columnar load speedup over streaming JSON at the
//! last scale falls below `--min-speedup`, or the columnar footprint at the
//! last scale exceeds `--max-footprint-ratio`.
//!
//! `--file PATH` instead decodes one existing dataset file of either
//! format, detected from its magic bytes, and exits non-zero unless
//! re-encoding it in that format reproduces the file byte for byte.

use ens_bench::{check_file, gate, run_storage_bench, write_report, Flags};

fn main() {
    let mut names = 300;
    let mut seed = 0xBEEF;
    let mut scales = vec![1, 4, 16];
    let mut repeats = 3;
    let mut legacy = false;
    let mut file: Option<String> = None;
    let mut out: Option<String> = None;
    let mut max_ingest_ms: Option<f64> = None;
    let mut min_speedup: Option<f64> = None;
    let mut max_footprint_ratio: Option<f64> = None;
    Flags::new("storage_bench")
        .count("--names N", &mut names)
        .value("--seed S", &mut seed)
        .counts("--scales 1,4,16", &mut scales)
        .count("--repeats R", &mut repeats)
        .switch("--legacy", &mut legacy)
        .optional("--file PATH", &mut file)
        .optional("--out PATH", &mut out)
        .optional("--max-ingest-ms MS", &mut max_ingest_ms)
        .optional("--min-speedup X", &mut min_speedup)
        .optional("--max-footprint-ratio R", &mut max_footprint_ratio)
        .parse_env();

    if let Some(path) = file {
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            eprintln!("FAIL: cannot read {path}: {e}");
            std::process::exit(1);
        });
        match check_file(&bytes, repeats) {
            Ok(check) => gate(
                check.identical,
                &format!(
                    "{path}: {} ({:.2} MB) decoded in {:.1} ms ({:.1} MB/s); \
                     re-encoding reproduces the file: {}",
                    check.format,
                    bytes.len() as f64 / 1e6,
                    check.decode_ms,
                    bytes.len() as f64 / 1e3 / check.decode_ms,
                    check.identical
                ),
            ),
            Err(e) => gate(false, &format!("{path} does not decode: {e}")),
        }
        return;
    }

    eprintln!(
        "storage bench: base {names} names, scales {scales:?}, seed {seed} \
         ({repeats} repeats, min reported)"
    );
    let report = run_storage_bench(names, seed, &scales, repeats, legacy);
    write_report(&report, out.as_deref());
    eprintln!(
        "streaming scaling exponent {:.2} (1.0 = linear); last scale: {:.1}x vs buffered, \
         columnar loads {:.1}x faster at {:.0}% of the JSON bytes{}",
        report.scaling_exponent,
        report.speedup_vs_buffered,
        report.load_speedup,
        report.footprint_ratio * 100.0,
        report
            .speedup_vs_legacy
            .map_or(String::new(), |s| format!("; {s:.0}x vs the legacy parser"))
    );

    gate(
        report.roundtrip_identical,
        &format!(
            "every decode reproduces its export byte for byte: {}",
            report.roundtrip_identical
        ),
    );
    if let Some(max) = max_ingest_ms {
        let ms = report.runs[0].streaming_ms;
        gate(
            ms <= max,
            &format!("base-scale streaming ingest {ms:.1} ms, ceiling {max:.1} ms"),
        );
    }
    if let Some(min) = min_speedup {
        let x = report.load_speedup;
        gate(
            x >= min,
            &format!("columnar load speedup {x:.1}x, floor {min:.1}x"),
        );
    }
    if let Some(max) = max_footprint_ratio {
        let ratio = report.footprint_ratio;
        gate(
            ratio <= max,
            &format!("columnar footprint ratio {ratio:.2}, ceiling {max:.2}"),
        );
    }
}

//! Writes the `serve` workload's request targets and the in-process answer
//! to each, for the load generator to replay and the gate to compare with.
//!
//! ```text
//! perfbench-reference --dataset FILE --threads 2 --seed S --count N
//!     --targets TARGETS --expected EXPECTED --samples SAMPLES
//! ```
//!
//! `TARGETS` gets one request target per line. `EXPECTED` gets one 14-byte
//! little-endian record per target: status `u16`, body length `u32`,
//! FNV-1a of the body `u64`. `SAMPLES` gets the verbatim answer of every
//! target whose index is a multiple of [`SAMPLE_EVERY`], as index `u64`,
//! status `u16`, length `u32`, then the bytes — the layout the load
//! generator writes its sampled replies in.

use std::process::ExitCode;
use std::sync::Arc;

use ens_dropcatch::Dataset;
use ens_serve::{ServeHandle, ServeState};
use perfbench_reference::{answer, fnv1a, mix, SAMPLE_EVERY};

struct Args {
    dataset: String,
    threads: usize,
    seed: u64,
    count: usize,
    targets: String,
    expected: String,
    samples: String,
}

fn parse_args() -> Result<Args, String> {
    let mut values = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(flag, value);
    }
    let mut take = |flag: &str| values.remove(flag).ok_or_else(|| format!("{flag} is required"));
    let number = |flag: &str, v: String| v.parse().map_err(|_| format!("bad {flag} {v:?}"));
    let args = Args {
        dataset: take("--dataset")?,
        threads: number("--threads", take("--threads")?)?,
        seed: number("--seed", take("--seed")?)? as u64,
        count: number("--count", take("--count")?)?,
        targets: take("--targets")?,
        expected: take("--expected")?,
        samples: take("--samples")?,
    };
    match values.keys().next() {
        Some(extra) => Err(format!("unknown flag {extra}")),
        None if args.threads == 0 || args.count == 0 => {
            Err("--threads and --count must be >= 1".into())
        }
        None => Ok(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-reference: {e}");
            return ExitCode::from(2);
        }
    };
    let dataset = match Dataset::load(std::path::Path::new(&args.dataset)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench-reference: cannot load {}: {e}", args.dataset);
            return ExitCode::FAILURE;
        }
    };
    let handle = ServeHandle::new(Arc::new(ServeState::build(dataset, args.threads)));
    let targets = mix(handle.state(), args.seed, args.count);

    // Answer in `threads` contiguous chunks; each chunk's bytes are
    // appended in order, so the files do not depend on the thread count.
    let chunk = targets.len().div_ceil(args.threads);
    let parts: Vec<(Vec<u8>, Vec<u8>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = targets
            .chunks(chunk)
            .enumerate()
            .map(|(c, slice)| {
                let handle = &handle;
                scope.spawn(move || {
                    let (mut expected, mut samples) = (Vec::new(), Vec::new());
                    for (k, target) in slice.iter().enumerate() {
                        let index = c * chunk + k;
                        let (status, body) = answer(handle, target);
                        expected.extend_from_slice(&status.to_le_bytes());
                        expected.extend_from_slice(&(body.len() as u32).to_le_bytes());
                        expected.extend_from_slice(&fnv1a(body.as_bytes()).to_le_bytes());
                        if index % SAMPLE_EVERY == 0 {
                            samples.extend_from_slice(&(index as u64).to_le_bytes());
                            samples.extend_from_slice(&status.to_le_bytes());
                            samples.extend_from_slice(&(body.len() as u32).to_le_bytes());
                            samples.extend_from_slice(body.as_bytes());
                        }
                    }
                    (expected, samples)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("answer thread panicked"))
            .collect()
    });
    let (expected, samples): (Vec<Vec<u8>>, Vec<Vec<u8>>) = parts.into_iter().unzip();
    let mut text = targets.join("\n");
    text.push('\n');
    for (path, bytes) in [
        (&args.targets, text.into_bytes()),
        (&args.expected, expected.concat()),
        (&args.samples, samples.concat()),
    ] {
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("perfbench-reference: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

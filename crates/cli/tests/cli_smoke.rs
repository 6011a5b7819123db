//! End-to-end smoke tests of the `ens-dropcatch` binary: simulate → export
//! → offline re-analysis, plus argument validation.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ens-dropcatch"))
}

#[test]
fn run_produces_a_report_and_csv_bundle() {
    let dir = std::env::temp_dir().join(format!("ens-cli-smoke-{}", std::process::id()));
    let csv_dir = dir.join("csv");
    let dataset = dir.join("dataset.json");
    std::fs::create_dir_all(&dir).unwrap();

    let output = bin()
        .args([
            "run",
            "--names",
            "300",
            "--seed",
            "5",
            "--csv",
            csv_dir.to_str().unwrap(),
            "--dataset",
            dataset.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    for section in ["Fig 2", "Table 1", "Table 2", "resale market"] {
        assert!(stdout.contains(section), "missing {section}");
    }
    assert!(csv_dir.join("fig2_timeline.csv").exists());
    assert!(dataset.exists());

    // Offline re-analysis of the exported dataset reproduces detection.
    let output = bin()
        .args(["analyze", "--dataset", dataset.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout2 = String::from_utf8_lossy(&output.stdout);
    assert!(stdout2.contains("Table 1"));
    // Re-registration overview (Fig 4 section) must match the online run.
    let fig4 = |s: &str| {
        s.lines()
            .skip_while(|l| !l.contains("Fig 4"))
            .take(8)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(fig4(&stdout), fig4(&stdout2), "offline analysis diverged");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn columnar_export_analyzes_identically_to_json() {
    let dir = std::env::temp_dir().join(format!("ens-cli-columnar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("dataset.json");
    let ensc = dir.join("dataset.ensc");

    // Same world exported in both formats: the extension alone picks the
    // format on the write path.
    for path in [&json, &ensc] {
        let output = bin()
            .args([
                "simulate",
                "--names",
                "200",
                "--seed",
                "5",
                "--dataset",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let json_len = std::fs::metadata(&json).unwrap().len();
    let ensc_len = std::fs::metadata(&ensc).unwrap().len();
    assert!(
        ensc_len * 2 <= json_len,
        "columnar {ensc_len} bytes should be at most half of JSON {json_len}"
    );

    // `analyze` auto-detects each format and produces identical reports.
    let mut reports = Vec::new();
    for path in [&json, &ensc] {
        let output = bin()
            .args(["analyze", "--verbose", "--dataset", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        reports.push(String::from_utf8_lossy(&output.stdout).into_owned());
    }
    assert_eq!(reports[0], reports[1], "reports diverge across formats");

    // --verbose names the detected input format.
    let output = bin()
        .args(["analyze", "--verbose", "--dataset", ensc.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("detected columnar dataset"),
        "verbose run does not name the format: {stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn format_flag_is_validated() {
    // Unknown --format values are rejected with a clear error.
    let output = bin()
        .args(["simulate", "--names", "10", "--format", "parquet"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown --format \"parquet\""),
        "missing clear message: {stderr}"
    );

    // A --format that contradicts the --dataset extension is rejected
    // before any work happens.
    let output = bin()
        .args([
            "simulate",
            "--names",
            "10",
            "--format",
            "columnar",
            "--dataset",
            "/tmp/out.json",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("contradicts"),
        "missing mismatch message: {stderr}"
    );
    assert!(
        !std::path::Path::new("/tmp/out.json").exists(),
        "nothing may be written on a rejected export"
    );
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    let output = bin().arg("frobnicate").output().expect("binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));

    let output = bin()
        .args(["simulate", "--names", "10"])
        .output()
        .expect("binary runs");
    assert!(
        !output.status.success(),
        "simulate without --dataset must fail"
    );
}

#[test]
fn threads_zero_is_rejected_with_a_clear_message() {
    // Out-of-range counts exit 2 with the error, then the usage. The `run`
    // rows build a 50-name world and the `serve` rows name a missing file,
    // so a binary that took the value would start few threads and finish.
    let run = ["run", "--names", "50"];
    let serve = ["serve", "--dataset", "no-such-dataset.ensc"];
    for (command, flag, value) in [
        (run, "--threads", "0"),
        (run, "--threads", "1025"),
        (serve, "--workers", "0"),
        (serve, "--workers", "1025"),
        (run, "--page-size", "0"),
    ] {
        let output = bin()
            .args(command)
            .args([flag, value])
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let bound = if value == "0" { ">= 1" } else { "<= 1024" };
        let message = format!("{flag} must be {bound} (got {value})");
        assert!(stderr.contains(&message), "got: {stderr}");
        assert!(stderr.contains("usage"), "usage follows the error");
        assert!(output.stdout.is_empty(), "no report on stdout");
    }
}

#[test]
fn serve_rejects_a_bad_dataset_before_it_starts() {
    let dir = std::env::temp_dir().join(format!("ens-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Bytes without the columnar magic are a JSON file.
    let json = dir.join("dataset.json");
    std::fs::write(&json, "{}").unwrap();
    let serve = |args: &[&str]| bin().arg("serve").args(args).output().expect("binary runs");

    let output = serve(&["--dataset", dir.join("missing.ensc").to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1), "unreadable file");
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot read"));
    assert!(output.stdout.is_empty(), "no server announced");

    let output = serve(&["--dataset", json.to_str().unwrap(), "--format", "columnar"]);
    assert_eq!(output.status.code(), Some(2), "contradicting --format");
    assert!(String::from_utf8_lossy(&output.stderr).contains("contradicts"));
    assert!(output.stdout.is_empty(), "no server announced");

    // Bytes that are not UTF-8 are a malformed dataset, not a failed read.
    let not_utf8 = dir.join("not-utf8.json");
    std::fs::write(&not_utf8, [0xFF, 0xFE, 0x7B, 0x7D]).unwrap();
    let output = serve(&["--dataset", not_utf8.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1), "non-UTF-8 dataset");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("dataset JSON failed"), "got: {stderr}");
    assert!(!stderr.contains("I/O failed"), "got: {stderr}");
    assert!(output.stdout.is_empty(), "no server announced");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_rejects_a_truncated_columnar_file() {
    let dir = std::env::temp_dir().join(format!("ens-cli-truncated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ensc = dir.join("dataset.ensc");
    let output = bin()
        .args(["simulate", "--names", "60", "--seed", "5", "--dataset"])
        .arg(&ensc)
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let bytes = std::fs::read(&ensc).unwrap();
    // Cut inside the directory, and inside the last section: the reader
    // checks both against the file's size before it reads a payload.
    for cut in [40, bytes.len() - 1] {
        let truncated = dir.join(format!("cut-{cut}.ensc"));
        std::fs::write(&truncated, &bytes[..cut]).unwrap();
        let output = bin()
            .args(["analyze", "--dataset"])
            .arg(&truncated)
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(1), "cut at {cut}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("cannot parse dataset") && stderr.contains("truncated"),
            "cut at {cut}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "cut at {cut}: no report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_json_writes_a_snapshot_with_both_sections() {
    let dir = std::env::temp_dir().join(format!("ens-cli-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");

    // With `--dataset`, so the write is spanned too.
    let output = bin()
        .args([
            "run",
            "--names",
            "200",
            "--seed",
            "5",
            "--dataset",
            dir.join("dataset.ensc").to_str().unwrap(),
            "--metrics-json",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let snapshot = std::fs::read_to_string(&path).expect("snapshot written");
    for key in [
        "\"deterministic\"",
        "\"counters\"",
        "\"histograms\"",
        "\"spans\"",
        "\"wall_clock_ms\"",
        "\"collect\"",
        "\"study\"",
        "\"crawl/subgraph/pages\"",
        // Every stage of `run` has a span: world synthesis and its two
        // phases, both source indexes, the crawl, encode, write and the
        // study.
        "\"world\"",
        "\"world/plan\"",
        "\"world/execute\"",
        "\"sources/subgraph\"",
        "\"sources/explorer\"",
        "\"columnar/encode\"",
        "\"storage/write\"",
        "\"report/render\"",
        // The spans the docs cite for Fig 1, §3 and each §4 pass.
        "\"collect/crawl/subgraph\"",
        "\"collect/crawl/txlist\"",
        "\"collect/crawl/market\"",
        "\"study/index\"",
        "\"study/index/detect\"",
        "\"study/overview\"",
        "\"study/features\"",
        "\"study/losses\"",
        "\"study/resale\"",
        "\"study/countermeasures\"",
    ] {
        assert!(snapshot.contains(key), "snapshot missing {key}");
    }

    // The deterministic section is identical across thread counts; only
    // the wall-clock section may move.
    let p2 = dir.join("metrics-t2.json");
    let output = bin()
        .args([
            "run",
            "--names",
            "200",
            "--seed",
            "5",
            "--threads",
            "2",
            "--dataset",
            dir.join("dataset-t2.ensc").to_str().unwrap(),
            "--metrics-json",
            p2.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let deterministic = |s: &str| {
        let start = s.find("\"deterministic\"").unwrap();
        let end = s.find("\"wall_clock_ms\"").unwrap();
        s[start..end].to_string()
    };
    let t2 = std::fs::read_to_string(&p2).unwrap();
    assert_eq!(
        deterministic(&snapshot),
        deterministic(&t2),
        "deterministic metrics diverge across thread counts"
    );

    // `analyze` spans every stage of both formats: the file read, the
    // decode (a columnar file's in four stages, each reading its own
    // sections), the study and the render; a JSON export spans its encode.
    let snapshot_of = |args: &[&str], name: &str| {
        let path = dir.join(name);
        let output = bin()
            .args(args)
            .args(["--metrics-json", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read_to_string(&path).expect("snapshot written")
    };
    let json = dir.join("dataset.json");
    let json = json.to_str().unwrap();
    let ensc = dir.join("dataset.ensc");
    let ensc = ensc.to_str().unwrap();
    let cases: [(&[&str], &[&str]); 3] = [
        (
            &[
                "simulate",
                "--names",
                "200",
                "--seed",
                "5",
                "--dataset",
                json,
            ],
            &["\"json/encode\"", "\"storage/write\""],
        ),
        (
            &["analyze", "--dataset", ensc],
            &[
                "\"storage/read\"",
                "\"columnar/decode\"",
                "\"columnar/decode/pools\"",
                "\"columnar/decode/domains\"",
                "\"columnar/decode/transactions\"",
                "\"columnar/decode/other\"",
                "\"study\"",
                "\"report/render\"",
            ],
        ),
        (
            &["analyze", "--dataset", json],
            &[
                "\"storage/read\"",
                "\"json/decode\"",
                "\"study\"",
                "\"report/render\"",
            ],
        ),
    ];
    for (i, (args, keys)) in cases.iter().enumerate() {
        let snapshot = snapshot_of(args, &format!("stage-{i}.json"));
        for key in *keys {
            assert!(snapshot.contains(key), "{args:?} snapshot missing {key}");
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

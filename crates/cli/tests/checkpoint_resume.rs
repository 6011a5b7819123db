//! End-to-end crash/resume through the binary: an injected kill leaves a
//! checkpoint behind, `--resume` completes the crawl, and the exported
//! dataset is byte-for-byte the uninterrupted one. Plus validation of the
//! checkpoint/chaos flag surface.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ens-dropcatch"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ens-cli-ckpt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unknown_chaos_profile_exits_2_and_lists_the_valid_names() {
    let output = bin()
        .args(["run", "--names", "50", "--chaos", "frobnicate"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("frobnicate"),
        "stderr should echo the bad profile: {stderr}"
    );
    for name in [
        "none",
        "flaky",
        "rate-limit-storm",
        "timeouts",
        "holes",
        "mixed",
    ] {
        assert!(
            stderr.contains(name),
            "stderr should list valid profile {name:?}: {stderr}"
        );
    }
}

#[test]
fn checkpoint_flags_require_a_checkpoint_path() {
    for flags in [
        vec!["--resume"],
        vec!["--checkpoint-every", "8"],
        vec!["--kill-after", "5"],
    ] {
        let output = bin()
            .args(["simulate", "--names", "50"])
            .args(&flags)
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flags:?} without --checkpoint must exit 2"
        );
        assert!(String::from_utf8_lossy(&output.stderr).contains("--checkpoint"));
    }
}

#[test]
fn kill_then_resume_reproduces_the_uninterrupted_dataset() {
    let dir = temp_dir("kill-resume");
    let baseline = dir.join("baseline.ensc");
    let resumed = dir.join("resumed.ensc");
    let ckpt = dir.join("crawl.ckpt");
    let world_args = ["--names", "300", "--seed", "5", "--page-size", "32"];

    // Uninterrupted reference export.
    let output = bin()
        .args(["simulate"])
        .args(world_args)
        .args(["--dataset", baseline.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Killed run: dies mid-crawl, retains the checkpoint, writes nothing.
    let output = bin()
        .args(["simulate"])
        .args(world_args)
        .args([
            "--dataset",
            resumed.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "2",
            "--kill-after",
            "5",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(1),
        "an injected kill fails the run"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("rerun with --resume"),
        "missing resume hint: {stderr}"
    );
    assert!(ckpt.exists(), "the kill must leave the checkpoint behind");
    assert!(!resumed.exists(), "a killed run exports no dataset");

    // Resume: completes, deletes the checkpoint, exports identical bytes.
    let output = bin()
        .args(["simulate"])
        .args(world_args)
        .args([
            "--dataset",
            resumed.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "2",
            "--resume",
            "--threads",
            "4",
        ])
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!ckpt.exists(), "a completed run deletes its checkpoint");
    let a = std::fs::read(&baseline).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(a, b, "resumed dataset differs from the uninterrupted one");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_from_another_preset_is_stale_not_spliced() {
    let dir = temp_dir("cross-preset");
    let ckpt = dir.join("crawl.ckpt");
    let clean = dir.join("clean.ensc");
    let resumed = dir.join("resumed.ensc");
    let metrics = dir.join("metrics.json");
    // `default` and `paper-scale` share the crawl configuration and the
    // observation window, so only the world itself tells them apart.
    let crawl_args = [
        "--names",
        "600",
        "--seed",
        "7",
        "--page-size",
        "64",
        "--chaos",
        "mixed:2024",
        "--fail-policy",
        "degrade",
        "--min-recovery",
        "0.5",
    ];
    let simulate = |preset: &str, extra: &[&str]| {
        bin()
            .args(["simulate", "--preset", preset])
            .args(crawl_args)
            .args(extra)
            .output()
            .expect("binary runs")
    };

    let output = simulate(
        "default",
        &[
            "--dataset",
            dir.join("dead.ensc").to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "8",
            "--kill-after",
            "60",
        ],
    );
    assert_eq!(
        output.status.code(),
        Some(1),
        "the injected kill fails the run"
    );
    assert!(ckpt.exists(), "the kill must leave a checkpoint behind");

    let output = simulate(
        "paper-scale",
        &[
            "--dataset",
            resumed.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "8",
            "--resume",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ],
    );
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        snapshot.contains("\"checkpoint/stale_fallback\": 1"),
        "the other preset's checkpoint must be discarded as stale: {snapshot}"
    );
    assert!(
        !snapshot.contains("\"checkpoint/loads\""),
        "the other preset's checkpoint was spliced: {snapshot}"
    );

    let output = simulate("paper-scale", &["--dataset", clean.to_str().unwrap()]);
    assert!(output.status.success());
    let a = std::fs::read(&clean).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(
        a, b,
        "the resumed dataset differs from a clean paper-scale run"
    );

    std::fs::remove_dir_all(&dir).ok();
}

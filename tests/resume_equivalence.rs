//! The crash-safety headline guarantee: a crawl killed at *any* point and
//! resumed from its checkpoint produces a dataset and [`CrawlReport`]
//! byte-identical to an uninterrupted run — under every named chaos
//! profile, at kill points covering every collection phase, across
//! mismatched kill/resume thread counts, through multi-crash chains, and
//! in the face of a torn staging file or an outright corrupt checkpoint
//! (which must degrade to a clean full crawl, never a panic or a
//! mis-splice).

use std::path::PathBuf;

use ens_dropcatch_suite::analysis::{
    remove_chain, CheckpointSpec, CollectError, CrawlConfig, Dataset, FailurePolicy, Metrics,
};
use ens_dropcatch_suite::subgraph::SubgraphConfig;
use ens_dropcatch_suite::types::{FaultKind, FaultProfile, KillSwitch};
use ens_dropcatch_suite::workload::{World, WorldConfig};

fn world() -> World {
    WorldConfig::small().with_names(250).with_seed(91).build()
}

fn config(profile: Option<FaultProfile>, threads: usize) -> CrawlConfig {
    CrawlConfig {
        chaos: profile,
        failure: FailurePolicy::degrade(),
        // Small pages force many shards, so kill points land mid-phase
        // and the thread pool has real interleaving to get wrong.
        subgraph_page_size: 32,
        txlist_page_size: 16,
        market_page_size: 8,
        ..CrawlConfig::with_threads(threads)
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ens-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.ckpt"))
}

/// Uninterrupted baseline (no checkpointing at all) for a profile.
fn baseline(world: &World, profile: Option<FaultProfile>) -> (String, u64) {
    let sg = world.subgraph(SubgraphConfig::lossless());
    let scan = world.etherscan();
    let (ds, _) = Dataset::try_collect_with(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &config(profile, 1),
    )
    .expect("degrade policy completes under every named profile");
    let total_pages = (ds.crawl_report.subgraph.pages
        + ds.crawl_report.txlist.pages
        + ds.crawl_report.market.pages) as u64;
    (ds.to_json().expect("serializes"), total_pages)
}

/// One checkpointed collection attempt; `kill_after` of `None` runs to
/// completion.
// The fat Err mirrors `CollectError`: the crawl error carries the full
// partial accounting, and these tests want all of it.
#[allow(clippy::result_large_err)]
fn attempt(
    world: &World,
    profile: Option<FaultProfile>,
    threads: usize,
    spec: &CheckpointSpec,
    kill_after: Option<u64>,
    metrics: &Metrics,
) -> Result<String, CollectError> {
    let sg = world.subgraph(SubgraphConfig::lossless());
    let scan = world.etherscan();
    Dataset::try_collect_checkpointed(
        &sg,
        &scan,
        world.opensea(),
        world.observation_end(),
        &config(profile, threads),
        metrics,
        spec,
        kill_after.map(KillSwitch::new),
    )
    .map(|(ds, _)| ds.to_json().expect("serializes"))
}

fn expect_killed(result: Result<String, CollectError>, budget: u64) {
    match result {
        Err(CollectError::Crawl(e)) => {
            assert!(
                matches!(e.kind, FaultKind::Killed { after_n_pages } if after_n_pages == budget),
                "expected an injected kill after {budget} pages, got {e:?}"
            );
        }
        Ok(_) => panic!("crawl survived a kill budget of {budget} pages"),
        Err(other) => panic!("expected a killed crawl, got {other:?}"),
    }
}

#[test]
fn resume_is_byte_identical_for_every_named_profile_and_kill_point() {
    let world = world();
    // Resume thread counts rotate through the matrix so every profile
    // exercises a kill/resume thread mismatch somewhere.
    let thread_matrix = [1usize, 2, 8];
    for (pi, name) in FaultProfile::NAMED.iter().enumerate() {
        let profile = Some(FaultProfile::named(name, 4242).expect("named profile"));
        let (expected, total_pages) = baseline(&world, profile.clone());
        assert!(total_pages > 3, "world too small for kill points");
        // First page, mid-crawl (inside the keyed txlist phase for this
        // workload), and the page before the finish line.
        let kill_points = [1, total_pages / 2, total_pages - 1];
        for (ki, &kill_at) in kill_points.iter().enumerate() {
            let path = temp_path(&format!("matrix-{name}-{kill_at}"));
            let spec = CheckpointSpec::new(&path).every(4);
            // The kill switch is exact at one thread but can over-serve a
            // few pages under concurrency — harmless mid-crawl, but a
            // budget of `total - 1` could racily *complete* instead of
            // dying, so the last-page kill always runs sequentially.
            let kill_threads = if ki == 2 {
                1
            } else {
                thread_matrix[(pi + ki) % thread_matrix.len()]
            };
            let resume_threads = thread_matrix[(pi + ki + 1) % thread_matrix.len()];
            expect_killed(
                attempt(
                    &world,
                    profile.clone(),
                    kill_threads,
                    &spec,
                    Some(kill_at),
                    &Metrics::disabled(),
                ),
                kill_at,
            );
            let metrics = Metrics::new();
            let resumed = attempt(
                &world,
                profile.clone(),
                resume_threads,
                &spec.clone().resuming(),
                None,
                &metrics,
            )
            .expect("resume completes");
            assert_eq!(
                resumed, expected,
                "profile {name}, kill at page {kill_at}, \
                 {kill_threads} -> {resume_threads} threads"
            );
            let snap = metrics.snapshot();
            if kill_at >= 4 {
                // At least one cadence bucket was crossed before death, so
                // the resume really did splice instead of refetching.
                assert_eq!(snap.counter("checkpoint/loads"), 1, "profile {name}");
                assert!(
                    snap.counter("checkpoint/skipped_pages") > 0,
                    "profile {name} kill {kill_at}: nothing spliced"
                );
            }
            assert!(!path.exists(), "a completed run deletes its checkpoint");
        }
    }
}

#[test]
fn checkpointed_run_without_a_kill_matches_plain_collection() {
    let world = world();
    let profile = Some(FaultProfile::named("mixed", 4242).unwrap());
    let (expected, _) = baseline(&world, profile.clone());
    for threads in [1, 8] {
        let path = temp_path(&format!("nokill-{threads}"));
        let spec = CheckpointSpec::new(&path).every(4);
        let metrics = Metrics::new();
        let got = attempt(&world, profile.clone(), threads, &spec, None, &metrics)
            .expect("no kill, no failure");
        assert_eq!(got, expected, "checkpointing changed the bytes");
        assert!(metrics.snapshot().counter("checkpoint/writes") > 0);
        assert!(!path.exists());
    }
}

#[test]
fn a_killed_run_reports_every_segment_it_wrote() {
    let world = world();
    let profile = Some(FaultProfile::named("mixed", 4242).unwrap());
    let (_, total_pages) = baseline(&world, profile.clone());
    let path = temp_path("killed-writes");
    let spec = CheckpointSpec::new(&path).every(4);
    let metrics = Metrics::new();
    let kill_at = total_pages / 2;
    expect_killed(
        attempt(&world, profile, 1, &spec, Some(kill_at), &metrics),
        kill_at,
    );
    let segment = |i: u64| match i {
        0 => path.clone(),
        i => PathBuf::from(format!("{}.{i}", path.display())),
    };
    let segments = (0..).take_while(|&i| segment(i).exists()).count() as u64;
    assert!(segments > 0, "the kill landed after a cadence save");
    assert_eq!(
        metrics.snapshot().counter("checkpoint/writes"),
        segments,
        "the killed run's snapshot counts the segments it left on disk"
    );
    remove_chain(&path);
}

#[test]
fn a_torn_staging_file_from_a_mid_write_crash_is_ignored() {
    // Kill the process, then simulate a second crash *between the
    // checkpoint temp-write and the rename*: a garbage `.tmp` sibling.
    // The resume must splice from the intact main file and overwrite the
    // staging leftover, reproducing the uninterrupted bytes.
    let world = world();
    let profile = Some(FaultProfile::named("flaky", 4242).unwrap());
    let (expected, total_pages) = baseline(&world, profile.clone());
    let path = temp_path("torn-staging");
    let spec = CheckpointSpec::new(&path).every(2);
    expect_killed(
        attempt(
            &world,
            profile.clone(),
            2,
            &spec,
            Some(total_pages / 2),
            &Metrics::disabled(),
        ),
        total_pages / 2,
    );
    assert!(path.exists(), "a mid-crawl kill leaves the checkpoint");
    let staging = PathBuf::from(format!("{}.tmp", path.display()));
    std::fs::write(&staging, b"torn half-written garbage").unwrap();
    let metrics = Metrics::new();
    let resumed = attempt(&world, profile, 1, &spec.clone().resuming(), None, &metrics)
        .expect("resume ignores the staging file");
    assert_eq!(resumed, expected);
    assert_eq!(metrics.snapshot().counter("checkpoint/loads"), 1);
    assert!(!staging.exists(), "success cleans up the staging sibling");
}

#[test]
fn a_corrupt_checkpoint_falls_back_to_a_clean_full_crawl() {
    let world = world();
    let profile = Some(FaultProfile::named("holes", 4242).unwrap());
    let (expected, total_pages) = baseline(&world, profile.clone());
    let path = temp_path("corrupt");
    let spec = CheckpointSpec::new(&path).every(2);
    expect_killed(
        attempt(
            &world,
            profile.clone(),
            1,
            &spec,
            Some(total_pages / 2),
            &Metrics::disabled(),
        ),
        total_pages / 2,
    );
    // Truncate the checkpoint mid-file: checksums cannot hold.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let metrics = Metrics::new();
    let resumed = attempt(&world, profile, 2, &spec.clone().resuming(), None, &metrics)
        .expect("corrupt checkpoint degrades to a full crawl");
    assert_eq!(resumed, expected, "fallback crawl must still match");
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("checkpoint/corrupt_fallback"), 1);
    assert_eq!(snap.counter("checkpoint/loads"), 0, "nothing was spliced");
    assert_eq!(snap.counter("checkpoint/skipped_pages"), 0);
}

#[test]
fn a_stale_checkpoint_from_a_different_config_is_discarded() {
    let world = world();
    let profile = Some(FaultProfile::named("flaky", 4242).unwrap());
    let (_, total_pages) = baseline(&world, profile.clone());
    let path = temp_path("stale");
    let spec = CheckpointSpec::new(&path).every(2);
    expect_killed(
        attempt(
            &world,
            profile.clone(),
            1,
            &spec,
            Some(total_pages / 2),
            &Metrics::disabled(),
        ),
        total_pages / 2,
    );
    // Resume under a *different* chaos profile: the fingerprint differs,
    // so splicing those shards would fabricate data. It must start clean
    // — and still match that profile's own uninterrupted baseline.
    let other = Some(FaultProfile::named("timeouts", 4242).unwrap());
    let (expected_other, _) = baseline(&world, other.clone());
    let metrics = Metrics::new();
    let resumed = attempt(&world, other, 1, &spec.clone().resuming(), None, &metrics)
        .expect("stale checkpoint degrades to a full crawl");
    assert_eq!(resumed, expected_other);
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("checkpoint/stale_fallback"), 1);
    assert_eq!(snap.counter("checkpoint/loads"), 0);
}

#[test]
fn a_chain_of_crashes_still_converges_to_the_uninterrupted_bytes() {
    let world = world();
    let profile = Some(FaultProfile::named("mixed", 4242).unwrap());
    let (expected, total_pages) = baseline(&world, profile.clone());
    let path = temp_path("chain");
    // Aggressive cadence so every crash preserves nearly all progress.
    let spec = CheckpointSpec::new(&path).every(1);
    let budget = (total_pages / 4).max(2);
    let mut crashes = 0;
    let final_bytes = loop {
        let threads = [1, 2, 8][crashes % 3];
        let run = attempt(
            &world,
            profile.clone(),
            threads,
            &spec.clone().resuming(),
            Some(budget),
            &Metrics::disabled(),
        );
        match run {
            Ok(bytes) => break bytes,
            Err(CollectError::Crawl(e)) => {
                assert!(
                    matches!(e.kind, FaultKind::Killed { .. }),
                    "unexpected failure in the crash chain: {e:?}"
                );
                crashes += 1;
                assert!(crashes < 50, "crash chain failed to make forward progress");
            }
            Err(other) => panic!("unexpected collection failure: {other:?}"),
        }
    };
    assert!(
        crashes >= 2,
        "the budget was meant to force several crashes"
    );
    assert_eq!(final_bytes, expected);
    assert!(!path.exists());
}

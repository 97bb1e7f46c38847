//! End-to-end witnesses for the `campaignd` subsystem: kill-and-resume
//! determinism (the merged document is byte-identical however often and
//! wherever a campaign dies), warm-resume (a resumed sweep re-earns the
//! serial `prefix_ops_saved`), real SIGKILL'd worker processes with lease
//! reclamation, and strict argument parsing for the grown binaries.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use bench::campaign::{
    runner::{self, RunOpts},
    store::CampaignStore,
    wire::counter_slot,
    CampaignSpec,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("chipmunk-camp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A campaign small enough to run in seconds but with several ACE tasks
/// (multi-workload subtree groups) and two dependent fuzz batches.
fn small_spec() -> CampaignSpec {
    CampaignSpec {
        seq1_take: 12,
        seq2_step: 0,
        fuzz_budget: 10,
        batch: 6,
        bitmap_bits: 1 << 12,
        ..CampaignSpec::default()
    }
}

fn opts() -> RunOpts {
    RunOpts { ttl: Duration::from_secs(3600), ..RunOpts::default() }
}

/// Runs a fresh campaign to completion and returns the merged document.
fn baseline(dir: &Path) -> (String, [u64; 20]) {
    let store = CampaignStore::open_or_init(dir, &small_spec()).unwrap();
    let sum = runner::run_worker(&store, &opts()).unwrap();
    assert!(!sum.interrupted);
    let merged = runner::merge(&store).unwrap();
    (merged.doc, merged.totals)
}

/// Kill-and-resume determinism: kill at a spread of journal checkpoints
/// (including mid-ACE-group and mid-fuzz-batch), resume, and require the
/// merged document byte-identical to the uninterrupted run. Byte identity
/// subsumes the warm-resume acceptance bar: the
/// resumed campaign re-earns exactly 100% (≥ 90%) of the serial
/// `prefix_ops_saved`, not a cold-cache zero.
#[test]
fn kill_and_resume_merge_is_byte_identical() {
    let base_dir = tmpdir("base");
    let (want_doc, want_totals) = baseline(&base_dir);
    assert!(
        want_totals[counter_slot("prefix_ops_saved")] > 0,
        "baseline must exercise the prefix cache"
    );

    // Checkpoint indices chosen to land in distinct places: inside the
    // first ACE batch (1, 4), inside the second (7), and inside each of
    // the two fuzz batches (14, 19) — all off task boundaries, so the
    // resume always has a partial journal to splice. The spec totals 22
    // checkpoints (12 ACE + 10 fuzz).
    for kill_at in [1u64, 4, 7, 14, 19] {
        let dir = tmpdir(&format!("kill-{kill_at}"));
        let store = CampaignStore::open_or_init(&dir, &small_spec()).unwrap();
        let mut killed = opts();
        killed.kill_after_checkpoints = Some(kill_at);
        let sum = runner::run_worker(&store, &killed).unwrap();
        assert!(sum.interrupted, "kill hook must fire at checkpoint {kill_at}");

        // Resume in the same process: the abandoned lease is reclaimed
        // via the self-pid staleness rule, exactly like a dead pid.
        let resumed = runner::run_worker(&store, &opts()).unwrap();
        assert!(!resumed.interrupted);
        assert!(
            resumed.journal_workloads_replayed > 0,
            "journaled workloads must be spliced, not re-run (kill at {kill_at})"
        );

        let merged = runner::merge(&store).unwrap();
        assert_eq!(merged.totals, want_totals, "totals diverged (kill at {kill_at})");
        assert!(
            merged.doc == want_doc,
            "merged document not byte-identical (kill at {kill_at})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base_dir);
}

/// Multi-worker fleets (in-process workers racing over the same store)
/// produce the identical document, and a double kill (kill, resume, kill
/// again, resume) still converges.
#[test]
fn parallel_workers_and_repeated_kills_converge() {
    let base_dir = tmpdir("base2");
    let (want_doc, _) = baseline(&base_dir);

    // Two threads racing over the store as independent "workers".
    let dir = tmpdir("fleet");
    let store = CampaignStore::open_or_init(&dir, &small_spec()).unwrap();
    std::thread::scope(|sc| {
        for w in 0..2 {
            let store = &store;
            sc.spawn(move || {
                let o = RunOpts {
                    worker_id: format!("t{w}"),
                    ttl: Duration::from_secs(3600),
                    ..RunOpts::default()
                };
                runner::run_worker(store, &o).unwrap();
            });
        }
    });
    assert_eq!(runner::merge(&store).unwrap().doc, want_doc);
    let _ = std::fs::remove_dir_all(&dir);

    // Kill twice at different checkpoints, then finish.
    let dir = tmpdir("twice");
    let store = CampaignStore::open_or_init(&dir, &small_spec()).unwrap();
    for kill_at in [2u64, 5] {
        let mut o = opts();
        o.kill_after_checkpoints = Some(kill_at);
        assert!(runner::run_worker(&store, &o).unwrap().interrupted);
    }
    let sum = runner::run_worker(&store, &opts()).unwrap();
    assert!(sum.tasks_resumed >= 1, "second resume must splice the journal");
    assert_eq!(runner::merge(&store).unwrap().doc, want_doc);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A real SIGKILL'd worker *process*: spawn `campaignd --worker`, kill it
/// mid-campaign, verify its lease is left behind, then let an in-process
/// worker reclaim it and finish — the merged document must match the
/// serial baseline, and no lease may survive completion.
#[test]
fn sigkilled_worker_process_is_reclaimed() {
    let base_dir = tmpdir("base3");
    let (want_doc, _) = baseline(&base_dir);

    let dir = tmpdir("sigkill");
    let store = CampaignStore::open_or_init(&dir, &small_spec()).unwrap();
    // A long TTL proves reclamation runs on pid-liveness, not timeout.
    let mut child = Command::new(env!("CARGO_BIN_EXE_campaignd"))
        .args(["--worker", "--store"])
        .arg(&dir)
        .args(["--ttl-ms", "3600000", "--worker-id", "doomed"])
        .spawn()
        .expect("spawn campaignd worker");
    // Let it claim a lease and journal some work, then SIGKILL it.
    let lease_dir = dir.join("leases");
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let leased = std::fs::read_dir(&lease_dir)
            .map(|d| d.count())
            .unwrap_or(0);
        if leased > 0 && std::fs::read_dir(dir.join("journal")).map(|d| d.count()).unwrap_or(0) > 0
        {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "worker never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL the worker"); // kill() is SIGKILL on unix
    child.wait().unwrap();
    assert!(
        std::fs::read_dir(&lease_dir).unwrap().count() > 0,
        "the killed worker must leave its lease behind"
    );

    let sum = runner::run_worker(&store, &opts()).unwrap();
    assert!(!sum.interrupted);
    assert_eq!(
        std::fs::read_dir(&lease_dir).unwrap().count(),
        0,
        "all leases (including the dead worker's) must be reclaimed and released"
    );
    assert_eq!(runner::merge(&store).unwrap().doc, want_doc);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--die-after` hook aborts the worker process at a checkpoint
/// boundary (the CI smoke job's deterministic SIGKILL stand-in) and a
/// `--resume` coordinator finishes the campaign with identical output.
#[test]
fn die_after_worker_then_resume_coordinator() {
    let base_dir = tmpdir("base4");
    let (want_doc, _) = baseline(&base_dir);

    let dir = tmpdir("dieafter");
    CampaignStore::open_or_init(&dir, &small_spec()).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_campaignd"))
        .args(["--worker", "--store"])
        .arg(&dir)
        .args(["--ttl-ms", "3600000", "--worker-id", "doomed", "--die-after", "3"])
        .status()
        .expect("spawn campaignd worker");
    assert!(!status.success(), "--die-after must abort the process");

    let status = Command::new(env!("CARGO_BIN_EXE_campaignd"))
        .args(["--resume"])
        .arg(&dir)
        .args(["--workers", "2", "--ttl-ms", "3600000"])
        .status()
        .expect("spawn campaignd coordinator");
    assert!(status.success(), "resume coordinator must succeed");
    let doc = std::fs::read_to_string(dir.join("campaign.json")).unwrap();
    assert_eq!(doc, want_doc);
    assert!(dir.join("run.json").exists());
    assert!(dir.join("coverage/state.bits").exists());
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strict argument parsing (`bench::cli`): unknown flags (the store flags
/// `campaign` and `hunt` no longer take, and `campaignd --threads`, among
/// them), malformed numbers — `eadr forty` used to run the default budget —
/// extra positionals, a trailing `--json` without its path, and
/// contradictory modes all exit 2.
#[test]
fn grown_binaries_reject_bad_args_with_exit_2() {
    let cases: &[(&str, &[&str])] = &[
        (env!("CARGO_BIN_EXE_campaign"), &["--wat"]),
        (env!("CARGO_BIN_EXE_campaign"), &["two"]),
        (env!("CARGO_BIN_EXE_campaign"), &["1", "extra"]),
        (env!("CARGO_BIN_EXE_campaign"), &["--store", "/tmp/x"]),
        (env!("CARGO_BIN_EXE_figure3"), &["--wat"]),
        (env!("CARGO_BIN_EXE_figure3"), &["bogus"]),
        (env!("CARGO_BIN_EXE_figure3"), &["100", "notanum"]),
        (env!("CARGO_BIN_EXE_figure3"), &["100", "1", "norep", "extra"]),
        (env!("CARGO_BIN_EXE_campaignd"), &["--wat"]),
        (env!("CARGO_BIN_EXE_campaignd"), &[]),
        (env!("CARGO_BIN_EXE_campaignd"), &["--store", "/tmp/x", "--resume", "/tmp/y"]),
        (env!("CARGO_BIN_EXE_campaignd"), &["--resume", "/tmp/x", "--fs", "NOVA"]),
        (env!("CARGO_BIN_EXE_campaignd"), &["--store", "/tmp/x", "--die-after", "3"]),
        (env!("CARGO_BIN_EXE_campaignd"), &["--store", "/tmp/x", "--bitmap-bits", "1000"]),
        (env!("CARGO_BIN_EXE_campaignd"), &["--store", "/tmp/x", "--bug", "999"]),
        (env!("CARGO_BIN_EXE_campaignd"), &["--store", "/tmp/x", "--threads", "2"]),
        (env!("CARGO_BIN_EXE_hunt"), &["14", "--store", "/tmp/x"]),
        (env!("CARGO_BIN_EXE_hunt"), &["--resume", "/tmp/x"]),
        (env!("CARGO_BIN_EXE_table1"), &["x"]),
        (env!("CARGO_BIN_EXE_table1"), &["40", "extra"]),
        (env!("CARGO_BIN_EXE_eadr"), &["forty"]),
        (env!("CARGO_BIN_EXE_eadr"), &["--wat"]),
        (env!("CARGO_BIN_EXE_cap_sweep"), &["x"]),
        (env!("CARGO_BIN_EXE_chaos"), &["x"]),
        (env!("CARGO_BIN_EXE_chaos"), &["2", "extra"]),
        (env!("CARGO_BIN_EXE_chaos"), &["--json"]),
        (env!("CARGO_BIN_EXE_chaos"), &["2", "--json"]),
        (env!("CARGO_BIN_EXE_figure3"), &["100", "--json"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(*args).output().expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{} {:?} must exit 2 (stderr: {})",
            bin,
            args,
            String::from_utf8_lossy(&out.stderr),
        );
    }
}

//! End-to-end witnesses for the `campaignd` subsystem: kill-and-resume
//! determinism (the merged document is byte-identical however often and
//! wherever a campaign dies), warm-resume (a resumed sweep re-earns the
//! serial `prefix_ops_saved`), real SIGKILL'd worker processes with lease
//! reclamation, and strict argument parsing for every `chipmunk` subcommand.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use bench::campaign::{
    queue::{Claim, WorkQueue},
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
    RunOpts::default()
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
                let o = RunOpts { worker_id: format!("t{w}"), ..RunOpts::default() };
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

/// A worker stopped by the soft kill hook leaves its lease behind, and a
/// worker with another id in the same process reclaims it as soon as the
/// stopped call has returned: no timeout stands between them.
#[test]
fn returned_workers_lease_is_reclaimed_by_a_sibling_at_once() {
    let base_dir = tmpdir("base6");
    let (want_doc, _) = baseline(&base_dir);

    let dir = tmpdir("sibling");
    let store = CampaignStore::open_or_init(&dir, &small_spec()).unwrap();
    let quitter = RunOpts {
        worker_id: "quitter".into(),
        kill_after_checkpoints: Some(2),
        ..RunOpts::default()
    };
    assert!(runner::run_worker(&store, &quitter).unwrap().interrupted);
    assert!(store.lease_path(0).exists(), "the stopped worker leaves its lease");
    match WorkQueue::new(&store, "heir").claim(0) {
        Claim::Claimed(lease) => lease.release(),
        _ => panic!("a returned worker's lease must be reclaimable at once"),
    }
    let heir = RunOpts { worker_id: "heir".into(), ..RunOpts::default() };
    let sum = runner::run_worker(&store, &heir).unwrap();
    assert_eq!(sum.tasks_resumed, 1, "the heir splices the quitter's journal");
    assert_eq!(runner::merge(&store).unwrap().doc, want_doc);
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A real SIGKILL'd worker *process*: spawn `chipmunk campaignd --worker`, kill it
/// mid-campaign, verify its lease is left behind, then let an in-process
/// worker reclaim it and finish — the merged document must match the
/// serial baseline, and no lease may survive completion.
#[test]
fn sigkilled_worker_process_is_reclaimed() {
    let base_dir = tmpdir("base3");
    let (want_doc, _) = baseline(&base_dir);

    let dir = tmpdir("sigkill");
    let store = CampaignStore::open_or_init(&dir, &small_spec()).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_chipmunk"))
        .args(["campaignd", "--worker", "--store"])
        .arg(&dir)
        .args(["--worker-id", "doomed"])
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
    let status = Command::new(env!("CARGO_BIN_EXE_chipmunk"))
        .args(["campaignd", "--worker", "--store"])
        .arg(&dir)
        .args(["--worker-id", "doomed", "--die-after", "3"])
        .status()
        .expect("spawn campaignd worker");
    assert!(!status.success(), "--die-after must abort the process");

    let status = Command::new(env!("CARGO_BIN_EXE_chipmunk"))
        .args(["campaignd", "--resume"])
        .arg(&dir)
        .args(["--workers", "2"])
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

/// SIGKILL mid-claim: a dozen worker processes, each killed after a seeded
/// delay of 0–30 ms, so some kills land inside `create_new`'s temp write,
/// fsync or `link` and others mid-task. A two-worker `--resume` must
/// reclaim every lease they left — stray `*.claim` temp files included,
/// which must never block a claim — merge the serial baseline byte for
/// byte, and leave no lease behind.
#[test]
fn sigkill_mid_claim_then_resume_is_byte_identical() {
    // Many short tasks, so a claim (two fsyncs) comes every few ms; about
    // 0.4 s of work for one release-build worker, more than the twelve
    // kill delays add up to, so the kills always leave work for the resume.
    let spec = CampaignSpec { seq1_take: 0, seq2_step: 10, batch: 3, ..small_spec() };
    let base_dir = tmpdir("base5");
    let want_doc = {
        let store = CampaignStore::open_or_init(&base_dir, &spec).unwrap();
        runner::run_and_merge(&store, &opts()).unwrap().1.doc
    };

    let dir = tmpdir("midclaim");
    let store = CampaignStore::open_or_init(&dir, &spec).unwrap();
    let mut rng = 0x6b69_6c6c_u64;
    for i in 0..12 {
        rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let delay = Duration::from_millis((rng >> 33) % 31);
        let mut child = Command::new(env!("CARGO_BIN_EXE_chipmunk"))
            .args(["campaignd", "--worker", "--store"])
            .arg(&dir)
            .args(["--worker-id", &format!("k{i}")])
            .spawn()
            .expect("spawn campaignd worker");
        std::thread::sleep(delay);
        child.kill().expect("SIGKILL the worker");
        child.wait().unwrap();
    }
    let total = store.spec.total_tasks();
    assert!((0..total).any(|id| !store.result_exists(id)), "the kills left no work to resume");

    let status = Command::new(env!("CARGO_BIN_EXE_chipmunk"))
        .args(["campaignd", "--resume"])
        .arg(&dir)
        .args(["--workers", "2"])
        .status()
        .expect("spawn campaignd coordinator");
    assert!(status.success(), "resume coordinator must succeed");
    assert_eq!(std::fs::read_to_string(dir.join("campaign.json")).unwrap(), want_doc);
    let leases: Vec<String> = std::fs::read_dir(dir.join("leases"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".lease"))
        .collect();
    assert!(leases.is_empty(), "leases survived the resume: {leases:?}");
    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Strict argument parsing, shared by every `chipmunk` subcommand: no
/// subcommand or an unknown one, unknown flags (the store flags `campaign`
/// and `hunt` no longer take, and two retired `campaignd` flags, among
/// them), malformed numbers — `eadr forty` used to run the default budget — extra
/// positionals (including any argument to a subcommand that takes none), a
/// trailing `--json` without its path, an unknown bug number and
/// contradictory modes all exit 2.
#[test]
fn grown_binaries_reject_bad_args_with_exit_2() {
    let cases: &[&[&str]] = &[
        &[],
        &["wat"],
        &["campaign", "--wat"],
        &["campaign", "two"],
        &["campaign", "1", "extra"],
        &["campaign", "--store", "/tmp/x"],
        &["figure3", "--wat"],
        &["figure3", "bogus"],
        &["figure3", "100", "notanum"],
        &["figure3", "100", "1", "norep", "extra"],
        &["campaignd", "--wat"],
        &["campaignd"],
        &["campaignd", "--store", "/tmp/x", "--resume", "/tmp/y"],
        &["campaignd", "--resume", "/tmp/x", "--fs", "NOVA"],
        &["campaignd", "--store", "/tmp/x", "--die-after", "3"],
        &["campaignd", "--store", "/tmp/x", "--bitmap-bits", "1000"],
        &["campaignd", "--store", "/tmp/x", "--bug", "999"],
        &["campaignd", "--store", "/tmp/x", "--threads", "2"],
        &["campaignd", "--store", "/tmp/x", "--ttl-ms", "5"],
        &["hunt", "14", "--store", "/tmp/x"],
        &["hunt", "--resume", "/tmp/x"],
        &["hunt", "999"],
        &["table1", "x"],
        &["table1", "40", "extra"],
        &["table2", "x"],
        &["eadr", "forty"],
        &["eadr", "--wat"],
        &["cap_sweep", "x"],
        &["ablation", "--wat"],
        &["fixcost", "5"],
        &["ace_counts", "x"],
        &["crash_states", "--wat"],
        &["inflight", "1"],
        &["calibrate", "many"],
        &["chaos", "x"],
        &["chaos", "2", "extra"],
        &["chaos", "--json"],
        &["chaos", "2", "--json"],
        &["figure3", "100", "--json"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_chipmunk")).args(*args).output().expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "chipmunk {:?} must exit 2 (stderr: {})",
            args,
            String::from_utf8_lossy(&out.stderr),
        );
    }
}

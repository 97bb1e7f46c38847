//! Self-torture: the campaign store run under its own hostile-host fault
//! injector. The harness that crash-tests file systems must survive the
//! same discipline on its own persistence layer — short writes, EIO, torn
//! appends, lying devices, out-of-space, whole-host death at a rename —
//! and still converge to the byte-identical fault-free `campaign.json`,
//! or halt declaring why with zero corrupt committed artifacts.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bench::campaign::{
    hostio::{CrashSide, FaultSpec, HostCtx, StoreError},
    runner::{self, RunOpts},
    store::CampaignStore,
    CampaignSpec,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("chipmunk-tort-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Small but representative: several multi-workload ACE tasks plus two
/// dependent fuzz batches (22 journal checkpoints total).
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

/// The fault-free merged document every torture run must reproduce.
fn fault_free_doc(dir: &Path) -> String {
    let store = CampaignStore::open_or_init(dir, &small_spec()).unwrap();
    let (_, merged) = runner::run_and_merge(&store, &opts()).unwrap();
    merged.doc
}

/// Every committed result file in the store must parse — a halted torture
/// run may be incomplete, but it must never leave a corrupt artifact
/// claiming to be a committed result.
fn assert_no_corrupt_commits(dir: &Path) {
    let store = CampaignStore::open(dir).expect("reopen store read-only");
    for id in 0..store.spec.total_tasks() {
        if store.result_path(id).exists() {
            store
                .load_result(id)
                .unwrap_or_else(|e| panic!("committed result {id} is corrupt: {e}"));
        }
    }
}

/// The tentpole sweep: fault schedules x kill depths. Each cell runs the
/// campaign under the standard fault mix (every class enabled), optionally
/// dies at a journal checkpoint mid-flight and resumes, and must converge to
/// the byte-identical fault-free document — the retry, abandon/re-lease, and
/// quarantine machinery doing its job.
#[test]
fn torture_sweep_converges_to_fault_free_document() {
    let want = fault_free_doc(&tmpdir("sweep-base"));
    for seed in [0x1u64, 0x2e, 0xf16] {
        for kill_at in [None, Some(7u64)] {
            let tag = format!("sweep-{seed:x}-{}", kill_at.unwrap_or(0));
            let dir = tmpdir(&tag);
            let io = HostCtx::faulty(FaultSpec::standard(seed));
            let store = CampaignStore::open_or_init_with(&dir, &small_spec(), io)
                .expect("store init retries through transient faults");
            if let Some(k) = kill_at {
                let killed = RunOpts { kill_after_checkpoints: Some(k), ..opts() };
                let sum = runner::run_worker(&store, &killed).expect("interrupted run");
                assert!(sum.interrupted, "kill hook must fire ({tag})");
            }
            match runner::run_and_merge(&store, &opts()) {
                Ok((sum, merged)) => {
                    assert_eq!(
                        merged.doc, want,
                        "torture run diverged from fault-free baseline ({tag})"
                    );
                    assert!(sum.faults_injected > 0, "the injector must actually fire ({tag})");
                }
                // A declared halt is acceptable only if it is honest:
                // typed, and with no corrupt artifact left committed.
                Err(e) => {
                    assert!(
                        matches!(
                            e,
                            StoreError::Transient { .. }
                                | StoreError::Exhausted { .. }
                                | StoreError::Fatal { .. }
                        ),
                        "halt must carry a typed cause ({tag}): {e}"
                    );
                    assert_no_corrupt_commits(&dir);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Out of space mid-campaign: the worker stops with Exhausted (exit code
/// 3), the context flags degraded mode, and the read-only audit still
/// serves triage over everything committed before the disk filled.
#[test]
fn enospc_degrades_to_read_only_triage() {
    let dir = tmpdir("enospc");
    // Budget large enough to initialise the store and commit some early
    // work, small enough to run dry well before the campaign completes.
    let spec = FaultSpec { enospc_after_bytes: Some(6_000), ..FaultSpec::none(7) };
    let store = CampaignStore::open_or_init_with(&dir, &small_spec(), HostCtx::faulty(spec))
        .expect("init fits in the byte budget");
    let err = runner::run_and_merge(&store, &opts())
        .expect_err("the campaign cannot finish on a full disk");
    assert!(matches!(err, StoreError::Exhausted { .. }), "{err}");
    assert_eq!(err.exit_code(), 3);
    assert!(store.io.degraded(), "ENOSPC must flip the degraded flag");

    let audit = runner::merge_read_only(&store);
    assert!(
        !audit.missing.is_empty(),
        "the campaign must have been cut short by the byte budget"
    );
    assert_eq!(
        audit.committed + audit.corrupt.len() as u64 + audit.missing.len() as u64,
        store.spec.total_tasks() as u64,
        "the audit must account for every task"
    );
    assert!(audit.corrupt.is_empty(), "ENOSPC must not corrupt committed artifacts");
    // Degraded means read-only, not blind: committed results still load.
    let readable = (0..store.spec.total_tasks())
        .filter(|&id| matches!(store.load_result(id), Ok(Some(_))))
        .count() as u64;
    assert_eq!(readable, audit.committed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt committed result fails only its own task: the merge
/// quarantines it (reporting file and byte offset), `run_and_merge`
/// re-runs the task, and the healed campaign is byte-identical.
#[test]
fn quarantined_result_heals_to_byte_identical_merge() {
    let dir = tmpdir("quarantine");
    let want = {
        let store = CampaignStore::open_or_init(&dir, &small_spec()).unwrap();
        let (_, merged) = runner::run_and_merge(&store, &opts()).unwrap();
        merged.doc
    };

    // Garble one committed result in place (a torn overwrite).
    let store = CampaignStore::open(&dir).unwrap();
    let victim = store.result_path(1);
    std::fs::write(&victim, b"[{\"name\": \"tor").unwrap();
    let err = runner::merge(&store).expect_err("merge must reject the torn result");
    match &err {
        StoreError::Corrupt { path, action, .. } => {
            assert!(path.contains("task-1"), "error must name the file: {err}");
            assert_eq!(format!("{action}"), "quarantined");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
    assert!(!victim.exists(), "the corrupt artifact must be moved aside");
    assert!(
        dir.join("quarantine").read_dir().unwrap().next().is_some(),
        "the quarantine directory must hold the moved artifact"
    );

    // The heal: re-claim, re-run, re-merge — byte-identical.
    let (sum, merged) = runner::run_and_merge(&store, &opts()).unwrap();
    assert_eq!(merged.doc, want, "healed campaign must match the original");
    assert!(sum.tasks_run >= 1, "the quarantined task must have been re-run");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whole-host death at a rename: the worker halts Fatal (both crash
/// sides), never commits a torn artifact, and a fresh fault-free process
/// over the same store finishes the campaign byte-identically.
#[test]
fn crash_at_rename_halts_then_resumes_byte_identical() {
    let want = fault_free_doc(&tmpdir("crash-base"));
    for side in [CrashSide::Before, CrashSide::After] {
        let dir = tmpdir(&format!("crash-{side:?}"));
        let spec = FaultSpec { crash_at_rename: Some((6, side)), ..FaultSpec::none(11) };
        let store = CampaignStore::open_or_init_with(&dir, &small_spec(), HostCtx::faulty(spec))
            .expect("the crash schedule fires later than store init");
        let err = runner::run_and_merge(&store, &opts())
            .expect_err("the host dies before the campaign can finish");
        assert!(matches!(err, StoreError::Fatal { .. }), "{side:?}: {err}");
        assert!(store.io.crashed(), "{side:?}: the crash flag must be set");
        assert_no_corrupt_commits(&dir);

        // Reboot: a passthrough context over the surviving on-disk state.
        let store = CampaignStore::open(&dir).unwrap();
        let (_, merged) = runner::run_and_merge(&store, &opts()).unwrap();
        assert_eq!(merged.doc, want, "{side:?}: post-crash resume must converge");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

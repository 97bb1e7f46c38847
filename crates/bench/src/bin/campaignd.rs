//! `campaignd`: the persistent, resumable, multi-process campaign service.
//!
//! Coordinator mode initialises (or reopens) an on-disk campaign store,
//! spawns N worker processes over the store's file-based work queue, waits
//! for them, runs an in-process mop-up worker (which reclaims the leases of
//! any worker that died), and merges all task results in canonical order
//! into the deterministic `campaign.json` — byte-identical for any worker
//! count or kill/resume pattern — and prints what the campaign found: the
//! first find in canonical order when the spec hunts one bug (`--bug N`), the
//! triage clusters with one exemplar each otherwise. This is the one front
//! door to the store; a campaign's parallelism is `--workers` (processes —
//! a worker runs its task's workloads one after another).
//!
//! ```sh
//! campaignd --store <dir> [--fs NOVA] [--bug N] [--seq1-take N] [--seq2-step N]
//!           [--fuzz-budget N] [--seed HEX] [--batch N] [--cap N|none]
//!           [--bitmap-bits N] [--workers N] [--ttl-ms N]
//! campaignd --resume <dir> [--workers N] [--ttl-ms N]
//! campaignd --worker --store <dir> [--ttl-ms N] [--worker-id ID] [--die-after N]
//! ```
//!
//! `--bug N` without `--fs` targets the bug's own file system.
//! `--resume` reopens an existing store and continues it under the
//! persisted spec (spec flags are rejected — a campaign's population is
//! immutable). `--workers 0` initialises the store and exits without
//! running anything — for driving detached workers by hand (or from CI)
//! and merging later with `--resume`. Worker mode is what the coordinator
//! spawns; `--die-after N`
//! aborts the worker process after N journal checkpoints (the CI smoke
//! job's stand-in for a SIGKILL that lands exactly on a checkpoint
//! boundary; killing mid-append is exercised separately and only tears the
//! journal tail). Unknown flags, malformed numbers, and extra arguments are
//! fatal (exit 2).
//!
//! `--torture HEX` is a *runtime* flag (valid with `--store`, `--resume`,
//! and `--worker`; never part of the spec): every filesystem touch goes
//! through a deterministic fault injector seeded with
//! `fnv1a(worker_id, HEX)` — short writes, EIO, torn appends, lying
//! writes. The campaign must still converge to the byte-identical
//! fault-free `campaign.json`, or halt declaring why. Store errors map to
//! distinct exit codes: 2 for corrupt input, 3 for the degraded
//! out-of-space mode (after printing a read-only triage of what survived),
//! 1 for everything else.

use std::path::PathBuf;
use std::time::Duration;

use bench::campaign::{
    hostio::{FaultSpec, HostCtx, StoreError},
    runner::{self, RunOpts},
    store::CampaignStore,
    wire::{counter_slot, fnv1a},
    CampaignSpec,
};
use bench::{cli::Cli, jsonout::JVal};
use chipmunk::{report::triage, BugReport};
use vfs::FsName;

const CLI: Cli = Cli(
    "campaignd --store <dir> [--fs NAME] [--bug N] [--seq1-take N] [--seq2-step N]\n\
     \x20                [--fuzz-budget N] [--seed HEX] [--batch N] [--cap N|none]\n\
     \x20                [--bitmap-bits N] [--workers N] [--ttl-ms N] [--torture HEX]\n\
     \x20      campaignd --resume <dir> [--workers N] [--ttl-ms N] [--torture HEX]\n\
     \x20      campaignd --worker --store <dir> [--ttl-ms N] [--worker-id ID] [--die-after N]\n\
     \x20                [--torture HEX]",
);

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// Exits with the error's mapped code (2 corrupt, 3 exhausted, 1 other).
/// On the degraded out-of-space path, first prints a read-only triage of
/// the store — ENOSPC stops writes, not the operator's view of what
/// survived.
fn fail_store(store: Option<&CampaignStore>, e: StoreError) -> ! {
    eprintln!("error: {e}");
    if let (Some(s), StoreError::Exhausted { .. }) = (store, &e) {
        let audit = runner::merge_read_only(s);
        eprintln!(
            "degraded store triage (read-only): {} tasks committed ({} workloads, {} reports); \
             {} corrupt, {} missing; resume with space freed to finish the campaign",
            audit.committed,
            audit.workloads,
            audit.reports,
            audit.corrupt.len(),
            audit.missing.len(),
        );
    }
    std::process::exit(e.exit_code());
}

/// The host-I/O context for one worker: passthrough normally, the
/// deterministic fault injector under `--torture` (each worker gets its
/// own fault schedule, derived from the shared seed and its worker id).
fn host_ctx(torture: Option<u64>, worker_id: &str) -> HostCtx {
    match torture {
        Some(seed) => HostCtx::faulty(FaultSpec::standard(fnv1a(worker_id.as_bytes(), seed))),
        None => HostCtx::passthrough(),
    }
}

/// What the campaign found, read back from the committed results in
/// canonical (task, batch-index) order: the first find when the spec hunts
/// one bug, otherwise the triage clusters with one exemplar each — capped at
/// the 600 reports a live `campaign` round feeds triage (it is quadratic).
fn print_findings(store: &CampaignStore) {
    let mut reports = (0..store.spec.total_tasks())
        .filter_map(|id| store.load_result(id).ok().flatten())
        .flatten()
        .flat_map(|r| r.reports);
    if let Some(bug) = store.spec.bug {
        match reports.next() {
            Some(r) => println!(
                "bug {bug} found: [{}] {} | {} @ op {} | {}",
                r.class, r.workload, r.op_desc, r.op_seq, r.detail
            ),
            None => println!("bug {bug} not found within the campaign budget"),
        }
        return;
    }
    let mut reports: Vec<BugReport> = reports.map(|r| r.to_bug_report()).collect();
    if reports.is_empty() {
        println!("clean: no violations in the merged campaign");
        return;
    }
    let total = reports.len();
    reports.truncate(600);
    let clusters = triage(&reports, 0.4);
    println!("{total} reports ({} triaged) in {} clusters:", reports.len(), clusters.len());
    bench::print_cluster_exemplars(&reports, &clusters);
}

fn main() {
    let mut store_dir: Option<PathBuf> = None;
    let mut resume_dir: Option<PathBuf> = None;
    let mut worker_mode = false;
    let mut worker_id: Option<String> = None;
    let mut die_after: Option<u64> = None;
    let mut workers: usize = 2;
    let mut ttl_ms: u64 = 5000;
    let mut torture: Option<u64> = None;
    let mut spec = CampaignSpec::default();
    let mut spec_flags = false;
    let mut fs_given = false;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => store_dir = Some(PathBuf::from(CLI.flag_value("--store", &mut it))),
            "--resume" => resume_dir = Some(PathBuf::from(CLI.flag_value("--resume", &mut it))),
            "--worker" => worker_mode = true,
            "--worker-id" => worker_id = Some(CLI.flag_value("--worker-id", &mut it)),
            "--die-after" => {
                let n = CLI.flag_value("--die-after", &mut it);
                die_after = Some(CLI.parse("--die-after", &n));
            }
            "--workers" => workers = CLI.parse("--workers", &CLI.flag_value("--workers", &mut it)),
            "--ttl-ms" => ttl_ms = CLI.parse("--ttl-ms", &CLI.flag_value("--ttl-ms", &mut it)),
            "--torture" => {
                let s = CLI.flag_value("--torture", &mut it);
                torture = Some(
                    u64::from_str_radix(&s, 16)
                        .unwrap_or_else(|_| CLI.fail(format_args!("bad --torture (hex): {s:?}"))),
                );
            }
            "--fs" => {
                let name = CLI.flag_value("--fs", &mut it);
                spec.fs = name.parse::<FsName>().unwrap_or_else(|e| CLI.fail(e));
                (spec_flags, fs_given) = (true, true);
            }
            "--bug" => {
                spec.bug = Some(CLI.parse("--bug", &CLI.flag_value("--bug", &mut it)));
                spec_flags = true;
            }
            "--seq1-take" => {
                spec.seq1_take = CLI.parse("--seq1-take", &CLI.flag_value("--seq1-take", &mut it));
                spec_flags = true;
            }
            "--seq2-step" => {
                spec.seq2_step = CLI.parse("--seq2-step", &CLI.flag_value("--seq2-step", &mut it));
                spec_flags = true;
            }
            "--fuzz-budget" => {
                spec.fuzz_budget =
                    CLI.parse("--fuzz-budget", &CLI.flag_value("--fuzz-budget", &mut it));
                spec_flags = true;
            }
            "--seed" => {
                let s = CLI.flag_value("--seed", &mut it);
                spec.fuzz_seed = u64::from_str_radix(&s, 16)
                    .unwrap_or_else(|_| CLI.fail(format_args!("bad --seed (hex): {s:?}")));
                spec_flags = true;
            }
            "--batch" => {
                let n = CLI.flag_value("--batch", &mut it);
                spec.batch = CLI.parse::<usize>("--batch", &n).max(1);
                spec_flags = true;
            }
            "--cap" => {
                let s = CLI.flag_value("--cap", &mut it);
                spec.cap = if s == "none" { None } else { Some(CLI.parse("--cap", &s)) };
                spec_flags = true;
            }
            "--bitmap-bits" => {
                spec.bitmap_bits =
                    CLI.parse("--bitmap-bits", &CLI.flag_value("--bitmap-bits", &mut it));
                if !spec.bitmap_bits.is_power_of_two() {
                    CLI.fail("--bitmap-bits must be a power of two");
                }
                spec_flags = true;
            }
            s => CLI.fail(format_args!("unknown argument {s:?}")),
        }
    }
    if let Some(n) = spec.bug {
        let Some(info) = vfs::bugs::bug_table().iter().find(|b| b.id.number() == n) else {
            CLI.fail(format_args!("no bug #{n} in the Table 1 corpus"));
        };
        if !fs_given {
            spec.fs = info.fs;
        }
    }

    let opts = RunOpts {
        ttl: Duration::from_millis(ttl_ms),
        worker_id: worker_id
            .clone()
            .unwrap_or_else(|| format!("w{}", std::process::id())),
        kill_after_checkpoints: die_after,
        hard_kill: true,
    };

    if worker_mode {
        if resume_dir.is_some() || spec_flags {
            CLI.fail("--worker takes --store plus worker flags only");
        }
        let Some(dir) = store_dir else {
            CLI.fail("--worker needs --store");
        };
        let io = host_ctx(torture, &opts.worker_id);
        let store = CampaignStore::open_with(&dir, io).unwrap_or_else(|e| fail_store(None, e));
        let sum =
            runner::run_worker(&store, &opts).unwrap_or_else(|e| fail_store(Some(&store), e));
        runner::write_summary(&store, &opts, &sum);
        return;
    }
    if die_after.is_some() || worker_id.is_some() {
        CLI.fail("--die-after/--worker-id only make sense with --worker");
    }

    let io = host_ctx(torture, "w0");
    let store = match (store_dir, resume_dir) {
        (Some(_), Some(_)) | (None, None) => {
            CLI.fail("exactly one of --store / --resume is required");
        }
        (Some(dir), None) => CampaignStore::open_or_init_with(&dir, &spec, io)
            .unwrap_or_else(|e| fail_store(None, e)),
        (None, Some(dir)) => {
            if spec_flags {
                CLI.fail("--resume continues the persisted spec; spec flags are not allowed");
            }
            CampaignStore::open_with(&dir, io).unwrap_or_else(|e| fail_store(None, e))
        }
    };

    let started = std::time::Instant::now();
    let total = store.spec.total_tasks();
    println!(
        "campaign at {} | fs {} | {} tasks ({} ace + {} fuzz) | {} workers",
        store.dir.display(),
        store.spec.fs,
        total,
        store.spec.ace_tasks(),
        store.spec.fuzz_tasks(),
        workers,
    );
    if workers == 0 {
        // Init-only: the store exists and is ready for detached workers
        // (`campaignd --worker --store <dir>`); a later `--resume` merges.
        println!("initialised only (--workers 0); run workers against the store, then --resume");
        return;
    }

    // Spawn the fleet: each worker is this same binary in --worker mode.
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(e));
    let spawned = workers.saturating_sub(1); // this process is worker 0
    let children: Vec<std::process::Child> = (0..spawned)
        .map(|i| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("--worker")
                .arg("--store")
                .arg(&store.dir)
                .arg("--ttl-ms")
                .arg(ttl_ms.to_string())
                .arg("--worker-id")
                .arg(format!("w{}", i + 1));
            if let Some(seed) = torture {
                cmd.arg("--torture").arg(format!("{seed:x}"));
            }
            cmd.spawn().unwrap_or_else(|e| fail(format!("spawn worker: {e}")))
        })
        .collect();

    // Worker 0 runs in-process; it also mops up after any child that dies
    // (dead-pid leases are reclaimed by the stale check). `run_and_merge`
    // re-runs the worker when the merge quarantines a corrupt committed
    // result — the re-lease/re-run loop heals the store, bounded.
    let opts = RunOpts { worker_id: "w0".into(), ..opts };
    let (sum, merged) = match runner::run_and_merge(&store, &opts) {
        Ok(ok) => ok,
        Err(e) => {
            for mut c in children {
                let _ = c.wait();
            }
            fail_store(Some(&store), e)
        }
    };
    runner::write_summary(&store, &opts, &sum);
    for mut c in children {
        let _ = c.wait();
    }

    let elapsed = started.elapsed();
    let run = JVal::Obj(vec![
        ("workers".into(), JVal::Num(workers as f64)),
        ("elapsed_ms".into(), JVal::Num(elapsed.as_millis() as f64)),
        ("tasks_run".into(), JVal::Num(sum.tasks_run as f64)),
        ("tasks_resumed".into(), JVal::Num(sum.tasks_resumed as f64)),
        (
            "journal_workloads_replayed".into(),
            JVal::Num(sum.journal_workloads_replayed as f64),
        ),
        ("rewarm_runs".into(), JVal::Num(sum.rewarm_runs as f64)),
        ("tasks_abandoned".into(), JVal::Num(sum.tasks_abandoned as f64)),
        ("io_retries".into(), JVal::Num(sum.io_retries as f64)),
        ("backoff_ticks".into(), JVal::Num(sum.backoff_ticks as f64)),
        ("tasks_quarantined".into(), JVal::Num(sum.tasks_quarantined as f64)),
        ("faults_injected".into(), JVal::Num(sum.faults_injected as f64)),
        ("degraded".into(), JVal::Bool(sum.degraded)),
    ]);
    store
        .io
        .write_atomic(&store.dir.join("run.json"), (run.render() + "\n").as_bytes())
        .unwrap_or_else(|e| fail_store(Some(&store), e));

    println!(
        "merged {} workloads | {} crash points, {} crash states | {} reports | \
         {} state bits, {} cov bits | {} corpus entries | fingerprint {:016x}",
        merged.workloads,
        merged.totals[counter_slot("crash_points")],
        merged.totals[counter_slot("crash_states")],
        merged.reports,
        merged.state_bits_set,
        merged.cov_bits_set,
        merged.corpus_entries,
        merged.fingerprint,
    );
    println!(
        "worker w0: {} tasks ({} resumed, {} replayed, {} rewarmed) | prefix ops saved {} | {}",
        sum.tasks_run,
        sum.tasks_resumed,
        sum.journal_workloads_replayed,
        sum.rewarm_runs,
        merged.totals[counter_slot("prefix_ops_saved")],
        bench::fmt_dur(elapsed),
    );
    if torture.is_some() {
        println!(
            "torture: {} faults injected | {} io retries, {} backoff ticks | \
             {} tasks abandoned, {} quarantined",
            sum.faults_injected,
            sum.io_retries,
            sum.backoff_ticks,
            sum.tasks_abandoned,
            sum.tasks_quarantined,
        );
    }
    print_findings(&store);
}

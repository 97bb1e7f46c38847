//! The two campaign subcommands: `campaign`, the paper's live find → triage
//! → fix → re-run rounds (§4.4), and `campaignd`, the persistent,
//! resumable, multi-process campaign store.

use std::collections::BTreeSet;
use std::path::PathBuf;

use bench::campaign::{
    hostio::{FaultSpec, HostCtx, StoreError},
    runner::{self, RunOpts},
    store::CampaignStore,
    wire::{counter_slot, fnv1a},
    CampaignSpec,
};
use bench::{dispatch, jsonout::JVal, mode_for, run_batch, WithKind, STRONG_SYSTEMS};
use chipmunk::{report::triage, BugReport, TestConfig};
use vfs::{
    fs::{FsKind, FsOptions},
    BugId, BugSet, FsName, Workload,
};
use workloads::ace::{seq1, seq2};

use crate::{fmt_dur, Cli};

/// Prints one line per triage cluster of `reports`: its minimal exemplar
/// (fewest ops, then smallest replayed subset) — the report a developer
/// would debug first, and the one `hunt --shrink` would package as the
/// bundle.
fn print_cluster_exemplars(reports: &[BugReport], clusters: &[Vec<usize>]) {
    for cluster in clusters {
        let e = &reports[chipmunk::exemplar(reports, cluster)];
        println!(
            "    [{} x{}] {} | {} @ op {} | {} in subset",
            e.violation.class(),
            cluster.len(),
            e.workload,
            e.op_desc,
            e.op_seq,
            e.subset_ids.len(),
        );
    }
}

struct Iteration<'a> {
    cfg: &'a TestConfig,
}

impl WithKind for Iteration<'_> {
    type Out = (Vec<BugReport>, BTreeSet<BugId>, u64, u64);

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let mode = mode_for(kind.name());
        let mut reports = Vec::new();
        let mut traced = BTreeSet::new();
        let mut workloads = 0u64;
        let mut dedup = 0u64;
        let threads = self.cfg.threads.max(1);
        let batch_len = if threads <= 1 { 1 } else { threads * 2 };
        let mut stream = seq1(mode).into_iter().chain(seq2(mode).step_by(3));
        'outer: loop {
            let batch: Vec<Workload> = stream.by_ref().take(batch_len).collect();
            if batch.is_empty() {
                break;
            }
            for (out, _cov) in run_batch(&kind, &batch, self.cfg) {
                workloads += 1;
                dedup += out.dedup_hits;
                if !out.reports.is_empty() {
                    traced.extend(out.traced_bugs.iter().copied());
                    reports.extend(out.reports);
                }
                if reports.len() >= 600 {
                    break 'outer; // plenty for one triage round
                }
            }
        }
        (reports, traced, workloads, dedup)
    }
}

/// The paper's end-to-end methodology: run against the *as-released* file
/// systems, triage the reports, attribute each cluster to a root cause,
/// "fix" it (disable the injected bug), and repeat until clean — counting
/// unique bugs by unique fixes, as §4.4 does. `threads` shards the batches;
/// rounds, clusters and fixes are identical for any value.
pub fn campaign(cli: &Cli, args: Vec<String>) {
    let pos = cli.positionals(args, 1);
    let threads: usize = cli.parse_pos(pos.first(), "thread count", 1);

    let cfg = TestConfig { cap: Some(2), ..TestConfig::default() }.with_threads(threads);
    println!("threads = {threads}");
    let mut fixed_groups: BTreeSet<u32> = Default::default();
    let (mut dedup_total, mut workloads_total) = (0u64, 0u64);

    println!("iterative find → triage → fix → re-run campaign (ACE seq-1 + sampled seq-2)\n");
    for fs in STRONG_SYSTEMS {
        let mut bugs = BugSet::as_released();
        let mut round = 0;
        loop {
            round += 1;
            let (reports, traced, workloads, dedup) =
                dispatch(fs, FsOptions::with_bugs(bugs), Iteration { cfg: &cfg });
            dedup_total += dedup;
            workloads_total += workloads;
            if reports.is_empty() {
                println!("{fs}: clean after {round} rounds ({workloads} workloads in the last)");
                break;
            }
            let clusters = triage(&reports, 0.4);
            // "Fix" the bugs whose injected code ran during the failing
            // workloads (the developer diagnoses the cluster back to its
            // root cause; the trace is our stand-in for that diagnosis).
            // NOVA-Fortis inherits all of NOVA's code, so NOVA bugs are
            // among its fixable causes.
            let relevant: Vec<BugId> = traced
                .iter()
                .copied()
                .filter(|b| {
                    b.info().fs == fs || (fs == FsName::NovaFortis && b.info().fs == FsName::Nova)
                })
                .collect();
            println!(
                "{fs}: round {round}: {} reports in {} clusters -> fixing {:?}",
                reports.len(),
                clusters.len(),
                relevant.iter().map(|b| b.number()).collect::<Vec<_>>()
            );
            print_cluster_exemplars(&reports, &clusters);
            if relevant.is_empty() {
                println!("{fs}: reports without traced cause — stopping");
                break;
            }
            for b in relevant {
                bugs = bugs.without(b);
                fixed_groups.insert(b.info().fix_group);
            }
        }
    }

    // The four fuzzer-only bugs never fall to ACE; account for them
    // separately so the tally matches Table 1's frontier.
    println!(
        "\n{workloads_total} workloads tested; {dedup_total} crash states served from the \
         dedup cache"
    );
    let ace_only = fixed_groups.len();
    println!(
        "\nunique fixes applied by the ACE campaign: {ace_only} (paper: ACE finds 19 of 23; \
         the remaining {} need the fuzzer — see `table1`)",
        23 - ace_only.min(23)
    );
}

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
                r.violation.class(),
                r.workload,
                r.op_desc,
                r.op_seq,
                r.violation.detail()
            ),
            None => println!("bug {bug} not found within the campaign budget"),
        }
        return;
    }
    let mut reports: Vec<BugReport> = reports.collect();
    if reports.is_empty() {
        println!("clean: no violations in the merged campaign");
        return;
    }
    let total = reports.len();
    reports.truncate(600);
    let clusters = triage(&reports, 0.4);
    println!("{total} reports ({} triaged) in {} clusters:", reports.len(), clusters.len());
    print_cluster_exemplars(&reports, &clusters);
}

/// The persistent campaign store's one front door.
///
/// Coordinator mode initialises (or reopens) the store, spawns `--workers`
/// minus one worker processes (this binary re-run as `campaignd --worker`)
/// over its file-based work queue, works as worker 0 itself (which also
/// reclaims the leases of any worker that died), and merges every task
/// result in canonical order into `campaign.json` — byte-identical for any
/// worker count or kill/resume pattern — then prints the first find
/// (`--bug N`, which without `--fs` targets the bug's own file system) or
/// the triage clusters.
///
/// `--resume` continues the persisted spec (spec flags are rejected — a
/// campaign's population is immutable). `--workers 0` initialises the store
/// and exits, for driving detached workers by hand. `--die-after N` aborts a
/// worker after N journal checkpoints (a SIGKILL landing exactly on a
/// checkpoint boundary). `--torture HEX` is a runtime flag, never part of
/// the spec: every filesystem touch goes through the deterministic fault
/// injector seeded with `fnv1a(worker_id, HEX)`, and the campaign must
/// still converge to the fault-free `campaign.json` or halt saying why.
/// Store errors exit 2 for corrupt input, 3 for the degraded out-of-space
/// mode (after a read-only triage of what survived), 1 for everything else.
pub fn campaignd(cli: &Cli, args: Vec<String>) {
    let mut store_dir: Option<PathBuf> = None;
    let mut resume_dir: Option<PathBuf> = None;
    let mut worker_mode = false;
    let mut worker_id: Option<String> = None;
    let mut die_after: Option<u64> = None;
    let mut workers: usize = 2;
    let mut torture: Option<u64> = None;
    let mut spec = CampaignSpec::default();
    let mut spec_flags = false;
    let mut fs_given = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        let mut value = || cli.flag_value(flag, &mut it);
        let hex = |s: String| {
            u64::from_str_radix(&s, 16)
                .unwrap_or_else(|_| cli.fail(format_args!("bad {flag} (hex): {s:?}")))
        };
        spec_flags |= matches!(
            flag,
            "--fs" | "--bug" | "--seq1-take" | "--seq2-step" | "--fuzz-budget" | "--seed"
                | "--batch" | "--cap" | "--bitmap-bits"
        );
        match flag {
            "--store" => store_dir = Some(PathBuf::from(value())),
            "--resume" => resume_dir = Some(PathBuf::from(value())),
            "--worker" => worker_mode = true,
            "--worker-id" => worker_id = Some(value()),
            "--die-after" => die_after = Some(cli.parse(flag, &value())),
            "--workers" => workers = cli.parse(flag, &value()),
            "--torture" => torture = Some(hex(value())),
            "--fs" => {
                spec.fs = value().parse::<FsName>().unwrap_or_else(|e| cli.fail(e));
                fs_given = true;
            }
            "--bug" => spec.bug = Some(cli.parse(flag, &value())),
            "--seq1-take" => spec.seq1_take = cli.parse(flag, &value()),
            "--seq2-step" => spec.seq2_step = cli.parse(flag, &value()),
            "--fuzz-budget" => spec.fuzz_budget = cli.parse(flag, &value()),
            "--seed" => spec.fuzz_seed = hex(value()),
            "--batch" => spec.batch = cli.parse::<usize>(flag, &value()).max(1),
            "--cap" => {
                let s = value();
                spec.cap = if s == "none" { None } else { Some(cli.parse(flag, &s)) };
            }
            "--bitmap-bits" => {
                spec.bitmap_bits = cli.parse(flag, &value());
                if !spec.bitmap_bits.is_power_of_two() {
                    cli.fail("--bitmap-bits must be a power of two");
                }
            }
            s => cli.fail(format_args!("unknown argument {s:?}")),
        }
    }
    if let Some(n) = spec.bug {
        let info = cli.corpus_bug(n);
        if !fs_given {
            spec.fs = info.fs;
        }
    }

    let opts = RunOpts {
        worker_id: worker_id
            .clone()
            .unwrap_or_else(|| format!("w{}", std::process::id())),
        kill_after_checkpoints: die_after,
        hard_kill: true,
    };

    if worker_mode {
        if resume_dir.is_some() || spec_flags {
            cli.fail("--worker takes --store plus worker flags only");
        }
        let Some(dir) = store_dir else {
            cli.fail("--worker needs --store");
        };
        let io = host_ctx(torture, &opts.worker_id);
        let store = CampaignStore::open_with(&dir, io).unwrap_or_else(|e| fail_store(None, e));
        let sum =
            runner::run_worker(&store, &opts).unwrap_or_else(|e| fail_store(Some(&store), e));
        runner::write_summary(&store, &opts, &sum);
        return;
    }
    if die_after.is_some() || worker_id.is_some() {
        cli.fail("--die-after/--worker-id only make sense with --worker");
    }

    let io = host_ctx(torture, "w0");
    let store = match (store_dir, resume_dir) {
        (Some(_), Some(_)) | (None, None) => {
            cli.fail("exactly one of --store / --resume is required");
        }
        (Some(dir), None) => CampaignStore::open_or_init_with(&dir, &spec, io)
            .unwrap_or_else(|e| fail_store(None, e)),
        (None, Some(dir)) => {
            if spec_flags {
                cli.fail("--resume continues the persisted spec; spec flags are not allowed");
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

    // Spawn the fleet: each worker is this same binary in campaignd
    // --worker mode.
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(e));
    let spawned = workers.saturating_sub(1); // this process is worker 0
    let children: Vec<std::process::Child> = (0..spawned)
        .map(|i| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["campaignd", "--worker", "--store"])
                .arg(&store.dir)
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
        fmt_dur(elapsed),
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

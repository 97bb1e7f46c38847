//! The paper's end-to-end methodology, reproduced: run Chipmunk against the
//! *as-released* file systems, triage the reports, attribute each cluster to
//! a root cause, "fix" it (disable the injected bug), and repeat until the
//! suite runs clean — counting unique bugs by unique fixes, exactly as §4.4
//! does ("the number of bugs is based on the number of unique fixes
//! required to patch all of the bugs").
//!
//! ```sh
//! cargo run --release -p bench --bin campaign [threads]
//! cargo run --release -p bench --bin campaign -- [threads] --store <dir>
//! cargo run --release -p bench --bin campaign -- [threads] --resume <dir>
//! ```
//!
//! `threads` (default 1) shards the workload batches across that many
//! workers; rounds, clusters, and fixes are identical for any value.
//!
//! With `--store <dir>`, the sweep runs through the persistent campaign
//! store instead (see `bench::campaign`): one as-released sweep of the
//! default campaign spec, journaled and resumable — rerunning after a kill
//! (or with `--resume <dir>`) picks up at the exact workload index and
//! triages the merged results identically. Unknown flags, malformed
//! numbers, and extra arguments are fatal (exit 2).

use bench::campaign::{
    runner::{self, RunOpts},
    store::CampaignStore,
    CampaignSpec,
};
use bench::{dispatch, mode_for, run_batch, WithKind, STRONG_SYSTEMS};
use chipmunk::{exemplar, report::triage, BugReport, TestConfig};
use vfs::{
    fs::{FsKind, FsOptions},
    BugId, BugSet, FsName, Workload,
};
use workloads::ace::{seq1, seq2};

fn usage() -> ! {
    eprintln!("usage: campaign [threads] [--store <dir> | --resume <dir>]");
    std::process::exit(2);
}

struct Iteration<'a> {
    cfg: &'a TestConfig,
}

impl WithKind for Iteration<'_> {
    type Out = (Vec<BugReport>, std::collections::BTreeSet<BugId>, u64, u64);

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let mode = mode_for(kind.name());
        let mut reports = Vec::new();
        let mut traced = std::collections::BTreeSet::new();
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

fn main() {
    let mut pos: Vec<String> = Vec::new();
    let mut store_dir: Option<String> = None;
    let mut resume_dir: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                store_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--store needs a value");
                    usage()
                }));
            }
            "--resume" => {
                resume_dir = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--resume needs a value");
                    usage()
                }));
            }
            s if s.starts_with('-') => {
                eprintln!("unknown flag {s:?}");
                usage();
            }
            _ => pos.push(a),
        }
    }
    if pos.len() > 1 {
        eprintln!("unexpected argument {:?}", pos[1]);
        usage();
    }
    let threads: usize = match pos.first() {
        None => 1,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad thread count: {s:?}");
            usage()
        }),
    };
    if store_dir.is_some() && resume_dir.is_some() {
        eprintln!("--store and --resume are mutually exclusive");
        usage();
    }
    if let Some(dir) = store_dir.or(resume_dir.clone()) {
        run_store_campaign(&dir, resume_dir.is_some(), threads);
        return;
    }

    let cfg = TestConfig { cap: Some(2), ..TestConfig::default() }.with_threads(threads);
    println!("threads = {threads}");
    let mut fixed_groups: std::collections::BTreeSet<u32> = Default::default();
    let (mut dedup_total, mut workloads_total) = (0u64, 0u64);

    println!("iterative find → triage → fix → re-run campaign (ACE seq-1 + sampled seq-2)\n");
    for fs in STRONG_SYSTEMS {
        let mut bugs = BugSet::as_released();
        // Only this file system's bugs matter for its run; the others are
        // irrelevant to the dispatched kind.
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
            // One minimal exemplar per cluster (fewest ops, then smallest
            // replayed subset): the report a developer would debug first,
            // and the one `hunt --shrink` would package as the bundle.
            for cluster in &clusters {
                let e = &reports[exemplar(&reports, cluster)];
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
    let _ = FsName::Ext4Dax;
}

/// The store-backed mode: one resumable as-released sweep through the
/// persistent campaign store, then triage over the merged results. Re-runs
/// (and `--resume`) skip every journaled workload and re-warm the prefix
/// cache, so a killed sweep continues instead of starting over. Store
/// errors exit with their mapped codes (2 corrupt, 3 degraded/out of
/// space, 1 other); the degraded path still prints a read-only triage of
/// what survived before exiting.
fn run_store_campaign(dir: &str, resume: bool, threads: usize) {
    let path = std::path::Path::new(dir);
    let store = if resume {
        CampaignStore::open(path)
    } else {
        CampaignStore::open_or_init(path, &CampaignSpec::default())
    }
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    });
    println!(
        "store campaign at {dir} | fs {} | {} tasks | threads = {threads}",
        store.spec.fs,
        store.spec.total_tasks(),
    );
    let opts = RunOpts { threads, ..RunOpts::default() };
    let (sum, merged) = runner::run_and_merge(&store, &opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        if matches!(e, bench::campaign::hostio::StoreError::Exhausted { .. }) {
            let audit = runner::merge_read_only(&store);
            eprintln!(
                "degraded store triage (read-only): {} tasks committed ({} workloads, \
                 {} reports); {} corrupt, {} missing",
                audit.committed,
                audit.workloads,
                audit.reports,
                audit.corrupt.len(),
                audit.missing.len(),
            );
        }
        std::process::exit(e.exit_code());
    });
    runner::write_summary(&store, &opts, &sum);
    println!(
        "{} workloads ({} resumed from the journal, {} rewarm runs) | {} reports | \
         prefix ops saved {} | fingerprint {:016x}",
        merged.workloads,
        sum.journal_workloads_replayed,
        sum.rewarm_runs,
        merged.reports,
        merged.totals[5],
        merged.fingerprint,
    );

    // Triage the merged results exactly like a live round would — capped at
    // the same 600 reports a round feeds triage (it is quadratic).
    let mut reports: Vec<BugReport> = (0..store.spec.total_tasks())
        .filter_map(|id| store.load_result(id).ok().flatten())
        .flatten()
        .flat_map(|r| r.reports.into_iter().map(|w| w.to_bug_report()).collect::<Vec<_>>())
        .collect();
    if reports.is_empty() {
        println!("clean: no violations in the merged campaign");
        return;
    }
    let total_reports = reports.len();
    reports.truncate(600);
    let clusters = triage(&reports, 0.4);
    println!("{total_reports} reports ({} triaged) in {} clusters:", reports.len(), clusters.len());
    for cluster in &clusters {
        let e = &reports[exemplar(&reports, cluster)];
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

//! The paper's end-to-end methodology, reproduced: run Chipmunk against the
//! *as-released* file systems, triage the reports, attribute each cluster to
//! a root cause, "fix" it (disable the injected bug), and repeat until the
//! suite runs clean — counting unique bugs by unique fixes, exactly as §4.4
//! does ("the number of bugs is based on the number of unique fixes
//! required to patch all of the bugs").
//!
//! ```sh
//! cargo run --release -p bench --bin campaign [threads]
//! ```
//!
//! `threads` (default 1) shards the workload batches across that many
//! workers; rounds, clusters, and fixes are identical for any value. Unknown
//! flags, malformed numbers, and extra arguments are fatal (exit 2).
//!
//! The journaled, resumable form of one as-released sweep is `campaignd
//! --store <dir>` (see `bench::campaign`), which triages its merged results
//! the same way.

use bench::{
    cli::Cli, dispatch, mode_for, print_cluster_exemplars, run_batch, WithKind, STRONG_SYSTEMS,
};
use chipmunk::{report::triage, BugReport, TestConfig};
use vfs::{
    fs::{FsKind, FsOptions},
    BugId, BugSet, FsName, Workload,
};
use workloads::ace::{seq1, seq2};

const CLI: Cli = Cli("campaign [threads]");

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
    let pos = CLI.positionals(std::env::args().skip(1).collect(), 1);
    let threads: usize = CLI.parse_pos(pos.first(), "thread count", 1);

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
    let _ = FsName::Ext4Dax;
}

//! A short Syzkaller-style fuzzing session against WineFS (as released),
//! with coverage feedback and triaged bug-report clusters — the paper's
//! long-running testing mode in miniature (§3.4.2).
//!
//! ```sh
//! cargo run --release --example fuzz_session
//! ```

use chipmunk::{report::triage, test_workload, BugReport, TestConfig};
use vfs::{
    fs::{FsKind, FsOptions},
    BugSet, Cov,
};
use winefs::WineFsKind;
use workloads::fuzz::{FuzzConfig, Fuzzer};

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);

    let kind = WineFsKind {
        opts: FsOptions {
            bugs: BugSet::as_released(),
            cov: Cov::enabled(),
            ..Default::default()
        },
        strict: true,
    };
    // The paper's fuzzing configuration: crash-state cap of two writes.
    let cfg = TestConfig::fuzzing();

    let mut fuzzer = Fuzzer::new(0x5eed, FuzzConfig::default());
    let mut global_cov = std::collections::HashSet::new();
    let mut reports: Vec<BugReport> = Vec::new();
    let mut states = 0u64;

    println!("fuzzing WineFS (as released) for {budget} workloads...");
    for i in 0..budget {
        let w = fuzzer.next_workload();
        kind.options().cov.clear();
        let out = test_workload(&kind, &w, &cfg);
        states += out.crash_states;
        let new_bits = kind.options().cov.merge_into(&mut global_cov);
        fuzzer.feedback(&w, new_bits);
        if let Some(r) = out.reports.into_iter().next() {
            reports.push(r);
        }
        if (i + 1) % 200 == 0 {
            println!(
                "  {:>5} workloads | {:>6} crash states | {:>4} coverage points | {:>3} raw \
                 reports | corpus {}",
                i + 1,
                states,
                global_cov.len(),
                reports.len(),
                fuzzer.corpus_len()
            );
        }
    }

    println!("\nraw bug reports: {} (the first three):", reports.len());
    for r in reports.iter().take(3) {
        print!("{}", r.to_text());
    }
    let clusters = triage(&reports, 0.4);
    println!("triaged clusters (distinct suspected root causes): {}\n", clusters.len());
    for (i, cluster) in clusters.iter().enumerate() {
        let representative = &reports[cluster[0]];
        println!(
            "cluster {:>2} ({} duplicates) — {} during {}",
            i + 1,
            cluster.len(),
            representative.violation.class(),
            representative.op_desc
        );
        println!("    {}", representative.violation.detail());
    }
}

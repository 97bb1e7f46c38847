//! Regenerates **Table 1**: the bug corpus — every injected bug hunted with
//! the frontend hierarchy the paper uses (ACE first, the fuzzer for what
//! ACE misses), plus the ext4-DAX control that must come up clean.
//!
//! ```sh
//! cargo run --release -p bench --bin table1 [fuzz_budget]
//! ```
//!
//! A malformed or extra argument exits 2 with the usage line.

use bench::{cli::Cli, fmt_dur, hunt_with_ace, hunt_with_fuzzer, mode_for, run_suite};
use chipmunk::TestConfig;
use vfs::{bugs::bug_table, BugSet, FsName};
use workloads::ace::seq1;

const CLI: Cli = Cli("table1 [fuzz_budget]");

fn main() {
    let pos = CLI.positionals(std::env::args().skip(1).collect(), 1);
    let fuzz_budget: u64 = CLI.parse_pos(pos.first(), "fuzz budget", 8000);
    let ace_cfg = TestConfig { stop_on_first: true, ..TestConfig::default() };
    let fuzz_cfg = TestConfig::fuzzing();

    println!("Table 1: bugs found by Chipmunk, their consequences, and affected system calls");
    println!("(each bug hunted in isolation; 'found by' is the first frontend to expose it)\n");
    println!(
        "{:>4} {:<11} {:<46} {:<13} {:<6} {:<7} {:>9} {:>8}",
        "Bug", "FS", "Consequence", "Type", "Found", "Via", "Time", "States"
    );
    println!("{}", "-".repeat(110));

    let mut found_unique: std::collections::BTreeSet<u32> = Default::default();
    let mut ace_unique: std::collections::BTreeSet<u32> = Default::default();
    let mut fuzz_only_unique: std::collections::BTreeSet<u32> = Default::default();

    for info in bug_table() {
        let (ace_hit, _, _) = hunt_with_ace(info.id, &ace_cfg, 400);
        let (via, hit) = match ace_hit {
            Some(h) => ("ACE", Some(h)),
            None => {
                let (fh, _, _) =
                    hunt_with_fuzzer(info.id, &fuzz_cfg, 0xace + info.id.number() as u64, fuzz_budget);
                ("fuzzer", fh)
            }
        };
        let (found, time, states, traced) = match &hit {
            Some(h) => ("yes", fmt_dur(h.elapsed), h.states, h.traced),
            None => ("NO", "-".into(), 0, false),
        };
        if hit.is_some() {
            found_unique.insert(info.fix_group);
            if via == "ACE" {
                ace_unique.insert(info.fix_group);
            } else {
                fuzz_only_unique.insert(info.fix_group);
            }
        }
        println!(
            "{:>4} {:<11} {:<46} {:<13} {:<6} {:<7} {:>9} {:>8}{}",
            info.id.number(),
            info.fs.to_string(),
            info.consequence,
            info.kind.to_string(),
            found,
            if hit.is_some() { via } else { "-" },
            time,
            states,
            if traced { "" } else { "  [!untraced]" },
        );
    }

    // The DAX controls: the full weak-mode seq-1 suite must be clean on
    // both mature file systems.
    let dax = run_suite(
        FsName::Ext4Dax,
        BugSet::as_released(),
        seq1(mode_for(FsName::Ext4Dax)),
        &TestConfig::default(),
    );
    let xfs = run_suite(
        FsName::XfsDax,
        BugSet::as_released(),
        seq1(mode_for(FsName::XfsDax)),
        &TestConfig::default(),
    );

    println!("{}", "-".repeat(110));
    println!(
        "unique bugs found: {} of 23  (ACE: {}, fuzzer-only: {})",
        found_unique.len(),
        ace_unique.len(),
        fuzz_only_unique.len()
    );
    println!(
        "ext4-DAX control:  {} workloads, {} crash states, {} violations (paper: none found)",
        dax.workloads, dax.crash_states, dax.reports
    );
    println!(
        "XFS-DAX control:   {} workloads, {} crash states, {} violations (paper: none found)",
        xfs.workloads, xfs.crash_states, xfs.reports
    );
    println!(
        "\npaper: 23 unique bugs (25 instances); ACE finds 19, the fuzzer adds bugs 19, 20, \
         22, 23; ext4-DAX clean"
    );
}

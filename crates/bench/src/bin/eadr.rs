//! The §3.6 persistence-model experiment the paper argues for but does not
//! run: port Chipmunk to the **eADR** model (persistent caches — every
//! store durable on landing, no flushes or fences needed for durability)
//! and re-hunt the corpus.
//!
//! Expected shape (the paper's Observation 1 and §3.6 discussion): the PM
//! programming errors — missing flushes and fences — become unobservable,
//! because eADR makes the forgotten operations unnecessary; the logic bugs
//! remain, "and we expect Chipmunk would be a valuable tool for testing
//! file systems built for a variety of persistence models."
//!
//! ```sh
//! cargo run --release -p bench --bin eadr [fuzz_budget]
//! ```
//!
//! A malformed or extra argument exits 2 with the usage line.

use bench::{cli::Cli, hunt_with_ace, hunt_with_fuzzer};
use chipmunk::TestConfig;
use vfs::bugs::{bug_table, BugKind};

const CLI: Cli = Cli("eadr [fuzz_budget]");

fn main() {
    let pos = CLI.positionals(std::env::args().skip(1).collect(), 1);
    let fuzz_budget: u64 = CLI.parse_pos(pos.first(), "fuzz budget", 8000);
    let adr = TestConfig { stop_on_first: true, ..TestConfig::default() };
    let eadr = TestConfig { stop_on_first: true, eadr: true, ..TestConfig::default() };

    println!("bug detectability under the epoch (ADR) model vs the eADR model\n");
    println!("{:>4} {:<11} {:<6} {:>8} {:>8}", "Bug", "FS", "Type", "ADR", "eADR");
    println!("{}", "-".repeat(42));
    let mut pm_gone = 0;
    let mut pm_total = 0;
    let mut logic_found = 0;
    let mut logic_total = 0;
    for info in bug_table() {
        let hunt = |cfg: &TestConfig| {
            if info.ace_findable {
                hunt_with_ace(info.id, cfg, 200).0
            } else {
                hunt_with_fuzzer(info.id, cfg, 0xead + info.id.number() as u64, fuzz_budget).0
            }
        };
        let under_adr = hunt(&adr).is_some();
        let under_eadr = hunt(&eadr).is_some();
        println!(
            "{:>4} {:<11} {:<6} {:>8} {:>8}",
            info.id.number(),
            info.fs.to_string(),
            info.kind.to_string(),
            if under_adr { "found" } else { "-" },
            if under_eadr { "found" } else { "-" },
        );
        match info.kind {
            BugKind::Pm => {
                pm_total += 1;
                if !under_eadr {
                    pm_gone += 1;
                }
            }
            BugKind::Logic => {
                logic_total += 1;
                if under_eadr {
                    logic_found += 1;
                }
            }
        }
    }
    println!("{}", "-".repeat(42));
    println!(
        "PM-programming bugs unobservable under eADR: {pm_gone}/{pm_total} \
         (expected: all — the missing flush/fence no longer matters)"
    );
    println!(
        "logic bugs still detected under eADR:        {logic_found}/{logic_total} \
         (expected: all — Observation 1 transcends the persistence model)"
    );
}

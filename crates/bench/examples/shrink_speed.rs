//! Measures shrinking: hunts one bug (arg 1, default 14) with the fuzzer,
//! then delta-debugs the find, printing wall time, candidate counts, and the
//! op/subset shrink factors. The source of the EXPERIMENTS.md "Shrinking"
//! numbers (its prefix-cache-off column was measured at PR 6, before the
//! knob was removed).
//!
//! Arg 2 (default 4000) is the fuzzing budget; arg 3 overrides the seed.

use bench::{hunt_with_fuzzer, shrink_to_bundle};
use chipmunk::TestConfig;
use vfs::bugs::bug_table;

fn main() {
    let number: u32 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(14);
    let budget: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(4000);
    let seed: u64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xf16 + number as u64);
    let info = bug_table()
        .iter()
        .find(|b| b.id.number() == number)
        .unwrap_or_else(|| panic!("no bug #{number} in the Table 1 corpus"));

    // Large-first subsets so the find carries a maximal crash subset — the
    // raw material for the subset pass (mirrors `hunt --shrink`).
    let cfg = TestConfig { large_first_subsets: true, ..TestConfig::fuzzing() };
    let (hit, w, s) = hunt_with_fuzzer(info.id, &cfg, seed, budget);
    let hit = hit.unwrap_or_else(|| {
        panic!("bug {number} not found within {budget} fuzz workloads ({w} run, {s} states)")
    });
    println!(
        "bug {number} on {}: find after {} workloads | {} ops, subset of {} | {}",
        info.fs,
        hit.workloads,
        hit.workload.ops.len(),
        hit.report.subset_ids.len(),
        hit.class,
    );

    let t = std::time::Instant::now();
    let (bundle, stats) =
        shrink_to_bundle(info.fs, &[info.id], &hit.workload, &hit.report, &cfg, seed)
            .expect("find must shrink");
    println!(
        "shrink total={:?} ops {} -> {} ({} candidates) subset {} -> {} ({} candidates) point={}",
        t.elapsed(),
        stats.ops_before,
        stats.ops_after,
        stats.op_candidates,
        stats.subset_before,
        stats.subset_after,
        stats.state_candidates,
        bundle.point,
    );
}

//! Measures what the structurally-shared oracle buys: runs strong seq-1
//! plus the first `n` (arg 1, default 3136) seq-2 workloads on NOVA twice —
//! `shared_oracle` on (the default) and off — printing per-phase wall times
//! and the oracle counters; then rebuilds each workload's oracle directly
//! and reports the snapshot bytes actually resident (each `Arc`'d file
//! payload counted once) versus what the deep-copy representation stores.
//! The source of the EXPERIMENTS.md "Incremental oracle" table.
//!
//! Arg 2 (default 1) sets `TestConfig::threads`.

use std::collections::HashSet;
use std::sync::Arc;

use bench::{dispatch, run_suite, WithKind};
use chipmunk::{
    oracle::{build_oracle, NodeSnap, Oracle},
    TestConfig,
};
use vfs::{fs::FsKind, fs::FsOptions, BugSet, FsName, Workload};
use workloads::ace::{seq1, seq2, AceMode};

/// File-data bytes resident in the oracle, counting each shared node once.
fn resident_bytes(o: &Oracle) -> u64 {
    let mut seen: HashSet<*const NodeSnap> = HashSet::new();
    let mut sum = 0u64;
    for snap in &o.snaps {
        for e in snap.values() {
            if seen.insert(Arc::as_ptr(&e.node)) {
                if let NodeSnap::File { data, .. } = e.node.as_ref() {
                    sum += data.len() as u64;
                }
            }
        }
    }
    sum
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(3136);
    let threads: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let ws: Vec<_> = seq1(AceMode::Strong)
        .into_iter()
        .chain(seq2(AceMode::Strong))
        .take(56 + n)
        .collect();

    for (label, shared_oracle) in [("deep-copy ", false), ("shared    ", true)] {
        let cfg = TestConfig { shared_oracle, ..TestConfig::default().with_threads(threads) };
        let t = std::time::Instant::now();
        let s = run_suite(FsName::Nova, BugSet::fixed(), ws.clone(), &cfg);
        println!(
            "{label} total={:?} oracle={:?} record={:?} check={:?} states={} reports={} \
             pruned={} shared_bytes={}",
            t.elapsed(),
            s.phase.oracle,
            s.phase.record,
            s.phase.check,
            s.crash_states,
            s.reports,
            s.oracle_subtrees_pruned,
            s.oracle_snap_bytes_shared,
        );
    }

    struct Bytes {
        ws: Vec<Workload>,
    }
    impl WithKind for Bytes {
        type Out = ();
        fn call<K: FsKind>(self, kind: K) {
            for (label, shared_oracle) in [("deep-copy ", false), ("shared    ", true)] {
                let cfg = TestConfig { shared_oracle, ..TestConfig::default() };
                let (mut peak, mut total) = (0u64, 0u64);
                for w in &self.ws {
                    let o = build_oracle(&kind, w, &cfg, pmem::ForkDevice::new)
                        .expect("oracle build");
                    let b = resident_bytes(&o);
                    peak = peak.max(b);
                    total += b;
                }
                println!(
                    "{label} oracle bytes: peak={peak} total={total} over {} workloads",
                    self.ws.len()
                );
            }
        }
    }
    dispatch(FsName::Nova, FsOptions::with_bugs(BugSet::fixed()), Bytes { ws });
}

//! `fixcost`: the Observation 2 fix-cost measurements in simulated Optane
//! time (deterministic). Fixing rename-atomicity bugs 4 and 5 makes a
//! rename-overwrite loop ~25% slower and a git-checkout-like metadata storm
//! <1% slower; fixing bug 6 makes a repeated-`link` loop ~7% *faster*.

use chipmunk::{test_workload, TestConfig};
use novafs::{Nova, NovaKind};
use pmem::PmDevice;
use vfs::{
    fs::{FileSystem, FsKind, FsOptions},
    BugId, BugSet,
};
use workloads::ace::{seq2, AceMode};

use crate::Cli;

const DEV: u64 = 16 * 1024 * 1024;

fn nova(bugs: BugSet) -> Nova<PmDevice> {
    NovaKind { opts: FsOptions::with_bugs(bugs), fortis: false }
        .mkfs(PmDevice::new(DEV))
        .expect("mkfs")
}

/// Repeatedly overwrite a file via the write-temp-then-rename pattern the
/// paper's intro motivates (emacs/vim-style atomic saves).
fn rename_overwrite_ns(bugs: BugSet, iters: u64) -> u64 {
    let mut fs = nova(bugs);
    fs.creat("/target").expect("creat");
    let start = fs.sim_cost().ns;
    for i in 0..iters {
        let tmp = "/target.tmp";
        let fd = fs.open(tmp, vfs::OpenFlags::CREAT_TRUNC).expect("open");
        fs.pwrite(fd, 0, &vfs::workload::fill_data(i as usize, 0, 128)).expect("pwrite");
        fs.close(fd).expect("close");
        fs.rename(tmp, "/target").expect("rename");
    }
    fs.sim_cost().ns - start
}

/// Repeatedly create (and remove) a hard link to one file.
fn link_ns(bugs: BugSet, iters: u64) -> u64 {
    let mut fs = nova(bugs);
    fs.creat("/f").expect("creat");
    let start = fs.sim_cost().ns;
    for i in 0..iters {
        let name = format!("/l{}", i % 8);
        fs.link("/f", &name).expect("link");
        fs.unlink(&name).expect("unlink");
    }
    fs.sim_cost().ns - start
}

/// A git-checkout-like metadata storm: create a tree of files, then "switch
/// branches" by rewriting most of them in place and renaming a few.
fn checkout_ns(bugs: BugSet, rounds: u64) -> u64 {
    let mut fs = nova(bugs);
    for d in 0..4 {
        fs.mkdir(&format!("/src{d}")).expect("mkdir");
        for f in 0..12 {
            fs.creat(&format!("/src{d}/file{f}")).expect("creat");
        }
    }
    let start = fs.sim_cost().ns;
    for r in 0..rounds {
        for d in 0..4 {
            for f in 0..12 {
                let p = format!("/src{d}/file{f}");
                let fd = fs.open(&p, vfs::OpenFlags::RDWR).expect("open");
                fs.pwrite(fd, 0, &vfs::workload::fill_data((r * 48 + d * 12 + f) as usize, 0, 512))
                    .expect("pwrite");
                fs.close(fd).expect("close");
            }
        }
        // A couple of renames per "checkout" — the realistic ratio that
        // makes the fix cost vanish in the noise.
        fs.rename("/src0/file0", "/src0/renamed").expect("rename");
        fs.rename("/src0/renamed", "/src0/file0").expect("rename back");
    }
    fs.sim_cost().ns - start
}

fn report(label: &str, buggy: u64, fixed: u64, paper: &str) {
    let delta = (fixed as f64 - buggy as f64) / buggy as f64 * 100.0;
    println!(
        "{label:<28} buggy {:>12} ns   fixed {:>12} ns   fixed is {:+.1}%   ({paper})",
        buggy, fixed, delta
    );
}

/// The rename system call alone (ping-pong between two names, no victim
/// replacement, no data writes) — an upper bound on the per-call fix cost.
fn rename_only_ns(bugs: BugSet, iters: u64) -> u64 {
    let mut fs = nova(bugs);
    fs.creat("/a").expect("creat");
    let start = fs.sim_cost().ns;
    for i in 0..iters {
        if i % 2 == 0 {
            fs.rename("/a", "/b").expect("rename");
        } else {
            fs.rename("/b", "/a").expect("rename");
        }
    }
    fs.sim_cost().ns - start
}

pub fn run(cli: &Cli, args: Vec<String>) {
    cli.positionals(args, 0);
    println!("Observation 2 fix-cost benchmarks (simulated Optane time, deterministic)\n");

    let rename_bugs = BugSet::only(&[BugId::B04, BugId::B05]);
    report(
        "rename-overwrite x2000",
        rename_overwrite_ns(rename_bugs, 2000),
        rename_overwrite_ns(BugSet::fixed(), 2000),
        "paper: fixed ~ +25% on its overwrite loop",
    );
    report(
        "rename syscall only x2000",
        rename_only_ns(rename_bugs, 2000),
        rename_only_ns(BugSet::fixed(), 2000),
        "upper bound: the fix cost on rename itself",
    );

    let link_bugs = BugSet::only(&[BugId::B06]);
    report(
        "link/unlink x2000",
        link_ns(link_bugs, 2000),
        link_ns(BugSet::fixed(), 2000),
        "paper: fixed ~ -7% (faster)",
    );

    report(
        "git-checkout-like x40",
        checkout_ns(rename_bugs, 40),
        checkout_ns(BugSet::fixed(), 40),
        "paper: <1%",
    );

    // Where the harness wall-clock actually goes: one representative ACE
    // seq-2 workload, split into oracle / record / check phases. The check
    // phase dominates.
    let cfg = TestConfig::default();
    let kind = NovaKind { opts: FsOptions::fixed(), fortis: false };
    let w = seq2(AceMode::Strong).nth(10).expect("seq-2 workload");
    let out = test_workload(&kind, &w, &cfg);
    println!(
        "\nper-phase harness cost ({}): oracle {:.2?}  record {:.2?}  \
         check {:.2?}  ({} crash states, {} dedup hits)",
        w.name, out.timing.oracle, out.timing.record, out.timing.check, out.crash_states,
        out.dedup_hits
    );
}

//! The paper's tables and measured claims, one subcommand each (DESIGN.md
//! §4 maps them to the paper).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use bench::{
    dispatch, mode_for, run_batch_cached, run_reference, run_suite, Scheduler, WithKind,
    STRONG_SYSTEMS,
};
use chipmunk::TestConfig;
use vfs::{
    bugs::{bug_table, BugKind},
    fs::{FsKind, FsOptions},
    BugSet, FsName, Op, Workload,
};
use workloads::ace::{core_ops_metadata, seq1, seq2, seq3_metadata, AceMode};

use crate::{fmt_dur, hunt_corpus_bug, Cli};

/// **Table 1**: every corpus bug hunted down the paper's frontend
/// hierarchy (ACE, the fuzzer for what ACE cannot reach), plus the two DAX
/// controls that must come up clean.
pub fn table1(cli: &Cli, args: Vec<String>) {
    let pos = cli.positionals(args, 1);
    let fuzz_budget: u64 = cli.parse_pos(pos.first(), "fuzz budget", 8000);
    let ace_cfg = TestConfig { stop_on_first: true, ..TestConfig::default() };
    let fuzz_cfg = TestConfig::fuzzing();

    println!("Table 1: bugs found by Chipmunk, their consequences, and affected system calls");
    println!("(each bug hunted in isolation; 'found by' is the first frontend to expose it)\n");
    println!(
        "{:>4} {:<11} {:<46} {:<13} {:<6} {:<7} {:>9} {:>8}",
        "Bug", "FS", "Consequence", "Type", "Found", "Via", "Time", "States"
    );
    println!("{}", "-".repeat(110));

    let mut found_unique: BTreeSet<u32> = Default::default();
    let mut ace_unique: BTreeSet<u32> = Default::default();
    let mut fuzz_only_unique: BTreeSet<u32> = Default::default();

    for info in bug_table() {
        let (hit, _, _) = hunt_corpus_bug(
            info,
            Some((&ace_cfg, 400)),
            Some((&fuzz_cfg, 0xace, fuzz_budget)),
        );
        let via = if info.ace_findable { "ACE" } else { "fuzzer" };
        let (found, time, states, traced) = match &hit {
            Some(h) => ("yes", fmt_dur(h.elapsed), h.states, h.traced),
            None => ("NO", "-".into(), 0, false),
        };
        if hit.is_some() {
            found_unique.insert(info.fix_group);
            if info.ace_findable {
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
    let control =
        |fs| run_suite(fs, BugSet::as_released(), seq1(mode_for(fs)), &TestConfig::default());
    let (dax, xfs) = (control(FsName::Ext4Dax), control(FsName::XfsDax));

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

const OBSERVATIONS: [&str; 7] = [
    "Many bugs are logic/design issues, not PM programming errors.",
    "The complexity of performing in-place updates leads to bugs.",
    "Recovery related to rebuilding in-DRAM state is a significant source of bugs.",
    "Complex features for increasing resilience can introduce crash consistency bugs.",
    "Many can only be exposed by simulating crashes during system calls.",
    "Short workloads were sufficient to expose many crash consistency bugs.",
    "Many bugs are exposed by replaying a few small writes onto previously persistent state.",
];

fn bugs_for(obs: u8) -> Vec<u32> {
    bug_table()
        .iter()
        .filter(|b| b.observations.contains(&obs))
        .map(|b| b.id.number())
        .collect()
}

fn fmt_ranges(nums: &[u32]) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < nums.len() {
        let mut j = i;
        while j + 1 < nums.len() && nums[j + 1] == nums[j] + 1 {
            j += 1;
        }
        if j > i + 1 {
            out.push(format!("{}-{}", nums[i], nums[j]));
        } else {
            for n in &nums[i..=j] {
                out.push(n.to_string());
            }
        }
        i = j + 1;
    }
    out.join(", ")
}

/// **Table 2**: the seven observations and their bugs, cross-checked
/// against this reproduction's bug metadata.
pub fn table2(cli: &Cli, args: Vec<String>) {
    cli.positionals(args, 0);
    println!("Table 2: observations and the bugs associated with them\n");
    for (i, obs) in OBSERVATIONS.iter().enumerate() {
        let nums = bugs_for(i as u8 + 1);
        println!("{obs}\n    bugs: {}\n", fmt_ranges(&nums));
    }

    // Cross-checks against the implementation itself.
    println!("cross-checks:");
    let unique = |keep: fn(&vfs::bugs::BugInfo) -> bool| {
        bug_table().iter().filter(|b| keep(b)).map(|b| b.fix_group).collect::<BTreeSet<u32>>()
    };
    println!(
        "  observation 1: {} of 23 unique bugs are logic errors in this corpus \
         (paper: 19 of 23)",
        unique(|b| b.kind == BugKind::Logic).len()
    );
    println!(
        "  observation 5: {} instances require a mid-syscall crash (paper: 11)",
        bugs_for(5).len()
    );
    println!(
        "  observation 6: {} of 23 unique bugs fall to ACE's short workloads (paper: 19)",
        unique(|b| b.ace_findable).len()
    );
}

/// The §3.4.1 ACE workload-space sizes.
pub fn ace_counts(cli: &Cli, args: Vec<String>) {
    cli.positionals(args, 0);
    println!("ACE workload-space sizes (paper §3.4.1 in parentheses)\n");
    let s1 = seq1(AceMode::Strong).len();
    println!("strong seq-1:          {s1:>8}   (paper: 56)");
    let s2 = seq2(AceMode::Strong).len();
    println!("strong seq-2:          {s2:>8}   (paper: 3136)");
    let m = core_ops_metadata().len();
    let s3 = seq3_metadata().len();
    println!("strong seq-3 metadata: {s3:>8}   (paper: 50650; this enumeration is {m}^3)");
    let w1 = seq1(AceMode::Weak).len();
    println!("weak seq-1:            {w1:>8}   (paper: 419; different fsync-insertion rules)");
    let w2 = seq2(AceMode::Weak).len();
    println!("weak seq-2:            {w2:>8}   (paper: 432462; different fsync-insertion rules)");
    println!(
        "\nThe strong-mode spaces match the paper exactly for seq-1/seq-2 and to within \n\
         3 workloads (unspecified pruning) for seq-3. The weak-mode default generator \n\
         in CrashMonkey used richer fsync-placement enumeration; this reproduction \n\
         inserts one fsync/sync variant per workload (see EXPERIMENTS.md)."
    );
}

/// The §4.3 crash-state counts: "as much as 3× between file systems, with
/// PMFS generally checking the most and WineFS checking the fewest".
pub fn crash_states(cli: &Cli, args: Vec<String>) {
    cli.positionals(args, 0);
    let cfg = TestConfig::default();
    println!("crash states explored per file system over the ACE seq-1 suite (fixed bugs)\n");
    println!(
        "{:<12} {:>10} {:>13} {:>13} {:>16}",
        "FS", "workloads", "crash points", "crash states", "states/workload"
    );
    println!("{}", "-".repeat(68));
    let mut per_fs: Vec<(FsName, f64)> = Vec::new();
    for fs in STRONG_SYSTEMS.into_iter().chain([FsName::Ext4Dax, FsName::XfsDax]) {
        let stats = run_suite(fs, BugSet::fixed(), seq1(mode_for(fs)), &cfg);
        let per = stats.crash_states as f64 / stats.workloads as f64;
        println!(
            "{:<12} {:>10} {:>13} {:>13} {:>16.1}",
            fs.to_string(),
            stats.workloads,
            stats.crash_points,
            stats.crash_states,
            per
        );
        if !matches!(fs, FsName::Ext4Dax | FsName::XfsDax) {
            per_fs.push((fs, per));
        }
    }
    println!("{}", "-".repeat(68));
    let pick = |better: fn(f64, f64) -> bool, init: f64| {
        per_fs.iter().fold((FsName::Nova, init), |a, &b| if better(b.1, a.1) { b } else { a })
    };
    let (max, min) = (pick(|b, a| b > a, 0.0), pick(|b, a| b < a, f64::MAX));
    println!(
        "most: {} ({:.1}/workload); fewest: {} ({:.1}/workload); ratio {:.2}x",
        max.0,
        max.1,
        min.0,
        min.1,
        max.1 / min.1
    );
    println!("paper: up to 3x variation; PMFS most, WineFS fewest");
}

fn percentile(sorted: &[usize], p: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// The Observation 7 / §3.2 in-flight writes: "the average number of
/// in-flight writes for metadata operations is three and the maximum is
/// 10"; "20 writes in some PMFS write calls".
pub fn inflight(cli: &Cli, args: Vec<String>) {
    cli.positionals(args, 0);
    let cfg = TestConfig::default();

    println!("in-flight writes per crash point, ACE seq-1 + sampled seq-2 (fixed bugs)");
    println!("('busy' columns exclude the post-syscall points whose epochs already drained)\n");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "FS", "mean", "busy mean", "busy p95", "max", "points"
    );
    println!("{}", "-".repeat(62));
    for fs in STRONG_SYSTEMS {
        let mut workloads = seq1(mode_for(fs));
        workloads.extend(seq2(mode_for(fs)).step_by(41));
        let stats = run_suite(fs, BugSet::fixed(), workloads, &cfg);
        let mut v = stats.inflight.clone();
        v.sort_unstable();
        let mean = v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        let busy: Vec<usize> = v.iter().copied().filter(|&n| n > 0).collect();
        let busy_mean = busy.iter().sum::<usize>() as f64 / busy.len().max(1) as f64;
        println!(
            "{:<12} {:>8.2} {:>10.2} {:>10} {:>8} {:>8}",
            fs.to_string(),
            mean,
            busy_mean,
            percentile(&busy, 0.95),
            v.last().copied().unwrap_or(0),
            v.len(),
        );
    }
    println!("\npaper: metadata ops average 3 in-flight writes, max 10");

    // The paper's outlier: large PMFS writes. A 64 KiB write spans 16
    // blocks, each its own non-temporal burst.
    let big = Workload::new(
        "pmfs-big-write",
        vec![Op::WritePath { path: "/big".into(), off: 0, size: 64 * 1024 }],
    );
    let stats = run_suite(FsName::Pmfs, BugSet::fixed(), vec![big], &cfg);
    println!(
        "\nPMFS 64 KiB write: max in-flight = {} (paper: up to 20 for some PMFS writes)",
        stats.inflight.iter().max().copied().unwrap_or(0)
    );
}

/// The Observation 7 replay-cap sensitivity: "a cap of two is enough to
/// find all bugs presented in this paper; a cap of five is sufficient to
/// check all crash states for most system calls".
pub fn cap_sweep(cli: &Cli, args: Vec<String>) {
    let pos = cli.positionals(args, 1);
    let fuzz_budget: u64 = cli.parse_pos(pos.first(), "fuzz budget", 6000);
    let caps: [Option<usize>; 4] = [Some(1), Some(2), Some(5), None];

    println!("bugs found at each replay cap (each bug hunted in isolation)\n");
    print!("{:>4} {:<12}", "Bug", "FS");
    for cap in caps {
        match cap {
            Some(c) => print!(" {:>7}", format!("cap={c}")),
            None => print!(" {:>7}", "exhst"),
        }
    }
    println!();
    println!("{}", "-".repeat(50));

    let mut found_at: Vec<usize> = vec![0; caps.len()];
    for info in bug_table() {
        print!("{:>4} {:<12}", info.id.number(), info.fs.to_string());
        for (ci, cap) in caps.iter().enumerate() {
            let cfg = TestConfig { cap: *cap, stop_on_first: true, ..TestConfig::default() };
            let hit = hunt_corpus_bug(info, Some((&cfg, 100)), Some((&cfg, 0xca9, fuzz_budget))).0;
            let mark = if hit.is_some() { "yes" } else { "-" };
            if hit.is_some() {
                found_at[ci] += 1;
            }
            print!(" {mark:>7}");
        }
        println!();
    }
    println!("{}", "-".repeat(50));
    print!("{:>17}", "total found");
    for n in &found_at {
        print!(" {n:>7}");
    }
    println!("\n\npaper: a cap of two finds every bug in the paper");
}

/// The §3.6 persistence-model experiment the paper argues for but does not
/// run: re-hunt the corpus under **eADR** (persistent caches). The missing
/// flushes and fences become unobservable; the logic bugs remain.
pub fn eadr(cli: &Cli, args: Vec<String>) {
    let pos = cli.positionals(args, 1);
    let fuzz_budget: u64 = cli.parse_pos(pos.first(), "fuzz budget", 8000);
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
        let found = |cfg: &TestConfig| {
            hunt_corpus_bug(info, Some((cfg, 200)), Some((cfg, 0xead, fuzz_budget))).0.is_some()
        };
        let under_adr = found(&adr);
        let under_eadr = found(&eadr);
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

/// One suite through production and through the reference checker.
struct ReferenceRow(Vec<Workload>);

impl WithKind for ReferenceRow {
    /// `(crash states, production wall, reference wall)`.
    type Out = (u64, Duration, Duration);

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let cfg = TestConfig::default();
        let fresh = || kind.with_options(kind.options().with_fresh_sinks());
        let prod_kind = fresh();
        let t = Instant::now();
        let mut sched = Scheduler::new(&prod_kind, &cfg);
        let prod = run_batch_cached(&prod_kind, &self.0, &cfg, Some(&mut sched));
        let prod_wall = t.elapsed();
        let t = Instant::now();
        let refr = run_reference(&fresh(), &self.0, &cfg);
        let ref_wall = t.elapsed();
        let mut states = 0;
        for (w, ((a, _), (b, _))) in self.0.iter().zip(prod.iter().zip(&refr)) {
            assert_eq!(
                format!("{:?}", a.reports),
                format!("{:?}", b.reports),
                "production and reference disagree on {}",
                w.name
            );
            assert_eq!(a.crash_states, b.crash_states, "{}", w.name);
            states += a.crash_states;
        }
        (states, prod_wall, ref_wall)
    }
}

/// Ablation of the crash-state design choices (§3.3, Observation 7): the
/// ACE-findable corpus re-hunted under baseline, no-coalesce (every
/// non-temporal store its own write), no-probe (no create/delete usability
/// probe) and large-first subsets; then a **reference** row — strong seq-1
/// on fixed NOVA through production and through the literal reference
/// checker (`chipmunk::reference`), wall against wall, asserting equal
/// report lists.
pub fn ablation(cli: &Cli, args: Vec<String>) {
    cli.positionals(args, 0);
    let base = TestConfig { stop_on_first: true, ..TestConfig::default() };
    let rows = [
        ("baseline", base.clone()),
        ("no-coalesce", TestConfig { coalesce_data: false, ..base.clone() }),
        ("no-probe", TestConfig { probe: false, ..base.clone() }),
        ("large-first", TestConfig { large_first_subsets: true, ..base.clone() }),
    ];

    println!("ablation of crash-state construction (ACE-findable corpus, stop-on-first)\n");
    println!(
        "{:<12} {:>6} {:>14} {:>18}",
        "config", "found", "total states", "mean states/find"
    );
    println!("{}", "-".repeat(54));
    for (name, cfg) in &rows {
        let mut found = 0u64;
        let mut total_states = 0u64;
        let mut find_states = 0u64;
        for info in bug_table() {
            let (hit, _, states) = hunt_corpus_bug(info, Some((cfg, 200)), None);
            total_states += states;
            if let Some(r) = hit {
                found += 1;
                find_states += r.states;
            }
        }
        println!(
            "{:<12} {:>6} {:>14} {:>18.1}",
            name,
            found,
            total_states,
            find_states as f64 / found.max(1) as f64
        );
    }
    println!();
    println!("expected shape: no-coalesce finds the same bugs over more states;");
    println!("dropping the probe loses the unusable-state finding tree walks can't");
    println!("see (and burns that hunt's whole budget). Subset order barely moves");
    println!("the ACE numbers because metadata ops keep 1-3 writes in flight");
    println!("(Observation 7) — ordering only pays on deep data ops.");

    let (states, prod, refr) = dispatch(
        FsName::Nova,
        FsOptions::with_bugs(BugSet::fixed()),
        ReferenceRow(seq1(AceMode::Strong)),
    );
    println!();
    println!("reference: strong seq-1 on fixed NOVA, {states} crash states, equal report lists");
    println!(
        "  production {} | reference checker {} | fast paths buy {:.1}x",
        fmt_dur(prod),
        fmt_dur(refr),
        refr.as_secs_f64() / prod.as_secs_f64().max(1e-9)
    );
}

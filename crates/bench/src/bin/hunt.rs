//! Hunts one injected bug (by Table 1 number) with both frontends, printing
//! time-to-find, work counters, and dedup hit counts. The measurement tool
//! behind the "Parallel scaling" and "Where the parallelism is" sections of
//! EXPERIMENTS.md — and, with `--shrink` / `--repro`, the front door to
//! minimized repro bundles.
//!
//! ```sh
//! cargo run --release -p bench --bin hunt -- <bug#> [threads] [fuzz_budget] [seed] [--json <path>] [--shrink] [--out <path>]
//! cargo run --release -p bench --bin hunt -- --repro <bundle.json>
//! ```
//!
//! `threads` (default 1) is how many workers the workload batches are
//! sharded over; every counter is identical for any value, and one workload
//! is always checked by one thread (EXPERIMENTS.md "Where the parallelism
//! is").
//!
//! With `--json <path>`, a machine-readable summary — per-phase wall times,
//! dedup/memo/prefix hit counters, and states/sec — is also written to
//! `path` (see `BENCH_hunt.json` for a committed baseline).
//!
//! With `--shrink`, the first find is delta-debugged down to a minimal
//! `(workload, crash subset)` pair and written as a self-contained repro
//! bundle (default `repro-bug<N>.json`; override with `--out`). With
//! `--repro <file>`, the bundle is replayed instead of hunting: exit status
//! 0 iff the replay reproduces the expected violation class, 1 when it
//! loads but fails to reproduce, 2 when the bundle itself is malformed
//! (the error names the file, byte offset, and recovery action).
//!
//! The journaled, resumable form of a single-bug hunt is `campaignd --store
//! <dir> --bug <bug#>` (see `bench::campaign`), which prints the first find
//! of its merged results.
//!
//! Unknown flags, malformed numbers, and extra arguments are fatal (exit 2)
//! rather than silently ignored.

use bench::{
    cli::Cli, fmt_dur, hunt_json, hunt_with_ace, hunt_with_fuzzer, jsonout::Json, shrink_to_bundle,
    HuntResult, ReproBundle,
};
use chipmunk::TestConfig;
use vfs::bugs::bug_table;

const CLI: Cli = Cli(
    "hunt [bug#] [threads] [fuzz_budget] [seed] [--json <path>] [--shrink] [--out <path>]\n       \
     hunt --repro <bundle.json>",
);

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let json_path = CLI.take_flag(&mut raw, "--json");
    let repro_path = CLI.take_flag(&mut raw, "--repro");
    let out_path = CLI.take_flag(&mut raw, "--out");
    let do_shrink = raw.iter().any(|a| a == "--shrink");
    raw.retain(|a| a != "--shrink");
    let pos = CLI.positionals(raw, 4);
    if out_path.is_some() && !do_shrink {
        CLI.fail("--out only makes sense with --shrink");
    }

    // Replay mode: no hunting, no other arguments.
    if let Some(path) = repro_path {
        if do_shrink || json_path.is_some() || !pos.is_empty() {
            CLI.fail("--repro takes no other arguments");
        }
        // A malformed bundle exits 2 (the error names the file, the byte
        // offset of the first unparsable input, and the recovery action);
        // a bundle that loads but fails to reproduce exits 1.
        let bundle = ReproBundle::load(&path).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        });
        let out = bundle.replay().unwrap_or_else(|e| {
            eprintln!("error: replay failed: {e}");
            std::process::exit(1);
        });
        println!(
            "repro {path}: {} on {} | expected {}{} | got {}{}{}",
            bundle.workload.name,
            bundle.fs,
            bundle.expect_class,
            bundle.expect_stage.map(|s| format!(" @ {s:?}")).unwrap_or_default(),
            out.class,
            out.stage.map(|s| format!(" @ {s:?}")).unwrap_or_default(),
            if out.ok { " | OK" } else { " | MISMATCH" },
        );
        if !out.detail.is_empty() {
            println!("  {}", out.detail);
        }
        std::process::exit(if out.ok { 0 } else { 1 });
    }

    let number: u32 = CLI.parse_pos(pos.first(), "bug number", 14);
    let threads: usize = CLI.parse_pos(pos.get(1), "thread count", 1);
    let budget: u64 = CLI.parse_pos(pos.get(2), "fuzz budget", 4000);
    let seed: u64 = CLI.parse_pos(pos.get(3), "seed", 0xf16 + number as u64);

    let info = bug_table()
        .iter()
        .find(|b| b.id.number() == number)
        .unwrap_or_else(|| panic!("no bug #{number} in the Table 1 corpus"));
    // With --shrink, enumerate subsets large-first: the first hit then
    // carries a maximal write subset (instead of the usually-minimal one
    // small-first stops at), which is the raw material the subset ddmin pass
    // minimizes.
    let ace_cfg = TestConfig {
        stop_on_first: true,
        large_first_subsets: do_shrink,
        ..TestConfig::default()
    }
    .with_threads(threads);
    let fuzz_cfg = TestConfig { large_first_subsets: do_shrink, ..TestConfig::fuzzing() }
        .with_threads(threads);

    println!("bug {number} on {} (threads = {threads})", info.fs);
    let ace = if info.ace_findable {
        let (hit, w, s) = hunt_with_ace(info.id, &ace_cfg, 400);
        match &hit {
            Some(h) => println!(
                "  ACE : found in {:>8} | {w} workloads, {s} states, {} dedup, {} memo, {} prefix hits, {} subtrees (depth {}), per-worker {:?} | {}",
                fmt_dur(h.elapsed),
                h.dedup_hits,
                h.memo_hits,
                h.prefix_hits,
                h.sched_subtrees,
                h.sched_subtree_max_depth,
                h.per_worker_prefix_hits,
                h.class
            ),
            None => println!("  ACE : not found | {w} workloads, {s} states"),
        }
        Some((hit, w, s))
    } else {
        println!("  ACE : not findable (fuzzer-only bug)");
        None
    };
    let (fuzz_hit, fuzz_w, fuzz_s) = hunt_with_fuzzer(info.id, &fuzz_cfg, seed, budget);
    match &fuzz_hit {
        Some(h) => println!(
            "  fuzz: found in {:>8} | {fuzz_w} workloads, {fuzz_s} states, {} dedup hits | {}",
            fmt_dur(h.elapsed),
            h.dedup_hits,
            h.class
        ),
        None => {
            println!("  fuzz: not found within {budget} | {fuzz_w} workloads, {fuzz_s} states");
        }
    }

    if let Some(path) = &json_path {
        let doc = Json::Obj(vec![
            ("bug", Json::U(number as u64)),
            ("fs", Json::S(info.fs.to_string())),
            ("threads", Json::U(threads as u64)),
            ("fuzz_budget", Json::U(budget)),
            (
                "ace",
                match &ace {
                    Some((hit, w, s)) => hunt_json(hit.as_ref(), *w, *s),
                    None => Json::Null,
                },
            ),
            ("fuzz", hunt_json(fuzz_hit.as_ref(), fuzz_w, fuzz_s)),
        ]);
        bench::jsonout::write_atomic(path, &doc.render()).expect("write --json output");
        eprintln!("wrote {path}");
    }

    if do_shrink {
        // Prefer the fuzzer find — fuzzing finds are the heavyweight ones
        // shrinking exists for (ACE workloads are ≤ 3 ops by construction);
        // fall back to the ACE find.
        let find: Option<(&HuntResult, &TestConfig)> = match (&fuzz_hit, &ace) {
            (Some(h), _) => Some((h, &fuzz_cfg)),
            (_, Some((Some(h), _, _))) => Some((h, &ace_cfg)),
            _ => None,
        };
        let Some((hit, cfg)) = find else {
            eprintln!("  shrink: no find to shrink");
            std::process::exit(1);
        };
        let (bundle, stats) =
            shrink_to_bundle(info.fs, &[info.id], &hit.workload, &hit.report, cfg, seed)
                .unwrap_or_else(|e| {
                    eprintln!("error: shrink failed: {e}");
                    std::process::exit(1);
                });
        let path = out_path.unwrap_or_else(|| format!("repro-bug{number}.json"));
        bundle.save(&path).expect("write repro bundle");
        println!(
            "  shrink: ops {} -> {}, subset {} -> {} ({} workload + {} state candidates) | wrote {path}",
            stats.ops_before,
            stats.ops_after,
            stats.subset_before,
            stats.subset_after,
            stats.op_candidates,
            stats.state_candidates,
        );
    }
}

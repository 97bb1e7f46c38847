//! `hunt`: one corpus bug with both frontends — time-to-find, work counters
//! and cache hits (EXPERIMENTS.md "Parallel scaling" and "Where the
//! parallelism is") — and the front door to minimized repro bundles.
//!
//! `threads` (default 1) shards the workload batches; every counter is
//! identical for any value. `--json <path>` also writes a machine-readable
//! summary (`BENCH_hunt.json` is a committed baseline). `--shrink`
//! delta-debugs the first find down to a minimal `(workload, crash subset)`
//! pair and writes it as a repro bundle (default `repro-bug<N>.json`, or
//! `--out`). `--repro <file>` replays a bundle instead: exit 0 iff it
//! reproduces the expected violation class, 1 when it loads but does not, 2
//! when the bundle is malformed (the error names the file, byte offset and
//! recovery action). The journaled, resumable single-bug hunt is
//! `campaignd --store <dir> --bug <bug#>`.

use std::time::Instant;

use bench::{
    hunt_with_ace, hunt_with_fuzzer,
    jsonout::{ju, JVal},
    shrink_to_bundle, HuntResult, ReproBundle,
};
use chipmunk::TestConfig;

use crate::{fmt_dur, Cli};

pub fn run(cli: &Cli, mut args: Vec<String>) {
    let json_path = cli.take_flag(&mut args, "--json");
    let repro_path = cli.take_flag(&mut args, "--repro");
    let out_path = cli.take_flag(&mut args, "--out");
    let do_shrink = cli.take_switch(&mut args, "--shrink");
    let pos = cli.positionals(args, 4);
    if out_path.is_some() && !do_shrink {
        cli.fail("--out only makes sense with --shrink");
    }

    // Replay mode: no hunting, no other arguments.
    if let Some(path) = repro_path {
        if do_shrink || json_path.is_some() || !pos.is_empty() {
            cli.fail("--repro takes no other arguments");
        }
        replay(&path);
    }

    let number: u32 = cli.parse_pos(pos.first(), "bug number", 14);
    let threads: usize = cli.parse_pos(pos.get(1), "thread count", 1);
    let budget: u64 = cli.parse_pos(pos.get(2), "fuzz budget", 4000);
    let seed: u64 = cli.parse_pos(pos.get(3), "seed", 0xf16 + number as u64);
    let info = cli.corpus_bug(number);

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
        let doc = JVal::obj([
            ("bug", ju(number as u64)),
            ("fs", JVal::Str(info.fs.to_string())),
            ("threads", ju(threads as u64)),
            ("fuzz_budget", ju(budget)),
            (
                "ace",
                match &ace {
                    Some((hit, w, s)) => hunt_json(hit.as_ref(), *w, *s),
                    None => JVal::Null,
                },
            ),
            ("fuzz", hunt_json(fuzz_hit.as_ref(), fuzz_w, fuzz_s)),
        ]);
        bench::jsonout::write_atomic(path, &doc.render_pretty()).expect("write --json output");
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
        let started = Instant::now();
        let (bundle, stats) =
            shrink_to_bundle(info.fs, &[info.id], &hit.workload, &hit.report, cfg, seed)
                .unwrap_or_else(|e| {
                    eprintln!("error: shrink failed: {e}");
                    std::process::exit(1);
                });
        let elapsed = started.elapsed();
        let path = out_path.unwrap_or_else(|| format!("repro-bug{number}.json"));
        bundle.save(&path).expect("write repro bundle");
        println!(
            "  shrink: ops {} -> {}, subset {} -> {} ({} workload + {} state candidates) in {} | wrote {path}",
            stats.ops_before,
            stats.ops_after,
            stats.subset_before,
            stats.subset_after,
            stats.op_candidates,
            stats.state_candidates,
            fmt_dur(elapsed),
        );
    }
}

/// Replays the bundle at `path` and exits: 0 when it reproduces, 1 when it
/// loads but does not, the load error's code (2) when it is malformed.
fn replay(path: &str) -> ! {
    let bundle = ReproBundle::load(path).unwrap_or_else(|e| {
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

/// Serializes one frontend's hunt result (or a miss) for `--json`:
/// per-phase wall times, cache-layer hit counters, and throughput.
fn hunt_json(hit: Option<&HuntResult>, workloads: u64, states: u64) -> JVal {
    let mut f = vec![
        ("found", JVal::Bool(hit.is_some())),
        ("workloads", ju(workloads)),
        ("states", ju(states)),
    ];
    if let Some(h) = hit {
        let secs = h.elapsed.as_secs_f64();
        f.extend([
            ("seconds", JVal::Num(secs)),
            ("states_per_sec", JVal::Num(h.states as f64 / secs.max(1e-9))),
            ("class", JVal::Str(h.class.clone())),
            ("detail", JVal::Str(h.detail.clone())),
            ("traced", JVal::Bool(h.traced)),
            ("dedup_hits", ju(h.dedup_hits)),
            ("memo_hits", ju(h.memo_hits)),
            ("rep_classes", ju(h.rep_classes)),
            ("rep_skipped", ju(h.rep_skipped)),
            ("rep_expansions", ju(h.rep_expansions)),
            ("prefix_hits", ju(h.prefix_hits)),
            ("prefix_ops_saved", ju(h.prefix_ops_saved)),
            ("subtrees", ju(h.sched_subtrees)),
            ("subtree_max_depth", ju(h.sched_subtree_max_depth)),
            ("recovery_panics", ju(h.recovery_panics)),
            ("recovery_hangs", ju(h.recovery_hangs)),
            ("sandbox_retries", ju(h.sandbox_retries)),
            ("fuel_exhausted", ju(h.fuel_exhausted)),
            ("oracle_subtrees_pruned", ju(h.oracle_subtrees_pruned)),
            ("oracle_snap_bytes_shared", ju(h.oracle_snap_bytes_shared)),
            (
                "per_worker_prefix_hits",
                JVal::Arr(h.per_worker_prefix_hits.iter().map(|&v| ju(v)).collect()),
            ),
            ("oracle_seconds", JVal::Num(h.phase.oracle.as_secs_f64())),
            ("record_seconds", JVal::Num(h.phase.record.as_secs_f64())),
            ("check_seconds", JVal::Num(h.phase.check.as_secs_f64())),
        ]);
    }
    JVal::obj(f)
}

#![warn(missing_docs)]

//! The repo benchmark: five workloads, end-to-end and per-layer metrics, and
//! a staged trace of the check pipeline. See `README.md` beside this crate
//! for the glossary and how to read the output.
//!
//! A *run* sets a workload up from the seed (several times, reporting the
//! median as `setup_s`), then repeats one fixed *pass* of work for
//! `--seconds` and reports the better quartile of the passes. The timed run records no spans;
//! the traced run (`--trace 1`) alternates plain and span-wrapped passes,
//! then replays a sample of the inputs through the staged pipeline and runs
//! the micro-lanes.

pub mod compare;
pub mod expected;
pub mod metrics;
pub mod micro;
pub mod proc;
pub mod staged;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use metrics::{median, quantile, ratio, Values, END_TO_END, FS_KEYS};
use proc::Usage;
use trace::Tracer;
use workloads::{Input, Pass, Scale, Sizes};

/// The seed used when `--seed` is not given; `expected.json` pins its facts.
pub const DEFAULT_SEED: u64 = 0xf16;

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// What to run and how.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to keep starting passes, in seconds. At least one pass runs
    /// (two in a traced run) whatever the value.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
    /// The benchmark's own directory: `expected.json` is read from it and
    /// `out/` (traces, scratch stores) is written under it.
    pub home: PathBuf,
    /// Pin this run's exact facts in `expected.json` instead of checking
    /// them against it.
    pub update_expected: bool,
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct RunResult {
    /// No attempt failed, no exact fact drifted, the staged pipeline agreed
    /// with the production run.
    pub correct: bool,
    /// Attempts in one pass.
    pub attempted: u64,
    /// Failed attempts in one pass, plus one per drifted fact or verdict
    /// disagreement.
    pub failed: u64,
    /// Metric values: the end-to-end set, or the per-layer set when traced.
    pub metrics: Values,
    /// Quartiles of each end-to-end metric over the run's passes, for
    /// `compare`'s unresolved verdict.
    pub quartiles: BTreeMap<String, (f64, f64)>,
    /// Human-readable problems.
    pub problems: Vec<String>,
    /// Parts skipped for lack of cores.
    pub skipped: Vec<String>,
    /// Exact facts of the first pass (and of the staged pipeline).
    pub facts: BTreeMap<String, String>,
    /// The harness counters of one pass, summed over its rows.
    pub totals: Vec<(&'static str, u64)>,
    /// Passes measured.
    pub passes: usize,
    /// Where the trace was written, if traced.
    pub trace_file: Option<PathBuf>,
}

/// Cores the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One measured pass.
struct Timed {
    pass: Pass,
    wall_s: f64,
    cpu_s: f64,
    sys_s: f64,
    minor_faults: u64,
    spans_on: bool,
}

fn timed_pass(input: &Input, sz: &Sizes, index: u64, want_samples: bool, tr: &mut Tracer) -> Timed {
    let u0 = Usage::now();
    let t = Instant::now();
    let pass = workloads::pass(input, sz, index, want_samples, tr);
    let wall_s = t.elapsed().as_secs_f64();
    let u1 = Usage::now();
    Timed {
        pass,
        wall_s,
        cpu_s: u1.cpu_s() - u0.cpu_s(),
        sys_s: u1.sys_s - u0.sys_s,
        minor_faults: u1.minor_faults - u0.minor_faults,
        spans_on: tr.enabled(),
    }
}

/// Runs one workload. `Err` means the run could not be made at all (unknown
/// workload, too few cores, unwritable `out/`); a run that was made but went
/// wrong comes back `Ok` with `correct == false`.
pub fn run_workload(o: &Options) -> Result<RunResult, String> {
    let out_dir = o.home.join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let sz = Sizes::of(o.scale);
    let default_seed = o.seed == DEFAULT_SEED;

    // Set-up, several times over: inputs from the seed, then the warm-up
    // hunt. The last set of inputs is the one measured.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        input = Some(workloads::setup(
            &o.workload,
            o.seed,
            default_seed,
            o.scale,
            nproc(),
        )?);
        workloads::warm_up(&sz);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("SETUP_REPS > 0");

    let mut tr = Tracer::new(false);
    let mut passes: Vec<Timed> = Vec::new();
    let started = Instant::now();
    // The traced run spends half its time on passes (at least one plain and
    // one span-wrapped), the rest on the staged pipeline and micro-lanes.
    let (budget, min_passes) = if o.traced {
        (o.seconds / 2.0, 2)
    } else {
        (o.seconds, 1)
    };
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < budget {
        tr.set_enabled(o.traced && passes.len() % 2 == 1);
        let want_samples = o.traced && passes.is_empty();
        passes.push(timed_pass(
            &input,
            &sz,
            passes.len() as u64,
            want_samples,
            &mut tr,
        ));
    }

    let mut res = RunResult {
        passes: passes.len(),
        ..RunResult::default()
    };
    let first = &passes[0].pass;
    res.attempted = first.attempted;
    res.failed = first.failed;
    res.problems.extend(first.failures.iter().cloned());
    res.skipped = first.skipped.clone();
    res.facts = first.facts.clone();
    res.totals = first.c.fields().collect();
    for (i, t) in passes.iter().enumerate().skip(1) {
        if t.pass.failed > 0 {
            res.failed += t.pass.failed;
            res.problems
                .extend(t.pass.failures.iter().map(|f| format!("pass {i}: {f}")));
        } else if input.passes_repeat() && t.pass.facts != first.facts {
            res.failed += 1;
            res.problems
                .push(format!("pass {i} did not repeat pass 0's counters"));
        }
    }

    if o.traced {
        traced_phase(o, &input, &sz, &passes, &mut tr, &out_dir, &mut res)?;
    } else {
        let per_pass = |f: &dyn Fn(&Timed) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
        let rate = |t: &Timed, counter: &str| ratio(t.pass.c.get(counter) as f64, t.wall_s);
        for m in END_TO_END {
            // Passes repeat one measurement, so they report their better
            // quartile; set-ups are the thing measured, so their median.
            let (v, value) = match m.name {
                "setup_s" => (setup_s.clone(), median(&setup_s)),
                "peak_rss_mb" => (Vec::new(), Usage::now().peak_rss_mb),
                name => {
                    let v = match name {
                        "wall_s" => per_pass(&|t| t.wall_s),
                        "cpu_s" => per_pass(&|t| t.cpu_s),
                        "states_per_s" => per_pass(&|t| rate(t, "states")),
                        "workloads_per_s" => per_pass(&|t| rate(t, "workloads")),
                        other => unreachable!("end-to-end metric {other} has no source"),
                    };
                    let value = m.better.quartile(&v);
                    (v, value)
                }
            };
            let spread = if v.is_empty() {
                (value, value)
            } else {
                (quantile(&v, 0.25), quantile(&v, 0.75))
            };
            res.metrics.insert(m.name.to_string(), value);
            res.quartiles.insert(m.name.to_string(), spread);
        }
    }
    drop(input);

    if o.update_expected {
        expected::update(&o.home, o.scale, &o.workload, o.seed, &res.facts)?;
    } else {
        let drift = expected::check(&o.home, o.scale, &o.workload, default_seed, &res.facts);
        res.failed += drift.len() as u64;
        res.problems.extend(drift);
    }
    res.correct = res.failed == 0 && res.attempted > 0;
    Ok(res)
}

/// Everything the traced run does after its passes: extra production
/// passes some metrics need, the staged pipeline, the micro-lanes, the
/// per-layer metric table and the trace file.
fn traced_phase(
    o: &Options,
    input: &Input,
    sz: &Sizes,
    passes: &[Timed],
    tr: &mut Tracer,
    out_dir: &Path,
    res: &mut RunResult,
) -> Result<(), String> {
    tr.set_enabled(true);
    let first = &passes[0].pass;
    // A layer that did no work on this workload reads 0.
    let m = &mut metrics::per_layer()
        .into_iter()
        .map(|l| (l.name, 0.0))
        .collect::<Values>();
    let med = |f: &dyn Fn(&Timed) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let wall_of = |on: bool| {
        median(
            &passes
                .iter()
                .filter(|t| t.spans_on == on)
                .map(|t| t.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let put = |m: &mut Values, k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    // Correctness and workload-specific numbers.
    put(m, "bugs_found", first.bugs_found as f64);
    put(m, "false_positives", first.false_positives as f64);
    for name in ["time_to_bug_ace_s", "time_to_bug_fuzz_s"] {
        put(
            m,
            name,
            med(&|t| t.pass.extra.get(name).copied().unwrap_or(0.0)),
        );
    }

    // harness: phase sums and counters of the production passes.
    let phases = |t: &Timed| (t.pass.oracle + t.pass.record + t.pass.check).as_secs_f64();
    put(m, "harness.oracle_s", med(&|t| t.pass.oracle.as_secs_f64()));
    put(m, "harness.record_s", med(&|t| t.pass.record.as_secs_f64()));
    put(m, "harness.check_s", med(&|t| t.pass.check.as_secs_f64()));
    // What the three phases do not cover. Negative when threads overlap
    // them: the phase sums add up per workload, the wall does not.
    put(m, "harness.other_s", med(&|t| t.wall_s - phases(t)));
    let c = &first.c;
    for (metric, counter) in [
        ("harness.dedup_hits", "dedup_hits"),
        ("harness.memo_hits", "memo_hits"),
        ("harness.rep_skipped", "rep_skipped"),
        ("harness.rep_expansions", "rep_expansions"),
        ("harness.recovery_panics", "recovery_panics"),
        ("harness.recovery_hangs", "recovery_hangs"),
        ("harness.sandbox_retries", "sandbox_retries"),
        ("harness.fuel_exhausted", "fuel_exhausted"),
        ("crashgen.crash_points", "crash_points"),
        ("crashgen.states", "states"),
        ("oracle.subtrees_pruned", "oracle_subtrees_pruned"),
        ("oracle.snap_bytes_shared", "oracle_snap_bytes_shared"),
        ("prefix.hits", "prefix_hits"),
        ("prefix.ops_saved", "prefix_ops_saved"),
        ("sched.subtrees", "sched_subtrees"),
    ] {
        put(m, metric, c.get(counter) as f64);
    }
    put(
        m,
        "harness.checked_share",
        100.0 * ratio(c.mounts() as f64, c.get("states") as f64),
    );
    put(m, "checker.mounts", c.mounts() as f64);
    put(m, "pmlog.record_s", med(&|t| t.pass.record.as_secs_f64()));
    let hits: Vec<f64> = first.per_worker_hits.iter().map(|&h| h as f64).collect();
    let mean_hits = ratio(hits.iter().sum::<f64>(), hits.len() as f64);
    let max_hits = hits.iter().copied().fold(0.0, f64::max);
    put(
        m,
        "sched.worker_imbalance",
        100.0 * ratio(max_hits - mean_hits, mean_hits),
    );
    put(m, "workloads.fuzz_gen_us", median(&first.fuzz_gen_us));
    put(
        m,
        "workloads.fuzz_ops_mean",
        ratio(first.fuzz_ops.iter().sum(), first.fuzz_ops.len() as f64),
    );
    put(m, "proc.sys_s", med(&|t| t.sys_s));
    put(m, "proc.minor_faults", med(&|t| t.minor_faults as f64));
    put(
        m,
        "trace.overhead_share",
        100.0 * ratio(wall_of(true) - wall_of(false), wall_of(false)),
    );
    for &k in first.extra.keys() {
        if !k.starts_with("time_to_bug") {
            put(m, k, med(&|t| t.pass.extra.get(k).copied().unwrap_or(0.0)));
        }
    }

    // Verdict latency per workload: the fuzz passes return outcomes; an ACE
    // sweep is re-driven once through the scheduler path that does. The
    // same sweep at one thread gives ace_clean_t2 its speed-up base.
    let mut verdict_ms = first.verdict_ms.clone();
    if let Input::Ace {
        rows,
        threads,
        generated,
        gen_s,
    } = input
    {
        let span = tr.enter("suite.verdict_latency", 0);
        verdict_ms = workloads::ace_verdict_ms(rows, *threads);
        tr.exit(span);
        if *threads > 1 {
            let serial = Input::Ace {
                rows: rows.clone(),
                threads: 1,
                generated: *generated,
                gen_s: *gen_s,
            };
            let t1 = timed_pass(&serial, sz, 0, false, tr).wall_s;
            put(m, "sched.t2_speedup", ratio(t1, med(&|t| t.wall_s)));
        }
    }
    put(m, "harness.verdict_ms_p50", median(&verdict_ms));
    put(m, "harness.verdict_ms_p99", quantile(&verdict_ms, 0.99));

    // The staged pipeline over the sampled inputs, then the micro-lanes.
    let st = staged::run(&first.samples, sz.staged_state_stride, tr);
    res.failed += st.disagreements.len() as u64;
    res.problems.extend(st.disagreements.iter().cloned());
    put(
        m,
        "failed_share",
        100.0 * ratio(res.failed as f64, res.attempted as f64),
    );
    for (fact, n) in [
        ("staged.inputs", st.inputs),
        ("staged.crash_points", st.crash_points),
        ("staged.states", st.states),
        ("staged.checked", st.checked),
        ("staged.verdicts_compared", st.verdicts_compared),
    ] {
        res.facts.insert(fact.into(), n.to_string());
    }

    let scratch = micro::ScratchDir::create(out_dir, "micro").map_err(|e| e.to_string())?;
    let batch = match input {
        Input::Ace { rows, .. } => rows[0].1.as_slice(),
        _ => &[],
    };
    micro::run(tr, st.first_log.as_ref(), batch, scratch.path(), m);
    drop(scratch);

    // Unit costs from the staged spans.
    let agg = tr.aggregate();
    let p50_us = |name: &str, fs: Option<&str>| median(&tr.per_call_ns(name, fs)) / 1e3;
    let mean_ns = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| ratio(a.total_ns as f64, a.calls as f64))
    };
    for (_, key) in FS_KEYS {
        for (metric, span) in [
            ("checker.mount_us", "checker.mount"),
            ("checker.walk_us", "checker.walk"),
            ("checker.compare_us", "checker.compare"),
            ("checker.probe_us", "checker.probe"),
            ("exec.op_us", "exec.op"),
        ] {
            put(m, &format!("{metric}.{key}"), p50_us(span, Some(key)));
        }
        let fuel: Vec<u64> = st
            .mount_fuel
            .iter()
            .filter(|(f, _)| *f == key)
            .map(|(_, u)| *u)
            .collect();
        put(
            m,
            &format!("checker.mount_fuel.{key}"),
            ratio(fuel.iter().sum::<u64>() as f64, fuel.len() as f64),
        );
        res.facts.insert(
            format!("staged.mount_fuel.{key}"),
            fuel.iter().sum::<u64>().to_string(),
        );
        res.facts
            .insert(format!("staged.mounts.{key}"), fuel.len().to_string());
    }
    put(
        m,
        "checker.mount_us_p99",
        quantile(&tr.per_call_ns("checker.mount", None), 0.99) / 1e3,
    );
    put(
        m,
        "crashgen.enumerate_us",
        p50_us("crashgen.enumerate", None),
    );
    put(m, "crashgen.replay_us", mean_ns("crashgen.replay") / 1e3);
    put(m, "crashgen.state_key_ns", mean_ns("crashgen.state_key"));
    put(
        m,
        "crashgen.behavior_sig_ns",
        mean_ns("crashgen.behavior_sig"),
    );
    put(m, "crashgen.bytes_replayed", st.bytes_replayed as f64);
    // Hunts do not expose in-flight sizes; the staged replay of their finds
    // does.
    let inflight: Vec<f64> = if first.inflight.is_empty() {
        &st.inflight
    } else {
        &first.inflight
    }
    .iter()
    .map(|&n| n as f64)
    .collect();
    put(m, "crashgen.inflight_p50", median(&inflight));
    put(
        m,
        "crashgen.inflight_max",
        inflight.iter().copied().fold(0.0, f64::max),
    );
    put(
        m,
        "oracle.build_s",
        agg.get("oracle.build")
            .map_or(0.0, |a| a.total_ns as f64 * 1e-9),
    );
    put(m, "oracle.advance_us", p50_us("oracle.advance", None));
    put(m, "oracle.diff_us", p50_us("oracle.diff", None));
    put(m, "pmlog.entries", st.log_entries as f64);
    put(m, "pmlog.bytes_logged", st.bytes_logged as f64);
    put(m, "pmlog.fences", st.fences as f64);

    // Does the staged table explain the production check phase? On the very
    // inputs replayed: the mean cost of one checked state x the states
    // production had to mount, plus what crash-state construction and the
    // replay loop's own bookkeeping (base image, log walk) cost here, over
    // production's `timing.check` for them.
    let construct_ns: f64 = [
        "crashgen.enumerate",
        "crashgen.replay",
        "crashgen.behavior_sig",
    ]
    .iter()
    .map(|s| agg.get(s).map_or(0.0, |a| a.total_ns as f64))
    .sum();
    let bookkeeping_ns = agg.get("staged.replay").map_or(0.0, |a| a.self_ns as f64);
    let checks_ns: f64 = FS_KEYS
        .iter()
        .map(|(_, key)| {
            let per_state = tr.per_call_ns("checker.state", Some(key));
            let mean = ratio(per_state.iter().sum(), per_state.len() as f64);
            mean * st.production_mounts.get(key).copied().unwrap_or(0) as f64
        })
        .sum();
    let accounted = checks_ns + construct_ns + bookkeeping_ns;
    put(
        m,
        "harness.check_accounted_share",
        100.0 * ratio(accounted, st.production_check_ns as f64),
    );

    let file = out_dir.join(format!("trace-{}.json", o.workload));
    std::fs::write(&file, tr.render(&o.workload))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    res.trace_file = Some(file);
    res.metrics = std::mem::take(m);
    Ok(())
}

//! The one place every workload and metric of the benchmark is declared:
//! name, unit, direction and (for end-to-end metrics) the regression bound.
//! `BENCHMARK.json` restates this table for the driver; a test keeps the
//! two equal.

use std::collections::BTreeMap;

use vfs::FsName;

/// How long one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 15;

/// The workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "hunt_corpus",
        "Figure 3: each bug hunted in isolation with ACE and the fuzzer; the only workload on the early-exit, first-violation and report path",
    ),
    (
        "ace_clean",
        "ACE seq-1 + sampled seq-2 on all seven fixed file systems, serial: no early exit, so the checker, dedup, memo, rep_check and prefix cache do most of the work",
    ),
    (
        "ace_clean_t2",
        "the ace_clean input at threads = 2: subtree scheduling, per-worker prefix caches, parallel overlays; a serial gain that costs the parallel path shows here",
    ),
    (
        "fuzz_clean",
        "coverage-guided fuzzer sessions on the five strong file systems: long multi-fd programs, prefix cache and scheduler bypassed, oracle and record weigh more",
    ),
    (
        "campaign_resume",
        "store-backed campaign: cold run, then kill mid-ACE, two-worker resume and merge; the only workload where store, queue, runner, wire and hostio do work",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. Gating.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload with tracing off.
/// One pass is one fixed batch of work; a run repeats passes for `--seconds`
/// and reports each per-pass metric at its *better quartile* over the passes
/// (the lower quartile of a time, the upper quartile of a rate): whatever
/// else the host is doing only ever adds time, so the better quartile is the
/// steadier estimate of what the code costs. Over a dozen passes it moved
/// half as much from run to run as the median did.
///
/// The timing bounds are the widest the driver allows: on the 2-vCPU
/// microVM this was sized on, identical work slows by 30-40 % for tens of
/// seconds at a time (a pure-ALU probe run between passes does not slow with
/// it, so it is cache or memory contention, not clock speed), and ten runs
/// in a row showed quartile spreads of 3 % in a calm quarter-hour and over
/// 20 % in a busy one.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "states_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "workloads_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: advisory, reported by the traced run.
#[derive(Debug, Clone)]
pub struct PerLayer {
    /// Metric name (`layer.metric` or `layer.metric.<fs>`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The seven file systems with the key used in metric names.
pub const FS_KEYS: [(FsName, &str); 7] = [
    (FsName::Nova, "nova"),
    (FsName::NovaFortis, "nova-fortis"),
    (FsName::Pmfs, "pmfs"),
    (FsName::WineFs, "winefs"),
    (FsName::SplitFs, "splitfs"),
    (FsName::Ext4Dax, "ext4-dax"),
    (FsName::XfsDax, "xfs-dax"),
];

/// The metric-name key of `fs`.
pub fn fs_key(fs: FsName) -> &'static str {
    FS_KEYS
        .iter()
        .find(|(f, _)| *f == fs)
        .expect("every file system has a key")
        .1
}

use Better::{Higher, Lower};

/// Per-layer metrics that exist once.
const LAYER_SCALARS: &[(&str, &str, Better)] = &[
    // Correctness and the workload-specific user-facing numbers. These are
    // gated through the result line's `correct`/`attempted`/`failed`, not
    // through a bound: they are exact, or exist on one workload only.
    ("bugs_found", "count", Higher),
    ("false_positives", "count", Lower),
    ("failed_share", "%", Lower),
    ("time_to_bug_ace_s", "s", Lower),
    ("time_to_bug_fuzz_s", "s", Lower),
    // harness: TestOutcome timing sums and public counters.
    ("harness.oracle_s", "s", Lower),
    ("harness.record_s", "s", Lower),
    ("harness.check_s", "s", Lower),
    ("harness.other_s", "s", Lower),
    ("harness.dedup_hits", "count", Higher),
    ("harness.memo_hits", "count", Higher),
    ("harness.rep_skipped", "count", Higher),
    ("harness.rep_expansions", "count", Lower),
    ("harness.checked_share", "%", Lower),
    ("harness.recovery_panics", "count", Lower),
    ("harness.recovery_hangs", "count", Lower),
    ("harness.sandbox_retries", "count", Lower),
    ("harness.fuel_exhausted", "count", Lower),
    ("harness.verdict_ms_p50", "ms", Lower),
    ("harness.verdict_ms_p99", "ms", Lower),
    ("harness.check_accounted_share", "%", Higher),
    // checker (per-FS stage costs are in LAYER_PER_FS).
    ("checker.mounts", "count", Lower),
    ("checker.mount_us_p99", "us", Lower),
    // crashgen.
    ("crashgen.crash_points", "count", Lower),
    ("crashgen.states", "count", Lower),
    ("crashgen.inflight_p50", "count", Lower),
    ("crashgen.inflight_max", "count", Lower),
    ("crashgen.bytes_replayed", "B", Lower),
    ("crashgen.enumerate_us", "us", Lower),
    ("crashgen.replay_us", "us", Lower),
    ("crashgen.state_key_ns", "ns", Lower),
    ("crashgen.behavior_sig_ns", "ns", Lower),
    // oracle.
    ("oracle.build_s", "s", Lower),
    ("oracle.advance_us", "us", Lower),
    ("oracle.diff_us", "us", Lower),
    ("oracle.subtrees_pruned", "count", Higher),
    ("oracle.snap_bytes_shared", "B", Higher),
    // pmlog.
    ("pmlog.record_s", "s", Lower),
    ("pmlog.entries", "count", Lower),
    ("pmlog.bytes_logged", "B", Lower),
    ("pmlog.fences", "count", Lower),
    ("pmlog.append_ns", "ns", Lower),
    ("pmlog.replay_mbps", "MB/s", Higher),
    // pmem micro-lanes.
    ("pmem.store_ns", "ns", Lower),
    ("pmem.flush_ns", "ns", Lower),
    ("pmem.fence_ns", "ns", Lower),
    ("pmem.memcpy_nt_mbps", "MB/s", Higher),
    ("pmem.cow_write_ns", "ns", Lower),
    ("pmem.cow_undo_ns", "ns", Lower),
    ("pmem.fork_us", "us", Lower),
    ("pmem.hash_image_key_mbps", "MB/s", Higher),
    ("pmem.hash_word_term_mbps", "MB/s", Higher),
    // workload generation, prefix cache, scheduler.
    ("workloads.ace_gen_s", "s", Lower),
    ("workloads.ace_count", "count", Lower),
    ("workloads.fuzz_gen_us", "us", Lower),
    ("workloads.fuzz_ops_mean", "count", Lower),
    ("prefix.hits", "count", Higher),
    ("prefix.ops_saved", "count", Higher),
    ("sched.subtrees", "count", Higher),
    ("sched.plan_us", "us", Lower),
    ("sched.worker_imbalance", "%", Lower),
    ("sched.t2_speedup", "x", Higher),
    // campaign store and host I/O.
    ("campaign.cold_s", "s", Lower),
    ("campaign.killed_s", "s", Lower),
    ("campaign.resume_s", "s", Lower),
    ("campaign.merge_s", "s", Lower),
    ("campaign.tasks_resumed", "count", Higher),
    ("campaign.journal_workloads_replayed", "count", Higher),
    ("campaign.rewarm_runs", "count", Lower),
    ("campaign.store_bytes", "B", Lower),
    ("campaign.store_files", "count", Lower),
    ("campaign.io_retries", "count", Lower),
    ("hostio.write_atomic_us", "us", Lower),
    ("hostio.append_line_us", "us", Lower),
    ("jsonout.parse_mbps", "MB/s", Higher),
    // process and tracer.
    ("proc.sys_s", "s", Lower),
    ("proc.minor_faults", "count", Lower),
    ("trace.overhead_share", "%", Lower),
];

/// Per-layer metrics that exist once per file system (`<name>.<fs>`).
const LAYER_PER_FS: &[(&str, &str, Better)] = &[
    ("checker.mount_us", "us", Lower),
    ("checker.walk_us", "us", Lower),
    ("checker.compare_us", "us", Lower),
    ("checker.probe_us", "us", Lower),
    ("checker.mount_fuel", "count", Lower),
    ("exec.op_us", "us", Lower),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v: Vec<PerLayer> = LAYER_SCALARS
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for &(name, unit, better) in LAYER_PER_FS {
        for (_, fs) in FS_KEYS {
            v.push(PerLayer {
                name: format!("{name}.{fs}"),
                unit,
                better,
            });
        }
    }
    v
}

/// `BENCHMARK.json` as this registry defines it (`run.sh manifest` prints it;
/// a test keeps the committed file equal to it).
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|(n, why)| format!("{{\"name\": \"{n}\", \"why\": \"{why}\"}}"));
    let e2e = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        )
    });
    let layers = per_layer().into_iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    });
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(workloads.collect()),
        list(e2e.collect()),
        list(layers.collect())
    )
}

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The `p`-quantile (0..=1) of `v` by linear interpolation; 0 when empty.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = p * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

impl Better {
    /// The quartile of repeated measurements `v` of one quantity that the
    /// host disturbed least.
    pub fn quartile(self, v: &[f64]) -> f64 {
        match self {
            Better::Lower => quantile(v, 0.25),
            Better::Higher => quantile(v, 0.75),
        }
    }
}

/// The median of `v`; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Renders the driver's result line: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, the latter holding `names` in
/// order. Values print with every digit `f64` carries.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(String, &'static str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_limits() {
        let layers = per_layer();
        assert!(
            END_TO_END.len() <= 16 && layers.len() <= 128,
            "{} per-layer",
            layers.len()
        );
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layers.iter().map(|m| m.name.clone()));
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n.clone()), "duplicate name {n}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut v = Values::new();
        v.insert("wall_s".into(), 1.25);
        let line = result_line(true, 3, 0, &[("wall_s".to_string(), "s")], &v);
        let doc = bench::jsonout::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|a| a.as_u64()), Some(3));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric present");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
    }
}

//! The five workloads. Each has a `setup` that turns the seed into inputs
//! and a `pass` that runs one fixed batch of work through the crates' public
//! entry points, returning exact counters, timings and the inputs the staged
//! pipeline samples from.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::campaign::{
    hostio::{HostCtx, HostIo},
    runner::{self, RunOpts},
    store::CampaignStore,
    wire::COUNTER_NAMES,
    CampaignSpec,
};
use bench::{
    dispatch, hunt_with_ace, hunt_with_fuzzer, mode_for, run_batch, run_batch_cached, run_suite,
    sched_batch_len, HuntResult, Scheduler, SuiteStats, WithKind, STRONG_SYSTEMS,
};
use chipmunk::{TestConfig, TestOutcome};
use vfs::{
    bugs::bug_table,
    fs::{FsKind, FsOptions},
    BugId, BugSet, Cov, FsName, Workload,
};
use workloads::{
    ace::{seq1, seq2},
    fuzz::{FuzzConfig, Fuzzer},
};

use crate::metrics::{fs_key, FS_KEYS};
use crate::trace::Tracer;

/// How much work one pass holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds in total; what `cargo test` runs.
    Tiny,
    /// A pass of about a second, so a fifteen-second run holds a dozen; what
    /// the driver runs.
    Bench,
    /// The paper-sized inputs (Figure 3 in full, the whole seq-1 + seq-2
    /// sweep); a pass takes 20-30 s.
    Full,
}

impl Scale {
    /// Parses the `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "bench" => Some(Scale::Bench),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The `--scale` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Bench => "bench",
            Scale::Full => "full",
        }
    }
}

/// The fixed sizes of one scale. Constants, never derived from the host.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Bugs hunted with ACE, by Table 1 number (`None`: all 19).
    pub ace_hunts: Option<&'static [u32]>,
    /// Bugs hunted with the fuzzer (`None`: all 23).
    pub fuzz_hunts: Option<&'static [u32]>,
    /// Stride of the seq-2 sample in the ACE sweeps (0: seq-1 only).
    pub seq2_step: usize,
    /// Fuzzer workloads per file system in `fuzz_clean`.
    pub fuzz_workloads: u64,
    /// Campaign population: seq-1 take (0: all), seq-2 stride (0: none),
    /// fuzz budget, ACE batch.
    pub campaign: (usize, usize, u64, usize),
    /// Journal checkpoints after which the resumed campaign's first worker
    /// is killed (mid-ACE).
    pub campaign_kill: u64,
    /// The bug the warm-up hunt looks for.
    pub warm_up: BugId,
    /// The staged pipeline takes every n-th workload ...
    pub staged_workload_stride: usize,
    /// ... and mounts every n-th crash state of those.
    pub staged_state_stride: usize,
}

/// seq-3 sample size of an ACE hunt and the fuzzer's per-hunt budget, as in
/// the Figure 3 binary.
pub const HUNT_MAX_SEQ3: usize = 400;
/// See [`HUNT_MAX_SEQ3`].
pub const HUNT_FUZZ_BUDGET: u64 = 2000;
/// Fuzzer batch between coverage feedbacks (the hunts use the same).
const FUZZ_BATCH: usize = 8;
/// File systems the campaign workload runs on.
const CAMPAIGN_FS: [FsName; 2] = [FsName::WineFs, FsName::NovaFortis];

/// At bench scale a pass must fit in ~1.2 s and cost the same for every
/// seed, so it keeps the 13 ACE hunts under 0.15 s each (bug 14, the warm-up
/// hunt, takes 0.45 s; bugs 7, 8, 11, 12 and 25 take 0.7-2.5 s each) and the
/// 13 fuzzer hunts that find their bug within about ten workloads whatever
/// the seed (the other ten range from 0.05 s to 9 s with the seed).
const BENCH_ACE_HUNTS: &[u32] = &[1, 2, 3, 4, 5, 6, 9, 10, 13, 16, 17, 21, 24];
const BENCH_FUZZ_HUNTS: &[u32] = &[1, 2, 3, 9, 10, 13, 14, 16, 17, 19, 20, 21, 24];

impl Sizes {
    /// The sizes of `scale`.
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Tiny => Sizes {
                ace_hunts: Some(&[2, 16]),
                fuzz_hunts: Some(&[21]),
                seq2_step: 0,
                fuzz_workloads: 8,
                campaign: (12, 0, 0, 4),
                campaign_kill: 5,
                warm_up: BugId::B16,
                staged_workload_stride: 8,
                staged_state_stride: 4,
            },
            Scale::Bench => Sizes {
                ace_hunts: Some(BENCH_ACE_HUNTS),
                fuzz_hunts: Some(BENCH_FUZZ_HUNTS),
                seq2_step: 48,
                fuzz_workloads: 32,
                campaign: (0, 96, 16, 32),
                campaign_kill: 40,
                warm_up: BugId::B14,
                staged_workload_stride: 8,
                staged_state_stride: 16,
            },
            Scale::Full => Sizes {
                ace_hunts: None,
                fuzz_hunts: None,
                seq2_step: 1,
                fuzz_workloads: 600,
                campaign: (0, 1, 400, 64),
                campaign_kill: 600,
                warm_up: BugId::B14,
                staged_workload_stride: 64,
                staged_state_stride: 32,
            },
        }
    }
}

/// Names of the harness counters a pass sums, in [`Counters`] order.
pub const COUNTER_FIELDS: [&str; 17] = [
    "workloads",
    "crash_points",
    "states",
    "reports",
    "dedup_hits",
    "memo_hits",
    "rep_skipped",
    "rep_expansions",
    "prefix_hits",
    "prefix_ops_saved",
    "sched_subtrees",
    "recovery_panics",
    "recovery_hangs",
    "sandbox_retries",
    "fuel_exhausted",
    "oracle_subtrees_pruned",
    "oracle_snap_bytes_shared",
];

/// Exact counters of the harness, summed over whatever a pass ran: one value
/// per [`COUNTER_FIELDS`] name. One declaration feeds the per-layer metrics
/// and the pinned facts.
#[derive(Debug, Clone, Default)]
pub struct Counters([u64; 17]);

impl Counters {
    /// The counter called `name`.
    pub fn get(&self, name: &str) -> u64 {
        self.0[COUNTER_FIELDS
            .iter()
            .position(|f| *f == name)
            .expect("a COUNTER_FIELDS name")]
    }

    /// `(name, value)` of every counter.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_FIELDS.into_iter().zip(self.0)
    }

    fn add(&mut self, o: &Counters) {
        for (mine, theirs) in self.0.iter_mut().zip(o.0) {
            *mine += theirs;
        }
    }

    // The three constructors list their values in COUNTER_FIELDS order.

    fn of_suite(s: &SuiteStats) -> Counters {
        Counters([
            s.workloads,
            s.crash_points,
            s.crash_states,
            s.reports,
            s.dedup_hits,
            s.memo_hits,
            s.rep_skipped,
            s.rep_expansions,
            s.prefix_hits,
            s.prefix_ops_saved,
            s.sched_subtrees,
            s.recovery_panics,
            s.recovery_hangs,
            s.sandbox_retries,
            s.fuel_exhausted,
            s.oracle_subtrees_pruned,
            s.oracle_snap_bytes_shared,
        ])
    }

    /// A hunt reports the workloads and states it examined up to the find.
    /// `HuntResult` does not carry crash points; they stay 0 for hunts.
    fn of_hunt(h: &HuntResult) -> Counters {
        Counters([
            h.workloads,
            0,
            h.states,
            1,
            h.dedup_hits,
            h.memo_hits,
            h.rep_skipped,
            h.rep_expansions,
            h.prefix_hits,
            h.prefix_ops_saved,
            h.sched_subtrees,
            h.recovery_panics,
            h.recovery_hangs,
            h.sandbox_retries,
            h.fuel_exhausted,
            h.oracle_subtrees_pruned,
            h.oracle_snap_bytes_shared,
        ])
    }

    fn of_outcome(o: &TestOutcome) -> Counters {
        Counters([
            1,
            o.crash_points,
            o.crash_states,
            o.reports.len() as u64,
            o.dedup_hits,
            o.memo_hits,
            o.rep_skipped,
            o.rep_expansions,
            o.prefix_hits,
            o.prefix_ops_saved,
            o.sched_subtrees,
            o.recovery_panics,
            o.recovery_hangs,
            o.sandbox_retries,
            o.fuel_exhausted,
            o.oracle_subtrees_pruned,
            o.oracle_snap_bytes_shared,
        ])
    }

    /// States the checker actually had to mount: everything not answered by
    /// dedup, the cross-point memo or a clean class representative. (A memo
    /// hit whose probe outcome was not memoized yet re-mounts for the probe;
    /// no public counter separates those, so this is a slight undercount.)
    pub fn mounts(&self) -> u64 {
        self.get("states")
            - self.get("dedup_hits")
            - self.get("memo_hits")
            - self.get("rep_skipped")
    }
}

/// What the production run said about one staged input.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The workload ran clean: every crash state's verdict is `None`.
    Clean,
    /// A hunt's first report: every state before `(point, subset)` in commit
    /// order was clean and that state is a violation of `class`.
    Report {
        /// Crash-point ordinal.
        point: u64,
        /// Replayed in-flight write indices.
        subset: Vec<usize>,
        /// Violation class.
        class: &'static str,
    },
    /// A report the check pipeline cannot re-derive (a runtime error or
    /// oracle divergence has no crash point): time the stages, skip the
    /// verdict check.
    Unchecked,
}

/// One input handed to the staged pipeline.
#[derive(Debug, Clone)]
pub struct Sample {
    /// File system to run it on.
    pub fs: FsName,
    /// Injected bugs (`BugSet::fixed()` for the clean workloads).
    pub bugs: BugSet,
    /// The workload.
    pub workload: Workload,
    /// The checking configuration the production run used.
    pub cfg: TestConfig,
    /// The production verdict.
    pub expect: Expect,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Attempts (a hunt, a clean workload, a campaign leg).
    pub attempted: u64,
    /// Attempts that failed, with one line each in `failures`.
    pub failed: u64,
    /// Why attempts failed.
    pub failures: Vec<String>,
    /// Exact facts, pinned in `expected.json` for the default seed.
    pub facts: BTreeMap<String, String>,
    /// Summed harness counters.
    pub c: Counters,
    /// Summed `TestOutcome::timing` phases.
    pub oracle: Duration,
    /// See `oracle`.
    pub record: Duration,
    /// See `oracle`.
    pub check: Duration,
    /// In-flight write counts per crash point, where the entry point
    /// exposes them.
    pub inflight: Vec<usize>,
    /// Per-workload `TestOutcome::timing` totals in milliseconds, where the
    /// entry point returns outcomes.
    pub verdict_ms: Vec<f64>,
    /// Per-call fuzzer generation times in microseconds and op counts.
    pub fuzz_gen_us: Vec<f64>,
    /// See `fuzz_gen_us`.
    pub fuzz_ops: Vec<f64>,
    /// Workload-specific numbers by per-layer metric name.
    pub extra: BTreeMap<&'static str, f64>,
    /// Finds (`bugs_found`): hunts that found their bug; a campaign's
    /// reports, since it runs the file system as released.
    pub bugs_found: u64,
    /// Reports on a fixed file system (`false_positives`).
    pub false_positives: u64,
    /// `prefix_hits` per scheduler worker slot, summed over rows.
    pub per_worker_hits: Vec<u64>,
    /// Inputs for the staged pipeline (only when asked for).
    pub samples: Vec<Sample>,
    /// Parts skipped because the host has too few cores.
    pub skipped: Vec<String>,
}

impl Pass {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Pins the non-zero counters of one row (a counter that is absent reads
    /// 0, and a fact that appears unpinned is a drift like any other).
    fn row_facts(&mut self, row: &str, c: &Counters) {
        for (k, v) in c.fields().filter(|(_, v)| *v > 0) {
            self.facts.insert(format!("{row}.{k}"), v.to_string());
        }
    }

    fn add_extra(&mut self, name: &'static str, v: f64) {
        *self.extra.entry(name).or_insert(0.0) += v;
    }
}

/// The seed-determined inputs of one workload.
#[allow(clippy::large_enum_variant)]
pub enum Input {
    /// `hunt_corpus`.
    Hunt {
        /// Bugs hunted with ACE.
        ace: Vec<BugId>,
        /// Bugs hunted with the fuzzer.
        fuzz: Vec<BugId>,
        /// Base fuzzer seed (each bug adds its number).
        seed: u64,
        /// Whether a fuzzer miss counts as a failure (default seed only:
        /// another seed may legitimately need more than the budget).
        fuzz_must_find: bool,
    },
    /// `ace_clean` and `ace_clean_t2`.
    Ace {
        /// One row per file system.
        rows: Vec<(FsName, Vec<Workload>)>,
        /// `TestConfig::threads`.
        threads: usize,
        /// Workloads ACE generated before sampling, and how long it took.
        generated: u64,
        /// See `generated`.
        gen_s: f64,
    },
    /// `fuzz_clean`.
    Fuzz {
        /// Fuzzer seed.
        seed: u64,
        /// Workloads per file system.
        n: u64,
    },
    /// `campaign_resume`.
    Campaign {
        /// One spec per file system.
        specs: Vec<CampaignSpec>,
        /// Checkpoints before the kill.
        kill: u64,
        /// Whether the host can run the two-worker resume leg.
        two_workers: bool,
    },
}

impl Input {
    /// Whether every pass does the same work (see [`pass`]), so that its
    /// exact facts must repeat.
    pub fn passes_repeat(&self) -> bool {
        matches!(self, Input::Ace { .. } | Input::Campaign { .. })
    }
}

/// One representative instance per unique bug (fix group), as Figure 3
/// hunts them.
fn unique_bugs() -> Vec<&'static vfs::BugInfo> {
    let mut seen = BTreeSet::new();
    bug_table()
        .iter()
        .filter(|b| seen.insert(b.fix_group))
        .collect()
}

fn pick_bugs(want: Option<&[u32]>, ace: bool) -> Vec<BugId> {
    unique_bugs()
        .into_iter()
        .filter(|b| !ace || b.ace_findable)
        .filter(|b| want.is_none_or(|w| w.contains(&b.id.number())))
        .map(|b| b.id)
        .collect()
}

/// The ACE configuration of a hunt (Figure 3): defaults plus early exit.
pub fn ace_hunt_cfg() -> TestConfig {
    TestConfig {
        stop_on_first: true,
        ..TestConfig::default()
    }
}

/// The untimed warm-up every workload's set-up ends with: one ACE hunt
/// (bug 14, 462 workloads; a three-workload one at tiny scale), which pages
/// in the code and grows the allocator's arenas.
pub fn warm_up(sz: &Sizes) {
    let (hit, _, _) = hunt_with_ace(sz.warm_up, &ace_hunt_cfg(), HUNT_MAX_SEQ3);
    assert!(hit.is_some(), "warm-up hunt must find its bug");
}

/// The fuzzer stream every pass after the first draws (see [`pass`]).
const LATER_PASS_STREAM: u64 = 0xf16;

/// SplitMix64 over `seed + k`: the benchmark's only source of randomness.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds the inputs of `workload` from `seed`.
pub fn setup(
    workload: &str,
    seed: u64,
    default_seed: bool,
    scale: Scale,
    nproc: usize,
) -> Result<Input, String> {
    let sz = Sizes::of(scale);
    match workload {
        "hunt_corpus" => Ok(Input::Hunt {
            ace: pick_bugs(sz.ace_hunts, true),
            fuzz: pick_bugs(sz.fuzz_hunts, false),
            seed,
            fuzz_must_find: default_seed,
        }),
        "ace_clean" | "ace_clean_t2" => {
            let threads = if workload == "ace_clean" { 1 } else { 2 };
            if threads > nproc {
                return Err(format!(
                    "{workload} needs {threads} cores, host has {nproc}"
                ));
            }
            let t = Instant::now();
            let mut generated = 0u64;
            let rows = FS_KEYS
                .iter()
                .map(|&(fs, _)| {
                    let mode = mode_for(fs);
                    let mut ws = seq1(mode);
                    generated += ws.len() as u64;
                    if sz.seq2_step > 0 {
                        let all: Vec<Workload> = seq2(mode).collect();
                        generated += all.len() as u64;
                        ws.extend(all.into_iter().step_by(sz.seq2_step));
                    }
                    // ACE is exhaustive, so the sample is fixed and the seed
                    // only decides the order the row is handed over in: every
                    // seed does the same work, and the spread between seeds
                    // is the host's, not the input's.
                    for i in (1..ws.len()).rev() {
                        ws.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
                    }
                    (fs, ws)
                })
                .collect();
            Ok(Input::Ace {
                rows,
                threads,
                generated,
                gen_s: t.elapsed().as_secs_f64(),
            })
        }
        "fuzz_clean" => Ok(Input::Fuzz {
            seed,
            n: sz.fuzz_workloads,
        }),
        "campaign_resume" => {
            let (seq1_take, seq2_step, fuzz_budget, batch) = sz.campaign;
            let specs = CAMPAIGN_FS
                .iter()
                .map(|&fs| CampaignSpec {
                    fs,
                    seq1_take,
                    seq2_step,
                    fuzz_budget,
                    fuzz_seed: seed,
                    batch,
                    bitmap_bits: 1 << 14,
                    ..CampaignSpec::default()
                })
                .collect();
            Ok(Input::Campaign {
                specs,
                kill: sz.campaign_kill,
                two_workers: nproc >= 2,
            })
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Runs pass number `index` of `input`. Top-level calls are wrapped in spans
/// (free when the tracer is off); `want_samples` also collects
/// staged-pipeline inputs.
///
/// The fuzzer's cost per workload is heavy-tailed: a pass of 240 fuzzer
/// workloads moves by 18 % with the stream it draws. So only pass 0 of the
/// two fuzzer-driven workloads draws the seed's own stream (its exact facts
/// are the ones pinned, its inputs the ones the staged pipeline samples);
/// every later pass draws one fixed stream. The timing of a run then rests
/// on work every seed shares, its passes after the first are repeats that a
/// quartile can filter the host's disturbances out of, and the spread
/// between seeds is the host's, not the fuzzer's.
pub fn pass(input: &Input, sz: &Sizes, index: u64, want_samples: bool, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    let stream = |seed: u64| if index == 0 { seed } else { LATER_PASS_STREAM };
    match input {
        Input::Hunt {
            ace,
            fuzz,
            seed,
            fuzz_must_find,
        } => hunt_pass(
            &mut p,
            ace,
            fuzz,
            stream(*seed),
            *fuzz_must_find && index == 0,
            want_samples,
            tr,
        ),
        Input::Ace {
            rows,
            threads,
            generated,
            gen_s,
        } => {
            p.extra.insert("workloads.ace_count", *generated as f64);
            p.extra.insert("workloads.ace_gen_s", *gen_s);
            ace_pass(&mut p, rows, *threads, sz, want_samples, tr)
        }
        Input::Fuzz { seed, n } => fuzz_pass(&mut p, stream(*seed), *n, sz, want_samples, tr),
        Input::Campaign {
            specs,
            kill,
            two_workers,
        } => campaign_pass(&mut p, specs, *kill, *two_workers, tr),
    }
    p
}

fn hunt_pass(
    p: &mut Pass,
    ace: &[BugId],
    fuzz: &[BugId],
    seed: u64,
    fuzz_must_find: bool,
    want_samples: bool,
    tr: &mut Tracer,
) {
    let ace_cfg = ace_hunt_cfg();
    let fuzz_cfg = TestConfig::fuzzing();
    let record = |p: &mut Pass,
                  front: &str,
                  bug: BugId,
                  cfg: &TestConfig,
                  hit: Option<HuntResult>,
                  must_find: bool| {
        p.attempted += 1;
        let row = format!("{front}.bug{:02}", bug.number());
        let Some(h) = hit else {
            p.facts.insert(format!("{row}.class"), "not-found".into());
            if must_find {
                p.fail(format!(
                    "{front} hunt for bug {} found nothing",
                    bug.number()
                ));
            }
            return;
        };
        p.bugs_found += 1;
        let c = Counters::of_hunt(&h);
        p.row_facts(&row, &c);
        p.facts.insert(format!("{row}.class"), h.class.clone());
        p.c.add(&c);
        p.oracle += h.phase.oracle;
        p.record += h.phase.record;
        p.check += h.phase.check;
        p.add_extra(
            if front == "ace" {
                "time_to_bug_ace_s"
            } else {
                "time_to_bug_fuzz_s"
            },
            h.elapsed.as_secs_f64(),
        );
        if want_samples {
            let expect = match h.report.point {
                Some(point) => Expect::Report {
                    point,
                    subset: h.report.subset_ids.clone(),
                    class: h.report.violation.class(),
                },
                None => Expect::Unchecked,
            };
            p.samples.push(Sample {
                fs: bug.info().fs,
                bugs: BugSet::only(&[bug]),
                workload: h.workload,
                cfg: cfg.clone(),
                expect,
            });
        }
    };
    for &bug in ace {
        let id = tr.input(
            fs_key(bug.info().fs),
            &format!("ace hunt bug {}", bug.number()),
        );
        let (hit, _, _) = tr.span("hunt.ace", id, || {
            hunt_with_ace(bug, &ace_cfg, HUNT_MAX_SEQ3)
        });
        record(p, "ace", bug, &ace_cfg, hit, true);
    }
    for &bug in fuzz {
        let id = tr.input(
            fs_key(bug.info().fs),
            &format!("fuzz hunt bug {}", bug.number()),
        );
        let s = seed.wrapping_add(bug.number() as u64);
        let (hit, _, _) = tr.span("hunt.fuzz", id, || {
            hunt_with_fuzzer(bug, &fuzz_cfg, s, HUNT_FUZZ_BUDGET)
        });
        record(p, "fuzz", bug, &fuzz_cfg, hit, fuzz_must_find);
    }
}

/// Every `stride`-th element, starting at a seed-independent offset so the
/// sample (and the facts pinned from it) depends only on the inputs.
fn every_nth<T>(items: &[T], stride: usize) -> impl Iterator<Item = &T> {
    items.iter().skip(stride / 2).step_by(stride.max(1))
}

fn ace_pass(
    p: &mut Pass,
    rows: &[(FsName, Vec<Workload>)],
    threads: usize,
    sz: &Sizes,
    want_samples: bool,
    tr: &mut Tracer,
) {
    let cfg = TestConfig::default().with_threads(threads);
    for (fs, ws) in rows {
        let id = tr.input(fs_key(*fs), "ace suite");
        let st = tr.span("suite.run", id, || {
            run_suite(*fs, BugSet::fixed(), ws.clone(), &cfg)
        });
        let c = Counters::of_suite(&st);
        p.row_facts(fs_key(*fs), &c);
        p.c.add(&c);
        p.false_positives += st.reports;
        p.oracle += st.phase.oracle;
        p.record += st.phase.record;
        p.check += st.phase.check;
        p.attempted += st.workloads;
        // One failed attempt per workload with reports, quoting its first.
        let mut dirty = BTreeSet::new();
        for r in st
            .bug_reports
            .iter()
            .filter(|r| dirty.insert(r.workload.as_str()))
        {
            p.fail(false_positive(*fs, r));
        }
        p.inflight.extend(st.inflight);
        for (slot, hits) in st.per_worker_prefix_hits.iter().enumerate() {
            if p.per_worker_hits.len() <= slot {
                p.per_worker_hits.resize(slot + 1, 0);
            }
            p.per_worker_hits[slot] += hits;
        }
        if want_samples {
            p.samples
                .extend(every_nth(ws, sz.staged_workload_stride).map(|w| Sample {
                    fs: *fs,
                    bugs: BugSet::fixed(),
                    workload: w.clone(),
                    cfg: cfg.clone(),
                    expect: Expect::Clean,
                }));
        }
    }
}

/// Per-workload verdict latencies of an ACE sweep: the same scheduled batch
/// `run_suite` runs, driven through `run_batch_cached` so the outcomes (and
/// their `timing`) come back. Traced run only.
pub fn ace_verdict_ms(rows: &[(FsName, Vec<Workload>)], threads: usize) -> Vec<f64> {
    struct Latencies<'a>(&'a [Workload], &'a TestConfig);
    impl WithKind for Latencies<'_> {
        type Out = Vec<f64>;
        fn call<K: FsKind>(self, kind: K) -> Vec<f64> {
            let mut sched = Scheduler::new(&kind, self.1);
            let chunk = sched_batch_len(self.1.threads, sched.is_active(), Some(self.0.len()));
            self.0
                .chunks(chunk)
                .flat_map(|b| run_batch_cached(&kind, b, self.1, Some(&mut sched)))
                .map(|(o, _)| verdict_ms(&o))
                .collect()
        }
    }
    let cfg = TestConfig::default().with_threads(threads);
    rows.iter()
        .flat_map(|(fs, ws)| {
            dispatch(
                *fs,
                FsOptions::with_bugs(BugSet::fixed()),
                Latencies(ws, &cfg),
            )
        })
        .collect()
}

/// The failure line for a report on a fixed file system.
fn false_positive(fs: FsName, r: &chipmunk::BugReport) -> String {
    format!(
        "{fs}: {} reported on a fixed file system: {} at {} ({}): {}",
        r.workload,
        r.violation.class(),
        r.op_desc,
        r.phase,
        r.violation.detail()
    )
}

fn verdict_ms(o: &TestOutcome) -> f64 {
    (o.timing.oracle + o.timing.record + o.timing.check).as_secs_f64() * 1e3
}

/// One coverage-guided fuzzer session on a fixed file system: the closed
/// loop of `hunt_with_fuzzer` (generate a batch, test it, feed coverage
/// back) without a bug to stop at.
struct FuzzSession<'a> {
    seed: u64,
    n: u64,
    cfg: &'a TestConfig,
    sample_stride: Option<usize>,
    p: &'a mut Pass,
    tr: &'a mut Tracer,
    input: u32,
}

impl WithKind for FuzzSession<'_> {
    type Out = Counters;

    fn call<K: FsKind>(self, kind: K) -> Counters {
        let FuzzSession {
            seed,
            n,
            cfg,
            sample_stride,
            p,
            tr,
            input,
        } = self;
        let mut fuzzer = Fuzzer::new(seed, FuzzConfig::default());
        let mut seen: HashSet<u64> = HashSet::new();
        let mut c = Counters::default();
        let mut done = 0u64;
        while done < n {
            let len = FUZZ_BATCH.min((n - done) as usize);
            let batch: Vec<Workload> = (0..len)
                .map(|_| {
                    let t = Instant::now();
                    let w = fuzzer.next_workload();
                    p.fuzz_gen_us.push(t.elapsed().as_secs_f64() * 1e6);
                    p.fuzz_ops.push(w.ops.len() as f64);
                    w
                })
                .collect();
            let results = tr.span("fuzz.run_batch", input, || run_batch(&kind, &batch, cfg));
            for (w, (out, cov)) in batch.iter().zip(results) {
                done += 1;
                c.add(&Counters::of_outcome(&out));
                p.oracle += out.timing.oracle;
                p.record += out.timing.record;
                p.check += out.timing.check;
                p.verdict_ms.push(verdict_ms(&out));
                p.attempted += 1;
                match out.reports.first() {
                    Some(r) => p.fail(false_positive(kind.name(), r)),
                    None if out.fuel_exhausted > 0 => {
                        p.fail(format!("{}: {} exhausted fuel", kind.name(), w.name))
                    }
                    None => {}
                }
                p.inflight.extend(out.inflight_sizes);
                let new = cov.iter().filter(|&&h| seen.insert(h)).count();
                fuzzer.feedback(w, new);
                if sample_stride.is_some_and(|s| (done as usize + s / 2).is_multiple_of(s)) {
                    p.samples.push(Sample {
                        fs: kind.name(),
                        bugs: BugSet::fixed(),
                        workload: w.clone(),
                        cfg: cfg.clone(),
                        expect: Expect::Clean,
                    });
                }
            }
        }
        c
    }
}

fn fuzz_pass(p: &mut Pass, seed: u64, n: u64, sz: &Sizes, want_samples: bool, tr: &mut Tracer) {
    let cfg = TestConfig::fuzzing();
    for (i, fs) in STRONG_SYSTEMS.into_iter().enumerate() {
        let input = tr.input(fs_key(fs), "fuzz session");
        let opts = FsOptions {
            bugs: BugSet::fixed(),
            cov: Cov::enabled(),
            ..Default::default()
        };
        let session = FuzzSession {
            seed: seed.wrapping_add(i as u64),
            n,
            cfg: &cfg,
            sample_stride: want_samples.then_some(sz.staged_workload_stride),
            p: &mut *p,
            tr: &mut *tr,
            input,
        };
        let c = dispatch(fs, opts, session);
        p.row_facts(fs_key(fs), &c);
        p.false_positives += c.get("reports");
        p.c.add(&c);
    }
}

fn campaign_pass(
    p: &mut Pass,
    specs: &[CampaignSpec],
    kill: u64,
    two_workers: bool,
    tr: &mut Tracer,
) {
    let opts = |id: &str, kill: Option<u64>| RunOpts {
        worker_id: id.to_string(),
        kill_after_checkpoints: kill,
        ..RunOpts::default()
    };
    for spec in specs {
        let fs = fs_key(spec.fs);
        let input = tr.input(fs, "campaign");
        // Each leg gets a store of its own, in memory (see [`MemIo`]).
        let fresh = |name: &str| {
            let files = Arc::new(MemIo::default());
            let io = HostCtx::with_io(files.clone());
            CampaignStore::open_or_init_with(Path::new(name), spec, io)
                .map(|store| (store, files))
                .map_err(|e| format!("{fs} {name} init: {e}"))
        };

        // Leg 1: cold serial run and merge.
        p.attempted += 1;
        let t = Instant::now();
        let cold = tr.span("campaign.cold", input, || {
            let (store, files) = fresh("cold")?;
            runner::run_worker(&store, &opts("w0", None)).map_err(|e| format!("{fs} cold: {e}"))?;
            let merged = runner::merge(&store).map_err(|e| format!("{fs} cold merge: {e}"))?;
            Ok((merged, files.size()))
        });
        p.add_extra("campaign.cold_s", t.elapsed().as_secs_f64());
        let (cold, (files, bytes)) = match cold {
            Ok(x) => x,
            Err(e) => {
                p.fail(e);
                continue;
            }
        };
        // The store keeps the same counters under its own names.
        let c = Counters(COUNTER_FIELDS.map(|f| {
            match f {
                "workloads" => cold.workloads,
                "reports" => cold.reports,
                "states" => {
                    cold.totals[COUNTER_NAMES
                        .iter()
                        .position(|n| *n == "crash_states")
                        .expect("known")]
                }
                f => {
                    cold.totals[COUNTER_NAMES
                        .iter()
                        .position(|n| *n == f)
                        .expect("a wire counter")]
                }
            }
        }));
        p.row_facts(fs, &c);
        p.facts.insert(
            format!("{fs}.fingerprint"),
            format!("{:#018x}", cold.fingerprint),
        );
        p.bugs_found += cold.reports;
        p.c.add(&c);
        p.add_extra("campaign.store_files", files as f64);
        p.add_extra("campaign.store_bytes", bytes as f64);

        // Leg 2: kill mid-ACE, resume with two workers, merge; the document
        // must match the cold one byte for byte.
        if !two_workers {
            p.skipped
                .push(format!("{fs}: two-worker resume leg needs 2 cores"));
            continue;
        }
        p.attempted += 1;
        let resumed = (|| {
            let (store, _) = fresh("resumed")?;
            let t = Instant::now();
            let killed = tr
                .span("campaign.killed", input, || {
                    runner::run_worker(&store, &opts("w0", Some(kill)))
                })
                .map_err(|e| format!("{fs} killed run: {e}"))?;
            p.add_extra("campaign.killed_s", t.elapsed().as_secs_f64());
            if !killed.interrupted {
                return Err(format!("{fs}: kill after {kill} checkpoints never fired"));
            }
            // `w0` reclaims its own stale lease at once; `w1` races it for
            // every other task.
            let t = Instant::now();
            let span = tr.enter("campaign.resume", input);
            let (a, b) = std::thread::scope(|sc| {
                let b = sc.spawn(|| runner::run_worker(&store, &opts("w1", None)));
                let a = runner::run_worker(&store, &opts("w0", None));
                (a, b.join().expect("resume worker panicked"))
            });
            tr.exit(span);
            p.add_extra("campaign.resume_s", t.elapsed().as_secs_f64());
            let a = a.map_err(|e| format!("{fs} resume w0: {e}"))?;
            let b = b.map_err(|e| format!("{fs} resume w1: {e}"))?;
            p.add_extra(
                "campaign.tasks_resumed",
                (a.tasks_resumed + b.tasks_resumed) as f64,
            );
            p.add_extra(
                "campaign.journal_workloads_replayed",
                (a.journal_workloads_replayed + b.journal_workloads_replayed) as f64,
            );
            p.add_extra(
                "campaign.rewarm_runs",
                (a.rewarm_runs + b.rewarm_runs) as f64,
            );
            p.add_extra("campaign.io_retries", store.io.io_retries() as f64);
            let t = Instant::now();
            let merged = tr
                .span("campaign.merge", input, || runner::merge(&store))
                .map_err(|e| format!("{fs} resumed merge: {e}"))?;
            p.add_extra("campaign.merge_s", t.elapsed().as_secs_f64());
            Ok(merged)
        })();
        match resumed {
            Ok(m) if m.doc == cold.doc => {}
            Ok(_) => p.fail(format!(
                "{fs}: resumed campaign.json differs from the cold one"
            )),
            Err(e) => p.fail(e),
        }
    }
}

/// An in-memory [`HostIo`]: the campaign store's files as a map from path to
/// bytes. ISSUE 11 put the store on tmpfs to keep the disk out of the
/// end-to-end number; the driver allows no writes outside the checkout, and
/// inside it this host's disk made a pass take 1.0 s in one run and 2.0 s in
/// the next at the same CPU time, with the store's `fsync`s and without. So
/// the store keeps every layer above the system calls (journal, leases,
/// retry and atomic-write protocol, wire format) and none of the disk; what
/// the calls cost on the real `PassthroughIo` is the `hostio.*` lanes'.
#[derive(Default)]
struct MemIo(Mutex<BTreeMap<PathBuf, Vec<u8>>>);

impl MemIo {
    fn files(&self) -> std::sync::MutexGuard<'_, BTreeMap<PathBuf, Vec<u8>>> {
        self.0
            .lock()
            .expect("no store operation panics while holding the file map")
    }

    /// `(files, bytes)` held.
    fn size(&self) -> (u64, u64) {
        let files = self.files();
        (
            files.len() as u64,
            files.values().map(|b| b.len() as u64).sum(),
        )
    }
}

fn not_found(path: &Path) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::NotFound, path.display().to_string())
}

impl HostIo for MemIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.files()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.files().insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.files()
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let mut files = self.files();
        let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), bytes);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.files()
            .remove(path)
            .map(drop)
            .ok_or_else(|| not_found(path))
    }
    fn create_new(&self, path: &Path, bytes: &[u8]) -> std::io::Result<bool> {
        let mut files = self.files();
        if files.contains_key(path) {
            return Ok(false);
        }
        files.insert(path.to_path_buf(), bytes.to_vec());
        Ok(true)
    }
    fn create_dir_all(&self, _path: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn set_len(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.files()
            .get_mut(path)
            .ok_or_else(|| not_found(path))?
            .resize(len as usize, 0);
        Ok(())
    }
    fn file_len(&self, path: &Path) -> std::io::Result<Option<u64>> {
        Ok(self.files().get(path).map(|b| b.len() as u64))
    }
    fn fsync_dir(&self, _path: &Path) -> std::io::Result<()> {
        Ok(())
    }
}

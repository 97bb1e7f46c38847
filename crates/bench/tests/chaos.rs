//! Chaos self-tests for the fault-isolated checker: inject device-level
//! faults (panics, infinite loops, torn stores) through [`ChaosKind`] into
//! otherwise-correct file systems and assert the harness's sandbox and fuel
//! watchdog convert them into findings — without aborting the sweep, and
//! bit-identically across thread counts and fast-path configurations.

use bench::{run_batch, run_batch_cached, Scheduler};
use chipmunk::{test_workload, Stage, TestConfig, TestOutcome, Violation};
use novafs::NovaKind;
use pmem::FaultPlan;
use vfs::{fs::FsOptions, ChaosKind, Op, Workload};

use proptest::prelude::*;

fn chaos_nova(plan: FaultPlan) -> ChaosKind<NovaKind> {
    ChaosKind::new(NovaKind { opts: FsOptions::fixed(), fortis: false }, plan)
}

fn creat_one() -> Workload {
    Workload::new("chaos-creat", vec![Op::Creat { path: "/f".into() }])
}

fn fingerprint(o: &TestOutcome) -> String {
    format!(
        "{:?}|{}|{}|{}|{}|{}|{}|{}|{:?}",
        o.reports,
        o.crash_points,
        o.crash_states,
        o.dedup_hits,
        o.recovery_panics,
        o.recovery_hangs,
        o.sandbox_retries,
        o.fuel_exhausted,
        o.inflight_sizes,
    )
}

/// A panic planted early in every crash-state mount becomes a single
/// deduplicated `recovery-panic` report; the sweep still visits every crash
/// state, and each sandbox finding was re-confirmed on the slow path first.
#[test]
fn mount_panic_becomes_one_report_and_sweep_completes() {
    let kind = chaos_nova(FaultPlan { mount_panic_at: Some(3), ..FaultPlan::none() });
    let out = test_workload(&kind, &creat_one(), &TestConfig::default());
    assert!(out.crash_states > 0, "sweep must still cover the crash states");
    assert!(out.recovery_panics > 0, "every mount panicked");
    assert!(out.sandbox_retries > 0, "fast-path findings must re-check on the slow path");
    assert_eq!(out.recovery_hangs, 0);
    assert_eq!(out.fuel_exhausted, 0);
    assert_eq!(out.reports.len(), 1, "identical panics must dedup: {:?}", out.reports);
    match &out.reports[0].violation {
        Violation::RecoveryPanic { payload, .. } => {
            assert!(payload.contains("injected panic at mount op 3"), "{payload}");
        }
        other => panic!("wrong class: {other:?}"),
    }
}

/// An injected infinite recovery loop trips the deterministic fuel watchdog
/// and becomes a `recovery-hang` finding instead of wedging the suite.
#[test]
fn mount_hang_trips_the_fuel_watchdog() {
    let kind = chaos_nova(FaultPlan { mount_hang_at: Some(3), ..FaultPlan::none() });
    let cfg = TestConfig { recovery_fuel: Some(300_000), ..TestConfig::default() };
    let out = test_workload(&kind, &creat_one(), &cfg);
    assert!(out.crash_states > 0);
    assert!(out.recovery_hangs > 0, "the watchdog must fire");
    assert!(out.fuel_exhausted > 0);
    assert_eq!(out.recovery_panics, 0);
    assert_eq!(out.reports.len(), 1, "{:?}", out.reports);
    match &out.reports[0].violation {
        Violation::RecoveryHang { payload, .. } => {
            assert!(payload.contains("fuel budget of 300000"), "{payload}");
        }
        other => panic!("wrong class: {other:?}"),
    }
}

/// A panic planted in the post-mount tree walk — above the device layer,
/// where `mount_panic_at` cannot reach — surfaces as a single deduplicated
/// `recovery-panic` finding attributed to the Walk stage, and the sweep
/// still visits every crash state.
#[test]
fn walk_panic_becomes_one_walk_stage_report() {
    let kind = chaos_nova(FaultPlan { walk_panic_at: Some(2), ..FaultPlan::none() });
    let out = test_workload(&kind, &creat_one(), &TestConfig::default());
    assert!(out.crash_states > 0, "sweep must still cover the crash states");
    assert!(out.recovery_panics > 0, "every walk panicked");
    assert_eq!(out.recovery_hangs, 0);
    assert_eq!(out.reports.len(), 1, "identical walk panics must dedup: {:?}", out.reports);
    match &out.reports[0].violation {
        Violation::RecoveryPanic { stage, payload } => {
            assert_eq!(*stage, Stage::Walk, "fault fired above mount, inside the walk");
            assert!(payload.contains("injected panic at walk probe 2"), "{payload}");
        }
        other => panic!("wrong class: {other:?}"),
    }
}

/// A walk that spins forever on its n-th probe burns the shared mount+walk
/// fuel budget and is reported as a Walk-stage `recovery-hang`.
#[test]
fn walk_hang_trips_the_fuel_watchdog() {
    let kind = chaos_nova(FaultPlan { walk_hang_at: Some(2), ..FaultPlan::none() });
    let cfg = TestConfig { recovery_fuel: Some(300_000), ..TestConfig::default() };
    let out = test_workload(&kind, &creat_one(), &cfg);
    assert!(out.crash_states > 0);
    assert!(out.recovery_hangs > 0, "the watchdog must fire");
    assert_eq!(out.recovery_panics, 0);
    assert_eq!(out.reports.len(), 1, "{:?}", out.reports);
    match &out.reports[0].violation {
        Violation::RecoveryHang { stage, payload } => {
            assert_eq!(*stage, Stage::Walk);
            assert!(payload.contains("fuel budget of 300000"), "{payload}");
        }
        other => panic!("wrong class: {other:?}"),
    }
}

/// Worker-level fault isolation (a panic while *recording*, outside the
/// per-stage checker sandbox) fails only the affected workload: the other
/// batch items keep their ordinary verdicts — through both production batch
/// runners (plain `run_batch`, prefix-scheduled `run_batch_cached`), at
/// `threads` 1, 2 and 8, whether the batch is two prefix subtrees or one
/// (where the scheduler runs on the caller's thread at any thread count).
/// The fault is planted at the smallest op index the unaffected workloads
/// survive, so the longer workload — whose record lineage does strictly more
/// device ops — is the only one hit.
#[test]
fn worker_panic_fails_only_the_affected_workload() {
    let short = creat_one();
    let other = Workload::new("chaos-mkdir", vec![Op::Mkdir { path: "/d".into() }]);
    let long = Workload::new(
        "chaos-longer",
        vec![
            Op::Creat { path: "/f".into() },
            Op::Mkdir { path: "/d".into() },
            Op::WritePath { path: "/f".into(), off: 0, size: 4096 },
            Op::FsyncPath { path: "/f".into() },
        ],
    );
    let unaffected = [short.clone(), other.clone()];
    let survives = |n: u64| {
        let kind = chaos_nova(FaultPlan { record_panic_at: Some(n), ..FaultPlan::none() });
        let res = run_batch(&kind, &unaffected, &TestConfig::default());
        res.iter().all(|(o, _)| o.reports.iter().all(|r| r.op_desc != "<worker>"))
    };
    // Binary-search the unaffected workloads' largest lineage op count: the
    // fault fires iff its index is <= the ops one mkfs+run performs.
    let mut lo = 1u64; // panics
    let mut hi = 1 << 22; // survives
    assert!(!survives(lo) && survives(hi), "probe bounds must bracket the op count");
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if survives(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let plan = FaultPlan { record_panic_at: Some(hi), ..FaultPlan::none() };

    let check = |label: &str, res: &[(TestOutcome, std::collections::HashSet<u64>)]| {
        let (hit, _) = &res[0];
        assert_eq!(hit.reports.len(), 1, "{label}: {:?}", hit.reports);
        assert_eq!(hit.reports[0].op_desc, "<worker>", "{label}");
        assert_eq!(hit.reports[0].violation.class(), "recovery-panic", "{label}");
        assert!(
            hit.reports[0].violation.detail().contains("injected panic at record op"),
            "{label}: {}",
            hit.reports[0].violation.detail()
        );
        assert_eq!(hit.recovery_panics, 1, "{label}");
        let (ok, _) = &res[1];
        assert!(
            ok.reports.iter().all(|r| r.op_desc != "<worker>"),
            "{label}: unaffected workload must keep its ordinary verdict: {:?}",
            ok.reports
        );
        assert!(ok.crash_states > 0, "{label}: unaffected workload must be fully checked");
    };

    // A hunt window: `other` (clean), then the panicking `long`, then
    // `short`, which the scheduler runs before `long` (same subtree).
    let window = vec![other.clone(), long.clone(), short.clone()];

    // The per-workload guard catches the panic in every cell, so every call
    // returns and the cells of one batch agree.
    let two_subtrees = vec![long.clone(), other];
    let one_subtree = vec![long, short];
    for (shape, batch) in [("two subtrees", &two_subtrees), ("one subtree", &one_subtree)] {
        let mut prints: Vec<(String, Vec<String>)> = Vec::new();
        for threads in [1usize, 2, 8] {
            for scheduled in [false, true] {
                let label = format!("{shape}, threads={threads}, scheduled={scheduled}");
                let kind = chaos_nova(plan);
                let cfg = TestConfig::default().with_threads(threads);
                let res = if scheduled {
                    let mut sched = Scheduler::new(&kind, &cfg);
                    run_batch_cached(&kind, batch, &cfg, Some(&mut sched))
                } else {
                    run_batch(&kind, batch, &cfg)
                };
                check(&label, &res);
                prints.push((label, res.iter().map(|(o, _)| fingerprint(o)).collect()));
            }
        }
        let (base_label, base) = &prints[0];
        for (label, p) in &prints[1..] {
            assert_eq!(base, p, "{label} diverged from {base_label}");
        }
    }

    // Stopping at the find: the `<worker>` report is a find, so the results
    // end at `long`'s batch index — on the caller's thread and with the two
    // subtrees on two worker threads.
    let find_at = |cfg: &TestConfig| {
        let kind = chaos_nova(plan);
        let res = Scheduler::new(&kind, cfg).run_to_find(&window, cfg);
        let (found, _, _) = res.last().expect("a window yields results");
        assert_eq!(found.reports.first().map(|r| r.op_desc.as_str()), Some("<worker>"));
        assert!(res[0].0.reports.is_empty(), "`other` keeps its clean verdict");
        res.len() - 1
    };
    let serial = find_at(&TestConfig::default());
    let sharded = find_at(&TestConfig::default().with_threads(2));
    assert_eq!((serial, sharded), (1, 1), "the find lands at `long`'s index");
}

/// A torn 8-byte store during recording never aborts the sweep and yields
/// bit-identical outcomes at any thread count.
#[test]
fn torn_store_sweep_is_deterministic() {
    let plan = FaultPlan { torn_store_at: Some(9), ..FaultPlan::none() };
    // More than one workload, so `threads = 4` reaches `run_batch`'s workers.
    let batch = [
        creat_one(),
        Workload::new("chaos-mkdir", vec![Op::Mkdir { path: "/d".into() }]),
        Workload::new("chaos-pair", vec![Op::Creat { path: "/g".into() }, Op::Unlink { path: "/g".into() }]),
    ];
    let mut prints = Vec::new();
    for threads in [1usize, 4] {
        let kind = chaos_nova(plan);
        let cfg = TestConfig::default().with_threads(threads);
        let res = run_batch(&kind, &batch, &cfg);
        assert_eq!(res.len(), batch.len());
        prints.push(res.iter().map(|(o, _)| fingerprint(o)).collect::<Vec<_>>());
    }
    assert_eq!(prints[0], prints[1], "torn-store outcomes must not depend on threads");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A mount-path panic at an arbitrary op index never aborts the sweep,
    /// dedups to at most one report per (stage, op_seq), and the whole
    /// outcome — reports and every counter — is bit-identical across
    /// `{threads 1, 8}` × the two production batch runners (prefix-scheduled
    /// `run_batch_cached`, plain `run_batch`).
    #[test]
    fn mount_fault_matrix_is_byte_identical(op in 1u64..200) {
        let plan = FaultPlan { mount_panic_at: Some(op), ..FaultPlan::none() };
        // Workloads sharing a first op, so the prefix cache genuinely
        // engages on the scheduled runner.
        let ws = vec![
            Workload::new("chaos-a", vec![
                Op::Mkdir { path: "/d".into() },
                Op::Creat { path: "/d/a".into() },
            ]),
            Workload::new("chaos-b", vec![
                Op::Mkdir { path: "/d".into() },
                Op::Creat { path: "/d/b".into() },
            ]),
        ];
        let mut cells: Vec<(String, Vec<String>)> = Vec::new();
        for (threads, scheduled) in [(1usize, true), (1, false), (8, true), (8, false)] {
            let kind = chaos_nova(plan);
            let cfg = TestConfig::default().with_threads(threads);
            let res = if scheduled {
                let mut sched = Scheduler::new(&kind, &cfg);
                run_batch_cached(&kind, &ws, &cfg, Some(&mut sched))
            } else {
                run_batch(&kind, &ws, &cfg)
            };
            for (o, _) in &res {
                prop_assert!(o.crash_states > 0, "sweep must complete");
                // Dedup leaves at most one report per (stage, op_seq)
                // pair for a fixed injected fault.
                for i in 0..o.reports.len() {
                    for j in i + 1..o.reports.len() {
                        let (a, b) = (&o.reports[i], &o.reports[j]);
                        prop_assert!(
                            a.op_seq != b.op_seq || a.violation != b.violation,
                            "duplicate report survived dedup: {a:?}"
                        );
                    }
                }
                if o.recovery_panics > 0 {
                    prop_assert!(
                        o.reports.iter().any(|r| r.violation.class() == "recovery-panic"),
                        "a fired fault must be reported"
                    );
                }
            }
            cells.push((
                format!("threads={threads} scheduled={scheduled}"),
                res.iter().map(|(o, _)| fingerprint(o)).collect(),
            ));
        }
        let (base_label, base) = &cells[0];
        for (label, prints) in &cells[1..] {
            prop_assert_eq!(base, prints, "{} diverged from {}", label, base_label);
        }
    }
}

//! `chaos`: a small workload suite on NOVA with injected device-level
//! faults (a panic planted in every crash-state mount, then an infinite
//! recovery loop). Asserts the fault-isolated checker survives the whole
//! sweep and converts the faults into `recovery-panic` / `recovery-hang`
//! findings. The CI chaos job runs it at `threads = 4`.

use bench::{jsonout::{ju, JVal}, run_batch_cached, Scheduler};
use chipmunk::{TestConfig, TestOutcome};
use novafs::NovaKind;
use pmem::FaultPlan;
use vfs::{fs::FsOptions, ChaosKind, Op, Workload};

use crate::Cli;

fn workloads() -> Vec<Workload> {
    vec![
        Workload::new("chaos-creat", vec![Op::Creat { path: "/f".into() }]),
        Workload::new(
            "chaos-dir",
            vec![Op::Mkdir { path: "/d".into() }, Op::Creat { path: "/d/a".into() }],
        ),
        Workload::new(
            "chaos-write",
            vec![
                Op::Creat { path: "/w".into() },
                Op::WritePath { path: "/w".into(), off: 0, size: 1024 },
                Op::FsyncPath { path: "/w".into() },
            ],
        ),
    ]
}

fn run_plan(plan: FaultPlan, cfg: &TestConfig) -> Vec<TestOutcome> {
    let kind = ChaosKind::new(NovaKind { opts: FsOptions::fixed(), fortis: false }, plan);
    let ws = workloads();
    let mut sched = Scheduler::new(&kind, cfg);
    run_batch_cached(&kind, &ws, cfg, Some(&mut sched)).into_iter().map(|(o, _)| o).collect()
}

pub fn run(cli: &Cli, mut args: Vec<String>) {
    let json_path = cli.take_flag(&mut args, "--json");
    let pos = cli.positionals(args, 1);
    let threads: usize = cli.parse_pos(pos.first(), "thread count", 4);
    let cfg = TestConfig::default().with_threads(threads);
    // A hang burn spends the whole budget per crash state; a small (but
    // still >10x-margin) budget keeps the smoke fast.
    let hang_cfg = TestConfig { recovery_fuel: Some(2_000_000), ..cfg.clone() };

    let panics = run_plan(FaultPlan { mount_panic_at: Some(3), ..FaultPlan::none() }, &cfg);
    let hangs = run_plan(FaultPlan { mount_hang_at: Some(3), ..FaultPlan::none() }, &hang_cfg);

    let mut totals = [0u64; 6]; // states, panics, hangs, retries, fuel, reports
    for o in panics.iter().chain(&hangs) {
        totals[0] += o.crash_states;
        totals[1] += o.recovery_panics;
        totals[2] += o.recovery_hangs;
        totals[3] += o.sandbox_retries;
        totals[4] += o.fuel_exhausted;
        totals[5] += o.reports.len() as u64;
    }
    println!(
        "chaos smoke (threads = {threads}): {} states | {} recovery panics, {} recovery hangs, \
         {} slow-path retries, {} fuel exhaustions, {} reports",
        totals[0], totals[1], totals[2], totals[3], totals[4], totals[5]
    );
    for o in panics.iter().chain(&hangs) {
        for r in &o.reports {
            println!("  [{}] {} @ {}", o.workload, r.violation.class(), r.op_desc);
        }
    }

    if let Some(path) = json_path {
        let doc = JVal::obj([
            ("threads", ju(threads as u64)),
            ("workloads", ju((panics.len() + hangs.len()) as u64)),
            ("states", ju(totals[0])),
            ("recovery_panics", ju(totals[1])),
            ("recovery_hangs", ju(totals[2])),
            ("sandbox_retries", ju(totals[3])),
            ("fuel_exhausted", ju(totals[4])),
            ("reports", ju(totals[5])),
        ]);
        bench::jsonout::write_atomic(&path, &doc.render_pretty()).expect("write --json output");
        eprintln!("wrote {path}");
    }

    assert!(totals[1] >= 1, "the injected mount panic must surface as a RecoveryPanic report");
    assert!(totals[2] >= 1, "the injected recovery loop must surface as a RecoveryHang report");
    assert!(
        panics.iter().chain(&hangs).all(|o| o.crash_states > 0),
        "every workload's sweep must run to completion"
    );
}

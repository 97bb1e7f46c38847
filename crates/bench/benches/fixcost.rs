//! Criterion (wall-clock) versions of the Observation 2 fix-cost
//! microbenchmarks, plus core-framework benchmarks: crash-state checking
//! throughput and the record pipeline.
//!
//! The deterministic simulated-PM-time versions (the numbers EXPERIMENTS.md
//! compares against the paper) live in `chipmunk fixcost`;
//! these wall-clock runs demonstrate the same ordering on host time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use novafs::NovaKind;
use pmem::PmDevice;
use vfs::{
    fs::{FileSystem, FsKind, FsOptions},
    BugId, BugSet, Op, Workload,
};

const DEV: u64 = 8 * 1024 * 1024;

fn rename_overwrite(bugs: BugSet, iters: u64) {
    let kind = NovaKind { opts: FsOptions::with_bugs(bugs), fortis: false };
    let mut fs = kind.mkfs(PmDevice::new(DEV)).expect("mkfs");
    fs.creat("/target").expect("creat");
    for i in 0..iters {
        let fd = fs.open("/t.tmp", vfs::OpenFlags::CREAT_TRUNC).expect("open");
        fs.pwrite(fd, 0, &vfs::workload::fill_data(i as usize, 0, 128)).expect("pwrite");
        fs.close(fd).expect("close");
        fs.rename("/t.tmp", "/target").expect("rename");
    }
}

fn link_loop(bugs: BugSet, iters: u64) {
    let kind = NovaKind { opts: FsOptions::with_bugs(bugs), fortis: false };
    let mut fs = kind.mkfs(PmDevice::new(DEV)).expect("mkfs");
    fs.creat("/f").expect("creat");
    for i in 0..iters {
        let name = format!("/l{}", i % 8);
        fs.link("/f", &name).expect("link");
        fs.unlink(&name).expect("unlink");
    }
}

fn bench_fixcost(c: &mut Criterion) {
    let mut g = c.benchmark_group("observation2");
    g.sample_size(20);
    for (label, bugs) in [
        ("rename_overwrite/buggy", BugSet::only(&[BugId::B04, BugId::B05])),
        ("rename_overwrite/fixed", BugSet::fixed()),
    ] {
        g.bench_function(label, |b| b.iter(|| rename_overwrite(bugs, 50)));
    }
    for (label, bugs) in [
        ("link/buggy", BugSet::only(&[BugId::B06])),
        ("link/fixed", BugSet::fixed()),
    ] {
        g.bench_function(label, |b| b.iter(|| link_loop(bugs, 50)));
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    use chipmunk::{test_workload, TestConfig};
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    let w = Workload::new(
        "bench",
        vec![
            Op::Mkdir { path: "/d".into() },
            Op::WritePath { path: "/d/f".into(), off: 0, size: 4096 },
            Op::Rename { old: "/d/f".into(), new: "/g".into() },
            Op::Unlink { path: "/g".into() },
        ],
    );
    for cap in [Some(2), None] {
        let cfg = TestConfig { cap, ..TestConfig::default() };
        let kind = NovaKind { opts: FsOptions::fixed(), fortis: false };
        g.bench_with_input(
            BenchmarkId::new("nova_test_workload", format!("{cap:?}")),
            &cfg,
            |b, cfg| b.iter(|| test_workload(&kind, &w, cfg)),
        );
    }
    g.finish();
}

fn bench_memset(c: &mut Criterion) {
    use pmem::{CowDevice, PmBackend};
    let mut g = c.benchmark_group("cow_memset");
    g.sample_size(20);
    let base = vec![0u8; DEV as usize];
    g.bench_function("memset_nt/4MiB", |b| {
        b.iter(|| {
            let mut cow = CowDevice::new(&base);
            cow.memset_nt(0, 0xee, 4 * 1024 * 1024);
            // Benchmark-visible invariant: the chunked memset dirties only
            // overlay pages — one per 4 KiB — never an O(len) temporary.
            assert_eq!(cow.dirty_pages(), 1024);
            cow.dirty_pages()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fixcost, bench_pipeline, bench_memset);
criterion_main!(benches);

//! Micro-lanes: fixed op counts through `pmem`, `pmlog`, `hostio`, `jsonout`
//! and the scheduler's planner, timed directly. They price the primitives
//! the checker's mount and replay stages are built from; a move here should
//! reappear in `checker.mount_us` / `crashgen.replay_us`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bench::campaign::hostio::HostCtx;
use bench::jsonout::{self, JVal};
use pmem::{CowDevice, ForkDevice, PmBackend, PmDevice};
use pmlog::{LogEntry, LogHandle};
use vfs::Workload;

use crate::metrics::{median, Values};
use crate::trace::Tracer;

const DEV: u64 = 4 << 20;
const OPS: usize = 100_000;

/// A directory under the benchmark's `out/` for the host-I/O lanes' files,
/// removed when dropped, so it disappears on failure paths too.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `out_dir/<name>-<pid>`, emptying any leftover.
    pub fn create(out_dir: &Path, name: &str) -> std::io::Result<ScratchDir> {
        let p = out_dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p)?;
        Ok(ScratchDir(p))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Nanoseconds per call of `f` over `n` calls, recorded as one span.
fn lane(tr: &mut Tracer, name: &'static str, n: usize, f: impl FnOnce()) -> f64 {
    let span = tr.enter(name, 0);
    let t = Instant::now();
    f();
    let ns = t.elapsed().as_nanos() as f64;
    tr.exit_calls(span, n);
    ns / n as f64
}

fn mbps(bytes: usize, ns_total: f64) -> f64 {
    bytes as f64 / 1e6 / (ns_total * 1e-9)
}

/// Runs every micro-lane. `log` is a recorded workload log for the replay
/// lane, `batch` an ACE batch for the planner lane, `dir` a scratch
/// directory for the host-I/O lanes.
pub fn run(
    tr: &mut Tracer,
    log: Option<&(pmlog::Log, u64)>,
    batch: &[Workload],
    dir: &Path,
    out: &mut Values,
) {
    tr.input("-", "micro-lanes");
    let line = |i: usize| (i as u64 * 64) % DEV;

    // pmem: store / flush / fence on the tracking device.
    let mut dev = PmDevice::new(DEV);
    let v = lane(tr, "micro.pmem.store", OPS, || {
        for i in 0..OPS {
            dev.store_u64(line(i), i as u64);
        }
    });
    out.insert("pmem.store_ns".into(), v);
    let v = lane(tr, "micro.pmem.flush", OPS, || {
        for i in 0..OPS {
            dev.flush(line(i), 8);
        }
    });
    out.insert("pmem.flush_ns".into(), v);
    dev.fence();
    // One dirty line in flight per fence. Only the fence is timed, call by
    // call, so the figure carries one `Instant` read (~20 ns) per call.
    let span = tr.enter("micro.pmem.fence", 0);
    let mut fence_ns = 0u128;
    for i in 0..OPS {
        dev.store_u64(line(i), !(i as u64));
        dev.flush(line(i), 8);
        let t = Instant::now();
        dev.fence();
        fence_ns += t.elapsed().as_nanos();
    }
    tr.exit_calls(span, OPS);
    out.insert("pmem.fence_ns".into(), fence_ns as f64 / OPS as f64);
    let page = vec![0xa5u8; 4096];
    let n = 4096;
    let v = lane(tr, "micro.pmem.memcpy_nt", n, || {
        for i in 0..n {
            dev.memcpy_nt((i as u64 * 4096) % DEV, &page);
            if i % 16 == 15 {
                dev.fence();
            }
        }
    });
    out.insert("pmem.memcpy_nt_mbps".into(), mbps(n * 4096, v * n as f64));

    // pmem: copy-on-write overlay writes and their undo.
    let base = dev.persistent_image().to_vec();
    let mut cow = CowDevice::new_with_undo(&base);
    let mark = cow.mark();
    let v = lane(tr, "micro.pmem.cow_write", OPS, || {
        for i in 0..OPS {
            cow.apply(line(i * 7), &page[..64]);
        }
    });
    out.insert("pmem.cow_write_ns".into(), v);
    let v = lane(tr, "micro.pmem.cow_undo", OPS, || cow.undo_to(mark));
    out.insert("pmem.cow_undo_ns".into(), v);

    // pmem: forking a device with 256 dirty pages.
    let mut fork = ForkDevice::new(DEV);
    for i in 0..256u64 {
        fork.store(i * 4096, &page[..64]);
    }
    let n = 2000;
    let v = lane(tr, "micro.pmem.fork", n, || {
        for i in 0..n {
            let mut child = fork.clone();
            child.store((i as u64 % 256) * 4096, &page[..8]);
            black_box(&child);
        }
    });
    out.insert("pmem.fork_us".into(), v / 1e3);

    // pmem: content hashing.
    let reps = 8;
    let v = lane(tr, "micro.pmem.image_key", reps, || {
        for _ in 0..reps {
            black_box(pmem::image_key(black_box(&base)));
        }
    });
    out.insert(
        "pmem.hash_image_key_mbps".into(),
        mbps(reps * base.len(), v * reps as f64),
    );
    let v = lane(tr, "micro.pmem.word_term", OPS, || {
        let mut acc = 0u128;
        for i in 0..OPS {
            acc ^= pmem::word_term(i as u64 * 8, black_box(i as u64 | 1));
        }
        black_box(acc);
    });
    out.insert(
        "pmem.hash_word_term_mbps".into(),
        mbps(OPS * 8, v * OPS as f64),
    );

    // pmlog: appending one cache line's flush record; replaying a real log.
    let handle = LogHandle::new();
    let v = lane(tr, "micro.pmlog.append", OPS, || {
        for i in 0..OPS {
            handle.push(LogEntry::Flush {
                off: line(i),
                data: page[..64].to_vec(),
            });
        }
    });
    out.insert("pmlog.append_ns".into(), v);
    if let Some((log, size)) = log {
        let bytes: usize = log
            .entries()
            .iter()
            .filter_map(|e| e.as_write())
            .map(|w| w.1.len())
            .sum();
        let reps = 16;
        let v = lane(tr, "micro.pmlog.replay", reps, || {
            for _ in 0..reps {
                black_box(pmlog::materialize_full(log, *size));
            }
        });
        out.insert(
            "pmlog.replay_mbps".into(),
            mbps(reps * bytes, v * reps as f64),
        );
    }

    // sched: planning one batch into prefix subtrees.
    if !batch.is_empty() {
        let keys: Vec<Vec<String>> = batch
            .iter()
            .map(|w| w.ops.iter().map(|o| o.describe()).collect())
            .collect();
        let reps = 16;
        let v = lane(tr, "micro.sched.plan", reps, || {
            for _ in 0..reps {
                black_box(bench::plan_subtrees(black_box(&keys)));
            }
        });
        out.insert("sched.plan_us".into(), v / 1e3);
    }

    // hostio: the store's two durable primitives (each call fsyncs, so these
    // are medians over single timed calls, not a loop average).
    let io = HostCtx::passthrough();
    let timed = |f: &dyn Fn(usize) -> bool| -> f64 {
        let us: Vec<f64> = (0..32)
            .filter_map(|i| {
                let t = Instant::now();
                f(i).then(|| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        median(&us)
    };
    let span = tr.enter("micro.hostio.write_atomic", 0);
    let v = timed(&|i| {
        io.write_atomic(&dir.join(format!("atomic-{}.json", i % 4)), &page)
            .is_ok()
    });
    tr.exit_calls(span, 32);
    out.insert("hostio.write_atomic_us".into(), v);
    let span = tr.enter("micro.hostio.append_line", 0);
    let journal = dir.join("journal.log");
    let mut record = page[..199]
        .iter()
        .map(|b| b % 26 + b'a')
        .collect::<Vec<u8>>();
    record.push(b'\n');
    let v = timed(&|_| io.append_line(&journal, &record).is_ok());
    tr.exit_calls(span, 32);
    out.insert("hostio.append_line_us".into(), v);

    // jsonout: parsing a journal-shaped document.
    let doc = JVal::Arr(
        (0..2000u64)
            .map(|i| {
                JVal::Obj(vec![
                    ("workload".into(), JVal::Str(format!("seq2-{i:05}"))),
                    (
                        "counters".into(),
                        JVal::Arr((0..20).map(|c| JVal::Num((i * c) as f64)).collect()),
                    ),
                    ("ok".into(), JVal::Bool(i % 3 == 0)),
                ])
            })
            .collect(),
    )
    .render();
    let reps = 8;
    let v = lane(tr, "micro.jsonout.parse", reps, || {
        for _ in 0..reps {
            black_box(jsonout::parse(black_box(&doc)).is_ok());
        }
    });
    out.insert(
        "jsonout.parse_mbps".into(),
        mbps(reps * doc.len(), v * reps as f64),
    );
}

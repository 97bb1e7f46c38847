//! The literal reference checker: paper §3.3 with nothing added.
//!
//! Production ([`crate::harness`]) reaches its verdicts through content
//! hashing, in-point dedup, a cross-point memo, behavioral classes, read
//! footprints, scoped walks, delta replay and a structurally shared oracle.
//! Each of those claims to be observationally identical to the plain
//! pipeline; this module *is* the plain pipeline, kept small enough to be
//! obviously correct (in the spirit of bounded black-box crash testing,
//! PAPERS.md B3) so the differential tests have something to hold production
//! against:
//!
//! 1. run the workload crash-free on a fresh device, deep-walking the whole
//!    tree after every op (the oracle);
//! 2. run it again, on another fresh device, through the write logger;
//! 3. walk the log. Writes accumulate as in-flight until a fence makes them
//!    durable. Crash points are every fence with writes in flight and every
//!    completed mutating syscall (strong guarantees), every completed
//!    `fsync`/`sync` (weak guarantees), or the instant after every store
//!    (eADR, where nothing is ever in flight);
//! 4. at each crash point enumerate the in-flight subsets in canonical
//!    order and check **every** state through
//!    [`check_crash_state`]: private
//!    overlay of the durable image, mount, full tree walk, full comparison
//!    against the oracle, usability probe.
//!
//! Single-threaded, no hashing, no caching, no skipping. Stages 1–2 and the
//! per-state check are the same primitives production calls — asked for
//! their literal semantics through [`literal`] — so a disagreement between
//! [`check_workload`] and [`test_workload`](crate::test_workload) isolates a
//! fault in a fast path (or names a state `rep_check` wrongly skipped).
//!
//! The same walk, stopped at one `(point, subset)` state, is the only
//! single-state replay there is: [`check_state`] runs it for the tests and
//! [`check_one_state`](crate::check_one_state) for repro-bundle replay and
//! the shrinker. The entry points differ only in the device under stages
//! 1–2: [`check_workload`] and [`check_state`] use the dense [`PmDevice`],
//! so the production ≡ reference matrix also pins "same log on either
//! device"; `check_one_state` uses production's page-sparse
//! [`ForkDevice`](pmem::ForkDevice), so nothing device-sized is allocated
//! per candidate. The durable image is a leased [`ImageLease`] either way.

use pmem::{ImageLease, PmBackend, PmDevice};
use pmlog::{LogEntry, Marker, OpRecord};
use vfs::{fs::SyscallKind, FsKind, Guarantees, Workload};

use crate::{
    checker::{check_crash_state, CheckKind},
    config::TestConfig,
    crashgen::{coalesce, describe_subset, enumerate_subsets_ordered, PendingWrite},
    exec::OpResult,
    harness::{atomicity_relax, oracle_and_record, push_report, StateProbe, TestOutcome},
    oracle::Oracle,
    report::{BugReport, CrashPhase, Violation},
};

/// `cfg` with every remaining fast-path switch turned to its literal
/// setting: serial, whole-tree walk and comparison, exhaustive checking,
/// deep-walked oracle with unpruned diffs. Semantic knobs are untouched.
pub fn literal(cfg: &TestConfig) -> TestConfig {
    TestConfig {
        threads: 1,
        scoped_check: false,
        rep_check: false,
        shared_oracle: false,
        ..cfg.clone()
    }
}

/// Checks every crash state of `workload` the literal way. Fills the
/// outcome fields that describe *what was checked and found* — `reports`,
/// `crash_points`, `crash_states`, `inflight_sizes`, `traced_bugs` — exactly
/// as [`test_workload`](crate::test_workload) does; fast-path counters and
/// the check timing stay zero. Coverage and traces land in `kind`'s sinks.
pub fn check_workload<K: FsKind>(kind: &K, workload: &Workload, cfg: &TestConfig) -> TestOutcome {
    run(kind, workload, cfg, PmDevice::new, None).0
}

/// Checks the single crash state `(point, subset)` of `workload`: `point`
/// is the global crash-point ordinal ([`BugReport::point`]) and `subset`
/// indexes the in-flight writes there ([`BugReport::subset_ids`]). `Ok(None)`
/// means the state is consistent; errors are a failed oracle or recorded
/// run, an ordinal past the last crash point or a subset index out of range.
pub fn check_state<K: FsKind>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
    point: u64,
    subset: &[usize],
) -> Result<Option<Violation>, String> {
    check_one(kind, workload, cfg, PmDevice::new, point, subset).map(|p| p.violation)
}

/// The walk to one crash state, with stages 1–2 on devices from `new_dev`:
/// [`check_state`] and [`check_one_state`](crate::check_one_state) both
/// come here.
pub(crate) fn check_one<K: FsKind, D: PmBackend>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
    new_dev: impl Fn(u64) -> D,
    point: u64,
    subset: &[usize],
) -> Result<StateProbe, String> {
    let (out, found) = run(kind, workload, cfg, new_dev, Some((point, subset)));
    found?.ok_or_else(|| {
        format!("crash point ordinal {point} out of range ({} points)", out.crash_points)
    })
}

/// The pipeline behind every entry point. With `only` set, crash points are
/// counted as usual but just the named state is checked, and the second
/// value is its probe (`Ok(None)`: the ordinal was never reached). A stage
/// that cannot run, or a subset index out of range, is an error.
fn run<K: FsKind, D: PmBackend>(
    kind: &K,
    workload: &Workload,
    cfg: &TestConfig,
    new_dev: impl Fn(u64) -> D,
    only: Option<(u64, &[usize])>,
) -> (TestOutcome, Result<Option<StateProbe>, String>) {
    let cfg = &literal(cfg);
    let mut out = TestOutcome { workload: workload.name.clone(), ..Default::default() };
    kind.options().trace.clear();

    let Some((oracle, rec, log)) = oracle_and_record(kind, workload, cfg, new_dev, &mut out)
    else {
        let failure = out.reports.last().expect("a stage that cannot run reports why");
        let failure = failure.violation.detail().to_string();
        return (out, Err(failure));
    };

    let mut walk = Walk {
        kind,
        workload,
        cfg,
        oracle: &oracle,
        rec: &rec,
        guarantees: kind.guarantees(),
        durable: ImageLease::zeroed(cfg.device_size),
        in_flight: Vec::new(),
        cur_op: None,
        last_done: None,
        started: false,
        only,
        found: Ok(None),
    };
    for entry in log.entries() {
        if walk.step(entry, &mut out) {
            break;
        }
    }
    out.traced_bugs = kind.options().trace.snapshot();
    (out, walk.found)
}

/// The log walk's state.
struct Walk<'a, K: FsKind> {
    kind: &'a K,
    workload: &'a Workload,
    cfg: &'a TestConfig,
    oracle: &'a Oracle,
    rec: &'a [OpResult],
    guarantees: Guarantees,
    /// The image a crash is guaranteed to preserve: every write that a
    /// fence (or, under eADR, landing at all) has made durable.
    durable: ImageLease,
    /// Writes since the last fence; any subset may have reached media.
    in_flight: Vec<PendingWrite>,
    cur_op: Option<usize>,
    last_done: Option<usize>,
    /// The first syscall marker has been seen (mkfs writes precede it and
    /// are never crash points).
    started: bool,
    only: Option<(u64, &'a [usize])>,
    /// What [`run`] returns for the `only` state.
    found: Result<Option<StateProbe>, String>,
}

impl<K: FsKind> Walk<'_, K> {
    fn persist(&mut self, w: &PendingWrite) {
        self.durable.write(w.off, &w.data);
    }

    /// Consumes one log entry; `true` means stop (first violation under
    /// `stop_on_first`, or the single requested state was checked).
    fn step(&mut self, entry: &LogEntry, out: &mut TestOutcome) -> bool {
        let oracle = self.oracle;
        match entry {
            LogEntry::Marker(Marker::SyscallBegin(OpRecord { seq, .. })) => {
                self.started = true;
                self.cur_op = Some(*seq);
                false
            }
            LogEntry::Marker(Marker::SyscallEnd { seq, .. }) => {
                self.cur_op = None;
                self.last_done = Some(*seq);
                let op = &self.workload.ops[*seq];
                let cur = oracle.after(*seq);
                if !op.is_mutating() {
                    false
                } else if self.guarantees.strong {
                    // Synchrony: the completed op must already be durable,
                    // whichever in-flight writes made it.
                    let check = CheckKind::Synchrony { cur };
                    self.visit(*seq, CrashPhase::AfterSyscall, &check, true, out)
                } else if op.kind() == SyscallKind::Sync {
                    let check = CheckKind::WeakFsync { cur, target: None };
                    self.visit(*seq, CrashPhase::AfterFsync, &check, true, out)
                } else if op.kind() == SyscallKind::Fsync {
                    let target = self.rec[*seq].target.as_deref();
                    let check = CheckKind::WeakFsync { cur, target };
                    self.visit(*seq, CrashPhase::AfterFsync, &check, true, out)
                } else {
                    false
                }
            }
            // eADR fences order stores that are already durable: the state
            // here equals the state after the last store, checked there.
            LogEntry::Fence if self.cfg.eadr => false,
            LogEntry::Fence => {
                let stop = self.started
                    && self.guarantees.strong
                    && !self.in_flight.is_empty()
                    && self.visit_mid_op(false, out);
                for w in std::mem::take(&mut self.in_flight) {
                    self.persist(&w);
                }
                stop
            }
            e => {
                let Some(w) = PendingWrite::from_entry(e) else { return false };
                if !self.cfg.eadr {
                    self.in_flight.push(w);
                    return false;
                }
                // Persistent caches: durable on landing, and the instant
                // after any store is a crash state of its own.
                self.persist(&w);
                self.started && self.guarantees.strong && self.visit_mid_op(true, out)
            }
        }
    }

    /// A crash point that is not a syscall boundary: atomicity of the op in
    /// progress, or — for deferred work between syscalls — synchrony of the
    /// last completed op. Under eADR the one state is the durable image
    /// itself (and non-mutating ops are not checked); at a fence the states
    /// are the non-empty subsets of the in-flight writes.
    fn visit_mid_op(&mut self, eadr: bool, out: &mut TestOutcome) -> bool {
        let oracle = self.oracle;
        match (self.cur_op, self.last_done) {
            (Some(seq), _) => {
                let op = &self.workload.ops[seq];
                if eadr && !op.is_mutating() {
                    return false;
                }
                let relax = atomicity_relax(op, self.rec[seq].target.as_deref(), self.guarantees);
                let check = CheckKind::Atomicity {
                    prev: oracle.before(seq),
                    cur: oracle.after(seq),
                    relax,
                };
                self.visit(seq, CrashPhase::DuringSyscall, &check, eadr, out)
            }
            (None, Some(seq)) => {
                let check = CheckKind::Synchrony { cur: oracle.after(seq) };
                self.visit(seq, CrashPhase::AfterSyscall, &check, eadr, out)
            }
            (None, None) => false,
        }
    }

    /// Checks every crash state of one crash point: the bare durable image
    /// when `with_bare`, then each enumerated subset of the in-flight
    /// writes replayed onto it.
    fn visit(
        &mut self,
        seq: usize,
        phase: CrashPhase,
        check: &CheckKind<'_>,
        with_bare: bool,
        out: &mut TestOutcome,
    ) -> bool {
        let point = out.crash_points;
        out.crash_points += 1;
        out.inflight_sizes.push(self.in_flight.len());
        if self.only.is_some_and(|(p, _)| p != point) {
            return false;
        }
        let writes =
            if self.cfg.coalesce_data { coalesce(&self.in_flight) } else { self.in_flight.clone() };

        let subsets: Vec<Vec<usize>> = match self.only {
            Some((_, s)) => {
                if let Some(bad) = s.iter().find(|&&i| i >= writes.len()) {
                    self.found = Err(format!(
                        "subset index {bad} out of range ({} in-flight writes at point {point})",
                        writes.len()
                    ));
                    return true;
                }
                vec![s.to_vec()]
            }
            None => {
                let cfg = self.cfg;
                let bare = with_bare.then(Vec::new);
                bare.into_iter()
                    .chain(enumerate_subsets_ordered(
                        writes.len(),
                        cfg.cap,
                        cfg.max_states_per_point,
                        cfg.large_first_subsets,
                    ))
                    .collect()
            }
        };

        for subset in &subsets {
            out.crash_states += 1;
            let verdict =
                check_crash_state(self.kind, &self.durable, &writes, subset, check, self.cfg);
            if self.only.is_some() {
                self.found = Ok(Some(StateProbe {
                    violation: verdict,
                    op_seq: seq,
                    op_desc: self.workload.ops[seq].describe(),
                    phase,
                    n_writes: writes.len(),
                }));
                return true;
            }
            if let Some(violation) = verdict {
                push_report(
                    out,
                    BugReport {
                        workload: self.workload.name.clone(),
                        op_seq: seq,
                        op_desc: self.workload.ops[seq].describe(),
                        phase,
                        subset: describe_subset(&writes, subset),
                        point: Some(point),
                        subset_ids: subset.clone(),
                        violation,
                    },
                );
                if self.cfg.stop_on_first {
                    return true;
                }
            }
        }
        false
    }
}

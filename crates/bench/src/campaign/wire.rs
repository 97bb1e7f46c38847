//! Wire form of one workload's campaign result.
//!
//! A [`WRes`] is what the journal records per completed workload and what
//! task result files hold: the outcome counters, the crash-state /
//! coverage bitmap bits it set, its violation reports (string form), and —
//! for corpus-worthy fuzzer workloads — the wire-form ops. Serialization
//! is deterministic (field order fixed, sets sorted), so the merged
//! campaign document and its fingerprint are byte-identical however the
//! results were produced.

use chipmunk::{BugReport, TestOutcome};

use crate::jsonout::JVal;

/// JSON number from a small unsigned integer. `JVal` numbers are `f64`, so
/// this is exact only below 2^53 — counters, indices and bitmap bits all
/// are; full 64-bit hashes travel as hex strings instead.
pub(crate) fn ju(n: u64) -> JVal {
    debug_assert!(n < (1u64 << 53), "u64 too large for exact JSON number");
    JVal::Num(n as f64)
}

/// Required u64 field lookup.
pub(crate) fn jval_u64(v: &JVal, key: &str) -> Result<u64, String> {
    v.get(key).and_then(JVal::as_u64).ok_or_else(|| format!("missing/bad field {key:?}"))
}

fn jstr(v: &JVal, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JVal::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing/bad field {key:?}"))
}

/// One violation report in string form (class/detail/stage are the stable
/// strings the triage layer already keys on; the enum itself never needs to
/// be reconstructed from the store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReport {
    /// Workload name.
    pub workload: String,
    /// Index of the op whose crash point produced the state.
    pub op_seq: u64,
    /// Description of that op.
    pub op_desc: String,
    /// Crash phase (display form).
    pub phase: String,
    /// Human-readable subset description.
    pub subset: String,
    /// Crash-point ordinal, when committed by the harness.
    pub point: Option<u64>,
    /// Indices of the replayed in-flight writes.
    pub subset_ids: Vec<u64>,
    /// Violation class (stable string).
    pub class: String,
    /// Violation detail line.
    pub detail: String,
    /// Checker stage, when the violation carries one.
    pub stage: Option<String>,
}

impl WireReport {
    /// Converts a harness report.
    pub fn from_report(r: &BugReport) -> Self {
        WireReport {
            workload: r.workload.clone(),
            op_seq: r.op_seq as u64,
            op_desc: r.op_desc.clone(),
            phase: r.phase.to_string(),
            subset: r.subset.clone(),
            point: r.point,
            subset_ids: r.subset_ids.iter().map(|&i| i as u64).collect(),
            class: r.violation.class().to_string(),
            detail: r.violation.detail().to_string(),
            stage: r.violation.stage().map(|s| s.to_string()),
        }
    }

    /// Serializes the report.
    pub fn to_jval(&self) -> JVal {
        JVal::Obj(vec![
            ("workload".into(), JVal::Str(self.workload.clone())),
            ("op_seq".into(), ju(self.op_seq)),
            ("op_desc".into(), JVal::Str(self.op_desc.clone())),
            ("phase".into(), JVal::Str(self.phase.clone())),
            ("subset".into(), JVal::Str(self.subset.clone())),
            ("point".into(), self.point.map(ju).unwrap_or(JVal::Null)),
            ("subset_ids".into(), JVal::Arr(self.subset_ids.iter().map(|&i| ju(i)).collect())),
            ("class".into(), JVal::Str(self.class.clone())),
            ("detail".into(), JVal::Str(self.detail.clone())),
            (
                "stage".into(),
                self.stage.clone().map(JVal::Str).unwrap_or(JVal::Null),
            ),
        ])
    }

    /// Reconstructs a harness [`BugReport`] (for triage over merged store
    /// results). The class/detail/stage strings are the stable wire form,
    /// so the round trip is exact for every class the harness emits; an
    /// unknown class (a newer store) comes back as `RuntimeError` rather
    /// than failing the whole merge.
    pub fn to_bug_report(&self) -> BugReport {
        use chipmunk::report::{CrashPhase, Stage, Violation};
        let phase = match self.phase.as_str() {
            "after syscall" => CrashPhase::AfterSyscall,
            "after fsync" => CrashPhase::AfterFsync,
            _ => CrashPhase::DuringSyscall,
        };
        let stage = self
            .stage
            .as_deref()
            .and_then(|s| crate::repro::stage_from(s).ok())
            .unwrap_or(Stage::Worker);
        let d = || self.detail.clone();
        let violation = match self.class.as_str() {
            "unmountable" => Violation::Unmountable(d()),
            "corrupt-state" => Violation::CorruptState(d()),
            "atomicity" => Violation::AtomicityViolation(d()),
            "synchrony" => Violation::SynchronyViolation(d()),
            "unusable" => Violation::UnusableState(d()),
            "oracle-divergence" => Violation::OracleDivergence(d()),
            "recovery-panic" => Violation::RecoveryPanic { stage, payload: d() },
            "recovery-hang" => Violation::RecoveryHang { stage, payload: d() },
            _ => Violation::RuntimeError(d()),
        };
        BugReport {
            workload: self.workload.clone(),
            op_seq: self.op_seq as usize,
            op_desc: self.op_desc.clone(),
            phase,
            subset: self.subset.clone(),
            point: self.point,
            subset_ids: self.subset_ids.iter().map(|&i| i as usize).collect(),
            violation,
        }
    }

    /// Parses a report back.
    pub fn from_jval(v: &JVal) -> Result<Self, String> {
        let point = match v.get("point") {
            Some(JVal::Null) | None => None,
            Some(p) => Some(p.as_u64().ok_or("report: bad point")?),
        };
        let stage = match v.get("stage") {
            Some(JVal::Null) | None => None,
            Some(s) => Some(s.as_str().ok_or("report: bad stage")?.to_string()),
        };
        let subset_ids = v
            .get("subset_ids")
            .and_then(JVal::as_arr)
            .ok_or("report: missing subset_ids")?
            .iter()
            .map(|i| i.as_u64().ok_or_else(|| "report: bad subset id".to_string()))
            .collect::<Result<Vec<u64>, String>>()?;
        Ok(WireReport {
            workload: jstr(v, "workload")?,
            op_seq: jval_u64(v, "op_seq")?,
            op_desc: jstr(v, "op_desc")?,
            phase: jstr(v, "phase")?,
            subset: jstr(v, "subset")?,
            point,
            subset_ids,
            class: jstr(v, "class")?,
            detail: jstr(v, "detail")?,
            stage,
        })
    }
}

/// One workload's campaign result, in storable form.
#[derive(Debug, Clone, PartialEq)]
pub struct WRes {
    /// Workload name.
    pub name: String,
    /// Counters copied from [`TestOutcome`], in a fixed order (see
    /// [`COUNTER_NAMES`]).
    pub counters: [u64; 20],
    /// Sorted, deduplicated crash-state bitmap bits this workload set
    /// (folded `state_keys` — see `TestConfig::collect_state_keys`).
    pub state_bits: Vec<u64>,
    /// Sorted, deduplicated coverage bitmap bits.
    pub cov_bits: Vec<u64>,
    /// Fuzz tasks only: the exact coverage hashes this workload saw first
    /// (sorted) — replayed to rebuild the fuzzer's cumulative seen-set and
    /// feedback trajectory on resume.
    pub cov_new: Vec<u64>,
    /// Violation reports, in commit order.
    pub reports: Vec<WireReport>,
    /// Wire-form ops, kept for corpus-worthy workloads (fuzzer finds and
    /// new-coverage inputs).
    pub ops: Option<Vec<String>>,
}

/// Names of the [`WRes::counters`] slots, in order — the one declaration
/// of the layout; everything else finds a slot through [`counter_slot`]. A
/// journal or result line with any other number of counters is rejected
/// (see [`WRes::from_jval`]). The last three slots are always 0 in
/// journaled per-workload results: the in-memory harness performs no host
/// I/O, and stamping host-level numbers into `WRes` would break the
/// byte-identical-merge invariant under fault injection; real host-I/O
/// counts travel in the worker summaries and `run.json` instead.
pub const COUNTER_NAMES: [&str; 20] = [
    "crash_points",
    "crash_states",
    "dedup_hits",
    "memo_hits",
    "prefix_hits",
    "prefix_ops_saved",
    "sched_subtrees",
    "sched_subtree_max_depth",
    "recovery_panics",
    "recovery_hangs",
    "sandbox_retries",
    "fuel_exhausted",
    "rep_classes",
    "rep_skipped",
    "rep_expansions",
    "oracle_subtrees_pruned",
    "oracle_snap_bytes_shared",
    "io_retries",
    "tasks_quarantined",
    "degraded_mode",
];

/// The [`WRes::counters`] / `Merged::totals` slot of the counter called
/// `name`. Evaluated at compile time when bound to a `const`, where a name
/// that is not in [`COUNTER_NAMES`] is a build error.
pub const fn counter_slot(name: &str) -> usize {
    let mut slot = 0;
    while slot < COUNTER_NAMES.len() {
        let (a, b) = (COUNTER_NAMES[slot].as_bytes(), name.as_bytes());
        let mut i = 0;
        while i < a.len() && i < b.len() && a[i] == b[i] {
            i += 1;
        }
        if i == a.len() && i == b.len() {
            return slot;
        }
        slot += 1;
    }
    panic!("not a name in COUNTER_NAMES")
}

impl WRes {
    /// Builds the wire result from a harness outcome. `bitmap_bits` folds
    /// keys/coverage into bit indices; `cov_new` carries the exact new
    /// coverage hashes (fuzz tasks); `ops` the wire-form workload when it is
    /// corpus-worthy.
    pub fn from_outcome(
        out: &TestOutcome,
        cov: &std::collections::HashSet<u64>,
        bitmap_bits: u64,
        cov_new: Vec<u64>,
        ops: Option<Vec<String>>,
    ) -> Self {
        let mask = bitmap_bits - 1;
        let fold = |xs: &mut Vec<u64>| {
            xs.sort_unstable();
            xs.dedup();
        };
        let mut state_bits: Vec<u64> = out.state_keys.iter().map(|&k| k & mask).collect();
        fold(&mut state_bits);
        let mut cov_bits: Vec<u64> = cov.iter().map(|&h| h & mask).collect();
        fold(&mut cov_bits);
        WRes {
            name: out.workload.clone(),
            counters: [
                out.crash_points,
                out.crash_states,
                out.dedup_hits,
                out.memo_hits,
                out.prefix_hits,
                out.prefix_ops_saved,
                out.sched_subtrees,
                out.sched_subtree_max_depth,
                out.recovery_panics,
                out.recovery_hangs,
                out.sandbox_retries,
                out.fuel_exhausted,
                out.rep_classes,
                out.rep_skipped,
                out.rep_expansions,
                out.oracle_subtrees_pruned,
                out.oracle_snap_bytes_shared,
                // The host-I/O slots: see `COUNTER_NAMES`.
                0,
                0,
                0,
            ],
            state_bits,
            cov_bits,
            cov_new,
            reports: out.reports.iter().map(WireReport::from_report).collect(),
            ops,
        }
    }

    /// Serializes the result (compact, single-line via `JVal::render`).
    pub fn to_jval(&self) -> JVal {
        let bits = |xs: &[u64]| JVal::Arr(xs.iter().map(|&b| ju(b)).collect());
        let mut fields = vec![
            ("name".into(), JVal::Str(self.name.clone())),
            (
                "counters".into(),
                JVal::Arr(self.counters.iter().map(|&c| ju(c)).collect()),
            ),
            ("state_bits".into(), bits(&self.state_bits)),
            ("cov_bits".into(), bits(&self.cov_bits)),
            (
                "cov_new".into(),
                JVal::Arr(self.cov_new.iter().map(|&h| JVal::Str(format!("{h:016x}"))).collect()),
            ),
            (
                "reports".into(),
                JVal::Arr(self.reports.iter().map(WireReport::to_jval).collect()),
            ),
        ];
        if let Some(ops) = &self.ops {
            fields.push((
                "ops".into(),
                JVal::Arr(ops.iter().map(|l| JVal::Str(l.clone())).collect()),
            ));
        }
        JVal::Obj(fields)
    }

    /// Parses a result back.
    pub fn from_jval(v: &JVal) -> Result<Self, String> {
        let counters_arr = v.get("counters").and_then(JVal::as_arr).ok_or("wres: missing counters")?;
        if counters_arr.len() != COUNTER_NAMES.len() {
            return Err(format!(
                "wres: expected {} counters, got {} — the line was written under another \
                 counter layout; re-run the campaign in a fresh store",
                COUNTER_NAMES.len(),
                counters_arr.len()
            ));
        }
        let mut counters = [0u64; 20];
        for (slot, c) in counters.iter_mut().zip(counters_arr) {
            *slot = c.as_u64().ok_or("wres: bad counter")?;
        }
        let bits = |key: &str| -> Result<Vec<u64>, String> {
            v.get(key)
                .and_then(JVal::as_arr)
                .ok_or_else(|| format!("wres: missing {key}"))?
                .iter()
                .map(|b| b.as_u64().ok_or_else(|| format!("wres: bad {key} entry")))
                .collect()
        };
        let cov_new = v
            .get("cov_new")
            .and_then(JVal::as_arr)
            .ok_or("wres: missing cov_new")?
            .iter()
            .map(|h| {
                h.as_str()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| "wres: bad cov_new hash".to_string())
            })
            .collect::<Result<Vec<u64>, String>>()?;
        let reports = v
            .get("reports")
            .and_then(JVal::as_arr)
            .ok_or("wres: missing reports")?
            .iter()
            .map(WireReport::from_jval)
            .collect::<Result<Vec<_>, String>>()?;
        let ops = match v.get("ops") {
            None | Some(JVal::Null) => None,
            Some(o) => Some(
                o.as_arr()
                    .ok_or("wres: bad ops")?
                    .iter()
                    .map(|l| l.as_str().map(str::to_string).ok_or_else(|| "wres: bad op line".to_string()))
                    .collect::<Result<Vec<_>, String>>()?,
            ),
        };
        Ok(WRes {
            name: jstr(v, "name")?,
            counters,
            state_bits: bits("state_bits")?,
            cov_bits: bits("cov_bits")?,
            cov_new,
            reports,
            ops,
        })
    }
}

/// 64-bit FNV-1a — the store's fingerprint hash (stable, dependency-free).
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = if seed == 0 { 0xcbf2_9ce4_8422_2325 } else { seed };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipmunk::{CrashPhase, Violation};

    fn sample() -> WRes {
        WRes {
            name: "seq1-0007".into(),
            counters: [9, 120, 40, 3, 1, 14, 2, 3, 0, 0, 0, 0, 5, 60, 2, 180, 4096, 0, 0, 0],
            state_bits: vec![1, 5, 4095],
            cov_bits: vec![0, 77],
            cov_new: vec![0x0123_4567_89ab_cdef, u64::MAX],
            reports: vec![WireReport {
                workload: "seq1-0007".into(),
                op_seq: 2,
                op_desc: "fsync /a".into(),
                phase: CrashPhase::DuringSyscall.to_string(),
                subset: "writes {0, 3}".into(),
                point: Some(7),
                subset_ids: vec![0, 3],
                class: "atomicity".into(),
                detail: "torn directory entry".into(),
                stage: Some("compare".into()),
            }],
            ops: Some(vec!["creat /a".into(), "fsync /a".into()]),
        }
    }

    #[test]
    fn wres_round_trips_through_the_parser() {
        let w = sample();
        let line = w.to_jval().render();
        assert!(!line.contains('\n'), "journal lines must be single-line");
        let back = WRes::from_jval(&crate::jsonout::parse(&line).unwrap()).unwrap();
        assert_eq!(back, w);

        // Without ops (the common ACE case) the field is absent entirely.
        let mut no_ops = w;
        no_ops.ops = None;
        let back = WRes::from_jval(&crate::jsonout::parse(&no_ops.to_jval().render()).unwrap())
            .unwrap();
        assert_eq!(back, no_ops);

        // Any other counter count is another layout: rejected by name, never
        // zero-padded.
        let short = no_ops.to_jval().render().replace(",0,0,0]", "]");
        let err = WRes::from_jval(&crate::jsonout::parse(&short).unwrap()).unwrap_err();
        assert!(err.contains("expected 20 counters, got 17") && err.contains("re-run"), "{err}");
    }

    #[test]
    fn wres_from_outcome_folds_and_sorts() {
        let mut out = TestOutcome { workload: "w".into(), ..Default::default() };
        out.crash_points = 3;
        out.crash_states = 5;
        out.state_keys = vec![4096 + 7, 7, 9, 7]; // folds collide mod 4096
        let report = chipmunk::BugReport {
            workload: "w".into(),
            op_seq: 0,
            op_desc: "creat /f".into(),
            phase: CrashPhase::AfterFsync,
            subset: "s".into(),
            point: None,
            subset_ids: vec![1],
            violation: Violation::Unmountable("bad super".into()),
        };
        out.reports.push(report);
        let cov: std::collections::HashSet<u64> = [10u64, 4096 + 10, 3].into_iter().collect();
        let w = WRes::from_outcome(&out, &cov, 4096, vec![], None);
        assert_eq!(w.state_bits, vec![7, 9], "folded, sorted, deduplicated");
        assert_eq!(w.cov_bits, vec![3, 10]);
        assert_eq!(w.counters[counter_slot("crash_points")], 3);
        assert_eq!(w.counters[counter_slot("crash_states")], 5);
        assert_eq!(w.reports.len(), 1);
        assert_eq!(w.reports[0].class, "unmountable");
        assert_eq!(w.reports[0].point, None);
        // Stage travels only for the sandbox classes (recovery panic/hang).
        assert_eq!(w.reports[0].stage, None);
    }
}

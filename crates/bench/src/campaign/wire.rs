//! Wire form of one workload's campaign result.
//!
//! A [`WRes`] is what the journal records per completed workload and what
//! task result files hold: the outcome counters, the crash-state /
//! coverage bitmap bits it set, its violation reports, and —
//! for corpus-worthy fuzzer workloads — the wire-form ops. Serialization
//! is deterministic (field order fixed, sets sorted), so the merged
//! campaign document and its fingerprint are byte-identical however the
//! results were produced.

use chipmunk::{BugReport, TestOutcome, Violation};

use crate::jsonout::{jstr, ju, jval_u64, JVal};

/// Serializes one violation report: the wire form every journal line and
/// committed result holds. The field order is fixed, and class, stage and
/// phase travel as the strings [`chipmunk::report`] defines.
pub(crate) fn report_to_jval(r: &BugReport) -> JVal {
    JVal::obj([
        ("workload", JVal::Str(r.workload.clone())),
        ("op_seq", ju(r.op_seq as u64)),
        ("op_desc", JVal::Str(r.op_desc.clone())),
        ("phase", JVal::Str(r.phase.to_string())),
        ("subset", JVal::Str(r.subset.clone())),
        ("point", r.point.map_or(JVal::Null, ju)),
        ("subset_ids", JVal::Arr(r.subset_ids.iter().map(|&i| ju(i as u64)).collect())),
        ("class", JVal::Str(r.violation.class().to_string())),
        ("detail", JVal::Str(r.violation.detail().to_string())),
        ("stage", r.violation.stage().map_or(JVal::Null, |s| JVal::Str(s.to_string()))),
    ])
}

/// Parses a report back, exactly. An unknown class, phase or stage, or a
/// stage on a class that carries none, is an error: the line is corrupt.
pub(crate) fn report_from_jval(v: &JVal) -> Result<BugReport, String> {
    let point = match v.get("point") {
        Some(JVal::Null) | None => None,
        Some(p) => Some(p.as_u64().ok_or("report: bad point")?),
    };
    let stage = match v.get("stage") {
        Some(JVal::Null) | None => None,
        Some(s) => Some(s.as_str().ok_or("report: bad stage")?.parse()?),
    };
    let subset_ids = v
        .get("subset_ids")
        .and_then(JVal::as_arr)
        .ok_or("report: missing subset_ids")?
        .iter()
        .map(|i| i.as_u64().map(|i| i as usize).ok_or_else(|| "report: bad subset id".to_string()))
        .collect::<Result<Vec<usize>, String>>()?;
    let class = jstr(v, "class")?;
    let violation = Violation::from_class(class, stage, jstr(v, "detail")?)
        .ok_or_else(|| format!("report: no class {class:?} with stage {stage:?}"))?;
    Ok(BugReport {
        workload: jstr(v, "workload")?.to_string(),
        op_seq: jval_u64(v, "op_seq")? as usize,
        op_desc: jstr(v, "op_desc")?.to_string(),
        phase: jstr(v, "phase")?.parse()?,
        subset: jstr(v, "subset")?.to_string(),
        point,
        subset_ids,
        violation,
    })
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
    pub reports: Vec<BugReport>,
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
            reports: out.reports.clone(),
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
                JVal::Arr(self.reports.iter().map(report_to_jval).collect()),
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
            .map(report_from_jval)
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
            name: jstr(v, "name")?.to_string(),
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
    use chipmunk::{CrashPhase, Stage};

    fn sample() -> WRes {
        WRes {
            name: "seq1-0007".into(),
            counters: [9, 120, 40, 3, 1, 14, 2, 3, 0, 0, 0, 0, 5, 60, 2, 180, 4096, 0, 0, 0],
            state_bits: vec![1, 5, 4095],
            cov_bits: vec![0, 77],
            cov_new: vec![0x0123_4567_89ab_cdef, u64::MAX],
            reports: vec![BugReport {
                workload: "seq1-0007".into(),
                op_seq: 2,
                op_desc: "fsync /a".into(),
                phase: CrashPhase::DuringSyscall,
                subset: "writes {0, 3}".into(),
                point: Some(7),
                subset_ids: vec![0, 3],
                violation: Violation::RecoveryPanic {
                    stage: Stage::Compare,
                    payload: "torn directory entry".into(),
                },
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

    /// Every violation class, both sandbox classes at every stage, every
    /// phase, and `point` absent and present.
    fn wire_cases() -> Vec<BugReport> {
        let r = |violation, phase, point, subset_ids: Vec<usize>| BugReport {
            workload: "seq2-0042".into(),
            op_seq: 3,
            op_desc: "rename(/A/foo, /B/bar)".into(),
            phase,
            subset: format!("writes {subset_ids:?}"),
            point,
            subset_ids,
            violation,
        };
        use CrashPhase::*;
        use Violation::*;
        let torn = "/B/bar missing \"expected\"\n\tneither old nor new";
        let (lost, diverged) = ("/A/foo lost after fsync", "rename returned Ok, oracle ENOENT");
        let mut v = vec![
            r(Unmountable("bad superblock magic 0x0".into()), DuringSyscall, Some(17), vec![0, 3]),
            r(CorruptState("unreadable inode 12".into()), DuringSyscall, Some(0), vec![]),
            r(AtomicityViolation(torn.into()), DuringSyscall, Some(9_007_199_254_740_991), vec![1]),
            r(SynchronyViolation(lost.into()), AfterSyscall, Some(4), vec![0, 1, 2]),
            r(UnusableState("creat(/probe) failed: ENOSPC".into()), AfterFsync, None, vec![2]),
            r(OracleDivergence(diverged.into()), AfterSyscall, None, vec![]),
            r(RuntimeError("BUG(): é質🦀 \\ \u{1}".into()), DuringSyscall, None, vec![]),
        ];
        let stages = [Stage::Mount, Stage::Walk, Stage::Compare, Stage::Probe, Stage::Worker];
        for (i, stage) in stages.into_iter().enumerate() {
            let payload = format!("{stage} payload");
            let panic = RecoveryPanic { stage, payload: payload.clone() };
            v.push(r(panic, DuringSyscall, Some(i as u64), vec![i]));
            v.push(r(RecoveryHang { stage, payload }, AfterSyscall, None, vec![]));
        }
        v
    }

    /// The wire bytes of [`wire_cases`], one per case. Every committed
    /// result and journal line holds these bytes and the campaign
    /// fingerprints hash them: a change here is a store format change.
    const WIRE_GOLDEN: [&str; 17] = [
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes [0, 3]","point":17,"subset_ids":[0,3],"class":"unmountable","detail":"bad superblock magic 0x0","stage":null}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes []","point":0,"subset_ids":[],"class":"corrupt-state","detail":"unreadable inode 12","stage":null}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes [1]","point":9007199254740991,"subset_ids":[1],"class":"atomicity","detail":"/B/bar missing \"expected\"\n\tneither old nor new","stage":null}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"after syscall","subset":"writes [0, 1, 2]","point":4,"subset_ids":[0,1,2],"class":"synchrony","detail":"/A/foo lost after fsync","stage":null}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"after fsync","subset":"writes [2]","point":null,"subset_ids":[2],"class":"unusable","detail":"creat(/probe) failed: ENOSPC","stage":null}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"after syscall","subset":"writes []","point":null,"subset_ids":[],"class":"oracle-divergence","detail":"rename returned Ok, oracle ENOENT","stage":null}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes []","point":null,"subset_ids":[],"class":"runtime-error","detail":"BUG(): é質🦀 \\ \u0001","stage":null}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes [0]","point":0,"subset_ids":[0],"class":"recovery-panic","detail":"mount payload","stage":"mount"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"after syscall","subset":"writes []","point":null,"subset_ids":[],"class":"recovery-hang","detail":"mount payload","stage":"mount"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes [1]","point":1,"subset_ids":[1],"class":"recovery-panic","detail":"walk payload","stage":"walk"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"after syscall","subset":"writes []","point":null,"subset_ids":[],"class":"recovery-hang","detail":"walk payload","stage":"walk"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes [2]","point":2,"subset_ids":[2],"class":"recovery-panic","detail":"compare payload","stage":"compare"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"after syscall","subset":"writes []","point":null,"subset_ids":[],"class":"recovery-hang","detail":"compare payload","stage":"compare"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes [3]","point":3,"subset_ids":[3],"class":"recovery-panic","detail":"probe payload","stage":"probe"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"after syscall","subset":"writes []","point":null,"subset_ids":[],"class":"recovery-hang","detail":"probe payload","stage":"probe"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"during syscall","subset":"writes [4]","point":4,"subset_ids":[4],"class":"recovery-panic","detail":"worker payload","stage":"worker"}"#,
        r#"{"workload":"seq2-0042","op_seq":3,"op_desc":"rename(/A/foo, /B/bar)","phase":"after syscall","subset":"writes []","point":null,"subset_ids":[],"class":"recovery-hang","detail":"worker payload","stage":"worker"}"#,
    ];

    #[test]
    fn reports_keep_their_wire_bytes_and_parse_back_exactly() {
        let cases = wire_cases();
        assert_eq!(cases.len(), WIRE_GOLDEN.len());
        for (r, golden) in cases.iter().zip(WIRE_GOLDEN) {
            assert_eq!(report_to_jval(r).render(), golden);
            let back = report_from_jval(&crate::jsonout::parse(golden).unwrap());
            assert_eq!(back.as_ref(), Ok(r), "{golden}");
        }
        // A string the report module does not define makes the line
        // corrupt; nothing falls back to a default.
        for (from, to) in [
            (r#""class":"unmountable""#, r#""class":"torn-write""#),
            (r#""phase":"during syscall""#, r#""phase":"before syscall""#),
            (r#""stage":"mount""#, r#""stage":"liftoff""#),
            (r#""stage":"mount""#, r#""stage":null"#),
            (r#""stage":null"#, r#""stage":"walk""#),
        ] {
            let golden = WIRE_GOLDEN.iter().find(|g| g.contains(from)).unwrap();
            let bad = golden.replace(from, to);
            let err = report_from_jval(&crate::jsonout::parse(&bad).unwrap()).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
        }
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
        out.reports.push(report.clone());
        let cov: std::collections::HashSet<u64> = [10u64, 4096 + 10, 3].into_iter().collect();
        let w = WRes::from_outcome(&out, &cov, 4096, vec![], None);
        assert_eq!(w.state_bits, vec![7, 9], "folded, sorted, deduplicated");
        assert_eq!(w.cov_bits, vec![3, 10]);
        assert_eq!(w.counters[counter_slot("crash_points")], 3);
        assert_eq!(w.counters[counter_slot("crash_states")], 5);
        assert_eq!(w.reports, vec![report]);
    }
}

//! Bug reports and triage.
//!
//! Chipmunk emits a report per detected inconsistency with enough detail to
//! reproduce it: the workload, the system call, the crash point, the subset
//! of in-flight writes replayed, and the violated property. Fuzzing
//! campaigns produce many duplicates (multiple crash states trigger the same
//! bug), so [`triage`] clusters reports by lexical similarity, as the
//! paper's extended Syzkaller does (§3.4.2).

use std::collections::BTreeSet;

/// Where the simulated crash was injected relative to the system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// In the middle of a system call (atomicity is checked).
    DuringSyscall,
    /// After the system call returned (synchrony is checked).
    AfterSyscall,
    /// After an fsync-family call on a weak-guarantee file system.
    AfterFsync,
}

impl std::fmt::Display for CrashPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashPhase::DuringSyscall => write!(f, "during syscall"),
            CrashPhase::AfterSyscall => write!(f, "after syscall"),
            CrashPhase::AfterFsync => write!(f, "after fsync"),
        }
    }
}

impl std::str::FromStr for CrashPhase {
    type Err = String;

    /// The inverse of `Display`.
    fn from_str(s: &str) -> Result<Self, String> {
        [CrashPhase::DuringSyscall, CrashPhase::AfterSyscall, CrashPhase::AfterFsync]
            .into_iter()
            .find(|p| p.to_string() == s)
            .ok_or_else(|| format!("unknown crash phase {s:?}"))
    }
}

/// The checker stage a sandboxed failure was caught in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Mounting the crash state (file-system recovery).
    Mount,
    /// Walking the recovered tree.
    Walk,
    /// Comparing the recovered tree against the oracle states.
    Compare,
    /// The usability probe.
    Probe,
    /// A harness worker thread, outside any per-stage guard.
    Worker,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Mount => write!(f, "mount"),
            Stage::Walk => write!(f, "walk"),
            Stage::Compare => write!(f, "compare"),
            Stage::Probe => write!(f, "probe"),
            Stage::Worker => write!(f, "worker"),
        }
    }
}

impl std::str::FromStr for Stage {
    type Err = String;

    /// The inverse of `Display`.
    fn from_str(s: &str) -> Result<Self, String> {
        [Stage::Mount, Stage::Walk, Stage::Compare, Stage::Probe, Stage::Worker]
            .into_iter()
            .find(|st| st.to_string() == s)
            .ok_or_else(|| format!("unknown stage {s:?}"))
    }
}

/// The consistency property a crash state violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The file system refused to mount the crash state.
    Unmountable(String),
    /// Mounting succeeded but reading the tree surfaced corruption
    /// (unreadable file or directory, failed checksum, ...).
    CorruptState(String),
    /// A crash during a syscall left a state matching neither the
    /// before-state nor the after-state.
    AtomicityViolation(String),
    /// A crash after a syscall lost some of its supposedly durable effects.
    SynchronyViolation(String),
    /// The mounted state could not be exercised (create/delete probe
    /// failed).
    UnusableState(String),
    /// The recorded run and the oracle run disagreed on a syscall result —
    /// a functional (non-crash) divergence.
    OracleDivergence(String),
    /// The file system reported an internal invariant violation during the
    /// recorded run (KASAN/BUG() analogue).
    RuntimeError(String),
    /// The file system panicked while the sandbox was checking a crash state
    /// (the in-process analogue of a kernel oops during recovery — several of
    /// the paper's 23 bugs are exactly this).
    RecoveryPanic {
        /// The checker stage the panic unwound from.
        stage: Stage,
        /// The panic message.
        payload: String,
    },
    /// Recovery exceeded its deterministic fuel budget — the simulated-op
    /// analogue of a recovery loop that never terminates.
    RecoveryHang {
        /// The checker stage the watchdog fired in.
        stage: Stage,
        /// Human-readable description including the exhausted budget.
        payload: String,
    },
}

impl Violation {
    /// Short class name (stable; used as the primary triage key).
    pub fn class(&self) -> &'static str {
        match self {
            Violation::Unmountable(_) => "unmountable",
            Violation::CorruptState(_) => "corrupt-state",
            Violation::AtomicityViolation(_) => "atomicity",
            Violation::SynchronyViolation(_) => "synchrony",
            Violation::UnusableState(_) => "unusable",
            Violation::OracleDivergence(_) => "oracle-divergence",
            Violation::RuntimeError(_) => "runtime-error",
            Violation::RecoveryPanic { .. } => "recovery-panic",
            Violation::RecoveryHang { .. } => "recovery-hang",
        }
    }

    /// The inverse of [`Self::class`], [`Self::stage`] and [`Self::detail`]:
    /// `None` for an unknown class, and for a stage on a class that carries
    /// none or a sandbox class without one.
    pub fn from_class(class: &str, stage: Option<Stage>, detail: &str) -> Option<Violation> {
        let d = detail.to_string();
        Some(match (class, stage) {
            ("unmountable", None) => Violation::Unmountable(d),
            ("corrupt-state", None) => Violation::CorruptState(d),
            ("atomicity", None) => Violation::AtomicityViolation(d),
            ("synchrony", None) => Violation::SynchronyViolation(d),
            ("unusable", None) => Violation::UnusableState(d),
            ("oracle-divergence", None) => Violation::OracleDivergence(d),
            ("runtime-error", None) => Violation::RuntimeError(d),
            ("recovery-panic", Some(stage)) => Violation::RecoveryPanic { stage, payload: d },
            ("recovery-hang", Some(stage)) => Violation::RecoveryHang { stage, payload: d },
            _ => return None,
        })
    }

    /// The detail message.
    pub fn detail(&self) -> &str {
        match self {
            Violation::Unmountable(s)
            | Violation::CorruptState(s)
            | Violation::AtomicityViolation(s)
            | Violation::SynchronyViolation(s)
            | Violation::UnusableState(s)
            | Violation::OracleDivergence(s)
            | Violation::RuntimeError(s) => s,
            Violation::RecoveryPanic { payload, .. }
            | Violation::RecoveryHang { payload, .. } => payload,
        }
    }

    /// The stage a sandboxed failure was caught in, for the sandbox classes.
    pub fn stage(&self) -> Option<Stage> {
        match self {
            Violation::RecoveryPanic { stage, .. } | Violation::RecoveryHang { stage, .. } => {
                Some(*stage)
            }
            _ => None,
        }
    }
}

/// One detected inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugReport {
    /// Workload name.
    pub workload: String,
    /// Index of the system call the crash point belongs to.
    pub op_seq: usize,
    /// Description of that system call.
    pub op_desc: String,
    /// Crash point position.
    pub phase: CrashPhase,
    /// Which in-flight writes were replayed to build the state.
    pub subset: String,
    /// Global crash-point ordinal (the value of the crash-point counter when
    /// this point was visited). Identifies the exact fence within `op_seq`,
    /// which the shrinker and repro bundles need for single-state replay.
    pub point: Option<u64>,
    /// Indices into the coalesced in-flight write list that were replayed to
    /// build the state (the machine-readable form of `subset`).
    pub subset_ids: Vec<usize>,
    /// The violated property.
    pub violation: Violation,
}

impl BugReport {
    /// Renders the report as the multi-line text form shown to users.
    pub fn to_text(&self) -> String {
        format!(
            "BUG: {} violation\n  workload: {}\n  crash point: {} {} (op #{})\n  replayed \
             writes: {}\n  detail: {}\n",
            self.violation.class(),
            self.workload,
            self.phase,
            self.op_desc,
            self.op_seq,
            self.subset,
            self.violation.detail()
        )
    }

    fn tokens(&self) -> BTreeSet<String> {
        let mut t: BTreeSet<String> = BTreeSet::new();
        t.insert(format!("class:{}", self.violation.class()));
        if let Some(stage) = self.violation.stage() {
            t.insert(format!("stage:{stage}"));
        }
        for w in self.op_desc.split(|c: char| !c.is_alphanumeric() && c != '/') {
            if !w.is_empty() {
                t.insert(w.to_string());
            }
        }
        for w in self
            .violation
            .detail()
            .split(|c: char| !c.is_alphanumeric() && c != '/')
        {
            // Skip pure numbers: offsets and sizes vary between duplicates
            // of the same bug.
            if !w.is_empty() && !w.chars().all(|c| c.is_ascii_digit()) {
                t.insert(w.to_string());
            }
        }
        t
    }
}

fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    inter / union
}

/// Clusters reports by lexical similarity (greedy single-link, Jaccard over
/// word tokens). Returns clusters as index lists; reports within a cluster
/// are likely duplicates of one root cause.
pub fn triage(reports: &[BugReport], threshold: f64) -> Vec<Vec<usize>> {
    let toks: Vec<BTreeSet<String>> = reports.iter().map(|r| r.tokens()).collect();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for i in 0..reports.len() {
        let mut placed = false;
        for c in clusters.iter_mut() {
            if c.iter().any(|&j| {
                // Gate on the class AND the sandbox stage: a recovery panic
                // caught at mount and one caught during the walk are distinct
                // failure modes even when their payloads read alike.
                reports[i].violation.class() == reports[j].violation.class()
                    && reports[i].violation.stage() == reports[j].violation.stage()
                    && jaccard(&toks[i], &toks[j]) >= threshold
            }) {
                c.push(i);
                placed = true;
                break;
            }
        }
        if !placed {
            clusters.push(vec![i]);
        }
    }
    clusters
}

/// Picks the minimal exemplar of a triage cluster: the report reached through
/// the fewest workload ops, breaking ties by fewest replayed writes and then
/// by position. Shrunk repros (short workloads, small subsets) win over the
/// raw finds they minimize, so each bug class surfaces its smallest witness.
pub fn exemplar(reports: &[BugReport], cluster: &[usize]) -> usize {
    *cluster
        .iter()
        .min_by_key(|&&i| (reports[i].op_seq, reports[i].subset_ids.len(), i))
        .expect("exemplar of empty cluster")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(class: u8, op: &str, detail: &str) -> BugReport {
        BugReport {
            workload: "w".into(),
            op_seq: 0,
            op_desc: op.into(),
            phase: CrashPhase::DuringSyscall,
            subset: "[]".into(),
            point: None,
            subset_ids: Vec::new(),
            violation: match class {
                0 => Violation::AtomicityViolation(detail.into()),
                1 => Violation::SynchronyViolation(detail.into()),
                _ => Violation::Unmountable(detail.into()),
            },
        }
    }

    #[test]
    fn near_duplicates_cluster_together() {
        let reports = vec![
            report(0, "rename(/foo, /bar)", "/bar missing (expected to exist)"),
            report(0, "rename(/foo, /baz)", "/baz missing (expected to exist)"),
            report(2, "truncate(/f, 100)", "journal entry address out of range"),
        ];
        let clusters = triage(&reports, 0.4);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![0, 1]);
        assert_eq!(clusters[1], vec![2]);
    }

    #[test]
    fn different_classes_never_merge() {
        let reports = vec![
            report(0, "link(/a, /b)", "x y z"),
            report(1, "link(/a, /b)", "x y z"),
        ];
        assert_eq!(triage(&reports, 0.1).len(), 2);
    }

    #[test]
    fn numbers_are_ignored_as_tokens() {
        let a = report(0, "pwrite(/f, off=0, n=100)", "contents differ at offset 4096");
        let b = report(0, "pwrite(/f, off=8192, n=200)", "contents differ at offset 64");
        assert_eq!(triage(&[a, b], 0.5).len(), 1);
    }

    #[test]
    fn sandbox_classes_are_stable() {
        let p = Violation::RecoveryPanic { stage: Stage::Mount, payload: "boom".into() };
        let h = Violation::RecoveryHang { stage: Stage::Walk, payload: "out of fuel".into() };
        // These strings are persisted in JSON baselines and matched by CI
        // smoke assertions; changing them is a breaking change.
        assert_eq!(p.class(), "recovery-panic");
        assert_eq!(h.class(), "recovery-hang");
        assert_eq!(p.detail(), "boom");
        assert_eq!(h.detail(), "out of fuel");
        assert_eq!(p.stage(), Some(Stage::Mount));
        assert_eq!(h.stage(), Some(Stage::Walk));
        assert_eq!(Violation::RuntimeError("x".into()).stage(), None);
    }

    #[test]
    fn class_stage_and_phase_strings_parse_back() {
        let d = || "detail \"x\"".to_string();
        let stages = [Stage::Mount, Stage::Walk, Stage::Compare, Stage::Probe, Stage::Worker];
        let mut all = vec![
            Violation::Unmountable(d()),
            Violation::CorruptState(d()),
            Violation::AtomicityViolation(d()),
            Violation::SynchronyViolation(d()),
            Violation::UnusableState(d()),
            Violation::OracleDivergence(d()),
            Violation::RuntimeError(d()),
        ];
        for stage in stages {
            all.push(Violation::RecoveryPanic { stage, payload: d() });
            all.push(Violation::RecoveryHang { stage, payload: d() });
        }
        for v in all {
            assert_eq!(Violation::from_class(v.class(), v.stage(), v.detail()), Some(v.clone()));
            // A stage where the class carries none, or none where it does.
            let flipped = match v.stage() {
                Some(_) => None,
                None => Some(Stage::Mount),
            };
            assert_eq!(Violation::from_class(v.class(), flipped, v.detail()), None, "{v:?}");
        }
        assert_eq!(Violation::from_class("torn-write", None, "x"), None);
        assert_eq!(Violation::from_class("recovery-crash", Some(Stage::Mount), "x"), None);
        for s in stages {
            assert_eq!(s.to_string().parse::<Stage>(), Ok(s));
        }
        for p in [CrashPhase::DuringSyscall, CrashPhase::AfterSyscall, CrashPhase::AfterFsync] {
            assert_eq!(p.to_string().parse::<CrashPhase>(), Ok(p));
        }
        assert!("liftoff".parse::<Stage>().is_err());
        assert!("before syscall".parse::<CrashPhase>().is_err());
    }

    #[test]
    fn chaos_findings_triage_like_ordinary_violations() {
        let sandbox = |stage, payload: &str, hang: bool| BugReport {
            workload: "w".into(),
            op_seq: 0,
            op_desc: "creat(/foo)".into(),
            phase: CrashPhase::DuringSyscall,
            subset: "[]".into(),
            point: None,
            subset_ids: Vec::new(),
            violation: if hang {
                Violation::RecoveryHang { stage, payload: payload.into() }
            } else {
                Violation::RecoveryPanic { stage, payload: payload.into() }
            },
        };
        let reports = vec![
            sandbox(Stage::Mount, "mount: journal replay deref null entry", false),
            sandbox(Stage::Mount, "mount: journal replay deref null entry", false),
            sandbox(Stage::Mount, "mount: recovery exceeded fuel budget", true),
            report(0, "creat(/foo)", "file missing after crash"),
        ];
        let clusters = triage(&reports, 0.4);
        // Duplicate panics merge; panic vs hang vs atomicity never merge,
        // even with identical op descriptions (class-gated).
        assert_eq!(clusters, vec![vec![0, 1], vec![2], vec![3]]);
    }

    #[test]
    fn same_class_different_stage_never_merges() {
        // Regression: the class gate alone let a recovery panic at mount and
        // one during the walk dedup into a single group when their payloads
        // were similar enough.
        let at = |stage| BugReport {
            workload: "w".into(),
            op_seq: 0,
            op_desc: "rename(/a, /b)".into(),
            phase: CrashPhase::DuringSyscall,
            subset: "[]".into(),
            point: None,
            subset_ids: Vec::new(),
            violation: Violation::RecoveryPanic {
                stage,
                payload: "journal replay deref null entry".into(),
            },
        };
        let reports = vec![at(Stage::Mount), at(Stage::Walk), at(Stage::Mount)];
        let clusters = triage(&reports, 0.1);
        assert_eq!(clusters, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn exemplar_prefers_fewest_ops_then_smallest_subset() {
        let mut a = report(0, "rename(/foo, /bar)", "/bar missing");
        a.op_seq = 7;
        a.subset_ids = vec![0, 1, 2];
        let mut b = report(0, "rename(/foo, /baz)", "/baz missing");
        b.op_seq = 2;
        b.subset_ids = vec![0, 1];
        let mut c = report(0, "rename(/foo, /qux)", "/qux missing");
        c.op_seq = 2;
        c.subset_ids = vec![0];
        let reports = vec![a, b, c];
        assert_eq!(exemplar(&reports, &[0, 1, 2]), 2);
        assert_eq!(exemplar(&reports, &[0, 1]), 1);
        assert_eq!(exemplar(&reports, &[0]), 0);
    }

    #[test]
    fn report_text_contains_key_fields() {
        let r = report(2, "mkdir(/d)", "bad magic");
        let t = r.to_text();
        assert!(t.contains("unmountable"));
        assert!(t.contains("mkdir(/d)"));
        assert!(t.contains("bad magic"));
    }
}

//! The reference checker validated against ground truth rather than against
//! the production code it exists to check: the committed repro bundles and
//! the injected-bug corpus pin, state by state, what a correct checker must
//! flag.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use bench::{dispatch, hunt_with_ace, mode_for, HuntResult, ReproBundle, WithKind};
use chipmunk::{
    check_one_state, harness::audit_skips, reference, shrink::matches_class, test_workload,
    BugReport, StateProbe, TestConfig, Violation,
};
use vfs::{
    bugs::{bug_table, BugInfo},
    fs::{FsKind, FsOptions},
    BugSet, FsName, Workload,
};
use workloads::ace::seq1;

/// The reference's verdict on one pinned crash state.
struct OneState<'a>(&'a ReproBundle);

impl WithKind for OneState<'_> {
    type Out = Result<Option<Violation>, String>;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let b = self.0;
        reference::check_state(&kind, &b.workload, &b.cfg, b.point, &b.subset)
    }
}

/// Every bundle under `repros/` names one crash state and the violation
/// class a shrunk production find had there; the reference must flag that
/// exact `(point, subset)` with that class.
#[test]
fn reference_flags_every_committed_repro_bundle() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../repros");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("repros/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 7, "the seven committed bundles: {paths:?}");
    for path in paths {
        let name = path.display().to_string();
        let b = ReproBundle::load(&name).unwrap_or_else(|e| panic!("{name}: {e}"));
        let opts = FsOptions::with_bugs(BugSet::only(&b.bugs));
        let v = dispatch(b.fs, opts, OneState(&b))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .unwrap_or_else(|| panic!("{name}: the reference finds the pinned state consistent"));
        assert!(
            matches_class(&b.expect_class, b.expect_stage, &v),
            "{name}: expected {} @ {:?}, the reference reports {v:?}",
            b.expect_class,
            b.expect_stage
        );
    }
}

/// The reference's first report on one workload.
struct FirstReport<'a>(&'a Workload, &'a TestConfig);

impl WithKind for FirstReport<'_> {
    type Out = Option<BugReport>;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        reference::check_workload(&kind, self.0, self.1).reports.into_iter().next()
    }
}

/// The hunts' stop-on-first config.
fn hunt_cfg() -> TestConfig {
    TestConfig { stop_on_first: true, ..TestConfig::default() }
}

/// Production's ACE hunt find for each of the 19 ACE-findable unique corpus
/// bugs, hunted once per test binary.
fn ace_finds() -> &'static [(&'static BugInfo, HuntResult)] {
    static FINDS: OnceLock<Vec<(&'static BugInfo, HuntResult)>> = OnceLock::new();
    FINDS.get_or_init(|| {
        let mut seen_groups = BTreeSet::new();
        let finds: Vec<_> = bug_table()
            .iter()
            .filter(|b| seen_groups.insert(b.fix_group) && b.ace_findable)
            .map(|info| {
                let (hit, _, _) = hunt_with_ace(info.id, &hunt_cfg(), 400);
                let hit = hit.unwrap_or_else(|| {
                    panic!("bug {}: production's ACE hunt must find it", info.id.number())
                });
                (info, hit)
            })
            .collect();
        assert_eq!(finds.len(), 19, "the ACE-findable unique bugs");
        finds
    })
}

/// Each of the 19 ACE-findable corpus bugs, on the workload production's
/// hunt found it with: the reference must stop at the same system call with
/// the same violation class.
#[test]
fn reference_finds_the_ace_corpus_where_production_does() {
    let cfg = hunt_cfg();
    for (info, hit) in ace_finds() {
        let bug = info.id.number();
        let opts = FsOptions::with_bugs(BugSet::only(&[info.id]));
        let r = dispatch(info.fs, opts, FirstReport(&hit.workload, &cfg))
            .unwrap_or_else(|| panic!("bug {bug}: the reference misses {}", hit.workload.name));
        assert_eq!(
            (r.op_seq, r.violation.class()),
            (hit.report.op_seq, hit.report.violation.class()),
            "bug {bug} on {}: reference {r:?} vs production {:?}",
            hit.workload.name,
            hit.report
        );
    }
}

/// Every crash-state report production gives on one workload, each paired
/// with `check_one_state`'s replay of that one state.
struct Replayed<'a>(&'a Workload, &'a TestConfig);

impl WithKind for Replayed<'_> {
    type Out = Vec<(BugReport, Result<StateProbe, String>)>;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let (w, cfg) = (self.0, self.1);
        let reports = test_workload(&kind, w, cfg).reports;
        reports
            .into_iter()
            .filter_map(|r| {
                let probe = check_one_state(&kind, w, cfg, r.point?, &r.subset_ids);
                Some((r, probe))
            })
            .collect()
    }
}

/// Single-state replay re-targets production's reports: on each ACE corpus
/// find, every report of a full (not stop-on-first) production run replays
/// through `check_one_state` to the same class, system call and phase.
#[test]
fn check_one_state_replays_every_production_report_on_the_ace_corpus() {
    let cfg = TestConfig::default();
    for (info, hit) in ace_finds() {
        let bug = info.id.number();
        let opts = FsOptions::with_bugs(BugSet::only(&[info.id]));
        let replayed = dispatch(info.fs, opts, Replayed(&hit.workload, &cfg));
        assert!(!replayed.is_empty(), "bug {bug}: no crash-state report on {}", hit.workload.name);
        for (r, probe) in replayed {
            let p = probe.unwrap_or_else(|e| panic!("bug {bug}: {r:?} does not replay: {e}"));
            let v = p.violation.as_ref().map(Violation::class);
            assert_eq!(
                (v, p.op_seq, p.op_desc.as_str(), p.phase),
                (Some(r.violation.class()), r.op_seq, r.op_desc.as_str(), r.phase),
                "bug {bug} on {}: production {r:?} vs single-state {p:?}",
                hit.workload.name
            );
        }
    }
}

/// The skip audit's totals over one file system's ACE seq-1 suite: hash
/// hits (dedup and memo), footprint skips, class skips, and class skips the
/// literal check finds violated.
struct Audited(FsName);

impl WithKind for Audited {
    type Out = [u64; 4];

    fn call<K: FsKind>(self, kind: K) -> [u64; 4] {
        let cfg = TestConfig::default();
        let mut total = [0; 4];
        for w in seq1(mode_for(self.0)) {
            let (out, a) = audit_skips(&kind, &w, &cfg);
            assert!(out.dedup_hits + out.memo_hits <= a.hash_hits, "{}", w.name);
            assert_eq!(out.rep_skipped, a.footprint_skips + a.class_skips, "{}", w.name);
            let counts = [a.hash_hits, a.footprint_skips, a.class_skips, a.class_violated];
            total.iter_mut().zip(counts).for_each(|(t, c)| *t += c);
        }
        total
    }
}

/// Every crash state of ACE seq-1 that production does not check from
/// scratch, on all seven file systems, fixed and as released, is checked
/// the literal way as well. The audit itself asserts that each dedup and
/// memo hit has the literal verdict and an image that digests as the one
/// its key was first seen with, and that each footprint skip is literally
/// clean. Class skips are lossy by design: none hides a violation on the
/// fixed systems, and the as-released count is pinned.
#[test]
fn skip_audit_holds_on_ace_seq1() {
    let all = [
        FsName::Nova,
        FsName::NovaFortis,
        FsName::Pmfs,
        FsName::WineFs,
        FsName::SplitFs,
        FsName::Ext4Dax,
        FsName::XfsDax,
    ];
    for (bugs, label) in [(BugSet::fixed(), "fixed"), (BugSet::as_released(), "as released")] {
        let mut total = [0u64; 4];
        for fs in all {
            let n = dispatch(fs, FsOptions::with_bugs(bugs), Audited(fs));
            eprintln!("{label} {fs}: hash hits, footprint skips, class skips, violated: {n:?}");
            total.iter_mut().zip(n).for_each(|(t, c)| *t += c);
        }
        assert!(total[0] > 0 && total[1] > 0 && total[2] > 0, "{label}: {total:?}");
        // Of the 15 class skips on the fixed systems and the 17 as
        // released, none hides a violation.
        assert_eq!(total[3], 0, "{label}: class skips hiding a violation");
    }
}

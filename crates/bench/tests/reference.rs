//! The reference checker validated against ground truth rather than against
//! the production code it exists to check: the committed repro bundles and
//! the injected-bug corpus pin, state by state, what a correct checker must
//! flag.

use std::collections::BTreeSet;

use bench::{dispatch, hunt_with_ace, ReproBundle, WithKind};
use chipmunk::{reference, shrink::matches_class, BugReport, TestConfig, Violation};
use vfs::{
    bugs::bug_table,
    fs::{FsKind, FsOptions},
    BugSet, Workload,
};

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

/// Each of the 19 ACE-findable corpus bugs, on the workload production's
/// hunt found it with: the reference must stop at the same system call with
/// the same violation class.
#[test]
fn reference_finds_the_ace_corpus_where_production_does() {
    let cfg = TestConfig { stop_on_first: true, ..TestConfig::default() };
    let mut seen_groups = BTreeSet::new();
    let mut checked = 0;
    for info in bug_table().iter().filter(|b| seen_groups.insert(b.fix_group)) {
        if !info.ace_findable {
            continue;
        }
        let bug = info.id.number();
        let (hit, _, _) = hunt_with_ace(info.id, &cfg, 400);
        let hit = hit.unwrap_or_else(|| panic!("bug {bug}: production's ACE hunt must find it"));
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
        checked += 1;
    }
    assert_eq!(checked, 19, "the ACE-findable unique bugs");
}

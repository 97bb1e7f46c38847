//! Self-contained repro bundles: everything needed to re-check one crash
//! state of one workload on one (buggy) file system with one command.
//!
//! A bundle pins the *semantic* inputs of a finding — file system, injected
//! bug set, workload ops (wire form), crash-point ordinal, replayed write
//! subset, and the outcome-affecting [`TestConfig`] knobs — plus the expected
//! violation class/stage, so `hunt --repro bundle.json` can replay it and
//! assert the verdict. Pure performance knobs (threads, caches, scoped
//! checking) are deliberately not persisted: they are observationally
//! identical, so a bundle replays to the same verdict under any of them.

use chipmunk::{
    check_one_state, shrink,
    shrink::{matches_class, ShrinkStats},
    BugReport, Stage, TestConfig,
};
use vfs::{
    fs::{FsKind, FsOptions},
    BugId, BugSet, FsName, Workload,
};

use crate::{
    campaign::hostio::{RecoveryAction, StoreError},
    dispatch,
    jsonout::{self, JVal, Json},
    WithKind,
};

/// Current bundle format version (the `chipmunk_repro` field).
pub const BUNDLE_VERSION: u64 = 1;

/// A one-command repro: one crash state plus its expected verdict.
#[derive(Debug, Clone)]
pub struct ReproBundle {
    /// Target file system.
    pub fs: FsName,
    /// Injected bugs present during the run.
    pub bugs: Vec<BugId>,
    /// The workload (name + ops).
    pub workload: Workload,
    /// Global crash-point ordinal within the workload's recorded run.
    pub point: u64,
    /// Indices (into the point's in-flight writes) replayed on the base
    /// image to form the crash state.
    pub subset: Vec<usize>,
    /// Seed of the hunt that produced the finding (provenance only; the
    /// replay is fully determined by the fields above).
    pub seed: u64,
    /// Semantic harness knobs the replay must run under.
    pub cfg: TestConfig,
    /// Expected violation class ([`chipmunk::Violation::class`]).
    pub expect_class: String,
    /// Expected checker stage, for classes that carry one (sandbox
    /// verdicts).
    pub expect_stage: Option<Stage>,
}

/// Verdict of replaying a bundle.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Class of the violation the replayed state produced ("none" if the
    /// state checked clean).
    pub class: String,
    /// Stage of the violation, when it carries one.
    pub stage: Option<Stage>,
    /// One-line violation detail (empty if clean).
    pub detail: String,
    /// Whether class and stage match the bundle's expectation.
    pub ok: bool,
}

pub(crate) fn stage_from(s: &str) -> Result<Stage, String> {
    match s {
        "mount" => Ok(Stage::Mount),
        "walk" => Ok(Stage::Walk),
        "compare" => Ok(Stage::Compare),
        "probe" => Ok(Stage::Probe),
        "worker" => Ok(Stage::Worker),
        _ => Err(format!("unknown stage {s:?}")),
    }
}

impl ReproBundle {
    /// Builds a bundle from a hunt finding. The report must carry a
    /// crash-point ordinal (every committed harness report does).
    pub fn from_report(
        fs: FsName,
        bugs: &[BugId],
        workload: &Workload,
        report: &BugReport,
        cfg: &TestConfig,
        seed: u64,
    ) -> Result<ReproBundle, String> {
        let point = report
            .point
            .ok_or_else(|| "report carries no crash-point ordinal".to_string())?;
        Ok(ReproBundle {
            fs,
            bugs: bugs.to_vec(),
            workload: workload.clone(),
            point,
            subset: report.subset_ids.clone(),
            seed,
            cfg: cfg.clone(),
            expect_class: report.violation.class().to_string(),
            expect_stage: report.violation.stage(),
        })
    }

    /// Renders the bundle as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("chipmunk_repro", Json::U(BUNDLE_VERSION)),
            ("fs", Json::S(self.fs.to_string())),
            (
                "bugs",
                Json::Arr(self.bugs.iter().map(|b| Json::U(b.number() as u64)).collect()),
            ),
            (
                "workload",
                Json::Obj(vec![
                    ("name", Json::S(self.workload.name.clone())),
                    (
                        "ops",
                        Json::Arr(
                            self.workload.to_wire_lines().into_iter().map(Json::S).collect(),
                        ),
                    ),
                ]),
            ),
            (
                "crash",
                Json::Obj(vec![
                    ("point", Json::U(self.point)),
                    (
                        "subset",
                        Json::Arr(self.subset.iter().map(|&i| Json::U(i as u64)).collect()),
                    ),
                ]),
            ),
            ("seed", Json::U(self.seed)),
            (
                "config",
                Json::Obj(
                    self.cfg
                        .semantic_knobs()
                        .into_iter()
                        .map(|(k, v)| (k, Json::S(v)))
                        .collect(),
                ),
            ),
            (
                "expect",
                Json::Obj(vec![
                    ("class", Json::S(self.expect_class.clone())),
                    (
                        "stage",
                        match self.expect_stage {
                            Some(s) => Json::S(s.to_string()),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
        ])
    }

    /// Parses a bundle from JSON text. Version mismatches, unknown file
    /// systems / bugs / knobs / stages, and missing fields are all errors —
    /// a bundle must replay exactly or fail loudly.
    pub fn parse(text: &str) -> Result<ReproBundle, String> {
        let doc = jsonout::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field {key:?}"));
        let version = field("chipmunk_repro")?
            .as_u64()
            .ok_or("chipmunk_repro must be an integer")?;
        if version != BUNDLE_VERSION {
            return Err(format!(
                "bundle version {version} unsupported (this build reads {BUNDLE_VERSION})"
            ));
        }
        let fs: FsName = field("fs")?
            .as_str()
            .ok_or("fs must be a string")?
            .parse()?;
        let mut bugs = Vec::new();
        for b in field("bugs")?.as_arr().ok_or("bugs must be an array")? {
            let n = b.as_u64().ok_or("bug numbers must be integers")?;
            let id = *BugId::ALL
                .iter()
                .find(|id| id.number() as u64 == n)
                .ok_or_else(|| format!("unknown bug number {n}"))?;
            bugs.push(id);
        }
        let wl = field("workload")?;
        let name = wl
            .get("name")
            .and_then(JVal::as_str)
            .ok_or("workload.name must be a string")?;
        let lines: Vec<&str> = wl
            .get("ops")
            .and_then(JVal::as_arr)
            .ok_or("workload.ops must be an array")?
            .iter()
            .map(|l| l.as_str().ok_or("workload.ops entries must be strings"))
            .collect::<Result<_, _>>()?;
        let workload = Workload::from_wire_lines(name, &lines)?;
        let crash = field("crash")?;
        let point = crash
            .get("point")
            .and_then(JVal::as_u64)
            .ok_or("crash.point must be an integer")?;
        let subset: Vec<usize> = crash
            .get("subset")
            .and_then(JVal::as_arr)
            .ok_or("crash.subset must be an array")?
            .iter()
            .map(|i| i.as_u64().map(|i| i as usize).ok_or("crash.subset entries must be integers"))
            .collect::<Result<_, _>>()?;
        let seed = field("seed")?.as_u64().ok_or("seed must be an integer")?;
        let mut cfg = TestConfig::default();
        match field("config")? {
            JVal::Obj(fields) => {
                for (k, v) in fields {
                    let v = v.as_str().ok_or_else(|| format!("config.{k} must be a string"))?;
                    cfg.set_knob(k, v)?;
                }
            }
            _ => return Err("config must be an object".into()),
        }
        let expect = field("expect")?;
        let expect_class = expect
            .get("class")
            .and_then(JVal::as_str)
            .ok_or("expect.class must be a string")?
            .to_string();
        let expect_stage = match expect.get("stage") {
            Some(JVal::Null) | None => None,
            Some(v) => Some(stage_from(v.as_str().ok_or("expect.stage must be a string")?)?),
        };
        Ok(ReproBundle {
            fs,
            bugs,
            workload,
            point,
            subset,
            seed,
            cfg,
            expect_class,
            expect_stage,
        })
    }

    /// Writes the bundle to `path` (atomically, with parent-dir fsync).
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        jsonout::write_atomic(path, &self.to_json().render())
    }

    /// Reads and parses a bundle from `path`. A malformed bundle comes back
    /// as [`StoreError::Corrupt`] naming the file, the byte offset (when
    /// the parser pinned one), and the recovery action — `hunt --repro`
    /// maps that to exit code 2 (distinct from a reproducible-but-failed
    /// replay, which exits 1).
    pub fn load(path: &str) -> Result<ReproBundle, StoreError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| StoreError::fatal(format!("{path}: {e}")))?;
        ReproBundle::parse(&text)
            .map_err(|e| StoreError::corrupt(std::path::Path::new(path), e, RecoveryAction::Fatal))
    }

    /// Replays the bundle: re-runs the workload's oracle and recorded run,
    /// rebuilds exactly the pinned crash state, checks it, and compares the
    /// verdict against the expectation. Deterministic — repeated calls give
    /// identical outcomes.
    pub fn replay(&self) -> Result<ReplayOutcome, String> {
        let opts = FsOptions::with_bugs(BugSet::only(&self.bugs));
        dispatch(self.fs, opts, Replay { bundle: self })
    }
}

struct Replay<'a> {
    bundle: &'a ReproBundle,
}

impl WithKind for Replay<'_> {
    type Out = Result<ReplayOutcome, String>;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        let b = self.bundle;
        let probe = check_one_state(&kind, &b.workload, &b.cfg, b.point, &b.subset)?;
        Ok(match probe.violation {
            Some(v) => ReplayOutcome {
                ok: matches_class(&b.expect_class, b.expect_stage, &v),
                class: v.class().to_string(),
                stage: v.stage(),
                detail: v.detail().to_string(),
            },
            None => ReplayOutcome {
                class: "none".into(),
                stage: None,
                detail: String::new(),
                ok: false,
            },
        })
    }
}

/// Shrinks a hunt finding with [`chipmunk::shrink`] and packages the
/// minimized pair as a bundle. Returns the bundle plus the shrink work
/// counters.
pub fn shrink_to_bundle(
    fs: FsName,
    bugs: &[BugId],
    workload: &Workload,
    report: &BugReport,
    cfg: &TestConfig,
    seed: u64,
) -> Result<(ReproBundle, ShrinkStats), String> {
    let opts = FsOptions::with_bugs(BugSet::only(bugs));
    let shrunk = dispatch(fs, opts, ShrinkRun { workload, report, cfg })?;
    let bundle = ReproBundle::from_report(fs, bugs, &shrunk.workload, &shrunk.report, cfg, seed)?;
    Ok((bundle, shrunk.stats))
}

struct ShrinkRun<'a> {
    workload: &'a Workload,
    report: &'a BugReport,
    cfg: &'a TestConfig,
}

impl WithKind for ShrinkRun<'_> {
    type Out = Result<chipmunk::Shrunk, String>;

    fn call<K: FsKind>(self, kind: K) -> Self::Out {
        shrink(&kind, self.workload, self.report, self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hunt_with_ace;

    fn find_bug4() -> (ReproBundle, TestConfig) {
        let cfg = TestConfig { stop_on_first: true, ..TestConfig::default() };
        let (hit, _, _) = hunt_with_ace(BugId::B04, &cfg, 0);
        let hit = hit.expect("bug 4 must fall to ACE");
        let bundle = ReproBundle::from_report(
            BugId::B04.info().fs,
            &[BugId::B04],
            &hit.workload,
            &hit.report,
            &cfg,
            0,
        )
        .expect("committed reports carry a crash point");
        (bundle, cfg)
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let (bundle, cfg) = find_bug4();
        let text = bundle.to_json().render();
        let back = ReproBundle::parse(&text).expect("round trip parses");
        assert_eq!(back.fs, bundle.fs);
        assert_eq!(back.bugs, bundle.bugs);
        assert_eq!(back.workload.name, bundle.workload.name);
        assert_eq!(back.workload.ops, bundle.workload.ops);
        assert_eq!(back.point, bundle.point);
        assert_eq!(back.subset, bundle.subset);
        assert_eq!(back.seed, bundle.seed);
        assert_eq!(back.cfg.semantic_knobs(), cfg.semantic_knobs());
        assert_eq!(back.expect_class, bundle.expect_class);
        assert_eq!(back.expect_stage, bundle.expect_stage);
        // And the rendered form is stable (byte-identical re-render).
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn replay_reproduces_the_finding_deterministically() {
        let (bundle, _) = find_bug4();
        let a = bundle.replay().expect("replay runs");
        assert!(a.ok, "expected {} got {} ({})", bundle.expect_class, a.class, a.detail);
        let b = bundle.replay().expect("replay runs twice");
        assert_eq!(a.class, b.class);
        assert_eq!(a.detail, b.detail);
    }

    #[test]
    fn shrunk_bundle_is_monotone_and_still_reproduces() {
        let (bundle, cfg) = find_bug4();
        let (small, stats) = shrink_to_bundle(
            bundle.fs,
            &bundle.bugs,
            &bundle.workload,
            // Rebuild the report shape the shrinker wants from the bundle.
            &{
                let out = bundle.replay().unwrap();
                assert!(out.ok);
                chipmunk::BugReport {
                    workload: bundle.workload.name.clone(),
                    op_seq: 0,
                    op_desc: String::new(),
                    phase: chipmunk::CrashPhase::DuringSyscall,
                    subset: String::new(),
                    point: Some(bundle.point),
                    subset_ids: bundle.subset.clone(),
                    violation: chipmunk::Violation::AtomicityViolation(out.detail),
                }
            },
            &cfg,
            0,
        )
        .expect("shrink succeeds");
        assert!(small.workload.ops.len() <= bundle.workload.ops.len());
        assert!(small.subset.len() <= bundle.subset.len());
        assert_eq!(stats.ops_after, small.workload.ops.len());
        // The shrunk ops are a subsequence of the originals.
        let mut it = bundle.workload.ops.iter();
        assert!(small.workload.ops.iter().all(|op| it.any(|o| o == op)));
        assert!(small.replay().unwrap().ok);
    }

    #[test]
    fn parse_rejects_broken_bundles() {
        let (bundle, _) = find_bug4();
        let good = bundle.to_json().render();
        for (needle, replacement, why) in [
            ("\"chipmunk_repro\": 1", "\"chipmunk_repro\": 99", "future version"),
            ("\"NOVA\"", "\"btrfs\"", "unknown fs"),
            ("\"bugs\": [\n    4\n  ]", "\"bugs\": [\n    26\n  ]", "unknown bug"),
            ("\"device_size\"", "\"warp_factor\"", "unknown knob"),
            ("\"stage\": null", "\"stage\": \"liftoff\"", "unknown stage"),
            ("\"seed\": 0", "\"seed\": true", "non-integer seed"),
        ] {
            assert!(good.contains(needle), "test fixture drifted: {needle:?} not found");
            let bad = good.replace(needle, replacement);
            assert!(ReproBundle::parse(&bad).is_err(), "{why} should be rejected");
        }
    }
}

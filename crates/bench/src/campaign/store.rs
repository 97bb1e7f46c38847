//! The on-disk campaign store and the per-task journal.
//!
//! Layout of a store directory:
//!
//! ```text
//! store.json               # version + CampaignSpec (write_atomic)
//! journal/task-<n>.log     # append-only: plan line + one line per workload
//! leases/task-<n>.lease    # claim files (see queue.rs)
//! results/task-<n>.json    # committed task result, one line per workload
//!                          # (presence = complete)
//! quarantine/              # corrupt artifacts moved aside (task re-run)
//! corpus/<name>.json       # corpus-worthy fuzz workloads, wire form
//! coverage/state.bits      # persistent crash-state bitmap
//! coverage/cov.bits        # persistent coverage bitmap
//! campaign.json            # deterministic merged document + fingerprint
//! run.json                 # nondeterministic run info (wall time, resumes)
//! ```
//!
//! Every filesystem touch goes through the store's [`HostCtx`]
//! ([`super::hostio`]): atomic documents via [`HostCtx::write_atomic`],
//! journal lines via the rollback-protected [`HostCtx::append_line`]. A
//! torn tail line (the half-written checkpoint of a SIGKILL'd worker) is
//! detected by the parser and truncated away before the successor appends;
//! a committed result that does not parse is **quarantined** (moved to
//! `quarantine/`), failing only its own task, which is then re-leased and
//! re-run.

use std::path::{Path, PathBuf};

use crate::jsonout::{self, ju, JVal};

use super::hostio::{HostCtx, RecoveryAction, StoreError};
use super::wire::WRes;
use super::CampaignSpec;

/// Store format version (`store.json`'s `chipmunk_campaign` field). Version
/// 2 commits task results as JSON lines; version 1 held one JSON array.
pub const STORE_VERSION: u64 = 2;

/// An open campaign store.
#[derive(Debug)]
pub struct CampaignStore {
    /// Root directory.
    pub dir: PathBuf,
    /// The campaign spec (immutable once the store is initialised).
    pub spec: CampaignSpec,
    /// The host-I/O context every store touch goes through.
    pub io: HostCtx,
}

impl CampaignStore {
    /// [`Self::open_or_init_with`] over the real filesystem.
    pub fn open_or_init(dir: &Path, spec: &CampaignSpec) -> Result<Self, StoreError> {
        Self::open_or_init_with(dir, spec, HostCtx::passthrough())
    }

    /// Initialises a fresh store at `dir` (creating directories) or opens
    /// the existing one. When the store exists, `spec` must match the
    /// persisted spec exactly — a campaign's population is immutable.
    pub fn open_or_init_with(
        dir: &Path,
        spec: &CampaignSpec,
        io: HostCtx,
    ) -> Result<Self, StoreError> {
        if io.exists(&dir.join("store.json")) {
            let store = Self::open_with(dir, io)?;
            if store.spec != *spec {
                return Err(StoreError::fatal(format!(
                    "store {} holds a different campaign spec; use --resume to continue it \
                     or point --store at a fresh directory",
                    dir.display()
                )));
            }
            return Ok(store);
        }
        for sub in ["journal", "leases", "results", "corpus", "coverage"] {
            io.create_dir_all(&dir.join(sub))?;
        }
        let doc = JVal::Obj(vec![
            ("chipmunk_campaign".into(), ju(STORE_VERSION)),
            ("spec".into(), spec.to_jval()),
        ]);
        io.write_atomic(&dir.join("store.json"), (doc.render() + "\n").as_bytes())?;
        Ok(CampaignStore { dir: dir.to_path_buf(), spec: spec.clone(), io })
    }

    /// [`Self::open_with`] over the real filesystem.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        Self::open_with(dir, HostCtx::passthrough())
    }

    /// Opens an existing store, parsing and validating `store.json`.
    /// `store.json` has no quarantine path — a campaign without its spec
    /// cannot be continued, so corruption here is fatal.
    pub fn open_with(dir: &Path, io: HostCtx) -> Result<Self, StoreError> {
        let path = dir.join("store.json");
        let text = io
            .read_to_string_opt(&path)?
            .ok_or_else(|| StoreError::fatal(format!("{}: no such store", path.display())))?;
        let doc = jsonout::parse(&text)
            .map_err(|e| StoreError::corrupt(&path, e, RecoveryAction::Fatal))?;
        let version = doc.get("chipmunk_campaign").and_then(JVal::as_u64).ok_or_else(|| {
            StoreError::fatal(format!("{}: not a campaign store", path.display()))
        })?;
        if version != STORE_VERSION {
            return Err(StoreError::fatal(format!(
                "{}: store version {version} (this build reads {STORE_VERSION})",
                path.display()
            )));
        }
        let spec_val = doc
            .get("spec")
            .ok_or_else(|| StoreError::fatal(format!("{}: missing spec", path.display())))?;
        let spec = CampaignSpec::from_jval(spec_val)
            .map_err(|e| StoreError::corrupt(&path, e, RecoveryAction::Fatal))?;
        Ok(CampaignStore { dir: dir.to_path_buf(), spec, io })
    }

    /// Path of task `id`'s journal.
    pub fn journal_path(&self, id: usize) -> PathBuf {
        self.dir.join("journal").join(format!("task-{id}.log"))
    }

    /// Path of task `id`'s lease file.
    pub fn lease_path(&self, id: usize) -> PathBuf {
        self.dir.join("leases").join(format!("task-{id}.lease"))
    }

    /// Path of task `id`'s committed result.
    pub fn result_path(&self, id: usize) -> PathBuf {
        self.dir.join("results").join(format!("task-{id}.json"))
    }

    /// Whether task `id` has a committed result.
    pub fn result_exists(&self, id: usize) -> bool {
        self.io.exists(&self.result_path(id))
    }

    /// Commits task `id`'s results atomically (the completion marker): one
    /// compact [`WRes`] per line, the bytes its journal line's `res` holds.
    pub fn write_result(&self, id: usize, results: &[WRes]) -> Result<(), StoreError> {
        let mut text = String::new();
        for res in results {
            text.push_str(&res.to_jval().render());
            text.push('\n');
        }
        self.io.write_atomic(&self.result_path(id), text.as_bytes())
    }

    /// Loads task `id`'s committed results, or `None` if not yet complete.
    /// A result that does not parse, or holds another number of workloads
    /// than the task, surfaces as [`StoreError::Corrupt`] with the file and
    /// byte offset; the artifact is left in place (see
    /// [`Self::load_result_verified`] for the quarantining loader).
    pub fn load_result(&self, id: usize) -> Result<Option<Vec<WRes>>, StoreError> {
        let path = self.result_path(id);
        let Some(text) = self.io.read_to_string_opt(&path)? else {
            return Ok(None);
        };
        self.parse_results(id, &text, RecoveryAction::Fatal).map(Some)
    }

    /// Like [`Self::load_result`], but a corrupt artifact is **moved to
    /// `quarantine/`** before the error returns: the task loses its
    /// completion marker, so the normal claim loop re-leases and re-runs
    /// it — a bad result file fails one task, never the whole campaign.
    /// Returns the committed text with the results, line for line.
    pub fn load_result_verified(
        &self,
        id: usize,
    ) -> Result<Option<(String, Vec<WRes>)>, StoreError> {
        let path = self.result_path(id);
        let Some(text) = self.io.read_to_string_opt(&path)? else {
            return Ok(None);
        };
        match self.parse_results(id, &text, RecoveryAction::Quarantined) {
            Ok(results) => Ok(Some((text, results))),
            Err(e) => {
                self.quarantine_result(id)?;
                Err(e)
            }
        }
    }

    /// Parses task `id`'s committed text, reporting corruption with its
    /// byte offset and the recovery `action` the caller is about to take.
    /// Every line must be whole, and there must be one per workload of the
    /// task: a file cut at a line boundary still parses line by line.
    fn parse_results(
        &self,
        id: usize,
        text: &str,
        action: RecoveryAction,
    ) -> Result<Vec<WRes>, StoreError> {
        let path = self.result_path(id);
        let corrupt = |at: usize, e: String| {
            StoreError::corrupt(&path, format!("line at byte {at}: {e}"), action)
        };
        let mut results = Vec::new();
        let mut at = 0;
        for line in text.split_inclusive('\n') {
            let Some(body) = line.strip_suffix('\n') else {
                return Err(corrupt(at, "unterminated line".into()));
            };
            let res = jsonout::parse(body).and_then(|v| WRes::from_jval(&v));
            results.push(res.map_err(|e| corrupt(at, e))?);
            at += line.len();
        }
        let want = self.spec.task_len(id);
        if results.len() != want {
            return Err(corrupt(at, format!("{} results, the task has {want}", results.len())));
        }
        Ok(results)
    }

    /// Moves task `id`'s committed result into `quarantine/` (for corrupt
    /// artifacts; the task will be re-run by the next claim pass).
    pub fn quarantine_result(&self, id: usize) -> Result<(), StoreError> {
        let qdir = self.dir.join("quarantine");
        self.io.create_dir_all(&qdir)?;
        let from = self.result_path(id);
        let to = qdir.join(format!("task-{id}.json.corrupt-{}", self.io.tasks_quarantined()));
        self.io.rename(&from, &to)?;
        self.io.note_quarantine();
        Ok(())
    }
}

/// What a journal recovery found: the plan signature line (if any) and the
/// completed workloads, keyed by their batch index within the task.
#[derive(Debug, Default)]
pub struct JournalState {
    /// The recorded plan signature, when a valid plan line exists.
    pub plan_sig: Option<u64>,
    /// Completed workloads by batch index (first writer wins; duplicate
    /// appends from a raced lease are byte-identical by determinism).
    pub done: std::collections::BTreeMap<usize, WRes>,
    /// Byte length of the valid prefix (a torn tail is truncated to this
    /// before appending).
    pub valid_len: u64,
}

/// An open per-task journal: recover once, then append checkpoints.
/// Appends are path-based through the store's [`HostCtx`], so a torn
/// append is rolled back before a retry (see [`HostCtx::append_line`]).
pub struct TaskJournal {
    io: HostCtx,
    path: PathBuf,
    /// Checkpoints appended through this handle (test observability).
    pub appended: u64,
}

impl TaskJournal {
    /// Reads a journal, tolerating a torn tail: lines are consumed while
    /// they parse; the first unparsable or unterminated line ends recovery
    /// (everything before it is intact — each append is one `write` of one
    /// `\n`-terminated line). This covers every crash shape the torture
    /// suite sweeps: a zero-length file left by a crashed create recovers
    /// empty; a torn plan-signature line discards the whole journal (no
    /// valid prefix exists); duplicate checkpoint indices keep the first
    /// writer's line; an interleaved line from a stale same-path writer
    /// that does not parse as a checkpoint ends the valid prefix there. A
    /// plan-signature mismatch (the spec changed the batch under the
    /// journal — should be impossible; defense in depth) discards the
    /// journal entirely.
    pub fn recover(io: &HostCtx, path: &Path, expect_sig: u64) -> Result<JournalState, StoreError> {
        let mut st = JournalState::default();
        let Some(bytes) = io.read_opt(path)? else {
            return Ok(st);
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut consumed = 0usize;
        for line in text.split_inclusive('\n') {
            if !line.ends_with('\n') {
                break; // torn tail
            }
            let Ok(v) = jsonout::parse(line.trim_end()) else {
                break;
            };
            if st.plan_sig.is_none() {
                // First line must be the plan signature.
                let Some(sig) = v
                    .get("plan")
                    .and_then(JVal::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                else {
                    break;
                };
                if sig != expect_sig {
                    return Ok(JournalState::default());
                }
                st.plan_sig = Some(sig);
            } else {
                let Some(i) = v.get("i").and_then(JVal::as_u64) else {
                    break;
                };
                let Some(res) = v.get("res").and_then(|r| WRes::from_jval(r).ok()) else {
                    break;
                };
                st.done.entry(i as usize).or_insert(res);
            }
            consumed += line.len();
        }
        st.valid_len = consumed as u64;
        Ok(st)
    }

    /// Opens the journal for appending, truncating a torn tail to
    /// `valid_len` first. When the journal is empty/new, writes the plan
    /// line.
    pub fn open(
        io: &HostCtx,
        path: &Path,
        state: &JournalState,
        plan_sig: u64,
    ) -> Result<Self, StoreError> {
        if let Some(len) = io.file_len(path)? {
            if len != state.valid_len {
                io.set_len(path, state.valid_len)?;
            }
        }
        let mut j = TaskJournal { io: io.clone(), path: path.to_path_buf(), appended: 0 };
        if state.plan_sig.is_none() {
            j.append_line(&JVal::Obj(vec![(
                "plan".into(),
                JVal::Str(format!("{plan_sig:016x}")),
            )]))?;
        }
        Ok(j)
    }

    /// Appends one completed workload checkpoint and fsyncs, so a kill
    /// after this call can lose at most work that postdates the checkpoint.
    pub fn checkpoint(&mut self, batch_index: usize, res: &WRes) -> Result<(), StoreError> {
        self.append_line(&JVal::Obj(vec![
            ("i".into(), ju(batch_index as u64)),
            ("res".into(), res.to_jval()),
        ]))?;
        self.appended += 1;
        Ok(())
    }

    fn append_line(&mut self, v: &JVal) -> Result<(), StoreError> {
        let mut line = v.render();
        line.push('\n');
        // One write per line: a torn line can only be the very tail.
        self.io.append_line(&self.path, line.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("chipmunk-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn wres(name: &str) -> WRes {
        WRes {
            name: name.into(),
            counters: [1; 20],
            state_bits: vec![2],
            cov_bits: vec![],
            cov_new: vec![],
            reports: vec![],
            ops: None,
        }
    }

    fn ctx() -> HostCtx {
        HostCtx::passthrough()
    }

    #[test]
    fn store_init_open_and_spec_mismatch() {
        let dir = tmpdir("init");
        let spec = CampaignSpec { seq1_take: 4, batch: 2, ..CampaignSpec::default() };
        let s = CampaignStore::open_or_init(&dir, &spec).unwrap();
        assert_eq!(CampaignStore::open(&dir).unwrap().spec, spec);
        // Reopening with the same spec is fine; a different one is refused.
        CampaignStore::open_or_init(&dir, &spec).unwrap();
        let other = CampaignSpec { seq1_take: 5, ..spec.clone() };
        let err = CampaignStore::open_or_init(&dir, &other).unwrap_err();
        assert!(err.to_string().contains("different"));
        assert_eq!(err.exit_code(), 1);
        // Results round-trip, and absence is None not an error.
        assert!(s.load_result(0).unwrap().is_none());
        s.write_result(0, &[wres("a"), wres("b")]).unwrap();
        let back = s.load_result(0).unwrap().unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].name, "b");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_result_is_quarantined_and_reports_offset() {
        let dir = tmpdir("quar");
        let s = CampaignStore::open_or_init(&dir, &CampaignSpec::default()).unwrap();
        let task: Vec<WRes> = (0..s.spec.task_len(3)).map(|i| wres(&format!("w{i}"))).collect();
        s.write_result(3, &task).unwrap();
        assert_eq!(s.load_result(3).unwrap().unwrap(), task);
        // Garble the committed artifact: truncate it mid-line.
        let text = std::fs::read_to_string(s.result_path(3)).unwrap();
        std::fs::write(s.result_path(3), &text[..text.len() / 2]).unwrap();

        // The plain loader reports file + offset but leaves the artifact.
        let err = s.load_result(3).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("task-3.json") && msg.contains("byte"), "{msg}");
        assert!(s.result_exists(3));

        // The verified loader quarantines: the completion marker is gone,
        // the corrupt bytes are preserved aside, and the action is named.
        let err = s.load_result_verified(3).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        assert!(!s.result_exists(3), "quarantine must clear the completion marker");
        assert_eq!(s.io.tasks_quarantined(), 1);
        let q = std::fs::read_dir(dir.join("quarantine")).unwrap().count();
        assert_eq!(q, 1, "the corrupt artifact must be preserved for inspection");
        // The task can be re-committed afterwards, and the verified loader
        // hands back the committed lines with their results.
        s.write_result(3, &task).unwrap();
        let (text, back) = s.load_result_verified(3).unwrap().unwrap();
        assert_eq!(back, task);
        let lines: Vec<String> = task.iter().map(|r| r.to_jval().render() + "\n").collect();
        assert_eq!(text, lines.concat());

        // A file cut at a line boundary parses line by line; it is corrupt
        // because it holds fewer workloads than the task.
        std::fs::write(s.result_path(3), lines[1..].concat()).unwrap();
        let msg = s.load_result(3).unwrap_err().to_string();
        let want = format!("{} results, the task has {}", task.len() - 1, task.len());
        assert!(msg.contains(&want), "{msg}");

        // A well-formed result written under another counter layout is
        // corrupt too, and the error says which layout this build reads.
        std::fs::write(s.result_path(3), text.replace("[1,1,1,", "[")).unwrap();
        let err = s.load_result(3).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("expected 20 counters, got 17") && msg.contains("re-run"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_of_another_version_is_refused() {
        let dir = tmpdir("version");
        let spec = CampaignSpec::default();
        CampaignStore::open_or_init(&dir, &spec).unwrap();
        let text = std::fs::read_to_string(dir.join("store.json")).unwrap();
        let v1 = text.replace(
            &format!("\"chipmunk_campaign\":{STORE_VERSION}"),
            "\"chipmunk_campaign\":1",
        );
        assert_ne!(v1, text);
        std::fs::write(dir.join("store.json"), v1).unwrap();
        let err = CampaignStore::open_or_init(&dir, &spec).unwrap_err();
        assert!(err.to_string().contains("store version 1 (this build reads 2)"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_recovers_and_truncates_torn_tail() {
        let dir = tmpdir("journal");
        let path = dir.join("task-0.log");
        let sig = 0xabcdu64;
        let io = ctx();

        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert!(st.plan_sig.is_none() && st.done.is_empty());
        let mut j = TaskJournal::open(&io, &path, &st, sig).unwrap();
        j.checkpoint(0, &wres("w0")).unwrap();
        j.checkpoint(1, &wres("w1")).unwrap();
        drop(j);

        // Simulate a SIGKILL mid-append: a torn half line at the tail.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"i\":2,\"res\":{\"name\":\"to").unwrap();
        drop(f);

        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert_eq!(st.plan_sig, Some(sig));
        assert_eq!(st.done.len(), 2);
        assert_eq!(st.done[&1].name, "w1");
        // Appending truncates the torn tail; the next recovery sees 3 clean
        // checkpoints.
        let mut j = TaskJournal::open(&io, &path, &st, sig).unwrap();
        j.checkpoint(2, &wres("w2")).unwrap();
        drop(j);
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert_eq!(st.done.len(), 3);

        // A different plan signature discards everything.
        let st = TaskJournal::recover(&io, &path, sig + 1).unwrap();
        assert!(st.plan_sig.is_none() && st.done.is_empty() && st.valid_len == 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_keeps_first_writer_on_duplicate_checkpoint_indices() {
        let dir = tmpdir("dup");
        let path = dir.join("task-0.log");
        let sig = 0x1111u64;
        let io = ctx();
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        let mut j = TaskJournal::open(&io, &path, &st, sig).unwrap();
        j.checkpoint(0, &wres("first")).unwrap();
        drop(j);
        // A raced second lease-holder appends the same index again (by
        // determinism the payload would be byte-identical in production;
        // here it differs to prove which line wins).
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        let dup = JVal::Obj(vec![("i".into(), ju(0)), ("res".into(), wres("second").to_jval())]);
        writeln!(f, "{}", dup.render()).unwrap();
        drop(f);
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert_eq!(st.done.len(), 1);
        assert_eq!(st.done[&0].name, "first", "first writer must win");
        // Both lines are part of the valid prefix: nothing is truncated.
        assert_eq!(st.valid_len, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_stops_at_interleaved_stale_writer_line() {
        let dir = tmpdir("stale");
        let path = dir.join("task-0.log");
        let sig = 0x2222u64;
        let io = ctx();
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        let mut j = TaskJournal::open(&io, &path, &st, sig).unwrap();
        j.checkpoint(0, &wres("w0")).unwrap();
        drop(j);
        let good_len = std::fs::metadata(&path).unwrap().len();
        // A stale writer still holding the old fd appends a line that is
        // valid JSON but not a checkpoint (a second plan line), then a
        // checkpoint. The valid prefix must end before the foreign line —
        // everything after it is suspect and gets truncated by reopen.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "{{\"plan\":\"{:016x}\"}}", sig).unwrap();
        let tail = JVal::Obj(vec![("i".into(), ju(1)), ("res".into(), wres("w1").to_jval())]);
        writeln!(f, "{}", tail.render()).unwrap();
        drop(f);
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert_eq!(st.done.len(), 1, "only the pre-interleave checkpoint survives");
        assert_eq!(st.valid_len, good_len);
        let j = TaskJournal::open(&io, &path, &st, sig).unwrap();
        drop(j);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len, "reopen truncates");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_discards_torn_plan_signature_line() {
        let dir = tmpdir("tornplan");
        let path = dir.join("task-0.log");
        let sig = 0x3333u64;
        let io = ctx();
        // The very first append died mid-line: no terminated plan line
        // exists, so there is no valid prefix at all.
        std::fs::write(&path, format!("{{\"plan\":\"{:08x}", sig)).unwrap();
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert!(st.plan_sig.is_none() && st.done.is_empty() && st.valid_len == 0);
        let mut j = TaskJournal::open(&io, &path, &st, sig).unwrap();
        j.checkpoint(0, &wres("w0")).unwrap();
        drop(j);
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert_eq!(st.plan_sig, Some(sig), "open must rewrite a clean plan line");
        assert_eq!(st.done.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_recovers_zero_length_file_from_crashed_open() {
        let dir = tmpdir("zerolen");
        let path = dir.join("task-0.log");
        let sig = 0x4444u64;
        let io = ctx();
        // A crash between create and the plan append leaves an empty file.
        std::fs::write(&path, b"").unwrap();
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert!(st.plan_sig.is_none() && st.done.is_empty() && st.valid_len == 0);
        let mut j = TaskJournal::open(&io, &path, &st, sig).unwrap();
        j.checkpoint(0, &wres("w0")).unwrap();
        drop(j);
        let st = TaskJournal::recover(&io, &path, sig).unwrap();
        assert_eq!(st.plan_sig, Some(sig));
        assert_eq!(st.done.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

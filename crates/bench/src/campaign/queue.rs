//! File-based shared work queue: one write-once lease file per claimed task.
//!
//! Claiming task `n` creates `leases/task-<n>.lease` with `create_new`
//! (exactly one claimant wins, and the lease appears with its whole body:
//! see `PassthroughIo::create_new`). The body records who holds the task:
//! `{worker, pid, start}`, where `start` is the holder process's start time
//! (field 22 of `/proc/<pid>/stat`), so a recycled pid cannot pass for the
//! holder. The lease is never rewritten, and liveness has one rule: **a
//! lease is live exactly while the worker that claimed it is running.**
//! Another process's lease is stale once that process is gone or its pid
//! names a different process. A lease of this process is stale when it
//! names this very claimant (an interrupted earlier run: a worker's claims
//! are sequential) or a worker id whose [`super::runner::run_worker`] calls
//! have all returned. Completed tasks are never claimed: the committed
//! result file is checked first.
//!
//! The fleet is one Linux host: liveness reads the local `/proc`. Elsewhere
//! a foreign process's lease stays live until that worker releases it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::jsonout::{self, ju, JVal};

use super::hostio::HostCtx;
use super::store::CampaignStore;

/// Outcome of a claim attempt.
pub enum Claim {
    /// This worker owns the task; run it, then `release` (or let a crash
    /// leave the lease for reclamation).
    Claimed(Lease),
    /// Another live worker holds the lease.
    Busy,
    /// The task already has a committed result.
    Done,
}

/// A held lease. Dropping it does **not** release the file — a crashed
/// worker must leave its lease behind for the stale check; release is
/// explicit on success.
pub struct Lease {
    path: PathBuf,
    io: HostCtx,
}

impl Lease {
    /// Releases the lease after the task's result is committed.
    pub fn release(self) {
        let _ = self.io.remove_file(&self.path);
    }
}

/// Worker ids with a `run_worker` call running in this process, each with
/// its number of running calls. An id whose calls have all returned keeps
/// a zero entry; an id never seen here has none.
static RUNNING: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

fn running() -> MutexGuard<'static, BTreeMap<String, u64>> {
    // Every update is one whole count, so a poisoned map is still valid.
    RUNNING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Registers one running call of worker `id` (on entry to `run_worker`).
pub(super) fn worker_started(id: &str) {
    *running().entry(id.to_string()).or_insert(0) += 1;
}

/// Unregisters one running call of worker `id` (on every exit from
/// `run_worker`, panics included).
pub(super) fn worker_stopped(id: &str) {
    if let Some(n) = running().get_mut(id) {
        *n = n.saturating_sub(1);
    }
}

/// Start time of the running process `pid`: field 22 of `/proc/<pid>/stat`.
/// `None` when no such process runs (gone, or a zombie awaiting its
/// parent's `wait`), and on hosts without `/proc`.
fn start_time(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Field 2 is the command name in parentheses and may hold spaces;
    // field 3, the state, is the first after the last ')'.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    if matches!(fields.next()?, "Z" | "X") {
        return None;
    }
    fields.nth(18)?.parse().ok()
}

/// This process's start time, read once.
fn own_start() -> Option<u64> {
    static START: OnceLock<Option<u64>> = OnceLock::new();
    *START.get_or_init(|| start_time(std::process::id()))
}

/// A lease body: the worker that claimed the task and its process.
struct Holder {
    worker: String,
    pid: u32,
    /// Absent in leases written before start times were recorded, and on
    /// hosts without `/proc`.
    start: Option<u64>,
}

impl Holder {
    /// The lease body claimant `worker` of this process writes.
    fn render(worker: &str) -> String {
        let mut fields = vec![
            ("worker".into(), JVal::Str(worker.to_string())),
            ("pid".into(), ju(std::process::id() as u64)),
        ];
        if let Some(start) = own_start() {
            fields.push(("start".into(), ju(start)));
        }
        JVal::Obj(fields).render() + "\n"
    }

    fn parse(bytes: &[u8]) -> Option<Holder> {
        let v = jsonout::parse(std::str::from_utf8(bytes).ok()?.trim()).ok()?;
        Some(Holder {
            worker: v.get("worker")?.as_str()?.to_string(),
            pid: u32::try_from(v.get("pid")?.as_u64()?).ok()?,
            start: v.get("start").and_then(JVal::as_u64),
        })
    }
}

/// The claim side of the queue.
pub struct WorkQueue<'a> {
    store: &'a CampaignStore,
    worker: String,
}

impl<'a> WorkQueue<'a> {
    /// A queue handle for `worker` (a human-readable id for lease files).
    pub fn new(store: &'a CampaignStore, worker: &str) -> Self {
        WorkQueue { store, worker: worker.to_string() }
    }

    /// Attempts to claim task `id`.
    pub fn claim(&self, id: usize) -> Claim {
        if self.store.result_exists(id) {
            return Claim::Done;
        }
        let path = self.store.lease_path(id);
        match self.try_create(&path) {
            Some(lease) => Claim::Claimed(lease),
            None => {
                if self.is_stale(&path) {
                    // Reclaim: remove the dead worker's lease, then race for
                    // the replacement like any other claimant.
                    let _ = self.store.io.remove_file(&path);
                    match self.try_create(&path) {
                        Some(lease) => Claim::Claimed(lease),
                        None => Claim::Busy,
                    }
                } else {
                    Claim::Busy
                }
            }
        }
    }

    /// Removes every stale lease in the store. Once a task has a result no
    /// claim reads its lease again, so a worker killed between committing a
    /// result and releasing the lease would leave that lease for good; the
    /// worker that finds every task done calls this.
    pub(crate) fn sweep(&self) {
        for id in 0..self.store.spec.total_tasks() {
            let path = self.store.lease_path(id);
            if self.store.io.exists(&path) && self.is_stale(&path) {
                let _ = self.store.io.remove_file(&path);
            }
        }
    }

    fn try_create(&self, path: &Path) -> Option<Lease> {
        match self.store.io.create_new(path, Holder::render(&self.worker).as_bytes()) {
            Ok(true) => Some(Lease { path: path.to_path_buf(), io: self.store.io.clone() }),
            // Exists already, or the host refused the create even after
            // retries: either way this claimant does not own the task. The
            // runner's loop (which watches the host-health flags) decides
            // whether to keep trying.
            Ok(false) | Err(_) => None,
        }
    }

    /// Whether the lease at `path` has outlived the worker that claimed it
    /// (the rule in the module docs). An unparsable lease is stale: nothing
    /// this program writes can tear one, and a duplicate run is harmless
    /// (results are deterministic and journal appends first-writer-wins).
    /// A lease that cannot be read is left for a later pass.
    fn is_stale(&self, path: &Path) -> bool {
        let bytes = match self.store.io.read_opt(path) {
            Ok(Some(bytes)) => bytes,
            Ok(None) | Err(_) => return false,
        };
        let Some(h) = Holder::parse(&bytes) else {
            return true;
        };
        // A lease without a start time is judged by its pid alone.
        if h.pid == std::process::id() && h.start.is_none_or(|s| Some(s) == own_start()) {
            h.worker == self.worker || running().get(&h.worker) == Some(&0)
        } else if cfg!(target_os = "linux") {
            match start_time(h.pid) {
                None => true,
                Some(now) => h.start.is_some_and(|then| then != now),
            }
        } else {
            false // no `/proc`: another process cannot be proven gone
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;

    fn store(tag: &str) -> CampaignStore {
        let dir = std::env::temp_dir().join(format!("chipmunk-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignStore::open_or_init(&dir, &CampaignSpec::default()).unwrap()
    }

    #[test]
    fn claim_is_exclusive_and_done_wins() {
        let s = store("claim");
        let q = WorkQueue::new(&s, "w0");
        let lease = match q.claim(0) {
            Claim::Claimed(l) => l,
            _ => panic!("first claim must win"),
        };
        std::fs::write(s.lease_path(1), "{\"worker\":\"other\",\"pid\":1,\"seq\":0}\n").unwrap();
        assert!(matches!(q.claim(1), Claim::Busy), "live foreign lease is busy");
        // Same pid but a different worker id: a sibling worker sharing this
        // process is live, not an interrupted predecessor.
        std::fs::write(
            s.lease_path(2),
            format!("{{\"worker\":\"sibling\",\"pid\":{},\"seq\":0}}\n", std::process::id()),
        )
        .unwrap();
        assert!(matches!(q.claim(2), Claim::Busy), "in-process sibling lease is busy");
        lease.release();
        s.write_result(0, &[]).unwrap();
        assert!(matches!(q.claim(0), Claim::Done));
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    #[test]
    fn dead_pid_and_self_pid_leases_are_reclaimed() {
        let s = store("stale");
        let q = WorkQueue::new(&s, "w0");
        // A pid that cannot exist (pid_max is < 2^22 by default; u32::MAX
        // is far beyond any real configuration).
        std::fs::write(
            s.lease_path(0),
            format!("{{\"worker\":\"gone\",\"pid\":{},\"seq\":9}}\n", u32::MAX - 1),
        )
        .unwrap();
        assert!(matches!(q.claim(0), Claim::Claimed(_)), "dead pid lease is reclaimed");
        // Our own pid *and* worker id: an interrupted in-process
        // predecessor of this very worker. An old-format lease (no start
        // time) is judged by its pid alone.
        std::fs::write(
            s.lease_path(1),
            format!("{{\"worker\":\"w0\",\"pid\":{}}}\n", std::process::id()),
        )
        .unwrap();
        assert!(matches!(q.claim(1), Claim::Claimed(_)), "self lease is reclaimed");
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    /// Writes `body` as task `id`'s lease and reports whether `q` may claim it.
    fn reclaimable(s: &CampaignStore, q: &WorkQueue, id: usize, body: &str) -> bool {
        std::fs::write(s.lease_path(id), body).unwrap();
        match q.claim(id) {
            Claim::Claimed(_) => true,
            Claim::Busy => false,
            Claim::Done => panic!("task {id} has no result"),
        }
    }

    fn lease(worker: &str, pid: u32, start: Option<u64>) -> String {
        let start = start.map_or(String::new(), |s| format!(",\"start\":{s}"));
        format!("{{\"worker\":\"{worker}\",\"pid\":{pid}{start}}}\n")
    }

    /// A lease of another process lives exactly as long as that process:
    /// its pid gone, or reused by a process with another start time, makes
    /// it stale at once. A lease without a start time is judged by its pid.
    #[test]
    #[cfg(target_os = "linux")]
    fn foreign_lease_is_live_exactly_while_its_process_runs() {
        let s = store("foreign");
        let q = WorkQueue::new(&s, "w0");
        let init = start_time(1).expect("pid 1 runs, and this host has /proc");
        let dead = u32::MAX - 1;
        assert!(reclaimable(&s, &q, 0, &lease("gone", dead, Some(init))), "dead pid");
        assert!(reclaimable(&s, &q, 1, &lease("reused", 1, Some(init + 1))), "pid reuse");
        assert!(!reclaimable(&s, &q, 2, &lease("init", 1, Some(init))), "running holder");
        assert!(!reclaimable(&s, &q, 3, &lease("old", 1, None)), "old format, live pid");
        assert!(reclaimable(&s, &q, 4, &lease("old", dead, None)), "old format, dead pid");
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    /// A lease of this process lives exactly as long as the `run_worker`
    /// call that claimed it: this claimant's own id is an interrupted
    /// earlier run, a running sibling's is busy, and a sibling's whose
    /// calls have all returned is stale at once.
    #[test]
    #[cfg(target_os = "linux")]
    fn own_process_lease_is_live_exactly_while_its_worker_runs() {
        let s = store("own");
        let q = WorkQueue::new(&s, "own-w0");
        let (pid, start) = (std::process::id(), own_start());
        assert!(reclaimable(&s, &q, 0, &lease("own-w0", pid, start)), "own id");
        worker_started("own-sibling");
        assert!(!reclaimable(&s, &q, 1, &lease("own-sibling", pid, start)), "running sibling");
        worker_started("own-sibling");
        worker_stopped("own-sibling");
        assert!(!reclaimable(&s, &q, 1, &lease("own-sibling", pid, start)), "one call still runs");
        worker_stopped("own-sibling");
        assert!(reclaimable(&s, &q, 1, &lease("own-sibling", pid, start)), "returned sibling");
        // Our pid under an earlier start time: a dead process whose pid
        // this one reuses, whatever worker id it names.
        let before = start.expect("this host has /proc") - 1;
        assert!(reclaimable(&s, &q, 2, &lease("own-sibling", pid, Some(before))), "pid reuse");
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    #[test]
    fn unparsable_lease_is_stale() {
        let s = store("garbage");
        let q = WorkQueue::new(&s, "w0");
        for (id, body) in ["not json", "", "{\"worker\":\"w1\"}", "{\"pid\":1}"].iter().enumerate() {
            assert!(reclaimable(&s, &q, id, body), "{body:?}");
        }
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    #[test]
    fn sweep_removes_only_stale_leases() {
        let s = store("sweep");
        let q = WorkQueue::new(&s, "w0");
        std::fs::write(s.lease_path(0), lease("gone", u32::MAX - 1, None)).unwrap();
        std::fs::write(s.lease_path(1), lease("init", 1, None)).unwrap();
        q.sweep();
        assert!(!s.lease_path(0).exists(), "a dead holder's lease goes");
        assert!(s.lease_path(1).exists(), "a live holder's lease stays");
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn lease_body_names_the_claimant_and_its_process() {
        let s = store("body");
        let q = WorkQueue::new(&s, "w0");
        let Claim::Claimed(held) = q.claim(0) else { panic!("claim") };
        let holder = Holder::parse(&std::fs::read(s.lease_path(0)).unwrap()).unwrap();
        assert_eq!((holder.worker.as_str(), holder.pid), ("w0", std::process::id()));
        assert_eq!(holder.start, own_start());
        assert!(holder.start.is_some(), "this host has /proc");
        held.release();
        assert!(!s.lease_path(0).exists());
        let _ = std::fs::remove_dir_all(&s.dir);
    }
}

//! File-based shared work queue: lease + heartbeat files.
//!
//! Claiming task `n` creates `leases/task-<n>.lease` with `create_new`
//! (exactly one claimant wins, and the lease appears with its whole body:
//! see `PassthroughIo::create_new`). The
//! lease records the worker id, pid, and a **monotonic heartbeat sequence
//! number**; the runner heartbeats it (rewrites the file with `seq + 1`)
//! after every journaled workload. A lease is **stale** — reclaimable —
//! when its recorded pid is provably dead (`/proc/<pid>` gone on Linux),
//! when both pid and worker id are this very claimant's (an in-process
//! predecessor that was interrupted; a worker's claims are sequential, so
//! a live self-claim cannot exist — but another worker sharing the process
//! is live), or when its **sequence number has not advanced across a full
//! TTL of local observation**. Judging liveness by observed seq progress
//! instead of file mtime means coarse-mtime filesystems and clock skew
//! between fleet machines can neither double-lease a live task nor
//! prematurely reclaim one: the TTL clock is this process's own monotonic
//! `Instant`, and it only starts once the lease has been *seen* at a given
//! seq. Completed tasks are never claimed: the committed result file is
//! checked first.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

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
    worker: String,
    seq: Cell<u64>,
    io: HostCtx,
}

impl Lease {
    /// Refreshes the heartbeat: bumps the monotonic sequence number and
    /// rewrites the lease through the host-I/O layer. Failures are
    /// swallowed: a missed heartbeat only risks needless reclamation, and
    /// duplicate execution is harmless (results are deterministic and
    /// journal appends are first-writer-wins).
    pub fn heartbeat(&self) {
        self.seq.set(self.seq.get() + 1);
        self.io.overwrite_quiet(&self.path, lease_body(&self.worker, self.seq.get()).as_bytes());
    }

    /// Releases the lease after the task's result is committed.
    pub fn release(self) {
        let _ = self.io.remove_file(&self.path);
    }
}

fn lease_body(worker: &str, seq: u64) -> String {
    let mut line = JVal::Obj(vec![
        ("worker".into(), JVal::Str(worker.to_string())),
        ("pid".into(), ju(std::process::id() as u64)),
        ("seq".into(), ju(seq)),
    ])
    .render();
    line.push('\n');
    line
}

/// Whether `pid` is a live process. Linux reads `/proc`; elsewhere the
/// answer is "unknown" (`true`), leaving staleness to the TTL.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        PathBuf::from(format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

/// The claim side of the queue.
pub struct WorkQueue<'a> {
    store: &'a CampaignStore,
    worker: String,
    /// Observation window beyond which a lease whose sequence number has
    /// not advanced (and whose pid cannot be proven dead) is stale.
    ttl: std::time::Duration,
    /// Last seen `(seq, when-first-seen-at-that-seq)` per lease path, on
    /// this process's monotonic clock. A lease is TTL-stale only once its
    /// seq has been observed unchanged for a full TTL — file timestamps
    /// never participate.
    observed: RefCell<HashMap<PathBuf, (u64, Instant)>>,
}

impl<'a> WorkQueue<'a> {
    /// A queue handle for `worker` (a human-readable id for lease files).
    pub fn new(store: &'a CampaignStore, worker: &str, ttl: std::time::Duration) -> Self {
        WorkQueue {
            store,
            worker: worker.to_string(),
            ttl,
            observed: RefCell::new(HashMap::new()),
        }
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
                    self.observed.borrow_mut().remove(&path);
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

    fn try_create(&self, path: &Path) -> Option<Lease> {
        match self.store.io.create_new(path, lease_body(&self.worker, 0).as_bytes()) {
            Ok(true) => Some(Lease {
                path: path.to_path_buf(),
                worker: self.worker.clone(),
                seq: Cell::new(0),
                io: self.store.io.clone(),
            }),
            // Exists already, or the host refused the create even after
            // retries: either way this claimant does not own the task. The
            // runner's loop (which watches the host-health flags) decides
            // whether to keep trying.
            Ok(false) | Err(_) => None,
        }
    }

    /// Stale = provably dead pid, our own pid *and* worker id (a previous
    /// interrupted run of this very worker — the pid alone is not enough,
    /// since several workers may share a process), or a heartbeat sequence
    /// number that has not advanced across a full TTL of observation. An
    /// unreadable or unparsable lease (torn write of a dying worker) is
    /// treated as seq 0 and falls to the observation window.
    fn is_stale(&self, path: &PathBuf) -> bool {
        let body = match self.store.io.read_opt(path) {
            Ok(Some(bytes)) => jsonout::parse(String::from_utf8_lossy(&bytes).trim()).ok(),
            Ok(None) => return false, // released under us — claim will retry
            Err(_) => None,
        };
        let pid = body.as_ref().and_then(|v| v.get("pid").and_then(JVal::as_u64));
        let seq = body
            .as_ref()
            .and_then(|v| v.get("seq").and_then(JVal::as_u64))
            .unwrap_or(0);
        let ours = body
            .as_ref()
            .and_then(|v| v.get("worker").and_then(JVal::as_str))
            .is_some_and(|w| w == self.worker);
        if let Some(pid) = pid {
            if pid as u32 == std::process::id() && ours {
                return true;
            }
            if !pid_alive(pid as u32) {
                return true;
            }
        }
        // Liveness by progress: restart the window whenever the seq moves.
        let now = Instant::now();
        let mut obs = self.observed.borrow_mut();
        match obs.get(path) {
            Some(&(last_seq, since)) if last_seq == seq => now.duration_since(since) > self.ttl,
            _ => {
                obs.insert(path.clone(), (seq, now));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;
    use std::time::Duration;

    fn store(tag: &str) -> CampaignStore {
        let dir = std::env::temp_dir().join(format!("chipmunk-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CampaignStore::open_or_init(&dir, &CampaignSpec::default()).unwrap()
    }

    #[test]
    fn claim_is_exclusive_and_done_wins() {
        let s = store("claim");
        let q = WorkQueue::new(&s, "w0", Duration::from_secs(3600));
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
        let q = WorkQueue::new(&s, "w0", Duration::from_secs(3600));
        // A pid that cannot exist (pid_max is < 2^22 by default; u32::MAX
        // is far beyond any real configuration).
        std::fs::write(
            s.lease_path(0),
            format!("{{\"worker\":\"gone\",\"pid\":{},\"seq\":9}}\n", u32::MAX - 1),
        )
        .unwrap();
        assert!(matches!(q.claim(0), Claim::Claimed(_)), "dead pid lease is reclaimed");
        // Our own pid *and* worker id: an interrupted in-process
        // predecessor of this very worker. Old-format leases (no seq — a
        // pre-hardening store) parse with seq 0 and the pid rules intact.
        std::fs::write(
            s.lease_path(1),
            format!("{{\"worker\":\"w0\",\"pid\":{}}}\n", std::process::id()),
        )
        .unwrap();
        assert!(matches!(q.claim(1), Claim::Claimed(_)), "self lease is reclaimed");
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    #[test]
    fn stalled_heartbeat_is_reclaimed_only_after_observed_ttl() {
        let s = store("ttl");
        // pid 1 is always alive (init), so this exercises the
        // seq-observation arm specifically. TTL of zero: any observed
        // window longer than zero is enough.
        let q = WorkQueue::new(&s, "w0", Duration::from_millis(0));
        std::fs::write(s.lease_path(0), "{\"worker\":\"slow\",\"pid\":1,\"seq\":5}\n").unwrap();
        // First sight only *starts* the observation window — never stale on
        // first contact, however old the file's timestamps look (a coarse-
        // mtime or skewed-clock host must not cause premature reclamation).
        assert!(matches!(q.claim(0), Claim::Busy), "first observation is never stale");
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(q.claim(0), Claim::Claimed(_)), "no seq progress across TTL: stale");
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    #[test]
    fn advancing_heartbeat_seq_is_never_reclaimed() {
        let s = store("advance");
        let q = WorkQueue::new(&s, "w0", Duration::from_millis(10));
        std::fs::write(s.lease_path(0), "{\"worker\":\"busy\",\"pid\":1,\"seq\":1}\n").unwrap();
        assert!(matches!(q.claim(0), Claim::Busy));
        for seq in 2..5 {
            // The holder keeps heartbeating: every observation sees a new
            // seq, so the window restarts and the lease is never stale,
            // even though each gap exceeds the TTL.
            std::thread::sleep(Duration::from_millis(20));
            std::fs::write(
                s.lease_path(0),
                format!("{{\"worker\":\"busy\",\"pid\":1,\"seq\":{seq}}}\n"),
            )
            .unwrap();
            assert!(matches!(q.claim(0), Claim::Busy), "advancing seq must stay live");
        }
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    #[test]
    fn garbage_lease_falls_back_to_observation_window() {
        let s = store("garbage");
        let q = WorkQueue::new(&s, "w0", Duration::from_millis(0));
        // Torn write of a dying worker: not JSON. Treated as seq 0 — one
        // observation window must still pass before reclamation.
        std::fs::write(s.lease_path(1), "not json").unwrap();
        assert!(matches!(q.claim(1), Claim::Busy));
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(q.claim(1), Claim::Claimed(_)));
        let _ = std::fs::remove_dir_all(&s.dir);
    }

    #[test]
    fn heartbeat_bumps_seq_monotonically() {
        let s = store("seq");
        let q = WorkQueue::new(&s, "w0", Duration::from_secs(3600));
        let lease = match q.claim(0) {
            Claim::Claimed(l) => l,
            _ => panic!("claim"),
        };
        let read_seq = || {
            let text = std::fs::read_to_string(s.lease_path(0)).unwrap();
            jsonout::parse(text.trim()).unwrap().get("seq").and_then(JVal::as_u64).unwrap()
        };
        assert_eq!(read_seq(), 0);
        lease.heartbeat();
        assert_eq!(read_seq(), 1);
        lease.heartbeat();
        assert_eq!(read_seq(), 2);
        lease.release();
        let _ = std::fs::remove_dir_all(&s.dir);
    }
}

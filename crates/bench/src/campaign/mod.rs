//! `campaignd`: a persistent, resumable, multi-process campaign service.
//!
//! The paper ran Chipmunk as a long-lived fleet (QEMU VMs on EC2 and
//! Chameleon, millions of crash states over days); the batch binaries in
//! this workspace lose every piece of campaign state — fuzzer corpus,
//! coverage, crash-state dedup keys, prefix-cache warmth — the moment a run
//! ends or dies. This module is the fleet analogue, three cooperating
//! layers:
//!
//! 1. **On-disk campaign store** ([`store::CampaignStore`]): a versioned
//!    directory holding the campaign spec, the fuzzer corpus (wire-form
//!    workloads), per-FS coverage and crash-state bitmaps, and discovered
//!    bug reports. Every document goes through
//!    [`crate::jsonout::write_atomic`] and is read back with the hand-rolled
//!    parser ([`crate::jsonout::parse`]), so a crash mid-write never
//!    corrupts the store.
//! 2. **Campaign journal** ([`store::TaskJournal`]): an append-only,
//!    per-task record of progress — one line per completed workload,
//!    prefixed by the serialized prefix-subtree plan signature. A SIGKILL'd
//!    campaign resumes at the exact workload index; the runner re-warms the
//!    `PrefixCache` by replaying the last journaled workload of the
//!    interrupted subtree group, so a resumed sweep re-earns exactly the
//!    per-workload `prefix_ops_saved` an uninterrupted run would have.
//! 3. **Multi-process worker fleet** ([`runner`], driven by the `campaignd`
//!    bin): N worker processes over a file-based work queue
//!    ([`queue::WorkQueue`]) with lease + heartbeat files; leases of crashed
//!    workers are reclaimed (liveness via `/proc/<pid>`, falling back to
//!    heartbeat age). Each worker runs the existing scheduling machinery
//!    ([`crate::plan_subtrees`] + `PrefixCache`) in-process; per-workload
//!    results are pure functions of their task (the invariant the
//!    `Scheduler` already pins), so the merged document is byte-identical
//!    to a serial run at any worker count or kill pattern.

pub mod hostio;
pub mod queue;
pub mod runner;
pub mod store;
pub mod wire;

use chipmunk::TestConfig;
use vfs::{FsName, Workload};
use workloads::ace::{seq1, seq2};

use crate::jsonout::JVal;
use wire::{jval_u64, ju};

/// Fuzz workloads per campaign task — one fuzzer batch (see
/// `crate::FUZZ_BATCH`); fuzz tasks are sequentially dependent because
/// coverage feedback steers generation.
pub const FUZZ_TASK_LEN: u64 = crate::FUZZ_BATCH as u64;

/// Everything that defines a campaign's workload population and checking
/// knobs. Persisted in `store.json`; a pure function from spec to task plan
/// means every worker (and every resume) recomputes the identical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// The file system under test (campaigns run it as-released).
    pub fs: FsName,
    /// How many seq-1 ACE workloads to take (`0` = all).
    pub seq1_take: usize,
    /// Sampling stride over seq-2 (`0` = skip seq-2 entirely).
    pub seq2_step: usize,
    /// Total fuzzer workloads.
    pub fuzz_budget: u64,
    /// Fuzzer RNG seed.
    pub fuzz_seed: u64,
    /// ACE workloads per task (the unit of work-queue claiming; also the
    /// batch the prefix-subtree plan is computed over).
    pub batch: usize,
    /// Replay cap for ACE checking (`None` = exhaustive).
    pub cap: Option<usize>,
    /// Size, in bits, of the persistent coverage / crash-state bitmaps.
    /// Must be a power of two.
    pub bitmap_bits: u64,
    /// Restrict the hunt to one injected Table 1 bug (`campaignd --bug N`);
    /// `None` campaigns against the as-released bug set.
    pub bug: Option<u32>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            fs: FsName::Nova,
            seq1_take: 0,
            seq2_step: 3,
            fuzz_budget: 0,
            fuzz_seed: 0xca3b,
            batch: 64,
            cap: Some(2),
            bitmap_bits: 1 << 20,
            bug: None,
        }
    }
}

/// One claimable unit of campaign work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// ACE workloads `start..start + len` of the spec's ACE population.
    Ace {
        /// First ACE workload index.
        start: usize,
        /// Number of workloads in this task.
        len: usize,
    },
    /// The `index`-th fuzzer batch. Claimable only once batch `index - 1`
    /// has a committed result (generation replays its predecessors).
    Fuzz {
        /// Fuzzer batch ordinal.
        index: u64,
    },
}

impl CampaignSpec {
    /// The ACE workload population, in canonical order (seq-1 then sampled
    /// seq-2). Cheap enough for every worker to recompute.
    pub fn ace_workloads(&self) -> Vec<Workload> {
        let mode = crate::mode_for(self.fs);
        let mut ws = seq1(mode);
        if self.seq1_take > 0 {
            ws.truncate(self.seq1_take);
        }
        if self.seq2_step > 0 {
            ws.extend(seq2(mode).step_by(self.seq2_step));
        }
        ws
    }

    /// Number of ACE tasks.
    pub fn ace_tasks(&self) -> usize {
        self.ace_workloads().len().div_ceil(self.batch.max(1))
    }

    /// Number of fuzz tasks.
    pub fn fuzz_tasks(&self) -> usize {
        (self.fuzz_budget.div_ceil(FUZZ_TASK_LEN)) as usize
    }

    /// Total task count. Task ids `0..ace_tasks()` are ACE; the rest fuzz.
    pub fn total_tasks(&self) -> usize {
        self.ace_tasks() + self.fuzz_tasks()
    }

    /// What task `id` is (`id < total_tasks()`).
    pub fn task_kind(&self, id: usize, ace_total: usize) -> TaskKind {
        let ace_tasks = ace_total.div_ceil(self.batch.max(1));
        if id < ace_tasks {
            let start = id * self.batch;
            TaskKind::Ace { start, len: self.batch.min(ace_total - start) }
        } else {
            TaskKind::Fuzz { index: (id - ace_tasks) as u64 }
        }
    }

    /// Checking config for ACE tasks (full checking under the campaign cap,
    /// crash-state keys collected for the store's bitmaps).
    pub fn ace_cfg(&self) -> TestConfig {
        TestConfig { cap: self.cap, collect_state_keys: true, ..TestConfig::default() }
    }

    /// Checking config for fuzz tasks (the paper's fuzzing config: cap of
    /// two, stop on first violation).
    pub fn fuzz_cfg(&self) -> TestConfig {
        TestConfig { collect_state_keys: true, ..TestConfig::fuzzing() }
    }

    /// Serializes the spec for `store.json`.
    pub fn to_jval(&self) -> JVal {
        JVal::Obj(vec![
            ("fs".into(), JVal::Str(self.fs.to_string())),
            ("seq1_take".into(), ju(self.seq1_take as u64)),
            ("seq2_step".into(), ju(self.seq2_step as u64)),
            ("fuzz_budget".into(), ju(self.fuzz_budget)),
            ("fuzz_seed".into(), JVal::Str(format!("{:016x}", self.fuzz_seed))),
            ("batch".into(), ju(self.batch as u64)),
            (
                "cap".into(),
                match self.cap {
                    Some(c) => ju(c as u64),
                    None => JVal::Null,
                },
            ),
            ("bitmap_bits".into(), ju(self.bitmap_bits)),
            (
                "bug".into(),
                match self.bug {
                    Some(n) => ju(n as u64),
                    None => JVal::Null,
                },
            ),
        ])
    }

    /// Parses a spec back from its [`to_jval`](Self::to_jval) form.
    pub fn from_jval(v: &JVal) -> Result<Self, String> {
        let fs: FsName = v
            .get("fs")
            .and_then(JVal::as_str)
            .ok_or("spec: missing fs")?
            .parse()?;
        let cap = match v.get("cap") {
            Some(JVal::Null) | None => None,
            Some(c) => Some(c.as_u64().ok_or("spec: bad cap")? as usize),
        };
        let bug = match v.get("bug") {
            Some(JVal::Null) | None => None,
            Some(b) => Some(b.as_u64().ok_or("spec: bad bug")? as u32),
        };
        let seed_hex = v.get("fuzz_seed").and_then(JVal::as_str).ok_or("spec: missing fuzz_seed")?;
        let spec = CampaignSpec {
            fs,
            seq1_take: jval_u64(v, "seq1_take")? as usize,
            seq2_step: jval_u64(v, "seq2_step")? as usize,
            fuzz_budget: jval_u64(v, "fuzz_budget")?,
            fuzz_seed: u64::from_str_radix(seed_hex, 16)
                .map_err(|_| format!("spec: bad fuzz_seed {seed_hex:?}"))?,
            batch: jval_u64(v, "batch")?.max(1) as usize,
            cap,
            bitmap_bits: jval_u64(v, "bitmap_bits")?,
            bug,
        };
        if !spec.bitmap_bits.is_power_of_two() {
            return Err(format!("spec: bitmap_bits {} is not a power of two", spec.bitmap_bits));
        }
        if let Some(n) = spec.bug {
            if !vfs::bugs::bug_table().iter().any(|b| b.id.number() == n) {
                return Err(format!("spec: no bug #{n} in the Table 1 corpus"));
            }
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_and_plans_tasks() {
        let spec = CampaignSpec {
            fs: FsName::Pmfs,
            seq1_take: 10,
            seq2_step: 0,
            fuzz_budget: 20,
            fuzz_seed: 0xdead_beef_cafe_f00d,
            batch: 4,
            cap: None,
            bitmap_bits: 1 << 12,
            bug: Some(14),
        };
        let back = CampaignSpec::from_jval(&crate::jsonout::parse(&spec.to_jval().render()).unwrap())
            .unwrap();
        assert_eq!(back, spec);

        assert_eq!(spec.ace_workloads().len(), 10);
        assert_eq!(spec.ace_tasks(), 3, "10 workloads in tasks of 4");
        assert_eq!(spec.fuzz_tasks(), 3, "20 fuzz workloads in batches of 8");
        assert_eq!(spec.total_tasks(), 6);
        assert_eq!(spec.task_kind(0, 10), TaskKind::Ace { start: 0, len: 4 });
        assert_eq!(spec.task_kind(2, 10), TaskKind::Ace { start: 8, len: 2 });
        assert_eq!(spec.task_kind(3, 10), TaskKind::Fuzz { index: 0 });
        assert_eq!(spec.task_kind(5, 10), TaskKind::Fuzz { index: 2 });
    }

    #[test]
    fn spec_rejects_bad_bitmap_and_fs() {
        let mut v = crate::jsonout::parse(&CampaignSpec::default().to_jval().render()).unwrap();
        if let JVal::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "bitmap_bits" {
                    *val = JVal::Num(1000.0);
                }
            }
        }
        assert!(CampaignSpec::from_jval(&v).unwrap_err().contains("power of two"));
        assert!(CampaignSpec::from_jval(&JVal::Obj(vec![(
            "fs".into(),
            JVal::Str("NotAFs".into())
        )]))
        .is_err());
    }
}

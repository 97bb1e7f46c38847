//! Deterministic fault injection for the chaos self-test harness.
//!
//! The paper's kernel file systems panic and hang *during recovery on crash
//! states* — several of its 23 bugs are exactly that — and Chipmunk survives
//! them because each target runs in a VM. This reproduction runs everything
//! in process, so the sandbox layer (`core::sandbox`) must absorb those
//! failures instead. [`FaultPlan`] + [`FaultDevice`] exist to *prove* that it
//! does: they inject panics, fuel-burning hangs, and torn 8-byte stores at
//! chosen device-operation indices, deterministically, so the chaos
//! self-tests can assert that an arbitrary mid-recovery failure surfaces as a
//! classified bug report with bit-identical counters at any thread count.
//!
//! Determinism is the load-bearing property. All triggers are indexed by the
//! device-op counter of a single *lineage* (one mount, or one mkfs+record
//! run), which is a pure function of the op stream the file system issues —
//! never of wall-clock, thread identity, or scheduling. Cloning a
//! [`FaultDevice`] (prefix-cache checkpoint forks) clones the counters, so a
//! resumed lineage behaves exactly like a re-executed one.

use std::cell::Cell;

use crate::{
    backend::PmBackend,
    cost::{self, SimCost},
};

/// Where injected faults should fire, as device-op indices (1-based: the
/// first op a lineage issues has index 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Mount lineages: panic when the n-th device op is issued. Models a
    /// recovery-path panic on a crash state.
    pub mount_panic_at: Option<u64>,
    /// Mount lineages: spin forever (burning watchdog fuel) at the n-th
    /// device op. Models a recovery loop that never terminates.
    pub mount_hang_at: Option<u64>,
    /// Record lineage (mkfs + recorded run): panic at the n-th device op.
    /// Fires *outside* the per-stage sandbox, exercising the worker-level
    /// requeue paths.
    pub record_panic_at: Option<u64>,
    /// Record lineage: tear the n-th write-class op, persisting only the
    /// first half of its leading 8-byte word and dropping the rest.
    pub torn_store_at: Option<u64>,
    /// Mount lineages: panic when the post-mount tree walk issues its n-th
    /// probe (`readdir` or `stat`). Models file-system code that crashes
    /// only when recovery's lazily-rebuilt structures are first traversed.
    pub walk_panic_at: Option<u64>,
    /// Mount lineages: spin forever (burning watchdog fuel) at the walk's
    /// n-th probe. Models a traversal that loops on a corrupt structure.
    pub walk_hang_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }
}

/// Which lineage a [`FaultDevice`] instance is metering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultRole {
    /// A mount on a crash state (checking pipeline).
    Mount,
    /// The mkfs + recorded-run lineage.
    Record,
}

/// A [`PmBackend`] wrapper that counts device ops and fires the faults its
/// [`FaultPlan`] schedules for its lineage.
///
/// Counters use `Cell` because `read` takes `&self`; the device is still
/// owned by one thread at a time (`PmBackend` is `Send`, not `Sync`).
pub struct FaultDevice<D> {
    inner: D,
    plan: FaultPlan,
    role: FaultRole,
    ops: Cell<u64>,
    writes: Cell<u64>,
}

impl<D: Clone> Clone for FaultDevice<D> {
    fn clone(&self) -> Self {
        FaultDevice {
            inner: self.inner.clone(),
            plan: self.plan,
            role: self.role,
            ops: self.ops.clone(),
            writes: self.writes.clone(),
        }
    }
}

impl<D: PmBackend> FaultDevice<D> {
    /// Wraps `inner`, arming `plan` for `role`'s lineage starting at op 0.
    pub fn new(inner: D, plan: FaultPlan, role: FaultRole) -> Self {
        FaultDevice { inner, plan, role, ops: Cell::new(0), writes: Cell::new(0) }
    }

    /// Device ops issued through this wrapper so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops.get()
    }

    /// Counts one device op and fires any fault scheduled at its index.
    fn step(&self) {
        let n = self.ops.get() + 1;
        self.ops.set(n);
        match self.role {
            FaultRole::Mount => {
                if self.plan.mount_panic_at == Some(n) {
                    panic!("chaos: injected panic at mount op {n}");
                }
                if self.plan.mount_hang_at == Some(n) {
                    if cost::fuel_armed() {
                        // An endless recovery loop still drives the device,
                        // so it burns watchdog fuel until FuelExhausted.
                        loop {
                            cost::tick(64);
                        }
                    }
                    // Actually looping here would hang the process; the
                    // chaos tests only inject hangs under an armed watchdog.
                    panic!("chaos: injected hang at mount op {n} (no fuel watchdog armed)");
                }
            }
            FaultRole::Record => {
                if self.plan.record_panic_at == Some(n) {
                    panic!("chaos: injected panic at record op {n}");
                }
            }
        }
    }

    /// Counts one write-class op; returns `true` if it must be torn.
    fn step_write(&self) -> bool {
        let n = self.writes.get() + 1;
        self.writes.set(n);
        self.role == FaultRole::Record && self.plan.torn_store_at == Some(n)
    }
}

impl<D: PmBackend> PmBackend for FaultDevice<D> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read(&self, off: u64, buf: &mut [u8]) {
        self.step();
        self.inner.read(off, buf);
    }

    fn store(&mut self, off: u64, data: &[u8]) {
        self.step();
        if self.step_write() {
            let keep = torn_len(data.len());
            self.inner.store(off, &data[..keep]);
            return;
        }
        self.inner.store(off, data);
    }

    fn memcpy_nt(&mut self, off: u64, data: &[u8]) {
        self.step();
        if self.step_write() {
            let keep = torn_len(data.len());
            self.inner.memcpy_nt(off, &data[..keep]);
            return;
        }
        self.inner.memcpy_nt(off, data);
    }

    fn memset_nt(&mut self, off: u64, val: u8, len: u64) {
        self.step();
        if self.step_write() {
            self.inner.memset_nt(off, val, torn_len(len as usize) as u64);
            return;
        }
        self.inner.memset_nt(off, val, len);
    }

    fn flush(&mut self, off: u64, len: u64) {
        self.step();
        self.inner.flush(off, len);
    }

    fn fence(&mut self) {
        self.step();
        self.inner.fence();
    }

    fn note_media_read(&mut self, len: u64) {
        self.inner.note_media_read(len);
    }

    fn sim_cost(&self) -> SimCost {
        self.inner.sim_cost()
    }
}

// ---------------------------------------------------------------------------
// Walker-probe faults.
//
// The tree walk runs above the device layer — `readdir`/`stat` calls on the
// mounted file system — so device-op indices cannot address it precisely.
// Instead the chaos FS kind arms a thread-local probe plan on each
// Mount-lineage mount (resetting the counter, which keeps firing a pure
// function of the crash-state image: mount and walk always run back-to-back
// on one thread), and the walker ticks it once per probe. Non-chaos kinds
// never arm it, and the Record lineage (`mkfs`, whose file system the oracle
// walks) explicitly disarms it, so oracle-side walks are never perturbed.

thread_local! {
    static WALK_FAULTS: Cell<WalkFaults> = const {
        Cell::new(WalkFaults { panic_at: None, hang_at: None, probes: 0 })
    };
}

#[derive(Clone, Copy)]
struct WalkFaults {
    panic_at: Option<u64>,
    hang_at: Option<u64>,
    probes: u64,
}

/// Arms (or, with two `None`s, disarms) walker-probe faults on the calling
/// thread and resets the probe counter. Called by the chaos FS kind at every
/// mount so each walk lineage counts its probes from zero.
pub fn arm_walk_faults(panic_at: Option<u64>, hang_at: Option<u64>) {
    WALK_FAULTS.with(|w| w.set(WalkFaults { panic_at, hang_at, probes: 0 }));
}

/// Counts one walker probe (`readdir` or `stat`) and fires any armed fault
/// at its 1-based index. A no-op on threads where nothing is armed.
pub fn walk_probe() {
    WALK_FAULTS.with(|w| {
        let mut st = w.get();
        if st.panic_at.is_none() && st.hang_at.is_none() {
            return;
        }
        st.probes += 1;
        let n = st.probes;
        w.set(st);
        if st.panic_at == Some(n) {
            panic!("chaos: injected panic at walk probe {n}");
        }
        if st.hang_at == Some(n) {
            if cost::fuel_armed() {
                // A looping traversal still burns watchdog fuel until
                // FuelExhausted unwinds it.
                loop {
                    cost::tick(64);
                }
            }
            panic!("chaos: injected hang at walk probe {n} (no fuel watchdog armed)");
        }
    });
}

/// Bytes that survive a torn write: half of the leading 8-byte word (real PM
/// guarantees 8-byte atomicity; a torn store models firmware/media failure
/// below that granularity), or half the data for sub-word writes.
fn torn_len(len: usize) -> usize {
    if len >= 8 {
        4
    } else {
        len / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FuelGuard;

    fn base(len: usize) -> Vec<u8> {
        vec![0u8; len]
    }

    #[test]
    fn noop_plan_is_transparent() {
        let img = base(4096);
        let cow = crate::CowDevice::new(&img);
        let mut dev = FaultDevice::new(cow, FaultPlan::none(), FaultRole::Mount);
        dev.store(0, &[7u8; 16]);
        let mut b = [0u8; 16];
        dev.read(0, &mut b);
        assert_eq!(b, [7u8; 16]);
        assert_eq!(dev.ops_seen(), 2);
    }

    #[test]
    fn mount_panic_fires_at_exact_op() {
        let img = base(4096);
        let plan = FaultPlan { mount_panic_at: Some(3), ..FaultPlan::default() };
        let err = std::panic::catch_unwind(|| {
            let cow = crate::CowDevice::new(&img);
            let mut dev = FaultDevice::new(cow, plan, FaultRole::Mount);
            let mut b = [0u8; 8];
            dev.read(0, &mut b); // op 1
            dev.read(8, &mut b); // op 2
            dev.store(0, &[1]); // op 3: boom
        })
        .expect_err("op 3 must panic");
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert_eq!(msg, "chaos: injected panic at mount op 3");
    }

    #[test]
    fn mount_hang_burns_fuel_into_fuel_exhausted() {
        let img = base(4096);
        let plan = FaultPlan { mount_hang_at: Some(1), ..FaultPlan::default() };
        let err = std::panic::catch_unwind(|| {
            let _fuel = FuelGuard::arm(Some(10_000));
            let cow = crate::CowDevice::new(&img);
            let dev = FaultDevice::new(cow, plan, FaultRole::Mount);
            let mut b = [0u8; 8];
            dev.read(0, &mut b);
        })
        .expect_err("hang must exhaust fuel");
        assert!(
            err.downcast_ref::<cost::FuelExhausted>().is_some(),
            "hang surfaces as FuelExhausted, not a plain panic"
        );
    }

    #[test]
    fn record_faults_do_not_fire_in_mount_role() {
        let img = base(4096);
        let plan =
            FaultPlan { record_panic_at: Some(1), torn_store_at: Some(1), ..FaultPlan::default() };
        let cow = crate::CowDevice::new(&img);
        let mut dev = FaultDevice::new(cow, plan, FaultRole::Mount);
        dev.store(0, &[9u8; 16]);
        let mut b = [0u8; 16];
        dev.read(0, &mut b);
        assert_eq!(b, [9u8; 16], "mount role ignores record-lineage faults");
    }

    #[test]
    fn torn_store_keeps_half_a_word() {
        let img = base(4096);
        let plan = FaultPlan { torn_store_at: Some(2), ..FaultPlan::default() };
        let cow = crate::CowDevice::new(&img);
        let mut dev = FaultDevice::new(cow, plan, FaultRole::Record);
        dev.store(0, &[0xAA; 16]); // write 1: intact
        dev.store(100, &[0xBB; 16]); // write 2: torn — only 4 bytes land
        let mut b = [0u8; 16];
        dev.read(0, &mut b);
        assert_eq!(b, [0xAA; 16]);
        dev.read(100, &mut b);
        assert_eq!(&b[..4], &[0xBB; 4]);
        assert_eq!(&b[4..], &[0u8; 12]);
    }

    #[test]
    fn clone_carries_lineage_counters() {
        let img = vec![0u8; 4096];
        let fork = crate::ForkDevice::new(img.len() as u64);
        let plan = FaultPlan { mount_panic_at: Some(3), ..FaultPlan::default() };
        let dev = FaultDevice::new(fork, plan, FaultRole::Mount);
        let mut b = [0u8; 8];
        dev.read(0, &mut b); // op 1
        let cloned = dev.clone();
        assert_eq!(cloned.ops_seen(), 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cloned.read(0, &mut b); // op 2
            cloned.read(0, &mut b); // op 3: boom
        }))
        .expect_err("clone continues the lineage count");
        assert!(err.downcast_ref::<String>().is_some());
    }
}

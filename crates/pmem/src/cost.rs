//! Deterministic simulated-time cost model for PM operations.
//!
//! The paper's performance observations (§5.1, Observation 2) compare NOVA
//! before and after bug fixes on real Optane hardware. We cannot measure
//! Optane, so [`PmDevice`](crate::PmDevice) charges each persistence
//! operation a latency drawn from published Optane characterization numbers
//! (Yang et al., FAST '20; Izraelevitz et al. 2019). The absolute values are
//! approximations; what matters for reproducing the paper's *shape* results
//! is the relative cost of journaled versus in-place update sequences, which
//! is dominated by the counts of flushes, fences, and media reads — exactly
//! what this model accounts.
//!
//! # Calibration
//!
//! `cargo run --release -p bench --bin chipmunk -- calibrate` re-measures, on
//! the current host, the wall-clock cost of each primitive below and of one
//! *fuel unit* (the deterministic watchdog's currency, [`op_units`]), and
//! prints the scale factor between simulated and host time. Each constant's
//! doc records both its published-Optane source and the host-measured
//! figure from the 2026-08 calibration run (AMD EPYC container, release
//! build) so future re-runs have a baseline to diff against. The simulated
//! constants are *not* adjusted to the host — they model Optane, and only
//! their ratios matter — but the fuel budget is sanity-checked against wall
//! time: at the measured ~12 ns of host wall per fuel unit (store+flush+
//! fence mix on `CowDevice`), the default 50 M-unit recovery budget
//! (`chipmunk::config::DEFAULT_RECOVERY_FUEL`) bounds a hung recovery at
//! roughly 0.6 s of host time per crash state, slow enough to never fire
//! on a healthy walk and fast enough that a sweep over thousands of
//! hanging states still terminates.

/// Latency charged per cache line written back (`clwb` + eventual write).
/// Optane: ~62 ns effective per line under write-back streams (Yang et al.,
/// FAST '20). Host 2026-08: simulating store(64B)+flush costs ~160 ns wall
/// (dominated by line-capture bookkeeping, sim charge 71 ns).
pub const FLUSH_LINE_NS: u64 = 62;

/// Latency charged per cache line issued as a non-temporal store.
/// Optane: ~55 ns per 64 B `movnt` line (Izraelevitz et al. 2019). Host
/// 2026-08: simulating one nt line costs ~80 ns wall.
pub const NT_LINE_NS: u64 = 55;

/// Latency charged per store fence (drain of the write-pending queue).
/// Optane: `sfence` + WPQ drain ~100-200 ns depending on queue depth (Yang
/// et al., FAST '20); 160 ns sits mid-range. Host 2026-08: simulating a
/// fence costs ~10 ns wall (empty queue).
pub const FENCE_NS: u64 = 160;

/// Latency charged per cached store word (hits the cache; cheap).
/// DRAM-cached store, ~1 ns/word on any modern core; the value only needs
/// to be small relative to the persistence ops above.
pub const STORE_WORD_NS: u64 = 1;

/// Latency charged per cache line of an explicit media read (a read that
/// semantically must come from PM, e.g. read-validate before an in-place
/// update). Optane: ~170 ns idle random 64 B read latency (Izraelevitz et
/// al. 2019). Host 2026-08: simulating one media-read line costs ~7 ns wall.
pub const MEDIA_READ_LINE_NS: u64 = 170;

use std::cell::Cell;

/// Accumulated simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimCost {
    /// Total simulated nanoseconds.
    pub ns: u64,
}

impl SimCost {
    /// Adds `ns` nanoseconds of simulated time.
    pub fn charge(&mut self, ns: u64) {
        self.ns = self.ns.saturating_add(ns);
    }
}

/// Operation counters maintained by the simulated device.
///
/// These drive both the cost model and the paper's §4.3/§5.1 measurement
/// harnesses (in-flight write distribution, crash-state counts).
#[derive(Debug, Clone, Copy, Default)]
pub struct PmStats {
    /// Bytes written via plain cached stores.
    pub store_bytes: u64,
    /// Bytes written via non-temporal stores.
    pub nt_bytes: u64,
    /// Cache lines written back by `flush`.
    pub flush_lines: u64,
    /// Number of `flush` calls.
    pub flush_calls: u64,
    /// Number of store fences.
    pub fences: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes of explicit media reads.
    pub media_read_bytes: u64,
    /// Maximum number of in-flight writes observed at any fence.
    pub max_inflight: u64,
}

// ---------------------------------------------------------------------------
// Deterministic fuel watchdog.
//
// Chipmunk runs the target file system's recovery *in process*, so a recovery
// loop that never terminates would hang the whole sweep. A wall-clock timeout
// would break the bit-identical determinism the harness guarantees across
// thread counts; instead the checker arms a *fuel* budget denominated in
// simulated device operations (the same unit the cost model accounts), and
// every metered device op burns fuel. Exhaustion raises a typed panic that
// the `core::sandbox` layer converts into `Violation::RecoveryHang`.
//
// Fuel is thread-local: each crash-state check runs start-to-finish on one
// thread, so the accounting is a pure function of the crash-state image and
// the check configuration — identical at any thread count.

thread_local! {
    static FUEL: Cell<Option<u64>> = const { Cell::new(None) };
    static FUEL_BUDGET: Cell<u64> = const { Cell::new(0) };
}

/// Panic payload raised by [`tick`] when the armed fuel budget runs out.
///
/// Carried through `std::panic::panic_any`; the sandbox layer downcasts it to
/// distinguish a simulated hang from an ordinary panic.
#[derive(Debug, Clone, Copy)]
pub struct FuelExhausted {
    /// The budget that was armed when exhaustion hit.
    pub budget: u64,
}

/// RAII guard arming the calling thread's fuel budget.
///
/// Restores the previously armed budget (usually none) on drop — including
/// during the unwind triggered by exhaustion itself — so fuel never leaks
/// into unrelated work on the same thread.
pub struct FuelGuard {
    prev: Option<u64>,
    prev_budget: u64,
}

impl FuelGuard {
    /// Arms `budget` simulated ops of fuel on this thread; `None` leaves the
    /// watchdog disarmed (the guard is then a no-op).
    pub fn arm(budget: Option<u64>) -> FuelGuard {
        let prev = FUEL.with(Cell::get);
        let prev_budget = FUEL_BUDGET.with(Cell::get);
        if let Some(b) = budget {
            FUEL.with(|f| f.set(Some(b)));
            FUEL_BUDGET.with(|f| f.set(b));
        }
        FuelGuard { prev, prev_budget }
    }
}

impl Drop for FuelGuard {
    fn drop(&mut self) {
        FUEL.with(|f| f.set(self.prev));
        FUEL_BUDGET.with(|f| f.set(self.prev_budget));
    }
}

/// Whether a fuel budget is currently armed on this thread.
pub fn fuel_armed() -> bool {
    FUEL.with(Cell::get).is_some()
}

/// Fuel remaining on this thread's armed budget, or `None` when disarmed.
/// `budget - fuel_remaining()` measures the units a region consumed — the
/// calibration example uses exactly that to price one unit in wall time.
pub fn fuel_remaining() -> Option<u64> {
    FUEL.with(Cell::get)
}

/// Fuel units charged for one device op touching `len` bytes: one unit per
/// op plus one per cache line moved, mirroring the latency model above.
#[inline]
pub fn op_units(len: usize) -> u64 {
    1 + (len as u64 >> 6)
}

/// Burns `units` of fuel if a budget is armed; raises [`FuelExhausted`] (via
/// `panic_any`) when the budget runs dry. A no-op on disarmed threads.
#[inline]
pub fn tick(units: u64) {
    FUEL.with(|f| {
        if let Some(rem) = f.get() {
            if rem < units {
                f.set(Some(0));
                let budget = FUEL_BUDGET.with(Cell::get);
                std::panic::panic_any(FuelExhausted { budget });
            }
            f.set(Some(rem - units));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_and_saturates() {
        let mut c = SimCost::default();
        c.charge(10);
        c.charge(5);
        assert_eq!(c.ns, 15);
        c.charge(u64::MAX);
        assert_eq!(c.ns, u64::MAX);
    }

    #[test]
    fn tick_without_fuel_is_a_noop() {
        assert!(!fuel_armed());
        tick(u64::MAX); // must not panic
    }

    #[test]
    fn fuel_guard_arms_restores_and_nests() {
        {
            let _g = FuelGuard::arm(Some(100));
            assert!(fuel_armed());
            tick(40);
            {
                let _inner = FuelGuard::arm(Some(7));
                tick(5);
            }
            // Inner guard restored the outer budget's remaining fuel.
            tick(60); // 40 + 60 = 100: exactly exhausts, does not exceed
        }
        assert!(!fuel_armed());
    }

    #[test]
    fn exhaustion_raises_fuel_exhausted_and_disarms() {
        let caught = std::panic::catch_unwind(|| {
            let _g = FuelGuard::arm(Some(10));
            tick(11);
        })
        .expect_err("fuel must run out");
        let fe = caught.downcast_ref::<FuelExhausted>().expect("typed payload");
        assert_eq!(fe.budget, 10);
        assert!(!fuel_armed(), "guard drop during unwind disarms the thread");
    }

    #[test]
    fn op_units_charges_per_line() {
        assert_eq!(op_units(0), 1);
        assert_eq!(op_units(63), 1);
        assert_eq!(op_units(64), 2);
        assert_eq!(op_units(4096), 65);
    }
}

//! Fault isolation for the checking pipeline.
//!
//! Chipmunk's targets are file systems whose *recovery paths are the code
//! under test* — the paper's kernel FSes oops and hang while mounting crash
//! states (several of its 23 bugs are exactly that), and Chipmunk survives
//! because each target runs in a VM it can reboot. This reproduction runs
//! the targets in process, so this module is the VM boundary's stand-in:
//!
//! * every checker stage (mount, walk, compare, probe) runs under
//!   [`std::panic::catch_unwind`], converting an escaping file-system panic
//!   into a [`Violation::RecoveryPanic`] *finding* instead of a harness
//!   abort — crash-state mutations roll back through the existing
//!   `CowDevice` overlay/undo log exactly as on the non-panicking path;
//! * mount/walk and probe arm the deterministic **fuel watchdog**
//!   ([`pmem::cost::tick`]): a recovery loop that exceeds its simulated-op
//!   budget unwinds with [`pmem::FuelExhausted`], which this module converts
//!   into [`Violation::RecoveryHang`]. Fuel is counted in device ops, not
//!   wall-clock, so verdicts stay bit-identical at any thread count.
//!
//! The stage guards are always on; the watchdog's budget is
//! [`TestConfig::recovery_fuel`] (`None` disables it). While a guard is
//! active the process panic hook is silenced on this thread, so a sweep over
//! thousands of panicking crash states does not flood stderr; the payload
//! ends up in the bug report instead.

use std::{
    any::Any,
    cell::Cell,
    panic::{self, AssertUnwindSafe},
    sync::Once,
};

use pmem::{FuelExhausted, FuelGuard, PmBackend};
use vfs::{FileSystem, FsKind};

use crate::{
    checker::{compare_state, probe_state, CheckKind},
    config::TestConfig,
    oracle::{snapshot_tree_scoped, Scope, Tree},
    report::{Stage, Violation},
};

thread_local! {
    static QUIET_DEPTH: Cell<u32> = const { Cell::new(0) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that defers to the previous
/// hook unless the current thread is inside a [`QuietPanics`] guard.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if QUIET_DEPTH.with(Cell::get) == 0 {
                prev(info);
            }
        }));
    });
}

/// RAII guard silencing panic-hook output on this thread while a caught
/// panic is an expected, reported outcome. Nests.
pub struct QuietPanics {
    _priv: (),
}

impl QuietPanics {
    /// Enters a quiet region on this thread.
    pub fn enter() -> QuietPanics {
        install_quiet_hook();
        QUIET_DEPTH.with(|d| d.set(d.get() + 1));
        QuietPanics { _priv: () }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        QUIET_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Renders a panic payload as a human-readable message.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(f) = payload.downcast_ref::<FuelExhausted>() {
        format!("fuel budget of {} simulated device ops exhausted", f.budget)
    } else {
        "non-string panic payload".to_string()
    }
}

/// Classifies a caught panic payload into the sandbox violation for `stage`:
/// a fuel-watchdog unwind becomes [`Violation::RecoveryHang`], anything else
/// [`Violation::RecoveryPanic`].
pub fn violation_for(stage: Stage, payload: &(dyn Any + Send)) -> Violation {
    if let Some(f) = payload.downcast_ref::<FuelExhausted>() {
        Violation::RecoveryHang {
            stage,
            payload: format!(
                "{stage} exceeded the recovery fuel budget of {} simulated device ops",
                f.budget
            ),
        }
    } else {
        Violation::RecoveryPanic {
            stage,
            payload: format!("panic during {stage}: {}", panic_message(payload)),
        }
    }
}

/// Runs `f`, converting an escaping panic into the sandbox violation for
/// `stage`. Hook output is silenced for the duration.
pub fn guarded<T>(stage: Stage, f: impl FnOnce() -> T) -> Result<T, Violation> {
    let _quiet = QuietPanics::enter();
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| violation_for(stage, p.as_ref()))
}

/// Mounts `kind` on `dev` and walks the tree — the first two checker stages
/// — under the sandbox and the fuel watchdog.
pub fn mount_walk<K: FsKind, D: PmBackend>(
    kind: &K,
    dev: D,
    walk_scope: &Scope,
    cfg: &TestConfig,
) -> Result<(K::Fs<D>, Tree), Violation> {
    // One fuel budget covers recovery and the walk together: a hanging
    // recovery often only manifests when the walk first touches the broken
    // structure.
    let _fuel = FuelGuard::arm(cfg.recovery_fuel);
    let fs = guarded(Stage::Mount, || kind.mount(dev))?
        .map_err(|e| Violation::Unmountable(e.to_string()))?;
    let tree = guarded(Stage::Walk, || snapshot_tree_scoped(&fs, walk_scope))?
        .map_err(Violation::CorruptState)?;
    Ok((fs, tree))
}

/// Stage-3 oracle comparison under the sandbox. `scope` must be the scope
/// the tree was walked under (see [`crate::checker::walk_scope`]) so every
/// byte the comparison reads is real. `pruned` counts hash-pruned node
/// comparisons (see [`TestConfig::shared_oracle`]).
pub fn compare<'a>(
    tree: &Tree,
    check: &CheckKind<'a>,
    cfg: &TestConfig,
    scope: &Scope,
    pruned: &mut u64,
) -> Option<Violation> {
    let mut inner = 0;
    match guarded(Stage::Compare, || compare_state(tree, check, cfg, scope, &mut inner)) {
        Ok(v) => {
            *pruned += inner;
            v
        }
        // A comparison that panicked contributes no prune count.
        Err(v) => Some(v),
    }
}

/// Stage-4 usability probe under the sandbox and fuel watchdog.
pub fn probe<F: FileSystem>(fs: &mut F, tree: &Tree, cfg: &TestConfig) -> Option<Violation> {
    let _fuel = FuelGuard::arm(cfg.recovery_fuel);
    match guarded(Stage::Probe, || probe_state(fs, tree)) {
        Ok(v) => v,
        Err(v) => Some(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::cost;

    #[test]
    fn guarded_passes_values_through() {
        assert_eq!(guarded(Stage::Compare, || 7), Ok(7));
    }

    #[test]
    fn guarded_converts_panics_with_stage_and_payload() {
        let v = guarded(Stage::Mount, || -> () { panic!("journal replay oops") })
            .expect_err("panic must be caught");
        match &v {
            Violation::RecoveryPanic { stage, payload } => {
                assert_eq!(*stage, Stage::Mount);
                assert!(payload.contains("mount"), "{payload}");
                assert!(payload.contains("journal replay oops"), "{payload}");
            }
            other => panic!("wrong class: {other:?}"),
        }
        assert_eq!(v.class(), "recovery-panic");
    }

    #[test]
    fn guarded_converts_fuel_exhaustion_into_hang() {
        let v = guarded(Stage::Walk, || {
            let _fuel = FuelGuard::arm(Some(100));
            loop {
                cost::tick(1);
            }
        })
        .expect_err("watchdog must fire");
        match &v {
            Violation::RecoveryHang { stage, payload } => {
                assert_eq!(*stage, Stage::Walk);
                assert!(payload.contains("100"), "{payload}");
            }
            other => panic!("wrong class: {other:?}"),
        }
        assert_eq!(v.class(), "recovery-hang");
    }

    #[test]
    fn quiet_guard_nests_and_unwinds() {
        let _outer = QuietPanics::enter();
        assert_eq!(QUIET_DEPTH.with(Cell::get), 1);
        let _ = guarded(Stage::Probe, || -> () { panic!("silenced") });
        // The inner guard's depth increment was released during the unwind.
        assert_eq!(QUIET_DEPTH.with(Cell::get), 1);
    }
}

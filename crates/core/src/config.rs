//! Test-harness configuration.

/// Configuration for one Chipmunk test run.
#[derive(Debug, Clone)]
pub struct TestConfig {
    /// Size of the simulated PM devices in bytes.
    pub device_size: u64,
    /// Maximum number of in-flight writes replayed per crash state (the
    /// paper's configurable cap, §3.3). The full set is always checked in
    /// addition. `None` = exhaustive.
    pub cap: Option<usize>,
    /// Safety valve: maximum number of crash states generated per crash
    /// point regardless of `cap`.
    pub max_states_per_point: u64,
    /// Coalesce address-contiguous non-temporal stores into single logical
    /// writes (the paper's file-data heuristic, §3.2).
    pub coalesce_data: bool,
    /// Run the usability probe (create a file in every directory, then
    /// delete every file) on each crash state.
    pub probe: bool,
    /// Stop checking a workload after its first violation.
    pub stop_on_first: bool,
    /// Compare inode numbers between crash state and oracle. Off by default:
    /// recovery may legally renumber inodes as long as the namespace and
    /// contents are right.
    pub compare_ino: bool,
    /// Test under the eADR persistence model: the caches are persistent, so
    /// every store is durable the moment it lands — there is no in-flight
    /// set and crash states are exact point-in-time snapshots. The paper's
    /// §3.6 argues Chipmunk ports to new persistence models by adjusting
    /// the logger and replayer; this flag is that port.
    pub eadr: bool,
    /// Ablation control for Observation 7: enumerate large subsets before
    /// small ones (default small-first). With `stop_on_first`, small-first
    /// reaches buggy crash states in far fewer mounts because "buggy crash
    /// states usually involve few writes".
    pub large_first_subsets: bool,
    /// How many workers the batch runners (`bench::run_batch`,
    /// `bench::Scheduler`) shard *workloads* over. One workload is always
    /// checked by one thread — nothing in this crate reads the field — and
    /// the runners commit results in batch order, so reports and counters
    /// are bit-identical for any value. `1` (the default) runs fully serial.
    pub threads: usize,
    /// Scoped checking: compare file *contents* against the oracle only for
    /// paths the in-flight operation can touch (its targets, their parents,
    /// and hard-link aliases); structure and metadata are always compared
    /// for every path. Production never clears it; `false` is how
    /// [`reference`](crate::reference) asks the shared walk/compare
    /// primitives for the literal full-tree semantics.
    pub scoped_check: bool,
    /// Fault isolation for the checking pipeline: run every checker stage
    /// (mount, walk, compare, probe) under `catch_unwind`, so a file-system
    /// panic while checking a crash state becomes a
    /// [`Violation::RecoveryPanic`](crate::report::Violation::RecoveryPanic)
    /// finding instead of tearing down the sweep — the in-process analogue
    /// of the paper's VM isolation. `false` restores fail-fast panics (for
    /// debugging the harness itself).
    pub sandbox: bool,
    /// Deterministic recovery watchdog: the fuel budget, in simulated device
    /// ops, that one mount+walk (or probe) of a crash state may spend before
    /// it is declared a
    /// [`Violation::RecoveryHang`](crate::report::Violation::RecoveryHang).
    /// Counted in device ops rather than wall-clock so verdicts are
    /// bit-identical at any thread count. Requires `sandbox`. `None`
    /// disables the watchdog.
    pub recovery_fuel: Option<u64>,
    /// Representative-state checking: cluster crash states by a behavioral
    /// signature ([`crashgen::behavior_sig`](crate::crashgen::behavior_sig)
    /// plus the crash point's check context), run the full check pipeline
    /// only on the first state of each class, and skip the rest as long as
    /// the representative stayed violation-free. A class whose
    /// representative reports *any* violation expands: every later member
    /// is checked exhaustively, so no bug is ever reported from an
    /// unchecked state and a hit class degrades to today's exhaustive
    /// behavior. Class tables are per workload, updated only at canonical
    /// commit, and live in prefix-cache checkpoints — outcomes are
    /// bit-identical across thread counts. Unlike the exact-image fast
    /// paths this one is lossy by design (Pathfinder-style representative
    /// testing): a violation unique to a skipped member of a clean class
    /// would be missed, which CI pins against the 25-bug corpus (zero
    /// missed bugs) and the production-vs-[`reference`](crate::reference)
    /// differentials. Counted by `rep_classes` / `rep_skipped` /
    /// `rep_expansions`.
    pub rep_check: bool,
    /// Structurally-shared oracle snapshots: build each per-op oracle tree
    /// by advancing the previous snapshot across the op's footprint
    /// (re-walking only the paths the op could have touched, sharing every
    /// untouched node by `Arc`) instead of deep-walking the whole tree per
    /// op, and let the diffs skip nodes whose content hashes match the
    /// oracle's. Hash equality uses the same 128-bit-collision assumption
    /// the dedup/memo layers already make; an op whose footprint cannot be
    /// named falls back to a full walk. Observationally identical to
    /// `false` — verdicts, reports and semantic counters are unchanged —
    /// except for wall time, memory, and the `oracle_subtrees_pruned` /
    /// `oracle_snap_bytes_shared` counters, so the knob stays out of
    /// [`semantic_knobs`](Self::semantic_knobs). Production never clears
    /// it; `false` is how [`reference`](crate::reference) asks for a
    /// deep-walked oracle and unpruned diffs.
    pub shared_oracle: bool,
    /// Record the content key of every committed crash state into
    /// [`TestOutcome::state_keys`](crate::TestOutcome), in canonical commit
    /// order (the campaign store folds them into its persistent per-FS
    /// crash-state bitmaps). Off by default — the vector grows with
    /// `crash_states` and most callers never look at it. Purely additive
    /// observability: verdicts, counters and reports are unaffected, so the
    /// knob stays out of [`semantic_knobs`](Self::semantic_knobs) like the
    /// other non-semantic switches.
    pub collect_state_keys: bool,
}

/// Default [`TestConfig::recovery_fuel`] budget. A full mount + walk of the
/// default 4 MiB device spends well under 2 M fuel units (≈ 1 unit per device
/// op + 1 per 64 bytes moved) on every file system in this workspace; 50 M
/// gives a > 25× margin while still bounding an injected infinite recovery
/// loop to well under a second of spinning.
pub const DEFAULT_RECOVERY_FUEL: u64 = 50_000_000;

impl Default for TestConfig {
    fn default() -> Self {
        TestConfig {
            device_size: 4 * 1024 * 1024,
            cap: None,
            max_states_per_point: 4096,
            coalesce_data: true,
            probe: true,
            stop_on_first: false,
            compare_ino: false,
            eadr: false,
            large_first_subsets: false,
            threads: 1,
            scoped_check: true,
            sandbox: true,
            recovery_fuel: Some(DEFAULT_RECOVERY_FUEL),
            rep_check: true,
            shared_oracle: true,
            collect_state_keys: false,
        }
    }
}

impl TestConfig {
    /// The configuration used for fuzzing campaigns: cap of two writes per
    /// crash state (§4.2 — "a cap of two writes … does not affect its
    /// ability to find bugs in practice") and early exit.
    pub fn fuzzing() -> Self {
        TestConfig { cap: Some(2), stop_on_first: true, ..Default::default() }
    }

    /// Returns a copy with the given replay cap.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Returns a copy with the given worker-thread count (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The outcome-affecting knobs as stable `(key, value)` string pairs —
    /// what a repro bundle must persist for a replay to reach the same
    /// verdict. `threads`, `scoped_check` and `shared_oracle` are
    /// deliberately absent: they are observationally identical by
    /// construction, so a bundle replays correctly under any of them.
    /// `rep_check` is absent too: bundles replay one pinned crash
    /// state through the single-state path, which never consults the
    /// representative layer.
    pub fn semantic_knobs(&self) -> Vec<(&'static str, String)> {
        fn opt(v: Option<u64>) -> String {
            match v {
                Some(x) => x.to_string(),
                None => "none".into(),
            }
        }
        vec![
            ("device_size", self.device_size.to_string()),
            ("cap", opt(self.cap.map(|c| c as u64))),
            ("max_states_per_point", self.max_states_per_point.to_string()),
            ("coalesce_data", self.coalesce_data.to_string()),
            ("probe", self.probe.to_string()),
            ("stop_on_first", self.stop_on_first.to_string()),
            ("compare_ino", self.compare_ino.to_string()),
            ("eadr", self.eadr.to_string()),
            ("large_first_subsets", self.large_first_subsets.to_string()),
            ("sandbox", self.sandbox.to_string()),
            ("recovery_fuel", opt(self.recovery_fuel)),
        ]
    }

    /// Sets one knob from its [`semantic_knobs`](Self::semantic_knobs)
    /// string form. Unknown keys are errors so a bundle written by a newer
    /// build fails loudly instead of silently replaying under wrong knobs.
    pub fn set_knob(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn b(v: &str) -> Result<bool, String> {
            v.parse().map_err(|_| format!("bad bool {v:?}"))
        }
        fn n(v: &str) -> Result<u64, String> {
            v.parse().map_err(|_| format!("bad number {v:?}"))
        }
        fn opt_n(v: &str) -> Result<Option<u64>, String> {
            if v == "none" { Ok(None) } else { n(v).map(Some) }
        }
        match key {
            "device_size" => self.device_size = n(value)?,
            "cap" => self.cap = opt_n(value)?.map(|c| c as usize),
            "max_states_per_point" => self.max_states_per_point = n(value)?,
            "coalesce_data" => self.coalesce_data = b(value)?,
            "probe" => self.probe = b(value)?,
            "stop_on_first" => self.stop_on_first = b(value)?,
            "compare_ino" => self.compare_ino = b(value)?,
            "eadr" => self.eadr = b(value)?,
            "large_first_subsets" => self.large_first_subsets = b(value)?,
            "sandbox" => self.sandbox = b(value)?,
            "recovery_fuel" => self.recovery_fuel = opt_n(value)?,
            _ => return Err(format!("unknown config knob {key:?}")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = TestConfig::default();
        assert!(c.cap.is_none());
        assert!(c.coalesce_data);
        assert!(c.probe);
        assert_eq!(TestConfig::fuzzing().cap, Some(2));
        assert_eq!(TestConfig::default().with_cap(5).cap, Some(5));
        assert_eq!(c.threads, 1);
        assert_eq!(TestConfig::default().with_threads(4).threads, 4);
        assert_eq!(TestConfig::default().with_threads(0).threads, 1);
        assert!(c.scoped_check);
        assert!(c.sandbox);
        assert_eq!(c.recovery_fuel, Some(DEFAULT_RECOVERY_FUEL));
        assert!(c.rep_check);
        assert!(c.shared_oracle);
        assert!(!c.collect_state_keys);
    }

    #[test]
    fn semantic_knobs_round_trip() {
        let src = TestConfig {
            device_size: 8 * 1024 * 1024,
            cap: Some(3),
            stop_on_first: true,
            eadr: true,
            recovery_fuel: None,
            ..Default::default()
        };
        let mut dst = TestConfig::default();
        for (k, v) in src.semantic_knobs() {
            dst.set_knob(k, &v).unwrap();
        }
        for ((k1, v1), (k2, v2)) in src.semantic_knobs().iter().zip(dst.semantic_knobs()) {
            assert_eq!((*k1, v1), (k2, &v2));
        }
        assert_eq!(dst.cap, Some(3));
        assert_eq!(dst.recovery_fuel, None);
        assert!(dst.set_knob("threads", "4").is_err());
        assert!(dst.set_knob("cap", "many").is_err());
        // Perf-only knobs never round-trip through bundles.
        assert!(dst.set_knob("rep_check", "true").is_err());
        assert!(dst.set_knob("shared_oracle", "true").is_err());
    }
}

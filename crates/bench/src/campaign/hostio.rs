//! Host-I/O mediation for the campaign store: every filesystem touch the
//! campaign service makes (store documents, journals, leases, merged
//! artifacts) goes through a [`HostIo`] implementation, so the same fault
//! machinery `pmem::fault` points at the file system under test can be
//! pointed at our own persistence layer.
//!
//! Three pieces:
//!
//! 1. [`HostIo`] — the path-based operation trait, with a passthrough
//!    implementation ([`PassthroughIo`]) and a deterministic, seed-driven
//!    fault injector ([`FaultyHostIo`]) that produces short writes, EIO,
//!    ENOSPC, torn appends cut at a configurable byte boundary, lying
//!    writes (success reported, tail dropped), and crash-before/after-
//!    rename schedules.
//! 2. [`HostCtx`] — the retry/recovery layer every store component holds: a
//!    bounded deterministic retry loop (simulated-clock backoff, no
//!    wall-time nondeterminism), atomic-write and verified-append
//!    primitives, and the host-health flags (`degraded` after ENOSPC,
//!    `crashed` after a simulated host death) plus the `io_retries` /
//!    `backoff_ticks` / `tasks_quarantined` observability counters.
//! 3. [`StoreError`] — the typed error taxonomy (Transient / Corrupt /
//!    Exhausted / Fatal) that replaces the stringly-typed plumbing, with
//!    process exit codes and the recovery action taken baked into the
//!    display form.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What the store did (or will do) about a corrupt artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The artifact was moved aside to `quarantine/` and its task will be
    /// re-leased and re-run; the campaign continues.
    Quarantined,
    /// The torn tail was truncated away; the valid prefix is still used.
    Truncated,
    /// Nothing can be rebuilt from this artifact; the operation stops.
    Fatal,
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RecoveryAction::Quarantined => "quarantined",
            RecoveryAction::Truncated => "truncated",
            RecoveryAction::Fatal => "fatal",
        })
    }
}

/// The campaign store's typed error taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A retryable host fault (EIO, a short or torn write) that survived
    /// the bounded retry loop. The task that hit it is abandoned and
    /// re-leased; the campaign continues.
    Transient {
        /// The operation that failed.
        op: &'static str,
        /// The path it failed on.
        path: String,
        /// The underlying error.
        detail: String,
    },
    /// An artifact that exists but does not parse (torn, truncated, or
    /// garbled JSON). Carries which file, which byte offset, and the
    /// recovery action taken.
    Corrupt {
        /// The corrupt file.
        path: String,
        /// Byte offset of the first unparsable input, when known.
        offset: Option<u64>,
        /// What was wrong.
        detail: String,
        /// What the store did about it.
        action: RecoveryAction,
    },
    /// The host is out of space (ENOSPC). The store switches to read-only
    /// degraded mode: committed state keeps serving `--resume` and triage,
    /// but no new artifacts are written.
    Exhausted {
        /// The operation that hit ENOSPC.
        op: &'static str,
        /// The path it failed on.
        path: String,
        /// The underlying error.
        detail: String,
    },
    /// Unrecoverable: a simulated host crash, a spec mismatch, or a
    /// corruption with no quarantine path.
    Fatal {
        /// What happened.
        detail: String,
    },
}

impl StoreError {
    /// A bare fatal error.
    pub fn fatal(detail: impl Into<String>) -> Self {
        StoreError::Fatal { detail: detail.into() }
    }

    /// A corruption error for `path`, extracting the `at byte N` offset the
    /// hand-rolled parser embeds in its messages.
    pub fn corrupt(path: &Path, detail: impl Into<String>, action: RecoveryAction) -> Self {
        let detail = detail.into();
        StoreError::Corrupt {
            path: path.display().to_string(),
            offset: parse_byte_offset(&detail),
            detail,
            action,
        }
    }

    /// The process exit code this error maps to: 2 for malformed input
    /// (corrupt artifacts), 3 for the degraded out-of-space mode, 1 for
    /// everything else. (Usage errors exit 2 before a store is opened.)
    pub fn exit_code(&self) -> i32 {
        match self {
            StoreError::Corrupt { .. } => 2,
            StoreError::Exhausted { .. } => 3,
            _ => 1,
        }
    }

    /// Whether the campaign can continue past this error by abandoning the
    /// current task (Transient, or a quarantined corruption).
    pub fn task_recoverable(&self) -> bool {
        matches!(
            self,
            StoreError::Transient { .. }
                | StoreError::Corrupt { action: RecoveryAction::Quarantined | RecoveryAction::Truncated, .. }
        )
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Transient { op, path, detail } => {
                write!(f, "{path}: {op} failed after {MAX_ATTEMPTS} attempts: {detail}")
            }
            StoreError::Corrupt { path, offset, detail, action } => match offset {
                Some(n) => write!(f, "{path}: corrupt at byte {n}: {detail} (recovery: {action})"),
                None => write!(f, "{path}: corrupt: {detail} (recovery: {action})"),
            },
            StoreError::Exhausted { op, path, detail } => write!(
                f,
                "{path}: {op}: {detail}; store is read-only (degraded mode) — committed \
                 state still serves --resume and triage"
            ),
            StoreError::Fatal { detail } => f.write_str(detail),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<String> for StoreError {
    fn from(detail: String) -> Self {
        StoreError::Fatal { detail }
    }
}

/// Pulls the `at byte N` offset out of a parser error message.
fn parse_byte_offset(detail: &str) -> Option<u64> {
    let idx = detail.rfind("at byte ")?;
    let digits: String = detail[idx + "at byte ".len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The path-based host-I/O operations the campaign store performs. All
/// writes are durable on success (`write` syncs the file, `append` syncs
/// data); atomicity is composed above this trait by [`HostCtx`].
pub trait HostIo: Send + Sync {
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates/truncates `path` and writes `bytes`, fsyncing the file.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` in one `write` call and syncs file data.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Exclusive create (`O_EXCL`) with `bytes`; `Ok(false)` when the file
    /// already exists.
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool>;
    /// Recursive directory create.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Truncates (or extends) `path` to `len`.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;
    /// File length, `None` when the file does not exist.
    fn file_len(&self, path: &Path) -> io::Result<Option<u64>>;
    /// Fsyncs a directory (rename durability).
    fn fsync_dir(&self, path: &Path) -> io::Result<()>;
    /// Whether writes should be read back and verified. Off for the
    /// passthrough (a page-cache read-back cannot catch real firmware
    /// lies); on for the injector, whose lies it provably catches.
    fn verify_writes(&self) -> bool {
        false
    }
    /// Total faults injected so far (0 for the passthrough).
    fn faults_injected(&self) -> u64 {
        0
    }
}

/// Direct `std::fs` implementation.
#[derive(Debug, Default)]
pub struct PassthroughIo;

impl HostIo for PassthroughIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        // Overwrite in place, then cut the old tail off: `File::create`
        // would truncate first, and a worker SIGKILLed between that and the
        // write leaves an *empty* lease — no pid to prove dead, so its task
        // waits out the whole TTL. A heartbeat is one small write call, so
        // a reader (or a kill) sees the old body or the new one.
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        f.write_all(bytes)?;
        f.set_len(bytes.len() as u64)?;
        f.sync_all()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        // One write call per append: a torn line can only be the very tail.
        f.write_all(bytes)?;
        f.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool> {
        use std::io::Write;
        let mut f = match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => return Ok(false),
            Err(e) => return Err(e),
        };
        f.write_all(bytes)?;
        f.sync_data()?;
        Ok(true)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        match std::fs::metadata(path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
}

/// Which side of a rename the simulated host crash lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSide {
    /// The host dies before the rename takes effect (tmp file orphaned).
    Before,
    /// The rename lands, then the host dies.
    After,
}

/// A deterministic fault schedule. All probabilities are per-mille and
/// drawn from a splitmix64 stream keyed by `(seed, op index)`, so two runs
/// with the same seed inject byte-identical fault sequences regardless of
/// timing.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// RNG seed.
    pub seed: u64,
    /// Per-mille chance of a plain transient EIO on any fallible op.
    pub eio_permille: u32,
    /// Per-mille chance a `write` persists only a prefix before failing.
    pub short_permille: u32,
    /// Per-mille chance an `append` is torn at [`Self::torn_boundary`]
    /// before failing.
    pub torn_permille: u32,
    /// Per-mille chance a `write` reports success but drops its tail (a
    /// lying device; caught by the read-back verification).
    pub lying_permille: u32,
    /// Byte boundary torn appends are cut at.
    pub torn_boundary: usize,
    /// After this many bytes written, every write/append fails ENOSPC.
    pub enospc_after_bytes: Option<u64>,
    /// Simulate whole-host death at the nth rename (0-based).
    pub crash_at_rename: Option<(u64, CrashSide)>,
}

impl FaultSpec {
    /// The standard torture mix: every fault class enabled at rates high
    /// enough to fire many times per campaign yet low enough that the
    /// bounded retry loop almost always recovers.
    pub fn standard(seed: u64) -> Self {
        FaultSpec {
            seed,
            eio_permille: 30,
            short_permille: 15,
            torn_permille: 15,
            lying_permille: 10,
            torn_boundary: 7,
            enospc_after_bytes: None,
            crash_at_rename: None,
        }
    }

    /// A fault-free spec (useful as a base for targeted schedules).
    pub fn none(seed: u64) -> Self {
        FaultSpec {
            seed,
            eio_permille: 0,
            short_permille: 0,
            torn_permille: 0,
            lying_permille: 0,
            torn_boundary: 7,
            enospc_after_bytes: None,
            crash_at_rename: None,
        }
    }
}

/// The error text every operation returns once the simulated host has
/// died; [`HostCtx`] classifies it as [`StoreError::Fatal`].
pub const CRASH_MARKER: &str = "simulated host crash";

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed-driven fault injector wrapping [`PassthroughIo`]. Interior state is
/// all atomics, so one injector can be shared by every store component of a
/// worker.
pub struct FaultyHostIo {
    spec: FaultSpec,
    inner: PassthroughIo,
    ops: AtomicU64,
    renames: AtomicU64,
    bytes_written: AtomicU64,
    dead: AtomicBool,
    faults: AtomicU64,
}

enum Roll {
    Clean,
    Eio,
    Short,
    Torn,
    Lying,
}

impl FaultyHostIo {
    /// A new injector for `spec`.
    pub fn new(spec: FaultSpec) -> Self {
        FaultyHostIo {
            spec,
            inner: PassthroughIo,
            ops: AtomicU64::new(0),
            renames: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            faults: AtomicU64::new(0),
        }
    }

    /// Whether the simulated host has died (crash schedule fired).
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn crash_err() -> io::Error {
        io::Error::other(CRASH_MARKER)
    }

    fn enospc() -> io::Error {
        io::Error::from_raw_os_error(28) // ENOSPC
    }

    /// Draws the fault decision for the next op. Each call consumes one op
    /// index, so a retried operation sees an independent roll.
    fn roll(&self) -> io::Result<Roll> {
        if self.is_dead() {
            return Err(Self::crash_err());
        }
        let idx = self.ops.fetch_add(1, Ordering::SeqCst);
        let r = splitmix64(self.spec.seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 1000;
        let s = &self.spec;
        let mut hi = s.eio_permille;
        if (r as u32) < hi {
            return Ok(Roll::Eio);
        }
        hi += s.short_permille;
        if (r as u32) < hi {
            return Ok(Roll::Short);
        }
        hi += s.torn_permille;
        if (r as u32) < hi {
            return Ok(Roll::Torn);
        }
        hi += s.lying_permille;
        if (r as u32) < hi {
            return Ok(Roll::Lying);
        }
        Ok(Roll::Clean)
    }

    fn fault(&self) -> io::Error {
        self.faults.fetch_add(1, Ordering::SeqCst);
        io::Error::other("injected EIO")
    }

    fn charge_bytes(&self, n: usize) -> io::Result<()> {
        let total = self.bytes_written.fetch_add(n as u64, Ordering::SeqCst) + n as u64;
        if let Some(budget) = self.spec.enospc_after_bytes {
            if total > budget {
                self.faults.fetch_add(1, Ordering::SeqCst);
                return Err(Self::enospc());
            }
        }
        Ok(())
    }
}

impl HostIo for FaultyHostIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.roll()? {
            Roll::Eio => Err(self.fault()),
            _ => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let roll = self.roll()?;
        self.charge_bytes(bytes.len())?;
        match roll {
            Roll::Eio => Err(self.fault()),
            Roll::Short => {
                // A short write persists an arbitrary prefix, then errors.
                let cut = bytes.len() / 2;
                let _ = self.inner.write(path, &bytes[..cut]);
                Err(self.fault())
            }
            Roll::Lying => {
                // The device claims success but drops the tail. Only the
                // read-back verification can catch this.
                let cut = bytes.len().saturating_sub(1);
                self.faults.fetch_add(1, Ordering::SeqCst);
                self.inner.write(path, &bytes[..cut])
            }
            Roll::Torn | Roll::Clean => self.inner.write(path, bytes),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let roll = self.roll()?;
        self.charge_bytes(bytes.len())?;
        match roll {
            Roll::Eio => Err(self.fault()),
            Roll::Torn | Roll::Short => {
                // A torn append persists a prefix cut at the configured
                // boundary — the half-written journal line of a dying host.
                let cut = self.spec.torn_boundary.min(bytes.len().saturating_sub(1));
                let _ = self.inner.append(path, &bytes[..cut]);
                Err(self.fault())
            }
            Roll::Lying => {
                let cut = bytes.len().saturating_sub(1);
                self.faults.fetch_add(1, Ordering::SeqCst);
                self.inner.append(path, &bytes[..cut])
            }
            Roll::Clean => self.inner.append(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.is_dead() {
            return Err(Self::crash_err());
        }
        let n = self.renames.fetch_add(1, Ordering::SeqCst);
        if let Some((at, side)) = self.spec.crash_at_rename {
            if n == at {
                self.dead.store(true, Ordering::SeqCst);
                self.faults.fetch_add(1, Ordering::SeqCst);
                return match side {
                    CrashSide::Before => Err(Self::crash_err()),
                    CrashSide::After => {
                        let _ = self.inner.rename(from, to);
                        Err(Self::crash_err())
                    }
                };
            }
        }
        match self.roll()? {
            Roll::Eio => Err(self.fault()),
            _ => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.roll()? {
            Roll::Eio => Err(self.fault()),
            _ => self.inner.remove_file(path),
        }
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<bool> {
        let roll = self.roll()?;
        self.charge_bytes(bytes.len())?;
        match roll {
            Roll::Eio => Err(self.fault()),
            _ => self.inner.create_new(path, bytes),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.roll()? {
            Roll::Eio => Err(self.fault()),
            _ => self.inner.create_dir_all(path),
        }
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.roll()? {
            Roll::Eio => Err(self.fault()),
            _ => self.inner.set_len(path, len),
        }
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        if self.is_dead() {
            return Err(Self::crash_err());
        }
        self.inner.file_len(path)
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        match self.roll()? {
            Roll::Eio => Err(self.fault()),
            _ => self.inner.fsync_dir(path),
        }
    }

    fn verify_writes(&self) -> bool {
        true
    }

    fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::SeqCst)
    }
}

/// Retry attempts per operation (first try + three retries).
pub const MAX_ATTEMPTS: u32 = 4;

/// Simulated-clock backoff schedule, in ticks, between attempts.
const BACKOFF_TICKS: [u64; 3] = [1, 2, 4];

struct CtxInner {
    io: Arc<dyn HostIo>,
    retries: AtomicU64,
    backoff_ticks: AtomicU64,
    clock: AtomicU64,
    quarantined: AtomicU64,
    degraded: AtomicBool,
    crashed: AtomicBool,
}

/// The shared retry/recovery context every store component holds. Cloning
/// shares the underlying injector and counters.
#[derive(Clone)]
pub struct HostCtx {
    inner: Arc<CtxInner>,
}

impl std::fmt::Debug for HostCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostCtx")
            .field("io_retries", &self.io_retries())
            .field("degraded", &self.degraded())
            .field("crashed", &self.crashed())
            .finish()
    }
}

impl HostCtx {
    /// A context over the real filesystem.
    pub fn passthrough() -> Self {
        Self::with_io(Arc::new(PassthroughIo))
    }

    /// A context over a fault injector with the given schedule.
    pub fn faulty(spec: FaultSpec) -> Self {
        Self::with_io(Arc::new(FaultyHostIo::new(spec)))
    }

    /// A context over an arbitrary [`HostIo`].
    pub fn with_io(io: Arc<dyn HostIo>) -> Self {
        HostCtx {
            inner: Arc::new(CtxInner {
                io,
                retries: AtomicU64::new(0),
                backoff_ticks: AtomicU64::new(0),
                clock: AtomicU64::new(0),
                quarantined: AtomicU64::new(0),
                degraded: AtomicBool::new(false),
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// Retries performed (attempts beyond the first, across all ops).
    pub fn io_retries(&self) -> u64 {
        self.inner.retries.load(Ordering::SeqCst)
    }

    /// Simulated-clock ticks spent backing off.
    pub fn backoff_ticks(&self) -> u64 {
        self.inner.backoff_ticks.load(Ordering::SeqCst)
    }

    /// Results quarantined through this context.
    pub fn tasks_quarantined(&self) -> u64 {
        self.inner.quarantined.load(Ordering::SeqCst)
    }

    /// Counts one quarantined artifact.
    pub fn note_quarantine(&self) {
        self.inner.quarantined.fetch_add(1, Ordering::SeqCst);
    }

    /// Whether the store has entered read-only degraded mode (ENOSPC seen).
    pub fn degraded(&self) -> bool {
        self.inner.degraded.load(Ordering::SeqCst)
    }

    /// Whether the simulated host has died under this context.
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Faults the underlying injector produced (0 for the passthrough).
    pub fn faults_injected(&self) -> u64 {
        self.inner.io.faults_injected()
    }

    /// Classifies a raw I/O error, updating the host-health flags.
    fn classify(&self, op: &'static str, path: &Path, e: &io::Error) -> StoreError {
        let detail = e.to_string();
        if detail.contains(CRASH_MARKER) {
            self.inner.crashed.store(true, Ordering::SeqCst);
            return StoreError::Fatal {
                detail: format!("{}: {op}: {detail}", path.display()),
            };
        }
        if e.raw_os_error() == Some(28) {
            self.inner.degraded.store(true, Ordering::SeqCst);
            return StoreError::Exhausted { op, path: path.display().to_string(), detail };
        }
        StoreError::Transient { op, path: path.display().to_string(), detail }
    }

    /// One backoff step on the simulated clock. Deterministic: no wall
    /// time, just a counted tick plus a scheduler yield (so a racing
    /// sibling worker can make progress in in-process fleet tests).
    fn backoff(&self, attempt: u32) {
        let ticks = BACKOFF_TICKS[(attempt as usize).min(BACKOFF_TICKS.len() - 1)];
        self.inner.clock.fetch_add(ticks, Ordering::SeqCst);
        self.inner.backoff_ticks.fetch_add(ticks, Ordering::SeqCst);
        std::thread::yield_now();
    }

    /// Runs `f` with bounded retry: Transient errors are retried
    /// [`MAX_ATTEMPTS`] times with simulated-clock backoff; Exhausted and
    /// Fatal return immediately.
    fn retrying<T>(
        &self,
        op: &'static str,
        path: &Path,
        mut f: impl FnMut(&dyn HostIo) -> io::Result<T>,
    ) -> Result<T, StoreError> {
        let mut last: Option<StoreError> = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.inner.retries.fetch_add(1, Ordering::SeqCst);
                self.backoff(attempt - 1);
            }
            match f(self.inner.io.as_ref()) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let se = self.classify(op, path, &e);
                    if !matches!(se, StoreError::Transient { .. }) {
                        return Err(se);
                    }
                    last = Some(se);
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Atomic durable write: tmp sibling → fsync → rename → parent-dir
    /// fsync, with the whole sequence retried on transient faults and (for
    /// injecting backends) the final contents read back and verified, so a
    /// lying write can never commit a corrupt artifact.
    pub fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let tmp = tmp_path(path);
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let mut last: Option<StoreError> = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.inner.retries.fetch_add(1, Ordering::SeqCst);
                self.backoff(attempt - 1);
            }
            let res = (|| -> Result<(), StoreError> {
                let io = self.inner.io.as_ref();
                io.write(&tmp, bytes).map_err(|e| self.classify("write", &tmp, &e))?;
                if io.verify_writes() {
                    let back = io.read(&tmp).map_err(|e| self.classify("read", &tmp, &e))?;
                    if back != bytes {
                        return Err(StoreError::Transient {
                            op: "write-verify",
                            path: tmp.display().to_string(),
                            detail: format!(
                                "read back {} bytes, wrote {} (lying write)",
                                back.len(),
                                bytes.len()
                            ),
                        });
                    }
                }
                io.rename(&tmp, path).map_err(|e| self.classify("rename", path, &e))?;
                // The rename is not durable until the directory is synced.
                io.fsync_dir(&parent).map_err(|e| self.classify("fsync-dir", &parent, &e))?;
                Ok(())
            })();
            match res {
                Ok(()) => return Ok(()),
                Err(se) => {
                    if !matches!(se, StoreError::Transient { .. }) {
                        let _ = self.inner.io.remove_file(&tmp);
                        return Err(se);
                    }
                    last = Some(se);
                }
            }
        }
        let _ = self.inner.io.remove_file(&tmp);
        Err(last.expect("at least one attempt ran"))
    }

    /// Durable single-line append with torn-write rollback: the file length
    /// is recorded first; a failed or lying append truncates back to it
    /// before retrying, so a torn half-line can never sit *inside* a
    /// journal — only at the tail of a genuine crash.
    pub fn append_line(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        let base = self
            .retrying("stat", path, |io| io.file_len(path))?
            .unwrap_or(0);
        let mut last: Option<StoreError> = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.inner.retries.fetch_add(1, Ordering::SeqCst);
                self.backoff(attempt - 1);
            }
            let res = (|| -> Result<(), StoreError> {
                let io = self.inner.io.as_ref();
                io.append(path, bytes).map_err(|e| self.classify("append", path, &e))?;
                if io.verify_writes() {
                    let back = io.read(path).map_err(|e| self.classify("read", path, &e))?;
                    let want = base as usize + bytes.len();
                    if back.len() != want || &back[base as usize..] != bytes {
                        return Err(StoreError::Transient {
                            op: "append-verify",
                            path: path.display().to_string(),
                            detail: format!("file is {} bytes, expected {want}", back.len()),
                        });
                    }
                }
                Ok(())
            })();
            match res {
                Ok(()) => return Ok(()),
                Err(se) => {
                    // Roll the torn tail back before the next attempt (or
                    // before handing the file to a successor).
                    self.rollback_len(path, base);
                    if !matches!(se, StoreError::Transient { .. }) {
                        return Err(se);
                    }
                    last = Some(se);
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Best-effort truncate back to `base` (append rollback).
    fn rollback_len(&self, path: &Path, base: u64) {
        for _ in 0..MAX_ATTEMPTS {
            match self.inner.io.file_len(path) {
                Ok(Some(len)) if len > base => {
                    if self.inner.io.set_len(path, base).is_ok() {
                        return;
                    }
                }
                Ok(_) => return,
                Err(_) => {}
            }
            std::thread::yield_now();
        }
    }

    /// Reads a whole file with retry.
    pub fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        self.retrying("read", path, |io| io.read(path))
    }

    /// Reads a whole file, `None` when it does not exist.
    pub fn read_opt(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        let mut last: Option<StoreError> = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.inner.retries.fetch_add(1, Ordering::SeqCst);
                self.backoff(attempt - 1);
            }
            match self.inner.io.read(path) {
                Ok(v) => return Ok(Some(v)),
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
                Err(e) => {
                    let se = self.classify("read", path, &e);
                    if !matches!(se, StoreError::Transient { .. }) {
                        return Err(se);
                    }
                    last = Some(se);
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Reads a file as UTF-8 text, `None` when absent.
    pub fn read_to_string_opt(&self, path: &Path) -> Result<Option<String>, StoreError> {
        match self.read_opt(path)? {
            None => Ok(None),
            Some(bytes) => String::from_utf8(bytes)
                .map(Some)
                .map_err(|e| StoreError::corrupt(path, format!("not UTF-8: {e}"), RecoveryAction::Fatal)),
        }
    }

    /// Exclusive create with retry; `Ok(false)` when the file exists.
    pub fn create_new(&self, path: &Path, bytes: &[u8]) -> Result<bool, StoreError> {
        self.retrying("create", path, |io| io.create_new(path, bytes))
    }

    /// Recursive directory create with retry.
    pub fn create_dir_all(&self, path: &Path) -> Result<(), StoreError> {
        self.retrying("mkdir", path, |io| io.create_dir_all(path))
    }

    /// Removes a file with retry; absence is success.
    pub fn remove_file(&self, path: &Path) -> Result<(), StoreError> {
        let mut last: Option<StoreError> = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.inner.retries.fetch_add(1, Ordering::SeqCst);
                self.backoff(attempt - 1);
            }
            match self.inner.io.remove_file(path) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
                Err(e) => {
                    let se = self.classify("remove", path, &e);
                    if !matches!(se, StoreError::Transient { .. }) {
                        return Err(se);
                    }
                    last = Some(se);
                }
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// Renames with retry.
    pub fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        self.retrying("rename", to, |io| io.rename(from, to))
    }

    /// Fire-and-forget overwrite for heartbeat tokens: one attempt, errors
    /// swallowed (a missed heartbeat only risks needless reclamation, which
    /// is harmless — results are deterministic and journal appends are
    /// first-writer-wins).
    pub fn overwrite_quiet(&self, path: &Path, bytes: &[u8]) {
        let _ = self.inner.io.write(path, bytes);
    }

    /// Whether `path` exists (best effort; errors read as "absent").
    pub fn exists(&self, path: &Path) -> bool {
        matches!(self.inner.io.file_len(path), Ok(Some(_)))
    }

    /// Truncates a file with retry.
    pub fn set_len(&self, path: &Path, len: u64) -> Result<(), StoreError> {
        self.retrying("truncate", path, |io| io.set_len(path, len))
    }

    /// File length with retry; `None` when the file does not exist.
    pub fn file_len(&self, path: &Path) -> Result<Option<u64>, StoreError> {
        self.retrying("stat", path, |io| io.file_len(path))
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The process-wide passthrough context `jsonout::write_atomic` delegates
/// to, so every artifact the binaries emit flows through the same mediated
/// path as the campaign store.
pub fn default_ctx() -> &'static HostCtx {
    static CTX: OnceLock<HostCtx> = OnceLock::new();
    CTX.get_or_init(HostCtx::passthrough)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("chipmunk-hostio-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// `write` overwrites in place (no empty window for a SIGKILL to
    /// freeze — see `PassthroughIo::write`) and still leaves exactly `bytes`.
    #[test]
    fn passthrough_write_replaces_the_whole_content() {
        let dir = tmpdir("write");
        let (io, f) = (PassthroughIo, dir.join("f"));
        for body in ["a long first body\n", "short\n", "", "longer than the one before\n"] {
            io.write(&f, body.as_bytes()).unwrap();
            assert_eq!(io.read(&f).unwrap(), body.as_bytes());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let dir = tmpdir("det");
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let io = FaultyHostIo::new(FaultSpec::standard(42));
                (0..200)
                    .map(|i| io.write(&dir.join("f"), format!("x{i}").as_bytes()).is_ok())
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed must inject the same schedule");
        assert!(runs[0].iter().any(|ok| !ok), "standard mix must inject something in 200 ops");
        assert!(runs[0].iter().any(|ok| *ok), "standard mix must also let ops through");
        let other: Vec<bool> = {
            let io = FaultyHostIo::new(FaultSpec::standard(43));
            (0..200)
                .map(|i| io.write(&dir.join("f"), format!("x{i}").as_bytes()).is_ok())
                .collect()
        };
        assert_ne!(runs[0], other, "different seeds must differ");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_retries_through_transient_faults() {
        let dir = tmpdir("retry");
        let path = dir.join("doc.json");
        // Aggressive EIO: each write_atomic needs several clean ops in a
        // row, so in-context retries fire constantly — and a write that
        // exhausts all its attempts is re-issued whole, exactly like the
        // runner abandoning and re-claiming a task. Every retry draws fresh
        // op indices, so the loop always terminates.
        let ctx = HostCtx::faulty(FaultSpec { eio_permille: 300, ..FaultSpec::none(7) });
        for i in 0..50 {
            let doc = format!("{{\"i\":{i}}}\n");
            let mut reissues = 0;
            while let Err(e) = ctx.write_atomic(&path, doc.as_bytes()) {
                assert!(matches!(e, StoreError::Transient { .. }), "{e}");
                reissues += 1;
                assert!(reissues < 64, "write {i} must eventually land");
            }
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"i\":49}\n");
        assert!(ctx.io_retries() > 0, "must have retried at least once");
        assert!(ctx.backoff_ticks() > 0, "retries tick the simulated clock");
        assert!(!ctx.degraded() && !ctx.crashed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_atomic_leaves_target_and_no_tmp_behind() {
        let dir = tmpdir("intact");
        let path = dir.join("doc.json");
        std::fs::write(&path, "{\"old\": true}\n").unwrap();
        // Every op fails: the write cannot land, but the old contents and
        // directory must be untouched.
        let ctx = HostCtx::faulty(FaultSpec { eio_permille: 1000, ..FaultSpec::none(1) });
        let err = ctx.write_atomic(&path, b"{\"new\": true}\n").unwrap_err();
        assert!(matches!(err, StoreError::Transient { .. }), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"old\": true}\n");
        assert!(ctx.io_retries() >= (MAX_ATTEMPTS - 1) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_writes_are_caught_by_verification() {
        let dir = tmpdir("lying");
        let path = dir.join("doc.json");
        // Only lying writes: every write claims success but drops a byte.
        // Verification must catch each one and the retry loop re-rolls (the
        // lie fires per-op, so with permille 1000 it never recovers — the
        // final error must be the verify failure, and the *target* file must
        // never hold the corrupt bytes).
        let ctx = HostCtx::faulty(FaultSpec { lying_permille: 1000, ..FaultSpec::none(3) });
        let err = ctx.write_atomic(&path, b"{\"x\": 1}\n").unwrap_err();
        match &err {
            StoreError::Transient { op, .. } => assert_eq!(*op, "write-verify"),
            other => panic!("expected verify failure, got {other}"),
        }
        assert!(!path.exists(), "a lying write must never be renamed into place");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_rolls_back_and_retries() {
        let dir = tmpdir("torn");
        let path = dir.join("task-0.log");
        let ctx = HostCtx::faulty(FaultSpec { torn_permille: 400, ..FaultSpec::none(11) });
        let lines: Vec<String> = (0..40).map(|i| format!("{{\"i\":{i}}}\n")).collect();
        for l in &lines {
            // A line may exhaust its in-context attempts under this tear
            // rate; the caller-level retry mirrors the runner's
            // abandon-and-re-lease loop and must find a rolled-back tail.
            let mut tries = 0;
            while let Err(e) = ctx.append_line(&path, l.as_bytes()) {
                assert!(matches!(e, StoreError::Transient { .. }), "{e}");
                tries += 1;
                assert!(tries < 64, "append never succeeded under the schedule");
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, lines.concat(), "torn prefixes must never survive inside the journal");
        assert!(ctx.faults_injected() > 0, "schedule must actually tear appends");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_classifies_exhausted_and_degrades() {
        let dir = tmpdir("enospc");
        let ctx = HostCtx::faulty(FaultSpec { enospc_after_bytes: Some(64), ..FaultSpec::none(5) });
        ctx.write_atomic(&dir.join("a.json"), &[b'x'; 60]).unwrap();
        let err = ctx.write_atomic(&dir.join("b.json"), &[b'y'; 60]).unwrap_err();
        assert!(matches!(err, StoreError::Exhausted { .. }), "{err}");
        assert_eq!(err.exit_code(), 3);
        assert!(ctx.degraded(), "ENOSPC must flip the degraded flag");
        // Reads still work in degraded mode.
        assert_eq!(ctx.read(&dir.join("a.json")).unwrap(), vec![b'x'; 60]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_at_rename_kills_the_host() {
        for side in [CrashSide::Before, CrashSide::After] {
            let dir = tmpdir(&format!("crash-{side:?}"));
            let ctx = HostCtx::faulty(FaultSpec {
                crash_at_rename: Some((1, side)),
                ..FaultSpec::none(9)
            });
            ctx.write_atomic(&dir.join("a.json"), b"one\n").unwrap();
            let err = ctx.write_atomic(&dir.join("b.json"), b"two\n").unwrap_err();
            assert!(matches!(err, StoreError::Fatal { .. }), "{err}");
            assert!(ctx.crashed());
            match side {
                CrashSide::Before => assert!(!dir.join("b.json").exists()),
                CrashSide::After => {
                    assert_eq!(std::fs::read_to_string(dir.join("b.json")).unwrap(), "two\n")
                }
            }
            // Everything after the crash fails fatally — the host is dead.
            let err = ctx.read(&dir.join("a.json")).unwrap_err();
            assert!(matches!(err, StoreError::Fatal { .. }));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn store_error_reports_file_offset_and_action() {
        let e = StoreError::corrupt(
            Path::new("/store/results/task-3.json"),
            "expected ',' or '}' at byte 117",
            RecoveryAction::Quarantined,
        );
        assert_eq!(e.exit_code(), 2);
        let msg = e.to_string();
        assert!(msg.contains("task-3.json"), "{msg}");
        assert!(msg.contains("byte 117"), "{msg}");
        assert!(msg.contains("quarantined"), "{msg}");
        assert!(e.task_recoverable());
        assert!(!StoreError::fatal("x").task_recoverable());
    }
}

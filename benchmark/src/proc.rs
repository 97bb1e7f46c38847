//! Process resource usage (`getrusage`): CPU time, peak RSS, page faults.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads struct rusage with its 64-bit Linux layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals followed by fourteen longs.
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _ixrss: i64,
    _idrss: i64,
    _isrss: i64,
    minflt: i64,
    _rest: [i64; 9],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the process's cumulative resource usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System (kernel) CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size so far, in MiB.
    pub peak_rss_mb: f64,
    /// Minor page faults so far.
    pub minor_faults: u64,
}

impl Usage {
    /// The usage of the whole process (all threads) up to now.
    pub fn now() -> Usage {
        let mut ru = std::mem::MaybeUninit::<RUsage>::zeroed();
        // SAFETY: `ru` points at writable memory of exactly the size and
        // layout the kernel fills for RUSAGE_SELF on 64-bit Linux (the
        // compile_error above rejects every other target); it was zeroed, so
        // it is initialised even if the call fails.
        let ru = unsafe {
            getrusage(RUSAGE_SELF, ru.as_mut_ptr());
            ru.assume_init()
        };
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            peak_rss_mb: ru.maxrss_kb as f64 / 1024.0,
            minor_faults: ru.minflt as u64,
        }
    }

    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

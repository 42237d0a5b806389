//! Processor affinity for worker threads.
//!
//! The paper's measurements were taken on an 8-processor SGI Challenge
//! XL where each x-kernel worker ran on its own processor. To reproduce
//! that topology natively, each worker pins itself to one core via
//! `sched_setaffinity(2)`. Pinning is best-effort: CI containers and
//! restricted sandboxes may reject the syscall (or we may be running on
//! a non-Linux host), in which case the worker proceeds unpinned. No
//! report records whether a pin took: the cycle-model accounting is
//! unaffected because all cache costs are simulated, not measured, and
//! a report is a function of (config, seed), not of the host.

use std::fmt;

/// Why a pin attempt did not take effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinError {
    /// The platform has no affinity syscall we know how to call (or the
    /// pinner is a deliberate no-op).
    Unsupported,
    /// `sched_setaffinity` failed with this `errno` (typically `EPERM`
    /// in restricted containers or `EINVAL` for an offline core).
    Os(i32),
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::Unsupported => write!(f, "core pinning unsupported on this platform"),
            PinError::Os(errno) => write!(f, "sched_setaffinity failed (errno {errno})"),
        }
    }
}

impl std::error::Error for PinError {}

/// Strategy for binding the calling thread to a core.
///
/// A trait (rather than a free function) so [`Pinning`](crate::runtime::Pinning)
/// selects the real or the no-op pinner behind one interface and
/// non-Linux builds fall back cleanly.
pub trait CorePinner: Send + Sync {
    /// Bind the *calling* thread to `core`. Returns `Err` when the bind
    /// did not take effect; callers treat that as advisory.
    fn pin_current(&self, core: usize) -> Result<(), PinError>;

    /// Number of schedulable cores visible to this process (used to wrap
    /// worker→core assignment when workers outnumber cores).
    fn cores(&self) -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The real pinner: `sched_setaffinity(2)` on Linux, a hard
/// [`PinError::Unsupported`] elsewhere.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsPinner;

/// Up to 1024 CPUs — the kernel only requires the mask to cover the
/// cores it knows about, and 16 × 64 matches glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
fn set_affinity_linux(core: usize) -> Result<(), PinError> {
    // Declared directly against glibc to keep the workspace free of an
    // external `libc` dependency; the signature matches
    // `sched_setaffinity(pid_t, size_t, const cpu_set_t *)`.
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    if core >= MASK_WORDS * 64 {
        return Err(PinError::Os(22)); // EINVAL
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] = 1u64 << (core % 64);
    // SAFETY: `mask` is a live array of `MASK_WORDS` words and the size
    // passed is exactly its byte length, so the kernel reads only within
    // it; pid 0 names the calling thread.
    #[allow(unsafe_code)]
    let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(PinError::Os(
            std::io::Error::last_os_error().raw_os_error().unwrap_or(-1),
        ))
    }
}

impl CorePinner for OsPinner {
    fn pin_current(&self, core: usize) -> Result<(), PinError> {
        #[cfg(target_os = "linux")]
        {
            set_affinity_linux(core)
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = core;
            Err(PinError::Unsupported)
        }
    }

    fn name(&self) -> &'static str {
        "sched_setaffinity"
    }
}

/// A pinner that never pins — selected by
/// [`Pinning::Off`](crate::runtime::Pinning) and useful in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopPinner;

impl CorePinner for NoopPinner {
    fn pin_current(&self, _core: usize) -> Result<(), PinError> {
        Err(PinError::Unsupported)
    }

    fn name(&self) -> &'static str {
        "noop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_pinner_reports_unsupported() {
        assert_eq!(NoopPinner.pin_current(0), Err(PinError::Unsupported));
        assert!(NoopPinner.cores() >= 1);
    }

    #[test]
    fn os_pinner_is_best_effort() {
        // Must not panic whether or not the sandbox permits the syscall;
        // both outcomes are legal, and an out-of-range core must fail.
        let _ = OsPinner.pin_current(0);
        assert!(OsPinner.pin_current(MASK_WORDS * 64).is_err());
    }

    #[test]
    fn errors_display() {
        assert!(PinError::Unsupported.to_string().contains("unsupported"));
        assert!(PinError::Os(1).to_string().contains("errno 1"));
    }
}

//! What the benchmark records about the machine it ran on, and the
//! calibration kernel behind the noise guard.

use std::time::Instant;

use afs_native::pin::{CorePinner, OsPinner};

use crate::json::Json;

/// Iterations of the calibration kernel at full size (≈0.2 s on the
/// sizing host).
pub const CALIB_ITERS: u64 = 100_000_000;

/// Iterations of the calibration kernel timed beside every slice
/// (≈20 ms on the sizing host).
pub const SLICE_CALIB_ITERS: u64 = 10_000_000;

/// The reference host speed: nanoseconds per iteration of the
/// calibration kernel that define one *reference second*. The sizing
/// host's processors run the kernel at ≈1.98 ns per iteration in their
/// usual state and at ≈1.55 in their fast one, each processor on its own
/// and for seconds at a time; a slice timed while the kernel read `c` ns
/// per iteration on the processors that did its work took
/// `wall × 2.0 / c` reference seconds. Only ratios between commits on
/// one host mean anything, as with every host-time metric; the constant
/// only keeps the numbers near packets per wall second.
pub const CALIB_REF_NS_PER_ITER: f64 = 2.0;

/// Bind the calling thread to `core`; advisory (containers may refuse).
pub fn pin_current(core: usize) -> bool {
    OsPinner.pin_current(core).is_ok()
}

/// The calibration kernel on the processors that do a workload's work,
/// ns per iteration. With `cores` empty that is the calling thread (the
/// simulator runs on it). Otherwise one helper thread per core, each
/// bound to its core and all running at once, as the native workers are
/// (`Pinning::Auto` binds worker `i` to core `i`); the mean of their
/// readings.
pub fn calibrate_on(cores: &[usize], iters: u64) -> f64 {
    if cores.is_empty() {
        return calibrate(iters) / iters as f64;
    }
    let total: f64 = std::thread::scope(|s| {
        let helpers: Vec<_> = cores
            .iter()
            .map(|&core| {
                s.spawn(move || {
                    pin_current(core);
                    calibrate(iters)
                })
            })
            .collect();
        helpers
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .sum()
    });
    total / cores.len() as f64 / iters as f64
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Native worker count: `clamp(nproc − 1, 1, 3)`. Workers plus the
/// dispatcher thread never exceed the processors, so a native workload
/// measures the pipeline, not the host scheduler time-slicing it.
pub fn native_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).clamp(1, 3)
}

/// CPU model string from `/proc/cpuinfo` (`"unknown"` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// 1-minute load average (0 where `/proc/loadavg` is absent).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process, KiB (0 where
/// `/proc/self/status` is absent).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Seconds the hypervisor ran something else while this guest wanted a
/// CPU, summed over all CPUs since boot (`steal` of `/proc/stat`, at the
/// kernel's 100 Hz accounting tick; 0 where absent). Wall time lost to
/// a neighbour shows here and nowhere inside the process.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|ticks| ticks.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The fixed arithmetic calibration kernel (xorshift + multiply-add):
/// no memory traffic, no allocation, identical work every call — so a
/// change in its wall time is a change in the host, not in the code.
/// Returns wall nanoseconds for `iters` iterations.
pub fn calibrate(iters: u64) -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..std::hint::black_box(iters) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// The `host` block of a report.
pub fn host_block(workers: usize, calib_ns: f64, noisy_reruns: u64) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("W", Json::Num(workers as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("load_average", Json::Num(load_average())),
        ("calib_ns", Json::Num(calib_ns)),
        ("noisy_reruns", Json::Num(noisy_reruns as f64)),
    ])
}

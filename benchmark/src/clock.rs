//! Process CPU-time clock — the one module of this crate that contains
//! unsafe code (a single foreign call).
//!
//! `cpu_ms_per_op` needs the CPU time of *all* threads of the process
//! (the plan server's and the runtime's worker threads do most of the
//! work on two workloads) at sub-millisecond resolution per cycle.
//! `/proc/self/stat` counts in 10 ms ticks, which is coarser than a
//! whole cycle of the fast workloads, and the standard library exposes
//! no process CPU clock, so this calls `clock_gettime(2)` directly.
#![allow(unsafe_code)]

/// Nanoseconds of CPU time consumed by every thread of this process.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    /// `struct timespec` on 64-bit Linux: two 64-bit signed fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is provided by the C library std already
    // links; `ts` is a live, writable, correctly laid out `timespec`
    // (the cfg above pins the 64-bit Linux layout) and the call writes
    // nothing else. A failure leaves `ts` zeroed and is reported as 0.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere there is no process CPU clock to call: `cpu_ms_per_op`
/// reads 0 (the README says the metric is Linux-only).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    0
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not say.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

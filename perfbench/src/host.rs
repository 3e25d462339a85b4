//! Process clocks, memory high-water mark and the host record printed with
//! every result.
//!
//! The standard library exposes neither the process CPU clock nor timer
//! slack, so the two libc calls are declared here; `std` links libc on
//! every Linux target.

use std::os::raw::{c_int, c_long, c_ulong};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const PR_SET_TIMERSLACK: c_int = 29;
const SCHED_FIFO: c_int = 1;

fn cpu_clock(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` with the C layout
    // (`repr(C)`, two `long`s on Linux), and both clock ids are defined by
    // POSIX for every process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User plus system CPU seconds of the whole process, all threads
/// (including threads that have already exited).
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User plus system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Lowers the calling thread's timer slack to 1 ns, so `thread::sleep`
/// wakes at its deadline instead of up to 50 µs late (the Linux default).
/// Returns whether the kernel accepted it.
pub fn tighten_timer_slack() -> bool {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches only
    // the calling thread's scheduling state; the unused arguments are 0.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) == 0 }
}

/// Moves the calling thread to the lowest real-time priority (`SCHED_FIFO`
/// 1), so it runs as soon as it wakes instead of waiting out another
/// thread's time slice.  Returns whether the kernel allowed it.
pub fn realtime_priority() -> bool {
    let param = SchedParam { sched_priority: 1 };
    // SAFETY: pid 0 names the calling thread, and `param` is a valid
    // `struct sched_param` (`repr(C)`, one `int`) that outlives the call.
    unsafe { sched_setscheduler(0, SCHED_FIFO, &param) == 0 }
}

/// Returns the allocator's free memory to the kernel, so each job starts
/// from the same resident baseline whatever the previous one left behind.
pub fn trim_heap() {
    // SAFETY: glibc's malloc_trim only releases free heap pages; it is
    // thread-safe and leaves every live allocation untouched.
    unsafe { malloc_trim(0) };
}

/// Resets the process's resident-set high-water mark (`VmHWM`) to the
/// current resident size, so the next [`peak_rss_mib`] covers only what
/// ran in between.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets the peak RSS counter (Linux ≥ 4.0).
    std::fs::write("/proc/self/clear_refs", "5").expect("reset the peak-RSS counter");
}

/// Peak resident memory since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `(avx2, avx512f)` support of this CPU.
pub fn cpu_flags() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    (false, false)
}

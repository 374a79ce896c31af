//! Clocks and process accounting: a monotonic nanosecond clock shared by
//! every thread, the process CPU clock, and the peak resident set size.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic, comparable
/// across threads).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1,024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time this process has consumed, over all its
/// threads, in nanoseconds. `/proc/self/stat` would give the same in 10 ms
/// ticks, too coarse for a 1.5 s repetition.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// While alive, the calling thread — and every thread it spawns — may run
/// on one CPU only: the highest-numbered one it was allowed (CPU 0 takes
/// most interrupts). Dropping it restores the previous affinity.
///
/// One-client workloads run under this. The explorer spawns a short-lived
/// worker per call even at `jobs = 1`; whether the scheduler wakes it on
/// the caller's CPU or on the idle one (a cross-CPU wake-up through the
/// hypervisor) moved `explore_dpor` between 250 and 510 ops/s from one
/// process to the next.
pub struct Pinned(CpuSet);

impl Pinned {
    /// Pin the calling thread. `None` (and no change) when the affinity
    /// cannot be read or set, e.g. under a seccomp filter.
    pub fn one_cpu() -> Option<Pinned> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|w| *w != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - allowed[word].leading_zeros());
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
            return None;
        }
        Some(Pinned(allowed))
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `self.0` is a readable buffer of exactly the size passed.
        // A failure leaves the thread pinned, which only costs parallelism.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.0) };
    }
}

/// What [`host_probe_ms`] reads on this host in its fast state.
pub const HOST_REFERENCE_MS: f64 = 6.4;

/// Milliseconds a fixed CPU-bound kernel takes on the calling thread's CPU
/// right now, best of three: four million steps of a xorshift walk with a
/// dependent load and store each, over a 256 KiB buffer. See
/// `run::run` for what it is used for.
pub fn host_probe_ms() -> f64 {
    let mut buf = vec![1u64; 32 * 1024];
    let mask = buf.len() - 1;
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    let mut best = f64::MAX;
    for _ in 0..3 {
        let t0 = now_ns();
        for _ in 0..4_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            acc = acc.wrapping_add(buf[i]);
            buf[i] = acc ^ x;
        }
        best = best.min((now_ns() - t0) as f64 / 1e6);
    }
    std::hint::black_box(acc);
    best
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_rss_is_positive() {
        let (w0, c0) = (now_ns(), process_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(now_ns() > w0);
        assert!(process_cpu_ns() > c0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn pinning_is_undone_on_drop() {
        let read = || {
            let mut set: CpuSet = [0; 16];
            // SAFETY: as in `Pinned::one_cpu`.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
            (rc == 0).then_some(set)
        };
        let Some(before) = read() else { return };
        if let Some(pin) = Pinned::one_cpu() {
            let during = read().expect("affinity readable");
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            drop(pin);
        }
        assert_eq!(read(), Some(before));
    }
}

//! CPU time of the calling thread.
//!
//! A query runs entirely on the calling thread and never waits (the
//! benchmark is the only caller, and the query batcher's dwell window is
//! off), so its CPU time is its latency minus the slices the OS gave to other
//! processes while it ran.  On a shared 2-vCPU machine those slices are
//! several milliseconds long and come in bursts: the wall-clock p99 of a
//! fixed 0.95 ms compute loop moved between 1.0 and 2.6 ms from one 3-second
//! window to the next, its CPU-time p99 between 1.0 and 2.1 ms.  Query
//! quantiles therefore use this clock; throughputs stay on the wall clock.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread so far.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) through
    // the pointer, which refers to a live, properly aligned local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let before = thread_cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_time() > before);
    }
}

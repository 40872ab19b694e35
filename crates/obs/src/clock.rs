//! The process-wide monotonic clock all span timestamps are taken from, and
//! the per-thread CPU clock shard compute is metered on.

use std::sync::OnceLock;
use std::time::Instant;

/// The shared origin. Initialised on first use; every later reading is
/// relative to it, so timestamps from different threads compare directly.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Microseconds elapsed since the first call in this process.
///
/// Monotonic (backed by [`Instant`]) and shared across threads: two calls
/// observe the same origin, so `a < b` means a happened before b was read.
/// The first call anywhere fixes the origin at "now" and returns a small
/// number.
#[must_use]
pub fn monotonic_micros() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The calling thread's cumulative CPU time in microseconds, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`.
///
/// The kernel accounts this clock in nanoseconds at every context switch
/// and clock read, so it resolves sub-microsecond work — unlike the
/// scheduler statistics file, whose counter moves in scheduler-tick steps
/// of several milliseconds. `None` where the clock is unavailable; callers
/// fall back to wall-clock time.
///
/// This is the crate's only `unsafe`: one call into the C library that
/// `std` already links, writing through a pointer to a local.
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
#[must_use]
pub fn thread_cpu_micros() -> Option<u64> {
    use std::os::raw::{c_int, c_long};

    /// `struct timespec` of the Linux C ABI (`time_t` and `long` are both
    /// `long` there).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    }

    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `timespec` for the whole call, and
    // `clock_gettime` writes only through that pointer; failure is
    // reported through the return value, never by unwinding.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    (status == 0 && now.tv_sec >= 0 && now.tv_nsec >= 0)
        .then(|| now.tv_sec as u64 * 1_000_000 + now.tv_nsec as u64 / 1_000)
}

/// The calling thread's cumulative CPU time in microseconds; `None` on
/// this platform, so callers fall back to wall-clock time.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn thread_cpu_micros() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_shared() {
        let a = monotonic_micros();
        let b = monotonic_micros();
        assert!(b >= a);
        let from_thread = std::thread::spawn(monotonic_micros)
            .join()
            .expect("thread runs");
        assert!(from_thread >= a, "one origin across threads");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn thread_cpu_clock_is_monotone_and_resolves_below_a_millisecond() {
        // Busy-wait for a few hundred clock advances (or 2 s of wall time,
        // whichever comes first) and keep the smallest step seen. A
        // scheduler-tick counter moves in ~4 ms steps; this clock must
        // resolve far finer.
        let started = Instant::now();
        let mut last = thread_cpu_micros().expect("thread CPU clock on Linux");
        let mut smallest = u64::MAX;
        let mut advances = 0;
        let mut spin = 0u64;
        while advances < 200 && started.elapsed().as_secs() < 2 {
            spin = std::hint::black_box(spin.wrapping_mul(31).wrapping_add(7));
            let now = thread_cpu_micros().expect("thread CPU clock on Linux");
            assert!(now >= last, "thread CPU time went backwards");
            if now > last {
                smallest = smallest.min(now - last);
                advances += 1;
            }
            last = now;
        }
        assert!(advances > 0, "a busy thread accrues CPU time");
        assert!(
            smallest < 1_000,
            "smallest non-zero advance {smallest} us: the clock is tick-quantised"
        );
    }
}

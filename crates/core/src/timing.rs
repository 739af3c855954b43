//! Per-thread CPU clock for query phase timings.
//!
//! This module is the **only** place in `iva-core` allowed to read a clock.
//! Everything else in the crate participates in bit-identical merge replay
//! (serial ≡ batched ≡ tiered results), and the `determinism`
//! lint in `cargo xtask analyze` bans `Instant::now`/`SystemTime`/RNG calls
//! from those modules so no timing or randomness can leak into plan
//! decisions. Phase *measurements* are still wanted, so the plans call
//! [`thread_cpu_time`] — values flow only into [`QueryStats`] nanos fields,
//! never into admission, ordering or merge logic.
//!
//! Wall-clock would charge a query for time other threads of the process
//! (the serving layer's workers, their clients) spent preempting it
//! whenever they outnumber cores; thread CPU time equals wall time when the
//! query's thread has a core to itself and stays meaningful when it does
//! not.
//!
//! [`QueryStats`]: crate::query::QueryStats

/// Nanoseconds of CPU time consumed by the calling thread.
///
/// Returns 0 if the clock cannot be read (the stats then read as
/// "unmeasured", never wrong).
#[cfg(target_os = "linux")]
pub(crate) fn thread_cpu_time() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes a `struct timespec` (two word-sized
    // integers, matching `Timespec`'s `#[repr(C)]` layout on 64-bit Linux)
    // through the out-pointer and reads nothing else. `&mut ts` is a valid,
    // properly aligned pointer to owned stack memory that lives across the
    // call, and `CLOCK_THREAD_CPUTIME_ID` is a constant clock id every
    // Linux kernel supports. On failure (non-zero return) `ts` may be
    // untouched, which is why it is zero-initialized and the error path
    // returns 0 instead of reading it.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } == 0 {
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    } else {
        0
    }
}

/// Fallback where thread CPU clocks are unavailable: a process-wide
/// monotonic clock (phase timings then include preemption by other
/// threads).
#[cfg(not(target_os = "linux"))]
pub(crate) fn thread_cpu_time() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds since an arbitrary process-wide epoch, from the OS
/// monotonic clock.
///
/// This is the one sanctioned wall-clock for the *serving* layer: request
/// latency is a property of the outside world (queueing + execution), so
/// thread CPU time is the wrong instrument there. The scan spine also
/// reads it, around every drain: it is a vDSO call
/// (~25 ns) where the thread-CPU clock is a syscall (~0.2 µs), so the
/// spine reads the CPU clock twice per scan and apportions that time to
/// its two phases by their monotonic share. Like the crate-private
/// `thread_cpu_time` shim, values must flow only into measurements — never
/// into admission, ordering or merge logic — which is why callers import
/// this shim instead of `std::time::Instant` directly (the `determinism`
/// lint enforces it).
pub fn monotonic_nanos() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_nanos_advances() {
        let a = monotonic_nanos();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = monotonic_nanos();
        assert!(b > a, "monotonic clock did not advance: {a} -> {b}");
    }

    #[test]
    fn monotone_and_advancing() {
        let a = thread_cpu_time();
        // Burn a little CPU so the clock must advance.
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(x);
        let b = thread_cpu_time();
        assert!(b >= a, "thread CPU clock went backwards: {a} -> {b}");
        assert!(b > 0, "thread CPU clock unreadable");
    }
}

//! Process CPU time and peak resident set size, from `getrusage(2)`.

use std::ffi::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// `long` counters of which only `ru_maxrss` (KiB) is read here.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    _rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// What the process has used so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time of all threads.
    pub cpu: Duration,
    /// Peak resident set size over the process's life, in KiB.
    pub max_rss_kib: u64,
}

fn timeval(t: &Timeval) -> Duration {
    Duration::from_secs(u64::try_from(t.sec).unwrap_or(0))
        + Duration::from_micros(u64::try_from(t.usec).unwrap_or(0))
}

pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout
    // declared above, and RUSAGE_SELF is a valid `who`; getrusage writes
    // only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    Usage {
        cpu: timeval(&ru.utime) + timeval(&ru.stime),
        max_rss_kib: u64::try_from(ru.maxrss).unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_reported() {
        let before = usage();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = usage();
        assert!(after.cpu > before.cpu);
        assert!(after.max_rss_kib > 0);
    }
}

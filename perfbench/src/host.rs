//! How fast the shared host is running right now.
//!
//! The machine this benchmark runs on lends its CPUs to other tenants, and
//! the speed of one CPU moves by a quarter or more within a minute. Latency
//! measured in seconds carries that swing into every metric. So each run
//! also times a fixed reference kernel, written here and independent of
//! the program under test, at regular pauses in its load, and the timing
//! metrics are reported in units of that kernel's median duration. A
//! change to the program moves them as much as it moves the seconds; a
//! slow spell of the host moves them less (over 10 s windows of one 150 s
//! `cold_solve` run, median solve latency spread by 27% in seconds and by
//! 10% in kernel units).
//!
//! The kernel is timed in thread CPU time, not wall time, so a busy thread
//! of the server itself cannot inflate it (and so flatter the metrics): it
//! measures how much work one CPU gets done per second it is given.

use std::ffi::{c_int, c_long};
use std::time::Duration;

/// How often the load pauses for a sample.
pub const EVERY: Duration = Duration::from_millis(250);

/// 4-d rows the kernel scans (256 KiB: resident in a core's L2), the
/// utility vectors each row is scored against, and the passes per run.
const ROWS: usize = 8192;
const DIM: usize = 4;
const UTILS: usize = 8;
const PASSES: usize = 64;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[cfg(target_os = "linux")]
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
#[cfg(target_os = "macos")]
const CLOCK_THREAD_CPUTIME_ID: c_int = 16;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time the calling thread has used, ns.
fn thread_cpu_ns() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed `struct timespec` for the
    // whole call, and the clock id is the calling thread's CPU-time clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e9 + ts.tv_nsec as f64
}

/// The reference kernel's fixed inputs.
pub struct Reference {
    rows: Vec<[f64; DIM]>,
    utils: [[f64; DIM]; UTILS],
}

impl Default for Reference {
    fn default() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows = (0..ROWS).map(|_| std::array::from_fn(|_| next())).collect();
        let utils = std::array::from_fn(|_| std::array::from_fn(|_| next()));
        Reference { rows, utils }
    }
}

impl Reference {
    /// One run of the kernel: the best dot product of each utility vector
    /// over every row, [`PASSES`] times. Independent multiply-adds over
    /// L2-resident data, like the solver's scoring loops, so the host's
    /// slow spells slow it much as they slow the solver. (A 4 MiB stream
    /// plus a 2 MiB pointer chase, a 24 MiB stream and a dependent FP
    /// chain all tracked the solver less closely.)
    fn kernel(&self) -> f64 {
        let mut best = [0.0f64; UTILS];
        for _ in 0..PASSES {
            for r in &self.rows {
                for (b, u) in best.iter_mut().zip(&self.utils) {
                    let d = r[0] * u[0] + r[1] * u[1] + r[2] * u[2] + r[3] * u[3];
                    *b = if d > *b { d } else { *b };
                }
            }
        }
        best.iter().sum()
    }

    /// Thread CPU time of one kernel run on the calling thread, ns.
    fn time_once(&self) -> f64 {
        let t = thread_cpu_ns();
        std::hint::black_box(self.kernel());
        thread_cpu_ns() - t
    }

    /// One sample: the kernel on this thread and on one more at the same
    /// time, so both CPUs the load ran on are measured. Thread CPU ns of
    /// each run.
    pub fn sample(&self) -> [f64; 2] {
        std::thread::scope(|s| {
            let other = s.spawn(|| self.time_once());
            let mine = self.time_once();
            [mine, other.join().expect("reference thread panicked")]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        let (a, b) = (Reference::default(), Reference::default());
        assert_eq!(a.kernel().to_bits(), b.kernel().to_bits());
        let [x, y] = a.sample();
        assert!(x > 0.0 && y > 0.0);
    }
}

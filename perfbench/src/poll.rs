//! Waiting on two sockets at once with a sub-millisecond deadline.
//!
//! The open-loop generator must send on schedule while replies arrive on
//! either connection, from a single thread. Socket read timeouts are
//! rounded up to the kernel tick, so this calls `ppoll(2)`, whose timeout
//! is a `timespec`, through `extern "C"` declarations; `prctl(2)` shrinks
//! the calling thread's timer slack so those timeouts are not deferred by
//! the default 50 µs either.

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until a descriptor in `fds` is readable (or hung up) or `timeout`
/// passes; returns which ones are ready.
pub fn wait_readable(fds: &[RawFd], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // `struct pollfd`-layout entries for the whole call; `ts` outlives the
    // call; a null signal mask leaves the mask unchanged.
    let rc = unsafe {
        ppoll(
            set.as_mut_ptr(),
            set.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(err);
    }
    Ok(set.iter().map(|p| p.revents != 0).collect())
}

/// Lets this thread's timed waits expire within 1 ns of their deadline
/// instead of the default 50 µs, so scheduled sends are not late by design.
pub fn tight_timer_slack() -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes a scheduling attribute of the calling thread.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

//! The benchmark's only unsafe surface: CPU pinning and a timerfd, both
//! plain glibc calls (no libc crate is vendored). Everything returns
//! `io::Error` from `errno`; nothing here allocates or keeps raw pointers.
#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

/// Width of the affinity mask handed to the kernel (1024 CPUs, glibc's
/// `cpu_set_t`).
const MASK_WORDS: usize = 16;

const CLOCK_MONOTONIC: i32 = 1;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2000000;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(
        fd: i32,
        flags: i32,
        new_value: *const Itimerspec,
        old_value: *mut Itimerspec,
    ) -> i32;
}

/// Pins the calling thread (the whole process when called before any
/// thread is spawned — children inherit the mask) to `cpus`.
pub fn pin_to(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        let word = mask
            .get_mut(cpu / 64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "cpu index beyond 1024"))?;
        *word |= 1u64 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, correctly sized array for the duration of
    // the call; pid 0 names the calling thread; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// A one-shot monotonic timer readable through epoll: the load generator
/// sleeps on it (together with its sockets) until shortly before the next
/// request is due, instead of polling.
pub struct TimerFd {
    file: File,
}

impl TimerFd {
    /// Creates a disarmed nonblocking timer.
    pub fn new() -> io::Result<TimerFd> {
        // SAFETY: no pointers involved; a negative return is an error.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor this process owns and nothing
        // else closes; `File` takes over closing it.
        Ok(TimerFd {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// The descriptor to register with epoll (readable once expired).
    pub fn fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Arms the timer to fire once after `delay` (a zero delay would
    /// disarm it, so it is rounded up to 1 ns).
    pub fn arm(&self, delay: Duration) -> io::Result<()> {
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: delay.as_secs() as i64,
                tv_nsec: i64::from(delay.subsec_nanos()).max(i64::from(delay.as_secs() == 0)),
            },
        };
        // SAFETY: `spec` lives across the call and the kernel only reads
        // it; a null `old_value` is allowed.
        let rc = unsafe { timerfd_settime(self.fd(), 0, &spec, std::ptr::null_mut()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Consumes a pending expiration so the fd stops polling readable.
    pub fn clear(&mut self) {
        let mut buf = [0u8; 8];
        let _ = self.file.read(&mut buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn timer_fires_once_after_the_delay() {
        let mut t = TimerFd::new().unwrap();
        t.clear(); // disarmed: nothing to read, must not block
        let start = Instant::now();
        t.arm(Duration::from_millis(5)).unwrap();
        let mut buf = [0u8; 8];
        loop {
            match t.file.read(&mut buf) {
                Ok(8) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                other => panic!("unexpected timerfd read: {other:?}"),
            }
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "timer never fired"
            );
        }
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn pinning_rejects_absurd_cpu_indices() {
        assert!(pin_to(&[100_000]).is_err());
    }
}

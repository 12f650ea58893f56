//! Thin Linux syscall bindings for the epoll reactor: `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`, `fcntl(O_NONBLOCK)`, and
//! `listen` (backlog re-arm).
//!
//! This is the one unsafe module outside the SIMD kernels (the crate
//! root denies `unsafe_code`; `tests/invariants.rs` pins the set). The
//! unsafe surface is exactly the `extern "C"` declarations plus the call
//! sites in this file; everything exported is a safe wrapper that owns
//! its file descriptor (closed on `Drop`) and converts every failure
//! into a typed [`std::io::Error`] via `io::Error::last_os_error()`.
//! No other module in the workspace may call these syscalls directly.

#![expect(
    unsafe_code,
    reason = "the serve reactor's only unsafe surface: thin extern-C bindings to \
              epoll_create1/epoll_ctl/epoll_wait/eventfd/fcntl, each wrapped in a safe \
              RAII type that owns the fd and translates errno into io::Error"
)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;

/// Readable readiness (matches Linux `EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never subscribed.
pub const EPOLLERR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`); always reported, never subscribed.
pub const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

/// One `struct epoll_event`, kernel layout.
///
/// On x86/x86-64 the kernel declares the struct packed (12 bytes); other
/// architectures use natural alignment. Fields are read by value only —
/// no references into the packed layout are ever formed.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// A zeroed event, for pre-sizing `epoll_wait` buffers.
    pub fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// The readiness bits the kernel reported.
    pub fn ready(&self) -> u32 {
        self.events
    }

    /// The caller-chosen token registered with the fd.
    pub fn token(&self) -> u64 {
        self.data
    }
}

// SAFETY: these signatures match the glibc/musl prototypes on Linux
// exactly (epoll(7), eventfd(2), fcntl(2), read(2)/write(2)/close(2),
// listen(2));
// `fcntl` is declared variadic because the C prototype is. All are
// called only from the checked wrappers below.
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// The last syscall failure as a typed error.
fn last_error() -> io::Error {
    io::Error::last_os_error()
}

/// Closes `fd`, ignoring the result (used from `Drop` only, where an
/// error has no caller to report to; the fd is invalid afterwards either
/// way).
fn close_quiet(fd: RawFd) {
    // SAFETY: `fd` is a descriptor this module opened and still owns;
    // it is closed exactly once, from the owning wrapper's Drop.
    unsafe {
        let _ = close(fd);
    }
}

/// An owned epoll instance. Interest registration uses level-triggered
/// semantics: readiness is re-reported every `wait` until consumed,
/// which keeps the reactor's state machine simple (no starvation on a
/// partially drained socket).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes a flags bitmask and returns a new
        // fd or -1; no pointers are involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(last_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `self.fd` is a live epoll fd owned by this wrapper and
        // `ev` is a properly initialised epoll_event that outlives the
        // call (the kernel copies it before returning).
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(last_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest bits under `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes an already-registered fd's interest bits.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout_ms` (`-1` = forever), filling
    /// `events` from the front. Returns how many events are valid. A
    /// signal interruption is reported as zero events, not an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        let cap = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: `events` points at `cap` writable, initialised
        // epoll_event slots owned by the caller; the kernel writes at
        // most `cap` of them and the return value bounds how many we
        // treat as valid.
        let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), cap, timeout_ms) };
        if rc < 0 {
            let e = last_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        close_quiet(self.fd);
    }
}

/// An owned eventfd used as the reactor's wake channel: any thread calls
/// [`EventFd::wake`], the reactor sees `EPOLLIN` on [`EventFd::fd`] and
/// calls [`EventFd::drain`]. Nonblocking on both ends, so a wake can
/// never stall a replica and a drain can never stall the reactor.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes an initial counter and a flags bitmask
        // and returns a new fd or -1; no pointers are involved.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration by the owning reactor.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, making the fd readable. `EAGAIN` (counter
    /// saturated) still means a wake is pending, so it is success; other
    /// failures are reported but leave the caller in a sane state.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        let buf = one.to_ne_bytes();
        // SAFETY: `buf` is 8 readable bytes on this stack frame and the
        // fd is a live eventfd owned by this wrapper; eventfd writes
        // consume exactly 8 bytes.
        let rc = unsafe { write(self.fd, buf.as_ptr(), buf.len()) };
        if rc < 0 {
            let e = last_error();
            if e.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            return Err(e);
        }
        Ok(())
    }

    /// Resets the counter to 0 (consumes all pending wakes). `EAGAIN`
    /// means the counter was already 0.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 writable bytes on this stack frame and the
        // fd is a live eventfd owned by this wrapper; eventfd reads
        // produce exactly 8 bytes.
        let _ = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        close_quiet(self.fd);
    }
}

// SAFETY: EventFd is an immutable wrapper around an i32 descriptor;
// eventfd read/write are atomic kernel operations, safe from any thread.
unsafe impl Send for EventFd {}
// SAFETY: as above — concurrent wake/drain on one eventfd is exactly the
// kernel-sanctioned usage.
unsafe impl Sync for EventFd {}

/// Re-arms a listening socket with a deeper accept backlog. POSIX allows
/// `listen` on an already-listening socket to update the backlog in
/// place; `std::net::TcpListener` hardcodes 128, which a burst of a few
/// hundred simultaneous connects overflows — dropped SYNs then stall
/// each affected client for a full retransmission timeout (~1 s). The
/// kernel clamps the value to `net.core.somaxconn`.
pub fn set_listen_backlog(fd: RawFd, backlog: u32) -> io::Result<()> {
    let backlog = backlog.min(c_int::MAX as u32) as c_int;
    // SAFETY: `fd` is a live, already-listening socket supplied by the
    // caller and `backlog` is a plain int; no pointers are involved.
    let rc = unsafe { listen(fd, backlog) };
    if rc < 0 {
        return Err(last_error());
    }
    Ok(())
}

/// Sets `O_NONBLOCK` on `fd` via `fcntl`, preserving the other flags.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: F_GETFL takes no third argument and returns the flag word
    // or -1; `fd` is a live descriptor supplied by the caller.
    let flags = unsafe { fcntl(fd, F_GETFL) };
    if flags < 0 {
        return Err(last_error());
    }
    // SAFETY: F_SETFL takes an int flag word as the (variadic) third
    // argument, matching the C prototype.
    let rc = unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) };
    if rc < 0 {
        return Err(last_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 7).unwrap();
        let mut buf = vec![EpollEvent::zeroed(); 4];

        // Nothing pending: a zero timeout returns no events.
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        ev.wake().unwrap();
        ev.wake().unwrap(); // coalesces into the same readiness
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(buf[0].token(), 7);
        assert!(buf[0].ready() & EPOLLIN != 0);

        ev.drain();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
    }

    #[test]
    fn interest_toggling_follows_modify() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        // A fresh socket with an empty send buffer is writable at once.
        ep.add(server.as_raw_fd(), EPOLLOUT, 1).unwrap();
        let mut buf = vec![EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(buf[0].ready() & EPOLLOUT != 0);

        // Switch interest to readable only: no data yet → no events.
        ep.modify(server.as_raw_fd(), EPOLLIN, 1).unwrap();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);

        // Data from the peer flips it readable.
        (&client).write_all(b"x").unwrap();
        let n = ep.wait(&mut buf, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(buf[0].ready() & EPOLLIN != 0);

        ep.delete(server.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut buf, 0).unwrap(), 0);
    }

    #[test]
    fn listen_backlog_rearm_keeps_the_socket_accepting() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        set_listen_backlog(listener.as_raw_fd(), 1024).unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (_server, peer) = listener.accept().unwrap();
        assert_eq!(peer, client.local_addr().unwrap());
    }

    #[test]
    fn set_nonblocking_makes_reads_return_wouldblock() {
        use std::io::Read as _;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        set_nonblocking(server.as_raw_fd()).unwrap();
        let mut byte = [0u8; 1];
        let err = server.read(&mut byte).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}

//! Hand-written Linux syscall bindings for the serve event loop:
//! `epoll` and `eventfd`, nothing else.
//!
//! The workspace is fully offline, so rather than vendoring a `libc`
//! stand-in for four syscalls, this module declares the exact
//! `extern "C"` surface the event loop needs and wraps it in two RAII
//! types, [`Epoll`] and [`EventFd`]. The module is compiled on Linux
//! only; elsewhere [`ServeServer::bind`](crate::ServeServer::bind)
//! refuses.
//!
//! Errno handling rides on `std::io::Error::last_os_error()`, which
//! reads the thread-local errno the same way libc leaves it — no
//! `__errno_location` binding needed.

#![allow(non_camel_case_types)]

use std::io;
use std::os::unix::io::RawFd;

/// `struct epoll_event`. On x86-64 the kernel ABI packs this struct
/// (no padding between `events` and `data`), which is why the glibc
/// header carries `__attribute__((packed))` there; other Linux
/// architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    /// Readiness bit set (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim — the event loop stores
    /// its connection token here.
    pub data: u64,
}

/// Readiness: the fd has bytes to read (or connections to accept).
pub const EPOLLIN: u32 = 0x001;
/// Readiness: the fd can accept writes without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Condition: the fd is in an error state.
pub const EPOLLERR: u32 = 0x008;
/// Condition: the peer hung up.
pub const EPOLLHUP: u32 = 0x010;
/// Condition: the peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o0004000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// An epoll instance (closed on drop).
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // the only failure mode and is checked below.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = epoll_event {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning. For EPOLL_CTL_DEL the kernel ignores the pointer
        // (non-null required only pre-2.6.9), so passing it is fine.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` for `events`, tagging wakeups with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change a registered fd's interest set.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Remove a registered fd.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block up to `timeout_ms` (`-1` = forever) for readiness; fills
    /// `events` and returns how many entries are valid. `EINTR` is
    /// retried internally so callers only see real wakeups.
    pub fn wait(&self, events: &mut [epoll_event], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: `events` is a valid, writable slice for the whole
            // call, and maxevents never exceeds its length.
            let rc = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` came from epoll_create1 and is closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

/// A nonblocking eventfd: the event loop's cross-thread wakeup doorbell.
///
/// Batch-worker threads finish classifications while the event loop
/// is parked in `epoll_wait`; writing the counter from any thread makes
/// its next wait return immediately.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: eventfd takes no pointers; negative return checked.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The raw descriptor, for epoll registration.
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Ring the doorbell (add 1 to the counter). A full counter
    /// (`WouldBlock`) already guarantees a pending wakeup, so it is
    /// success for our purposes.
    pub fn notify(&self) -> io::Result<()> {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live stack value.
        let rc = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            return Err(err);
        }
        Ok(())
    }

    /// Reset the counter so the next `notify` produces a fresh edge.
    /// Nonblocking: an already-zero counter is not an error.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a live stack buffer.
        unsafe {
            read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `fd` came from eventfd and is closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_rings_through_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut events = [epoll_event { events: 0, data: 0 }; 4];
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ev.notify().unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 42);

        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn interest_modification_and_removal() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.as_raw_fd(), EPOLLIN, 7).unwrap();
        ep.modify(ev.as_raw_fd(), EPOLLIN | EPOLLOUT, 8).unwrap();
        ev.notify().unwrap();
        let mut events = [epoll_event { events: 0, data: 0 }; 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert!(n >= 1);
        let data = events[0].data;
        assert_eq!(data, 8, "re-registration replaces the token");
        ep.delete(ev.as_raw_fd()).unwrap();
        ev.notify().unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "deleted fd is silent");
    }
}

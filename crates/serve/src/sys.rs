//! Raw `epoll(7)` / `eventfd(2)` shims, no libc crate.
//!
//! Same stance as the `signal(2)` SIGTERM hook in `server.rs`: libc is
//! always linked on the targets std supports, so declaring the handful
//! of symbols we need suffices — no new dependency for five syscalls.
//! Everything here is a thin safe wrapper returning `std::io::Error`
//! from `errno` via `std::io::Error::last_os_error()`.
//!
//! Only what the readiness loop needs is exposed: create an epoll
//! instance, add/modify/delete interest, wait with a timeout, and an
//! eventfd the worker pool writes to wake the loop when slow work
//! completes (the "wakeup fd" of DESIGN.md).

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; no need to request it).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; no need to request it).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

/// Whether an `accept(2)` failed for want of a descriptor (`EMFILE`,
/// `ENFILE`) or of kernel memory (`ENOBUFS`, `ENOMEM`): the connection
/// stays queued, and the listener stays readable, until one frees up.
pub fn accept_starved(e: &std::io::Error) -> bool {
    const ENOMEM: i32 = 12;
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOBUFS: i32 = 105;
    matches!(e.raw_os_error(), Some(EMFILE | ENFILE | ENOBUFS | ENOMEM))
}

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One readiness record. The kernel's x86-64 ABI packs this struct
/// (4-byte aligned `data`); other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[repr(C)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready event bits (`EPOLLIN` | ...).
    pub events: u32,
    /// The token registered with the fd (we use connection ids).
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// An epoll instance (closed on drop).
#[derive(Debug)]
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> std::io::Result<Epoll> {
        // SAFETY: plain syscall, no memory handed to the kernel.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, interest: u32, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest bits and token.
    pub fn add(&self, fd: i32, interest: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest bits for an already-registered `fd`.
    pub fn modify(&self, fd: i32, interest: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: i32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` for readiness; fills `events` and
    /// returns how many entries are valid. EINTR reads as zero events
    /// (the loop re-checks its drain/SIGTERM flags every pass anyway).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: `events` is a valid, writable slice for the call.
        let rc = unsafe {
            epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd used to wake the readiness loop from worker
/// threads (slow-work completions) and from [`ServerHandle::drain`].
///
/// [`ServerHandle::drain`]: crate::ServerHandle::drain
#[derive(Debug)]
pub struct WakeFd {
    fd: i32,
}

impl WakeFd {
    /// Creates the eventfd.
    pub fn new() -> std::io::Result<WakeFd> {
        // SAFETY: plain syscall.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Wakes the loop. Any thread may call this; an EAGAIN (counter
    /// saturated) still leaves the fd readable, so the wake is never
    /// lost.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a stack value.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Drains the counter after the loop observes readiness.
    pub fn drain(&self) {
        let mut buf = 0u64;
        // SAFETY: reading 8 bytes into a stack value.
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readable_pipes_and_wakefd() {
        let epoll = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        epoll.add(wake.fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::default(); 8];
        // Nothing ready yet.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        wake.wake();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (ev_bits, token) = (events[0].events, events[0].data);
        assert_ne!(ev_bits & EPOLLIN, 0);
        assert_eq!(token, 7);

        // Level-triggered: still readable until drained.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);
        wake.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_watches_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 1).unwrap();

        let mut events = [EpollEvent::default(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 1);

        let (accepted, _) = listener.accept().unwrap();
        epoll.add(accepted.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 2).unwrap();
        client.write_all(b"x").unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert!(n >= 1);
        assert!((0..n).any(|i| events[i].data == 2 && events[i].events & EPOLLIN != 0));

        epoll.delete(accepted.as_raw_fd()).unwrap();
        drop(client);
        assert_eq!(epoll.wait(&mut events, 100).unwrap(), 0, "deleted fd stays silent");
    }
}

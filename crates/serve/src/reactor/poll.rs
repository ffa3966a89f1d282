//! A minimal readiness API over raw `epoll` syscall bindings.
//!
//! The workspace vendors no I/O crates, so this module binds the four
//! libc symbols the reactor needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`) directly with `extern "C"` — std already
//! links libc on every supported target, so this adds no dependency. The
//! surface is deliberately tiny: level-triggered registration keyed by a
//! caller-chosen `u64` token, a blocking `wait` with timeout, and a
//! [`WakeFd`] (an `eventfd`) other threads can ping to interrupt a wait.
//!
//! Level-triggered (the default) rather than edge-triggered: the event
//! loop may legitimately stop reading a ready socket (write backpressure)
//! and must be re-notified on the next wait without re-arming gymnastics.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// packs it there so 32- and 64-bit layouts agree); natural alignment
/// elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
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

/// One readiness notification: the registered token plus decoded flags.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Bytes (or an accept) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room again.
    pub writable: bool,
    /// Error or hangup: the peer is gone or the fd is broken; the
    /// connection should be torn down after a final read attempt.
    pub hangup: bool,
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Poll {
    epfd: RawFd,
}

impl Poll {
    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poll> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poll { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` for the given interest set
    /// (`EPOLLIN` / `EPOLLOUT`; `EPOLLERR`/`EPOLLHUP` are always
    /// reported).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest | EPOLLRDHUP, token)
    }

    /// Replaces an existing registration's interest set.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest | EPOLLRDHUP, token)
    }

    /// Removes a registration. Safe to call on an fd the kernel already
    /// dropped (closing an fd deregisters it implicitly).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely), then decodes the kernel's
    /// events into `out`. Retries transparently on `EINTR`.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        const MAX_EVENTS: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms = match timeout {
            // Round up so a 100 µs wait does not busy-loop at 0 ms.
            Some(d) => d.as_millis().min(i32::MAX as u128).max(1) as i32,
            None => -1,
        };
        let n = loop {
            let rc =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poll {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// A cross-thread wakeup primitive: an `eventfd` registered with the
/// [`Poll`], pinged by the executor's completion hook so finished replies
/// are written back the moment they exist instead of on the next tick.
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Creates a nonblocking eventfd.
    pub fn new() -> io::Result<WakeFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    /// The fd to register for `EPOLLIN`.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the fd readable, waking any waiter. Safe from any thread;
    /// saturation (`EAGAIN` at the counter cap) still leaves it readable,
    /// so the error is ignored.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Consumes all pending wakeups so the fd stops polling readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn listener_readiness_fires_on_connect() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        poll.add(listener.as_raw_fd(), 7, EPOLLIN).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a short wait returns empty.
        poll.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty());

        let _client = TcpStream::connect(addr).unwrap();
        poll.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");
    }

    #[test]
    fn stream_read_and_write_interest_are_decoded() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        poll.add(server.as_raw_fd(), 1, EPOLLIN | EPOLLOUT).unwrap();

        let mut events = Vec::new();
        poll.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        // A fresh socket is writable but has nothing to read.
        let ev = events.iter().find(|e| e.token == 1).expect("event for the accepted socket");
        assert!(ev.writable && !ev.readable, "{ev:?}");

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        // Narrow interest to reads only and observe the payload arriving.
        poll.modify(server.as_raw_fd(), 1, EPOLLIN).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poll.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            if events.iter().any(|e| e.token == 1 && e.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "read readiness never fired");
        }
        poll.remove(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn hangup_is_reported_when_the_peer_disconnects() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        poll.add(server.as_raw_fd(), 3, EPOLLIN).unwrap();
        drop(client);
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poll.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            // An orderly shutdown may surface as EPOLLRDHUP (readable)
            // or EPOLLHUP depending on timing; either ends the conn.
            if events.iter().any(|e| e.token == 3 && (e.readable || e.hangup)) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "hangup never fired");
        }
    }

    #[test]
    fn wake_fd_interrupts_a_wait_and_drains() {
        let poll = Poll::new().unwrap();
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        poll.add(wake.fd(), 99, EPOLLIN).unwrap();
        let waker = std::sync::Arc::clone(&wake);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Vec::new();
        poll.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        wake.drain();
        poll.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty(), "drained wake fd still polls readable");
        t.join().unwrap();
    }
}

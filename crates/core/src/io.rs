//! I/O providers: the pluggable front door of the worker pool.
//!
//! The pool ([`crate::pool::ProxyPool`]) is transport-agnostic — it
//! consumes [`Datagram`]s and emits [`Reply`]s. An [`IoProvider`] is
//! where those datagrams come from and where the replies go:
//!
//! * [`SimProvider`] feeds the pool from a `doc-netsim` event drain:
//!   it only re-plumbs `Sim::drain_due`, it does not reinterpret the
//!   schedule. The provider tests use it to serve a simulated topology
//!   through the same worker code as real sockets. The paper's
//!   simulated experiments do not run through the pool:
//!   `experiment.rs` drives `Sim::next_event` itself and hands each
//!   event to the node it addresses (a client, the single-threaded
//!   `CoapProxy` or the server).
//! * [`UdpProvider`] (Linux only) serves real datagrams from a
//!   [`std::net::UdpSocket`]. A batch is one `recvmmsg` of up to 64
//!   datagrams (with one `poll` for the deadline when the socket is
//!   empty) and its replies go out in one `sendmmsg` per 64. The
//!   socket stays blocking, so sends wait for buffer space.
//!
//! The split follows the provider pattern of s2n-quic's platform
//! layer, whose Linux sockets batch with `recvmmsg`/`sendmmsg` too:
//! protocol code never touches a socket, so a test harness, a
//! simulator and a production front-end are interchangeable at one
//! seam. Deadlines are [`Millis`]-typed; providers never see protocol
//! state.
//!
//! [`ProxyPool::run_io`] is the pump, one per provider: the calling
//! thread receives a batch, serves it as one drain and sends the
//! drain's replies, with no queue or second thread in between. More
//! cores means more providers, each pumped by its own thread over the
//! one shared pool.

use crate::pool::{Datagram, PoolRunStats, ProxyPool, Reply, WorkerScratch};
use doc_netsim::{NodeId, Sim, SimEvent, Tag};
use doc_time::{Instant, Millis};
#[cfg(target_os = "linux")]
use std::collections::HashMap;
use std::collections::VecDeque;
#[cfg(target_os = "linux")]
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

/// One receive slot a provider fills: `recv_batch` writes at most one
/// datagram per slot, front-to-back.
///
/// A slot handed to `recv_batch` may already hold a datagram: the
/// spent one [`ProxyPool::run_io`] put back after serving it, wire
/// cleared and capacity kept. A provider may overwrite it in place and
/// reuse its wire buffer, or replace it outright; either way only the
/// first `n` slots of a call that returns `n` count as received.
#[derive(Debug, Default)]
pub struct RecvSlot {
    /// The received datagram, if this slot was filled.
    pub datagram: Option<Datagram>,
}

/// A source/sink of request datagrams — the pool's view of "the
/// network".
pub trait IoProvider {
    /// Fill `slots` front-to-back with received datagrams, waiting up
    /// to `timeout` for the first one. Returns the number of slots
    /// filled; 0 means the source is idle (timeout expired or the
    /// workload is exhausted) and ends a [`ProxyPool::run_io`] pump.
    fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize;

    /// Send a batch of replies back to their peers. Replies whose
    /// `wire` is `None` (dropped datagrams) are skipped. Returns the
    /// number actually sent.
    fn send_batch(&mut self, replies: &[Reply]) -> usize;
}

/// [`IoProvider`] over a `doc-netsim` simulation: events addressed to
/// `node` become pool datagrams, replies are sent back into the
/// simulation along its installed routes.
///
/// The provider is a pure re-plumbing of [`Sim::drain_due`] — event
/// order, timestamps and bytes pass through untouched. The paper's
/// figures do not use it: their experiment harness steps
/// `Sim::next_event` directly.
pub struct SimProvider<'a> {
    sim: &'a mut Sim,
    node: NodeId,
    window_us: u64,
    seq: u64,
    backlog: VecDeque<Datagram>,
    scratch: Vec<(Instant, SimEvent)>,
    delivered: Vec<(NodeId, Vec<u8>)>,
}

impl<'a> SimProvider<'a> {
    /// Serve `node` from `sim`, draining events in windows of
    /// `window_us` past the earliest pending event (the batching knob:
    /// bigger windows, bigger drains).
    pub fn new(sim: &'a mut Sim, node: NodeId, window_us: u64) -> Self {
        SimProvider {
            sim,
            node,
            window_us,
            seq: 0,
            backlog: VecDeque::new(),
            scratch: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Datagrams the simulation delivered to nodes *other* than the
    /// served one (e.g. pool replies arriving back at their clients),
    /// in delivery order. Drained by the caller.
    // lint:allow(pub-needs-caller): the simulation fake's outbox, read by the provider tests and the planned whole-proxy simulation
    pub fn take_delivered(&mut self) -> Vec<(NodeId, Vec<u8>)> {
        std::mem::take(&mut self.delivered)
    }
}

impl IoProvider for SimProvider<'_> {
    fn recv_batch(&mut self, slots: &mut [RecvSlot], _timeout: Millis) -> usize {
        // Virtual time: the "timeout" is the simulation going idle.
        while self.backlog.is_empty() && !self.sim.is_idle() {
            self.scratch.clear();
            self.sim
                .drain_next_window(self.window_us, &mut self.scratch);
            for (at, ev) in self.scratch.drain(..) {
                match ev {
                    SimEvent::Datagram { from, to, bytes } if to == self.node => {
                        let seq = self.seq;
                        self.seq += 1;
                        self.backlog.push_back(Datagram {
                            peer: from as u64,
                            seq,
                            at,
                            wire: bytes,
                        });
                    }
                    SimEvent::Datagram { to, bytes, .. } => self.delivered.push((to, bytes)),
                    SimEvent::Timer { .. } => {}
                }
            }
        }
        let mut n = 0;
        for slot in slots.iter_mut() {
            match self.backlog.pop_front() {
                Some(d) => {
                    slot.datagram = Some(d);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        let mut n = 0;
        for r in replies {
            if let Some(wire) = &r.wire {
                self.sim
                    .send_datagram(self.node, r.peer as usize, wire.clone(), Tag::Response);
                n += 1;
            }
        }
        n
    }
}

/// Largest datagram the UDP provider accepts (CoAP over UDP fits
/// comfortably). The socket receives into one byte more, so a longer
/// datagram is detected instead of silently truncated, and is passed
/// on with an empty wire: the pool drops it like any other malformed
/// datagram and counts it in `errors`.
#[cfg(target_os = "linux")]
const UDP_RECV_BUF: usize = 2048;

/// [`IoProvider`] over a real [`std::net::UdpSocket`] (Linux only).
///
/// A receive is one non-blocking `recvmmsg` of up to 64 datagrams;
/// only when nothing is queued does it `poll` for the deadline and try
/// once more, and it calls again only while a call came back full. A
/// send is one `sendmmsg` per 64 replies, each `iovec` pointing at the
/// reply's own buffer. The per-message receive buffers live on the
/// receiving thread's stack, uninitialised until the kernel writes
/// them. The socket is left blocking, so a send waits for buffer space
/// rather than failing.
///
/// A received datagram is written into the wire buffer of the spent
/// datagram its slot still holds (see [`RecvSlot`]), so once every
/// slot has been used the receive path allocates nothing.
///
/// Peers are keyed by source address: the first datagram from an
/// address allocates the next peer id, and replies are routed back by
/// that id. Receive timestamps are pinned to a caller-set virtual
/// instant ([`UdpProvider::with_virtual_time`]) so loopback runs are
/// reproducible against sim runs; production callers would advance it
/// from a wall clock.
#[cfg(target_os = "linux")]
pub struct UdpProvider {
    socket: UdpSocket,
    /// peer id → address.
    peers: Vec<SocketAddr>,
    /// address → peer id.
    peer_ids: HashMap<SocketAddr, u64>,
    seq: u64,
    at: Instant,
}

#[cfg(target_os = "linux")]
impl UdpProvider {
    /// Bind a socket (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Ok(UdpProvider {
            socket: UdpSocket::bind(addr)?,
            peers: Vec::new(),
            peer_ids: HashMap::new(),
            seq: 0,
            at: Instant::EPOCH,
        })
    }

    /// The bound local address (where clients send).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Pin the virtual receive timestamp stamped on every datagram
    /// (drives cache freshness deterministically).
    pub fn with_virtual_time(mut self, at: Instant) -> Self {
        self.at = at;
        self
    }

    fn peer_id(&mut self, addr: SocketAddr) -> u64 {
        match self.peer_ids.get(&addr) {
            Some(&id) => id,
            None => {
                let id = self.peers.len() as u64;
                self.peers.push(addr);
                self.peer_ids.insert(addr, id);
                id
            }
        }
    }

    /// Write one received datagram into `slot`, reusing the wire
    /// buffer of the spent datagram the slot may still hold. A datagram
    /// longer than [`UDP_RECV_BUF`] gets an empty wire.
    fn fill(&mut self, slot: &mut RecvSlot, bytes: &[u8], addr: SocketAddr) {
        let peer = self.peer_id(addr);
        let seq = self.seq;
        self.seq += 1;
        let bytes: &[u8] = if bytes.len() > UDP_RECV_BUF {
            &[]
        } else {
            bytes
        };
        match &mut slot.datagram {
            Some(d) => {
                d.peer = peer;
                d.seq = seq;
                d.at = self.at;
                d.wire.clear();
                d.wire.extend_from_slice(bytes);
            }
            None => {
                slot.datagram = Some(Datagram {
                    peer,
                    seq,
                    at: self.at,
                    wire: bytes.to_vec(),
                })
            }
        }
    }
}

#[cfg(target_os = "linux")]
impl IoProvider for UdpProvider {
    fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize {
        let fd = self.socket.as_raw_fd();
        let mut arena = mmsg::RecvArena::new();
        let mut n = 0;
        let mut waited = false;
        loop {
            let rest = slots.get_mut(n..).unwrap_or_default();
            if rest.is_empty() {
                return n;
            }
            let got = match arena.recv(fd, rest.len()) {
                Some(got) => got,
                // Nothing queued: wait for the deadline, then try once
                // more.
                None if n == 0 && !waited => {
                    waited = true;
                    if mmsg::wait_readable(fd, timeout) {
                        continue;
                    }
                    return 0;
                }
                None => return n,
            };
            for ((bytes, addr), slot) in arena.received(got).zip(rest) {
                self.fill(slot, bytes, addr);
                n += 1;
            }
            if got < mmsg::BATCH {
                return n;
            }
        }
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        let fd = self.socket.as_raw_fd();
        let mut batch = mmsg::SendBatch::new();
        let mut sent = 0;
        for r in replies {
            let Some(wire) = &r.wire else { continue };
            let Some(addr) = self.peers.get(r.peer as usize) else {
                continue;
            };
            batch.push(wire, addr);
            if batch.is_full() {
                sent += batch.flush(fd);
            }
        }
        sent + batch.flush(fd)
    }
}

/// The Linux batched socket calls `UdpProvider` makes: `recvmmsg`,
/// `sendmmsg` and `poll`, declared by hand over `#[repr(C)]` mirrors of
/// the kernel ABI structs (`size_t` fields as `usize`, as in glibc).
/// Every array a call reads or writes is a local of the calling
/// thread, linked to its headers just before the call.
#[cfg(target_os = "linux")]
mod mmsg {
    use super::UDP_RECV_BUF;
    use std::ffi::{c_int, c_uint, c_ulong, c_void};
    use std::marker::PhantomData;
    use std::mem::{size_of, MaybeUninit};
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6};
    use std::os::fd::RawFd;
    use std::ptr;

    /// Messages per `recvmmsg` / `sendmmsg` call.
    pub(super) const BATCH: usize = 64;
    /// Bytes per receive buffer: one past the largest accepted
    /// datagram, so an oversize one shows as too long.
    const RECV_LEN: usize = UDP_RECV_BUF + 1;

    const MSG_DONTWAIT: c_int = 0x40;
    const POLLIN: i16 = 0x1;
    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    /// `struct iovec`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    /// `struct msghdr`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        name: *mut c_void,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut c_void,
        controllen: usize,
        flags: c_int,
    }

    /// `struct mmsghdr`: one message of a batch and, after the call,
    /// its length.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: c_uint,
    }

    /// `struct pollfd`.
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    /// `struct sockaddr_in`; port and address in network order.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6`; port in network order, flow info and
    /// scope id passed through as `std` does.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn6 {
        family: u16,
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    /// Room for either address family; `family` overlays in both.
    #[repr(C)]
    #[derive(Clone, Copy)]
    union SockAddr {
        v4: SockAddrIn,
        v6: SockAddrIn6,
    }

    extern "C" {
        fn recvmmsg(
            fd: c_int,
            msgvec: *mut MMsgHdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    impl IoVec {
        const EMPTY: IoVec = IoVec {
            base: ptr::null_mut(),
            len: 0,
        };
    }

    impl MMsgHdr {
        const EMPTY: MMsgHdr = MMsgHdr {
            hdr: MsgHdr {
                name: ptr::null_mut(),
                namelen: 0,
                iov: ptr::null_mut(),
                iovlen: 0,
                control: ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        };

        /// A header for one message: `name` (`namelen` bytes) and one
        /// buffer `iov`.
        fn new(name: &mut SockAddr, namelen: u32, iov: &mut IoVec) -> MMsgHdr {
            MMsgHdr {
                hdr: MsgHdr {
                    name: ptr::from_mut(name).cast(),
                    namelen,
                    iov: ptr::from_mut(iov),
                    iovlen: 1,
                    ..MMsgHdr::EMPTY.hdr
                },
                len: 0,
            }
        }
    }

    impl SockAddr {
        const ZERO: SockAddr = SockAddr {
            v6: SockAddrIn6 {
                family: 0,
                port: 0,
                flowinfo: 0,
                addr: [0; 16],
                scope_id: 0,
            },
        };
        const LEN: u32 = size_of::<SockAddr>() as u32;

        /// `addr` in C form, with the length to pass alongside it.
        fn encode(addr: &SocketAddr) -> (SockAddr, u32) {
            // Written over `ZERO`, so the bytes past a `sockaddr_in`
            // stay initialised too.
            let mut name = SockAddr::ZERO;
            let len = match addr {
                SocketAddr::V4(a) => {
                    name.v4 = SockAddrIn {
                        family: AF_INET,
                        port: a.port().to_be(),
                        addr: a.ip().octets(),
                        zero: [0; 8],
                    };
                    size_of::<SockAddrIn>()
                }
                SocketAddr::V6(a) => {
                    name.v6 = SockAddrIn6 {
                        family: AF_INET6,
                        port: a.port().to_be(),
                        flowinfo: a.flowinfo(),
                        addr: a.ip().octets(),
                        scope_id: a.scope_id(),
                    };
                    size_of::<SockAddrIn6>()
                }
            };
            (name, len as u32)
        }

        /// The address the kernel wrote, `len` bytes long; `None` for a
        /// family other than IPv4/IPv6 or a short length.
        fn decode(&self, len: u32) -> Option<SocketAddr> {
            // SAFETY: both variants are integers and byte arrays, valid
            // for any bit pattern, and every byte of a `SockAddr` is
            // initialised: each one starts as `ZERO`, and only field
            // writes and the kernel write to it after that.
            let (v4, v6) = unsafe { (self.v4, self.v6) };
            let len = len as usize;
            match v4.family {
                AF_INET if len >= size_of::<SockAddrIn>() => Some(SocketAddr::V4(
                    SocketAddrV4::new(Ipv4Addr::from(v4.addr), u16::from_be(v4.port)),
                )),
                AF_INET6 if len >= size_of::<SockAddrIn6>() => {
                    Some(SocketAddr::V6(SocketAddrV6::new(
                        Ipv6Addr::from(v6.addr),
                        u16::from_be(v6.port),
                        v6.flowinfo,
                        v6.scope_id,
                    )))
                }
                _ => None,
            }
        }
    }

    /// Wait up to `timeout` for `fd` to become readable.
    pub(super) fn wait_readable(fd: RawFd, timeout: doc_time::Millis) -> bool {
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let ms = c_int::try_from(timeout.as_millis().max(1)).unwrap_or(c_int::MAX);
        // SAFETY: `pfd` is one live, exclusively borrowed `pollfd`,
        // matching `nfds` = 1; the kernel writes only its `revents`.
        unsafe { poll(&mut pfd, 1, ms) > 0 }
    }

    /// The landing area of one `recv_batch`: up to [`BATCH`] receive
    /// buffers, left uninitialised, with their names and headers.
    pub(super) struct RecvArena {
        bufs: [MaybeUninit<[u8; RECV_LEN]>; BATCH],
        names: [SockAddr; BATCH],
        iovs: [IoVec; BATCH],
        hdrs: [MMsgHdr; BATCH],
    }

    impl RecvArena {
        pub(super) fn new() -> RecvArena {
            RecvArena {
                bufs: [const { MaybeUninit::uninit() }; BATCH],
                names: [SockAddr::ZERO; BATCH],
                iovs: [IoVec::EMPTY; BATCH],
                hdrs: [MMsgHdr::EMPTY; BATCH],
            }
        }

        /// One non-blocking `recvmmsg` of up to `max` (at most
        /// [`BATCH`]) datagrams. Returns how many arrived, or `None`
        /// when none was queued or the call failed.
        pub(super) fn recv(&mut self, fd: RawFd, max: usize) -> Option<usize> {
            let want = max.min(BATCH);
            // Re-armed on every call: the kernel overwrites each used
            // header's name length, flags and message length.
            let links = self.hdrs.iter_mut().zip(&mut self.iovs);
            let bufs = self.names.iter_mut().zip(&mut self.bufs);
            for ((hdr, iov), (name, buf)) in links.zip(bufs).take(want) {
                *iov = IoVec {
                    base: buf.as_mut_ptr().cast(),
                    len: RECV_LEN,
                };
                *hdr = MMsgHdr::new(name, SockAddr::LEN, iov);
            }
            // SAFETY: each of the first `want` headers points at one
            // iovec over a live `RECV_LEN`-byte buffer and at a
            // `SockAddr::LEN`-byte name, all owned by `self` and not
            // moved during the call; the kernel writes only into those
            // and into the headers. MSG_DONTWAIT keeps the call from
            // blocking, and a null timeout is allowed.
            let got = unsafe {
                recvmmsg(
                    fd,
                    self.hdrs.as_mut_ptr(),
                    want as c_uint,
                    MSG_DONTWAIT,
                    ptr::null_mut(),
                )
            };
            usize::try_from(got)
                .ok()
                .filter(|&got| got > 0)
                .map(|got| got.min(want))
        }

        /// The first `got` datagrams of the last [`RecvArena::recv`]:
        /// their bytes and source address. One whose source address
        /// does not decode is skipped.
        pub(super) fn received(&self, got: usize) -> impl Iterator<Item = (&[u8], SocketAddr)> {
            let msgs = self.hdrs.iter().zip(&self.names).zip(&self.bufs);
            msgs.take(got).filter_map(|((hdr, name), buf)| {
                let len = (hdr.len as usize).min(RECV_LEN);
                // SAFETY: a header's `msg_len` is 0 (as armed) unless the
                // kernel set it to the byte count it wrote at the start
                // of this header's buffer, never more than the iovec's
                // `RECV_LEN`; buffers are never de-initialised, so the
                // first `len` bytes are initialised.
                let bytes = unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), len) };
                Some((bytes, name.decode(hdr.hdr.namelen)?))
            })
        }
    }

    /// Up to [`BATCH`] replies queued for one `sendmmsg`; each `iovec`
    /// points at the reply's own buffer, borrowed for `'w`.
    pub(super) struct SendBatch<'w> {
        /// Each destination with its length.
        names: [(SockAddr, u32); BATCH],
        iovs: [IoVec; BATCH],
        len: usize,
        wires: PhantomData<&'w [u8]>,
    }

    impl<'w> SendBatch<'w> {
        pub(super) fn new() -> SendBatch<'w> {
            SendBatch {
                names: [(SockAddr::ZERO, 0); BATCH],
                iovs: [IoVec::EMPTY; BATCH],
                len: 0,
                wires: PhantomData,
            }
        }

        pub(super) fn is_full(&self) -> bool {
            self.len == BATCH
        }

        /// Queue `wire` for `addr`; ignored when the batch is full.
        pub(super) fn push(&mut self, wire: &'w [u8], addr: &SocketAddr) {
            let (Some(name), Some(iov)) =
                (self.names.get_mut(self.len), self.iovs.get_mut(self.len))
            else {
                return;
            };
            *name = SockAddr::encode(addr);
            *iov = IoVec {
                base: wire.as_ptr().cast_mut().cast(),
                len: wire.len(),
            };
            self.len += 1;
        }

        /// Send everything queued and empty the batch. A short count
        /// continues from the first unsent datagram; a datagram the
        /// kernel refuses is skipped and the rest are still sent.
        /// Returns how many were sent.
        pub(super) fn flush(&mut self, fd: RawFd) -> usize {
            let mut hdrs = [MMsgHdr::EMPTY; BATCH];
            let links = hdrs.iter_mut().zip(&mut self.iovs);
            for ((hdr, iov), (name, namelen)) in links.zip(&mut self.names).take(self.len) {
                *hdr = MMsgHdr::new(name, *namelen, iov);
            }
            let mut rest = hdrs.get_mut(..self.len).unwrap_or_default();
            self.len = 0;
            let mut sent = 0;
            while !rest.is_empty() {
                // SAFETY: every header in `rest` points at one name of
                // its recorded length and one iovec over a reply buffer
                // borrowed for `'w`, all live and unmoved for the call;
                // `sendmmsg` only reads them and writes the headers'
                // `msg_len`.
                let r = unsafe { sendmmsg(fd, rest.as_mut_ptr(), rest.len() as c_uint, 0) };
                let step = match usize::try_from(r) {
                    Ok(done) if done > 0 => {
                        sent += done;
                        done
                    }
                    Err(_)
                        if std::io::Error::last_os_error().kind()
                            == std::io::ErrorKind::Interrupted =>
                    {
                        0
                    }
                    // The first datagram was refused: skip it.
                    _ => 1,
                };
                rest = rest.get_mut(step..).unwrap_or_default();
            }
            sent
        }
    }
}

/// What one [`ProxyPool::run_io`] call serves with: its receive slots,
/// the drain being served, and the worker scratch with the reply slab.
/// A call takes a spent one from the pool and puts it back on return,
/// so repeated pumps allocate none of it again.
#[derive(Default)]
pub(crate) struct IoRun {
    slots: Vec<RecvSlot>,
    batch: Vec<Datagram>,
    scratch: WorkerScratch,
}

impl ProxyPool {
    /// Pump a provider through the pool on the calling thread: each
    /// `recv_batch` (up to `slots` datagrams, waiting up to
    /// `recv_timeout` for the first) is served as one drain — the same
    /// per-drain step as [`ProxyPool::run`]'s workers — and its replies
    /// go back out in one `send_batch`. Each spent datagram then goes
    /// back into the slot it came from, its wire cleared with its
    /// capacity kept, so a provider that overwrites filled slots
    /// receives without allocating; a pool built
    /// [`ProxyPool::with_wire_recycling`] does not take these buffers.
    /// Returns once `recv_batch` reports idle (0 datagrams); every
    /// datagram received by then has been answered. Replies carry
    /// worker 0.
    ///
    /// The slots, the drain and the reply slab outlive the call: the
    /// pool keeps them for the next `run_io`, so a pump restarted after
    /// every idle timeout allocates nothing once warm.
    ///
    /// No thread is spawned: to use more cores, call `run_io` from
    /// several threads on the same pool, each with its own provider
    /// (each call takes its own run state).
    /// Peer ids are per provider: two providers may give different
    /// clients the same id, and block-wise transfer state is keyed by
    /// peer id, so only one provider per pool may carry block-wise
    /// traffic. `ring_capacity` is unused and kept only for existing
    /// callers.
    pub fn run_io<P: IoProvider>(
        &self,
        provider: &mut P,
        _ring_capacity: usize,
        slots: usize,
        recv_timeout: Millis,
    ) -> PoolRunStats {
        let mut run = self.spent_io_runs().pop().unwrap_or_default();
        let IoRun {
            slots: slot_buf,
            batch,
            scratch,
        } = &mut run;
        slot_buf.resize_with(slots.max(1), RecvSlot::default);
        batch.reserve(slot_buf.len());
        scratch.reserve(slot_buf.len());
        let mut stats = PoolRunStats::default();
        loop {
            let n = provider.recv_batch(slot_buf, recv_timeout);
            if n == 0 {
                break;
            }
            batch.extend(
                slot_buf
                    .iter_mut()
                    .take(n)
                    .filter_map(|s| s.datagram.take()),
            );
            let replies = self.serve_batch(0, batch, scratch);
            stats.count(replies);
            provider.send_batch(replies);
            // Hand the spent datagrams back, front to back, for the
            // provider to overwrite.
            for (slot, mut d) in slot_buf.iter_mut().zip(batch.drain(..)) {
                d.wire.clear();
                slot.datagram = Some(d);
            }
        }
        self.spent_io_runs().push(run);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{build_request, DocMethod};
    use crate::policy::CachePolicy;
    use crate::proxy::CoapProxy;
    use crate::server::{DocServer, MockUpstream};
    use doc_check::sync::Arc;
    use doc_coap::msg::MsgType;
    use doc_dns::{Message, Name, RecordType};
    use doc_netsim::LinkKind;

    fn fetch_wire(name: &str, seq: u64) -> Vec<u8> {
        let mut q = Message::query(0, Name::parse(name).unwrap(), RecordType::Aaaa);
        q.canonicalize_id();
        build_request(
            DocMethod::Fetch,
            &q.encode(),
            MsgType::Con,
            seq as u16,
            vec![seq as u8, (seq >> 8) as u8],
        )
        .unwrap()
        .encode()
    }

    fn pool(workers: usize) -> ProxyPool {
        let up = MockUpstream::new(7, 3600, 3600);
        up.add_aaaa(Name::parse("a.example.org").unwrap(), 1);
        up.add_aaaa(Name::parse("b.example.org").unwrap(), 1);
        ProxyPool::new(
            workers,
            Arc::new(CoapProxy::with_shards(64, 4)),
            Arc::new(DocServer::new(CachePolicy::EolTtls, up)),
        )
    }

    #[test]
    fn sim_provider_serves_pool_and_replies_reach_clients() {
        let mut sim = Sim::new(42);
        let proxy_node: NodeId = 0;
        let client: NodeId = 1;
        sim.add_link(proxy_node, client, LinkKind::Wired { latency_us: 100 });
        sim.add_route(&[client, proxy_node]);
        let total = 20u64;
        for seq in 0..total {
            let name = if seq % 2 == 0 {
                "a.example.org"
            } else {
                "b.example.org"
            };
            sim.send_datagram(client, proxy_node, fetch_wire(name, seq), Tag::Query);
        }
        let pool = pool(2);
        let mut provider = SimProvider::new(&mut sim, proxy_node, 1_000);
        let stats = pool.run_io(&mut provider, 16, 8, Millis::from_millis(10));
        assert_eq!(stats.processed, total);
        assert_eq!(stats.replies, total);
        // The pump only returns once the sim is idle, so every reply
        // sent back has already arrived.
        let delivered = provider.take_delivered();
        assert_eq!(delivered.len(), total as usize, "every reply delivered");
        assert!(delivered.iter().all(|(node, _)| *node == client));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn udp_provider_times_out_when_idle() {
        let pool = pool(1);
        let mut provider = UdpProvider::bind("127.0.0.1:0").unwrap();
        let stats = pool.run_io(&mut provider, 8, 4, Millis::from_millis(20));
        assert_eq!(stats.processed, 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn udp_provider_serves_loopback_queries() {
        let pool = pool(2);
        let mut provider = UdpProvider::bind("127.0.0.1:0")
            .unwrap()
            .with_virtual_time(Instant::from_millis(1));
        let server_addr = provider.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(2000)))
            .unwrap();
        let total = 10u64;
        let handle = std::thread::spawn(move || {
            let mut replies = Vec::new();
            let mut buf = [0u8; 2048];
            for seq in 0..total {
                client
                    .send_to(&fetch_wire("a.example.org", seq), server_addr)
                    .unwrap();
                let (len, _) = client.recv_from(&mut buf).unwrap();
                replies.push(buf[..len].to_vec());
            }
            replies
        });
        let stats = pool.run_io(&mut provider, 8, 4, Millis::from_millis(500));
        let replies = handle.join().unwrap();
        assert_eq!(stats.processed, total);
        assert_eq!(stats.replies, total);
        assert_eq!(replies.len(), total as usize);
        for (seq, wire) in replies.iter().enumerate() {
            let v = doc_coap::view::CoapView::parse(wire).unwrap();
            assert_eq!(v.message_id, seq as u16, "reply for query {seq}");
        }
    }
}

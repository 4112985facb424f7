//! I/O providers: the pluggable front door of the worker pool.
//!
//! The pool ([`crate::pool::ProxyPool`]) is transport-agnostic — it
//! consumes [`Datagram`]s and emits [`Reply`]s. An [`IoProvider`] is
//! where those datagrams come from and where the replies go:
//!
//! * [`SimProvider`] feeds the pool from a `doc-netsim` event drain,
//!   so the paper's simulated workloads run through the *same* worker
//!   code as production traffic — and stay bit-identical, because the
//!   provider only re-plumbs `Sim::drain_due`, it does not reinterpret
//!   the schedule.
//! * [`UdpProvider`] serves real datagrams from a
//!   [`std::net::UdpSocket`] with a batched receive loop (block for
//!   the first datagram, then drain the socket non-blocking —
//!   `recvmmsg` shaped, one syscall per datagram but one *blocking
//!   point* per batch).
//!
//! The split follows the provider pattern of s2n-quic's platform
//! layer: protocol code never touches a socket, so a test harness, a
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
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

/// One receive slot a provider fills: `recv_batch` writes at most one
/// datagram per slot, front-to-back.
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
/// order, timestamps and bytes pass through untouched, which is what
/// keeps the paper sims bit-identical whether they run through the
/// pool or through the original experiment harness.
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
const UDP_RECV_BUF: usize = 2048;

/// [`IoProvider`] over a real [`std::net::UdpSocket`]: block for the
/// first datagram (up to the deadline), then drain whatever else the
/// socket already holds without blocking — a `recvmmsg`-shaped batch
/// per wakeup.
///
/// Peers are keyed by source address: the first datagram from an
/// address allocates the next peer id, and replies are routed back by
/// that id. Receive timestamps are pinned to a caller-set virtual
/// instant ([`UdpProvider::with_virtual_time`]) so loopback runs are
/// reproducible against sim runs; production callers would advance it
/// from a wall clock.
pub struct UdpProvider {
    socket: UdpSocket,
    /// peer id → address.
    peers: Vec<SocketAddr>,
    /// address → peer id.
    peer_ids: HashMap<SocketAddr, u64>,
    seq: u64,
    at: Instant,
    buf: [u8; UDP_RECV_BUF + 1],
}

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
            buf: [0u8; UDP_RECV_BUF + 1],
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

    fn slot_from(&mut self, len: usize, addr: SocketAddr) -> Datagram {
        let seq = self.seq;
        self.seq += 1;
        Datagram {
            peer: self.peer_id(addr),
            seq,
            at: self.at,
            wire: match len {
                0..=UDP_RECV_BUF => self.buf[..len].to_vec(),
                _ => Vec::new(),
            },
        }
    }
}

impl IoProvider for UdpProvider {
    fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize {
        if slots.is_empty() {
            return 0;
        }
        // Blocking wait (bounded by the deadline) for the first
        // datagram of the batch.
        let wait = std::time::Duration::from_millis(timeout.as_millis().max(1));
        if self.socket.set_read_timeout(Some(wait)).is_err() {
            return 0;
        }
        let first = match self.socket.recv_from(&mut self.buf) {
            Ok((len, addr)) => self.slot_from(len, addr),
            Err(_) => return 0, // timeout / interrupted → idle
        };
        slots[0].datagram = Some(first);
        let mut n = 1;
        // Non-blocking drain of whatever is already queued.
        if self.socket.set_nonblocking(true).is_ok() {
            while n < slots.len() {
                match self.socket.recv_from(&mut self.buf) {
                    Ok((len, addr)) => {
                        slots[n].datagram = Some(self.slot_from(len, addr));
                        n += 1;
                    }
                    Err(_) => break,
                }
            }
            let _ = self.socket.set_nonblocking(false);
        }
        n
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        let mut n = 0;
        for r in replies {
            let Some(wire) = &r.wire else { continue };
            let Some(&addr) = self.peers.get(r.peer as usize) else {
                continue;
            };
            if self.socket.send_to(wire, addr).is_ok() {
                n += 1;
            }
        }
        n
    }
}

impl ProxyPool {
    /// Pump a provider through the pool on the calling thread: each
    /// `recv_batch` (up to `slots` datagrams, waiting up to
    /// `recv_timeout` for the first) is served as one drain — the same
    /// per-drain step as [`ProxyPool::run`]'s workers — and its replies
    /// go back out in one `send_batch`. Returns once `recv_batch`
    /// reports idle (0 datagrams); every datagram received by then has
    /// been answered. Replies carry worker 0.
    ///
    /// No thread is spawned: to use more cores, call `run_io` from
    /// several threads on the same pool, each with its own provider.
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
        let mut slot_buf: Vec<RecvSlot> = Vec::new();
        slot_buf.resize_with(slots.max(1), RecvSlot::default);
        let mut batch: Vec<Datagram> = Vec::with_capacity(slot_buf.len());
        let mut scratch = WorkerScratch::with_capacity(slot_buf.len());
        let mut stats = PoolRunStats {
            steals_per_worker: vec![0],
            ..PoolRunStats::default()
        };
        loop {
            let n = provider.recv_batch(&mut slot_buf, recv_timeout);
            if n == 0 {
                return stats;
            }
            batch.extend(
                slot_buf
                    .iter_mut()
                    .take(n)
                    .filter_map(|s| s.datagram.take()),
            );
            let replies = self.serve_batch(0, &mut batch, &mut scratch);
            stats.count(replies);
            provider.send_batch(replies);
        }
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

    #[test]
    fn udp_provider_times_out_when_idle() {
        let pool = pool(1);
        let mut provider = UdpProvider::bind("127.0.0.1:0").unwrap();
        let stats = pool.run_io(&mut provider, 8, 4, Millis::from_millis(20));
        assert_eq!(stats.processed, 0);
    }

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

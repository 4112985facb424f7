//! `doc-netsim` — a deterministic discrete-event network simulator that
//! stands in for the paper's FIT IoT-LAB testbed (see DESIGN.md,
//! Substitutions).
//!
//! The simulated network reproduces the experiment topology of the
//! paper's Fig. 2: DNS clients, a forwarder (optionally a caching CoAP
//! proxy), a border router and a resolver host, connected by
//! IEEE 802.15.4 wireless hops (250 kbit/s, shared channel,
//! CSMA-style medium access, configurable loss, link-layer
//! retransmissions) plus one wired hop to the resolver.
//!
//! What the simulator models — because these are the effects the
//! paper's results hinge on:
//!
//! * **Transmission time** per 802.15.4 frame (`bytes × 8 / 250 kbit/s`),
//!   so bigger packets really take longer.
//! * **6LoWPAN fragmentation** via [`doc_sixlowpan::fragment_plan`]:
//!   every fragment is a separate frame; losing any fragment loses the
//!   whole datagram.
//! * **Shared medium**: frames on the same channel serialize; queueing
//!   delay under load reproduces the congestion effects of Fig. 15.
//! * **Link-layer retransmissions** (3 retries), as the paper's radios
//!   were configured.
//! * **Per-link frame/byte counters** tagged by message kind — the raw
//!   material of Fig. 10's link-utilization bars.
//!
//! Everything is driven by one seeded xorshift RNG: identical seeds
//! give bit-identical experiment runs.

pub use doc_time::{Instant, Millis};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Node identifier.
pub type NodeId = usize;

/// Message tag used for link-utilization accounting (Fig. 10 separates
/// queries from responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// A query/request travelling towards the resolver.
    Query,
    /// A response travelling back.
    Response,
    /// Anything else (handshakes, acknowledgements).
    Other,
}

impl Tag {
    /// Index into the `*_by_tag` stats arrays.
    pub fn index(self) -> usize {
        match self {
            Tag::Query => 0,
            Tag::Response => 1,
            Tag::Other => 2,
        }
    }
}

/// Events delivered to the experiment driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// A datagram arrived at `to`.
    Datagram {
        /// Originating node.
        from: NodeId,
        /// Destination node (where it arrived).
        to: NodeId,
        /// Payload bytes (transport datagram, e.g. a CoAP message).
        bytes: Vec<u8>,
    },
    /// A timer set via [`Sim::set_timer`] fired at `node`.
    Timer {
        /// Node the timer belongs to.
        node: NodeId,
        /// Caller-chosen token.
        token: u64,
    },
}

/// Link flavour.
#[derive(Debug, Clone, Copy)]
pub enum LinkKind {
    /// IEEE 802.15.4 wireless hop on a shared channel.
    Wireless {
        /// Channel (medium) index; links sharing it contend.
        channel: usize,
        /// Per-frame loss probability in permille (0–1000).
        loss_permille: u32,
    },
    /// Wired hop (border router ↔ resolver): fixed latency, no loss,
    /// no fragmentation.
    Wired {
        /// One-way latency in microseconds.
        latency_us: u64,
    },
}

/// Per-directed-link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Link-layer frames transmitted (including L2 retries).
    pub frames: u64,
    /// Bytes on air (including L2 retries and all headers).
    pub bytes: u64,
    /// Frames by tag: [query, response, other].
    pub frames_by_tag: [u64; 3],
    /// Bytes by tag: [query, response, other].
    pub bytes_by_tag: [u64; 3],
    /// Datagrams dropped (all L2 retries exhausted on some fragment).
    pub dropped_datagrams: u64,
}

impl std::ops::AddAssign for LinkStats {
    fn add_assign(&mut self, other: Self) {
        let LinkStats {
            frames,
            bytes,
            frames_by_tag,
            bytes_by_tag,
            dropped_datagrams,
        } = other;
        self.frames += frames;
        self.bytes += bytes;
        for k in 0..3 {
            self.frames_by_tag[k] += frames_by_tag[k];
            self.bytes_by_tag[k] += bytes_by_tag[k];
        }
        self.dropped_datagrams += dropped_datagrams;
    }
}

/// 802.15.4 bit rate (bit/s) — 2.4 GHz O-QPSK.
pub const BITRATE: u64 = 250_000;
/// Link-layer retry limit (paper: radios handle L2 retransmissions).
pub const L2_RETRIES: u32 = 3;
/// Loss probability (permille) applied to L2 *retries*. Interference on
/// constrained testbeds is bursty: once a frame was hit, its immediate
/// retries are likely hit too. Without this, three L2 retries would
/// drive datagram loss to ~loss⁴ and erase the app-layer
/// retransmission behaviour the paper's Fig. 7/11 measure.
pub const RETRY_LOSS_PERMILLE: u64 = 700;
/// Inter-frame CSMA backoff granularity in microseconds.
const BACKOFF_UNIT_US: u64 = 320;

/// Scramble a seed into a non-zero xorshift state (plain `seed | 1`
/// would alias adjacent seeds).
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) | 1
}

#[derive(Debug)]
enum Pending {
    /// Datagram progressing along its route; next hop is
    /// `route[hop_idx]`.
    HopArrival {
        from: NodeId,
        to: NodeId,
        route: Vec<NodeId>,
        hop_idx: usize,
        bytes: Vec<u8>,
        tag: Tag,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
}

/// The simulator.
pub struct Sim {
    now_us: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    pending: HashMap<usize, Pending>,
    next_pending: usize,
    rng: u64,
    links: HashMap<(NodeId, NodeId), LinkKind>,
    routes: HashMap<(NodeId, NodeId), Vec<NodeId>>,
    /// Per-channel medium busy-until time.
    channel_busy_until: HashMap<usize, u64>,
    stats: HashMap<(NodeId, NodeId), LinkStats>,
}

impl Sim {
    /// Create a simulator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now_us: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            pending: HashMap::new(),
            next_pending: 0,
            rng: splitmix(seed),
            links: HashMap::new(),
            routes: HashMap::new(),
            channel_busy_until: HashMap::new(),
            stats: HashMap::new(),
        }
    }

    fn rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Current virtual time on the protocol-stack clock (millisecond
    /// granularity, the [`doc_time::Instant`] shared with `doc-quic`).
    pub fn now(&self) -> Instant {
        Instant::from_millis(self.now_us / 1000)
    }

    /// Current virtual time in raw milliseconds (escape hatch for
    /// statistics; prefer [`Sim::now`]).
    pub fn now_ms(&self) -> u64 {
        self.now_us / 1000
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Install a bidirectional link.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, kind: LinkKind) {
        self.links.insert((a, b), kind);
        self.links.insert((b, a), kind);
    }

    /// Install a route (full node path, `route[0] = from`,
    /// `route.last() = to`); also installs the reverse route.
    pub fn add_route(&mut self, route: &[NodeId]) {
        assert!(route.len() >= 2);
        let from = route[0];
        let to = *route.last().expect("non-empty");
        self.routes.insert((from, to), route.to_vec());
        let mut rev = route.to_vec();
        rev.reverse();
        self.routes.insert((to, from), rev);
    }

    /// Statistics for the directed link `a → b`.
    pub fn link_stats(&self, a: NodeId, b: NodeId) -> LinkStats {
        self.stats.get(&(a, b)).copied().unwrap_or_default()
    }

    /// Combined (both directions) statistics for a link.
    pub fn link_stats_bidir(&self, a: NodeId, b: NodeId) -> LinkStats {
        let mut stats = self.link_stats(a, b);
        stats += self.link_stats(b, a);
        stats
    }

    /// Set a timer for `node` at absolute time `at`.
    pub fn set_timer(&mut self, node: NodeId, at: Instant, token: u64) {
        let id = self.alloc_pending(Pending::Timer { node, token });
        self.push_at(at.as_millis().saturating_mul(1000).max(self.now_us), id);
    }

    fn alloc_pending(&mut self, p: Pending) -> usize {
        let id = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(id, p);
        id
    }

    fn push_at(&mut self, at_us: u64, id: usize) {
        self.seq += 1;
        self.queue.push(Reverse((at_us, self.seq, id)));
    }

    /// Send a datagram from `from` to `to` along the installed route.
    ///
    /// # Panics
    /// Panics if no route exists (a topology bug in the experiment).
    pub fn send_datagram(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>, tag: Tag) {
        let route = self
            .routes
            .get(&(from, to))
            .unwrap_or_else(|| panic!("no route {from} -> {to}"))
            .clone();
        self.transmit_hop(route, 0, bytes, tag, from, to);
    }

    /// Simulate transmission over `route[hop_idx] → route[hop_idx+1]`.
    fn transmit_hop(
        &mut self,
        route: Vec<NodeId>,
        hop_idx: usize,
        bytes: Vec<u8>,
        tag: Tag,
        from: NodeId,
        to: NodeId,
    ) {
        let a = route[hop_idx];
        let b = route[hop_idx + 1];
        let kind = *self
            .links
            .get(&(a, b))
            .unwrap_or_else(|| panic!("no link {a} -> {b}"));
        match kind {
            LinkKind::Wired { latency_us } => {
                let st = self.stats.entry((a, b)).or_default();
                st.frames += 1;
                st.bytes += bytes.len() as u64 + 18; // Ethernet framing
                st.frames_by_tag[tag.index()] += 1;
                st.bytes_by_tag[tag.index()] += bytes.len() as u64 + 18;
                let arrival = self.now_us + latency_us;
                let id = self.alloc_pending(Pending::HopArrival {
                    from,
                    to,
                    route,
                    hop_idx: hop_idx + 1,
                    bytes,
                    tag,
                });
                self.push_at(arrival, id);
            }
            LinkKind::Wireless {
                channel,
                loss_permille,
            } => {
                // Fragment per 6LoWPAN and simulate each frame.
                let plan = doc_sixlowpan::fragment_plan(bytes.len());
                let mut t = self.now_us;
                let mut datagram_lost = false;
                for frame in &plan {
                    let tx_time = frame.total as u64 * 8 * 1_000_000 / BITRATE;
                    let mut attempts = 0;
                    loop {
                        // CSMA: wait for the medium, add random backoff.
                        let busy = self.channel_busy_until.get(&channel).copied().unwrap_or(0);
                        let backoff = (self.rand() % 8) * BACKOFF_UNIT_US;
                        let start = t.max(busy) + backoff;
                        let end = start + tx_time;
                        self.channel_busy_until.insert(channel, end);
                        // Account the transmission (even if lost).
                        let st = self.stats.entry((a, b)).or_default();
                        st.frames += 1;
                        st.bytes += frame.total as u64;
                        st.frames_by_tag[tag.index()] += 1;
                        st.bytes_by_tag[tag.index()] += frame.total as u64;
                        t = end;
                        let p = if attempts == 0 {
                            loss_permille as u64
                        } else {
                            RETRY_LOSS_PERMILLE.max(loss_permille as u64)
                        };
                        let lost = (self.rand() % 1000) < p;
                        if !lost {
                            break;
                        }
                        attempts += 1;
                        if attempts > L2_RETRIES {
                            datagram_lost = true;
                            break;
                        }
                        // Retry after an ACK-timeout-like gap.
                        t += (self.rand() % 4 + 1) * BACKOFF_UNIT_US;
                    }
                    if datagram_lost {
                        break;
                    }
                    // Small inter-fragment gap.
                    t += BACKOFF_UNIT_US;
                }
                if datagram_lost {
                    self.stats.entry((a, b)).or_default().dropped_datagrams += 1;
                    return; // datagram dies here
                }
                let id = self.alloc_pending(Pending::HopArrival {
                    from,
                    to,
                    route,
                    hop_idx: hop_idx + 1,
                    bytes,
                    tag,
                });
                self.push_at(t, id);
            }
        }
    }

    /// Process exactly one queue entry. `None` = queue empty;
    /// `Some(None)` = an internal step (store-and-forward hop) was
    /// taken without surfacing an event; `Some(Some(ev))` = an event
    /// for the driver.
    fn step(&mut self) -> Option<Option<(Instant, SimEvent)>> {
        loop {
            let Reverse((at_us, _, id)) = self.queue.pop()?;
            let Some(pending) = self.pending.remove(&id) else {
                continue; // cancelled
            };
            self.now_us = self.now_us.max(at_us);
            match pending {
                Pending::Timer { node, token } => {
                    return Some(Some((self.now(), SimEvent::Timer { node, token })));
                }
                Pending::HopArrival {
                    from,
                    to,
                    route,
                    hop_idx,
                    bytes,
                    tag,
                } => {
                    if hop_idx == route.len() - 1 {
                        return Some(Some((self.now(), SimEvent::Datagram { from, to, bytes })));
                    }
                    // Store-and-forward to the next hop.
                    self.transmit_hop(route, hop_idx, bytes, tag, from, to);
                    return Some(None);
                }
            }
        }
    }

    /// Advance to the next event. Returns `None` when the queue is
    /// empty.
    pub fn next_event(&mut self) -> Option<(Instant, SimEvent)> {
        loop {
            match self.step()? {
                Some(ev) => return Some(ev),
                None => continue,
            }
        }
    }

    /// The (virtual µs) timestamp of the next scheduled entry, skipping
    /// cancelled ones. `None` when the queue is drained.
    pub fn peek_due_us(&mut self) -> Option<u64> {
        while let Some(&Reverse((at_us, _, id))) = self.queue.peek() {
            if self.pending.contains_key(&id) {
                return Some(at_us);
            }
            self.queue.pop(); // drop cancelled entries eagerly
        }
        None
    }

    /// Batched event drain: pop every event scheduled at or before
    /// `horizon_us` into `out`, returning how many were appended.
    ///
    /// This is the bulk feed for a worker-pool front-end
    /// (`doc-core::pool`): instead of ping-ponging one event at a time,
    /// the driver drains a whole virtual-time window and fans the
    /// arrived datagrams onto the pool's ring in one go. Intermediate
    /// hops scheduled inside the window are simulated as part of the
    /// drain; events they produce beyond the horizon stay queued.
    pub fn drain_due(&mut self, horizon_us: u64, out: &mut Vec<(Instant, SimEvent)>) -> usize {
        let mut n = 0;
        while let Some(at_us) = self.peek_due_us() {
            if at_us > horizon_us {
                break;
            }
            match self.step() {
                Some(Some(ev)) => {
                    out.push(ev);
                    n += 1;
                }
                Some(None) => continue,
                None => break,
            }
        }
        n
    }

    /// Whether any events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drain the next *window* of events: everything due within
    /// `window_us` of the earliest pending event. Returns 0 only when
    /// the simulation is idle.
    ///
    /// This is the receive primitive an I/O provider wants — "give me
    /// the next batch of arrivals" — without the caller having to pick
    /// an absolute horizon: the window slides to wherever the event
    /// queue actually is, so sparse and dense schedules both drain in
    /// sensible batches.
    pub fn drain_next_window(
        &mut self,
        window_us: u64,
        out: &mut Vec<(Instant, SimEvent)>,
    ) -> usize {
        match self.peek_due_us() {
            None => 0,
            Some(at_us) => self.drain_due(at_us.saturating_add(window_us), out),
        }
    }
}

/// Draw Poisson-process arrival times: `count` events at `lambda`
/// events/second, returned as absolute [`Instant`]s from the epoch.
///
/// Matches the paper's workload: "The query rate is
/// Poisson-distributed with λ = 5 queries/s".
pub fn poisson_arrivals(seed: u64, lambda_per_s: f64, count: usize) -> Vec<Instant> {
    let mut rng = splitmix(seed);
    let mut rand = move || {
        let mut x = rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        rng = x;
        // Uniform in (0,1].
        ((x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    };
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        // Exponential inter-arrival: -ln(U)/λ seconds.
        let u: f64 = rand();
        t += -u.ln() / lambda_per_s;
        out.push(Instant::from_millis((t * 1000.0) as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    fn two_hop_sim(loss_permille: u32, seed: u64) -> Sim {
        // client(0) -- proxy(1) -- border router(2) -- resolver(3)
        let mut sim = Sim::new(seed);
        sim.add_link(
            0,
            1,
            LinkKind::Wireless {
                channel: 0,
                loss_permille,
            },
        );
        sim.add_link(
            1,
            2,
            LinkKind::Wireless {
                channel: 0,
                loss_permille,
            },
        );
        sim.add_link(2, 3, LinkKind::Wired { latency_us: 1000 });
        sim.add_route(&[0, 1, 2, 3]);
        sim
    }

    #[test]
    fn datagram_traverses_route() {
        let mut sim = two_hop_sim(0, 1);
        sim.send_datagram(0, 3, vec![0xAB; 40], Tag::Query);
        let (t, ev) = sim.next_event().unwrap();
        match ev {
            SimEvent::Datagram { from, to, bytes } => {
                assert_eq!(from, 0);
                assert_eq!(to, 3);
                assert_eq!(bytes, vec![0xAB; 40]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Two wireless frame times + backoffs + 1 ms wire.
        assert!((4..60).contains(&u64::from(t)), "arrival at {t}");
    }

    #[test]
    fn reverse_route_works() {
        let mut sim = two_hop_sim(0, 2);
        sim.send_datagram(3, 0, vec![1; 20], Tag::Response);
        let (_, ev) = sim.next_event().unwrap();
        assert!(matches!(ev, SimEvent::Datagram { from: 3, to: 0, .. }));
    }

    #[test]
    fn timer_fires_in_order() {
        let mut sim = two_hop_sim(0, 3);
        sim.set_timer(0, at(500), 7);
        sim.set_timer(0, at(100), 8);
        let (t1, e1) = sim.next_event().unwrap();
        assert_eq!(t1, at(100));
        assert_eq!(e1, SimEvent::Timer { node: 0, token: 8 });
        let (t2, e2) = sim.next_event().unwrap();
        assert_eq!(t2, at(500));
        assert_eq!(e2, SimEvent::Timer { node: 0, token: 7 });
    }

    #[test]
    fn fragmentation_multiplies_frames() {
        let mut sim = two_hop_sim(0, 4);
        sim.send_datagram(0, 3, vec![0; 40], Tag::Query);
        while sim.next_event().is_some() {}
        let small = sim.link_stats(0, 1).frames;
        let mut sim = two_hop_sim(0, 4);
        sim.send_datagram(0, 3, vec![0; 250], Tag::Query);
        while sim.next_event().is_some() {}
        let big = sim.link_stats(0, 1).frames;
        assert_eq!(small, 1);
        assert_eq!(big, 3, "250-byte datagram should take 3 frames");
    }

    #[test]
    fn loss_drops_datagrams() {
        // 100% loss: nothing arrives, datagram counted dropped.
        let mut sim = two_hop_sim(1000, 5);
        sim.send_datagram(0, 3, vec![0; 40], Tag::Query);
        assert!(sim.next_event().is_none());
        assert_eq!(sim.link_stats(0, 1).dropped_datagrams, 1);
        // And L2 retries were spent.
        assert_eq!(sim.link_stats(0, 1).frames as u32, 1 + L2_RETRIES);
    }

    #[test]
    fn moderate_loss_sometimes_delivers() {
        let mut delivered = 0;
        for seed in 0..100 {
            let mut sim = two_hop_sim(150, seed); // 15% frame loss
            sim.send_datagram(0, 3, vec![0; 40], Tag::Query);
            if sim.next_event().is_some() {
                delivered += 1;
            }
        }
        // Per-hop datagram loss ≈ 0.15 × 0.7³ ≈ 5%; two hops ⇒ ~10%.
        // Most datagrams must still arrive, but not all (bursty retry
        // model).
        assert!((75..100).contains(&delivered), "delivered {delivered}/100");
    }

    #[test]
    fn stats_tagged_by_kind() {
        let mut sim = two_hop_sim(0, 6);
        sim.send_datagram(0, 3, vec![0; 40], Tag::Query);
        while sim.next_event().is_some() {}
        sim.send_datagram(3, 0, vec![0; 80], Tag::Response);
        while sim.next_event().is_some() {}
        let up = sim.link_stats(0, 1);
        let down = sim.link_stats(1, 0);
        assert_eq!(up.frames_by_tag[Tag::Query.index()], 1);
        assert_eq!(up.frames_by_tag[Tag::Response.index()], 0);
        // The 80-byte response exceeds the 69-byte single-frame budget:
        // 2 fragments.
        assert_eq!(down.frames_by_tag[Tag::Response.index()], 2);
        let both = sim.link_stats_bidir(0, 1);
        assert_eq!(both.frames, 3);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut sim = two_hop_sim(100, seed);
            for i in 0..20 {
                sim.send_datagram(0, 3, vec![i as u8; 100], Tag::Query);
            }
            let mut arrivals = Vec::new();
            while let Some((t, ev)) = sim.next_event() {
                if matches!(ev, SimEvent::Datagram { .. }) {
                    arrivals.push(t);
                }
            }
            (arrivals, sim.link_stats(0, 1))
        };
        assert_eq!(run(42), run(42));
        // Different seeds differ in at least one observable (arrival
        // times or retry counts).
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn shared_channel_serializes() {
        // Two clients on one channel: their transmissions must not
        // overlap, so 10 concurrent datagrams take ~10× one tx time.
        let mut sim = Sim::new(9);
        sim.add_link(
            0,
            2,
            LinkKind::Wireless {
                channel: 0,
                loss_permille: 0,
            },
        );
        sim.add_link(
            1,
            2,
            LinkKind::Wireless {
                channel: 0,
                loss_permille: 0,
            },
        );
        sim.add_route(&[0, 2]);
        sim.add_route(&[1, 2]);
        for _ in 0..5 {
            sim.send_datagram(0, 2, vec![0; 90], Tag::Query);
            sim.send_datagram(1, 2, vec![0; 90], Tag::Query);
        }
        let mut last = Instant::EPOCH;
        let mut count = 0;
        while let Some((t, ev)) = sim.next_event() {
            if matches!(ev, SimEvent::Datagram { .. }) {
                count += 1;
                last = t;
            }
        }
        assert_eq!(count, 10);
        // one ~119-byte frame ≈ 3.8 ms; 10 serialized ≥ 30 ms.
        assert!(last >= at(30), "last arrival {last}");
    }

    #[test]
    fn drain_due_matches_sequential_stream() {
        let run = |seed| {
            let mut sim = two_hop_sim(100, seed);
            for i in 0..20 {
                sim.send_datagram(0, 3, vec![i as u8; 100], Tag::Query);
                sim.set_timer(0, at(10 * i as u64), i as u64);
            }
            sim
        };
        // Reference: the classic one-event-at-a-time pump.
        let mut seq_sim = run(21);
        let mut sequential = Vec::new();
        while let Some(ev) = seq_sim.next_event() {
            sequential.push(ev);
        }
        // Batched: drain in 50 ms windows until idle.
        let mut batch_sim = run(21);
        let mut batched = Vec::new();
        let mut horizon_us = 0;
        while !batch_sim.is_idle() {
            horizon_us += 50_000;
            batch_sim.drain_due(horizon_us, &mut batched);
        }
        assert_eq!(sequential, batched);
        assert_eq!(seq_sim.link_stats(0, 1), batch_sim.link_stats(0, 1));
    }

    #[test]
    fn drain_due_respects_horizon() {
        let mut sim = two_hop_sim(0, 22);
        sim.set_timer(0, at(10), 1);
        sim.set_timer(0, at(500), 2);
        let mut out = Vec::new();
        // Only the 10 ms timer fits the 100 ms window.
        assert_eq!(sim.drain_due(100_000, &mut out), 1);
        assert_eq!(out, vec![(at(10), SimEvent::Timer { node: 0, token: 1 })]);
        assert!(!sim.is_idle(), "the 500 ms timer must stay queued");
        assert_eq!(sim.peek_due_us(), Some(500_000));
        assert_eq!(sim.drain_due(u64::MAX, &mut out), 1);
        assert!(sim.is_idle());
    }

    #[test]
    fn poisson_arrivals_mean_rate() {
        let times = poisson_arrivals(7, 5.0, 1000);
        assert_eq!(times.len(), 1000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Mean inter-arrival should be ~200 ms (±15%).
        let total = u64::from(*times.last().unwrap()) as f64;
        let mean = total / 1000.0;
        assert!((170.0..230.0).contains(&mean), "mean {mean} ms");
    }

    #[test]
    fn poisson_deterministic() {
        assert_eq!(poisson_arrivals(1, 5.0, 50), poisson_arrivals(1, 5.0, 50));
        assert_ne!(poisson_arrivals(1, 5.0, 50), poisson_arrivals(2, 5.0, 50));
    }
}

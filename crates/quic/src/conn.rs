//! The QUIC-lite connection: a sans-IO state machine pairing a 1-RTT
//! PSK handshake (CRYPTO-lite flights), per-stream reassembly, ACK
//! generation and timer-driven loss recovery.
//!
//! Like every protocol crate in this workspace the connection is
//! driven with explicit timestamps — [`doc_time::Instant`] newtypes,
//! shared with `doc-netsim`, so timer-unit mix-ups are type errors.
//! The caller feeds datagrams through
//! [`Connection::handle_datagram`], pumps the single
//! [`Connection::poll`] entry point when
//! [`Connection::next_timeout`] fires (the `doc-netsim` event queue
//! does this in the experiment driver), and transmits whatever
//! [`Transmit::datagrams`] come back. Nothing here does IO.
//!
//! Loss recovery is pluggable ([`crate::recovery`]): an
//! [`RttEstimator`] feeds the connection's
//! [`CongestionController`], which decides the retransmission
//! timeout and a pacing-aware send quota. The default [`FixedRto`]
//! controller reproduces the original fixed-300 ms behavior
//! byte-exactly; `Cubic` and `BbrLite` adapt.
//!
//! ## Handshake (1-RTT accounting)
//!
//! ```text
//! client                                server
//!   | Handshake[CRYPTO client_random]  →  |   derive keys, established
//!   | ←  Handshake[CRYPTO server_random]  |
//!   derive keys, established              |
//!   | 1-RTT[STREAM …]                  →  |   (first query, 1 RTT after start)
//! ```
//!
//! Keys are `HKDF(psk || client_random || server_random)` split into a
//! client-write and a server-write direction ([`crate::packet`]); the
//! client can send protected data exactly one round trip after its
//! first flight, which is the 1-RTT figure the `doc-models::quic`
//! analytical model assumes.

use crate::frame::Frame;
use crate::packet::{Header, PacketKeys, Space, CID_LEN};
use crate::recovery::{self, CongestionController, ControllerKind, RttEstimator};
use crate::stream::RecvStream;
use crate::QuicError;
use doc_time::{Instant, Millis};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Delayed-ACK timer: a standalone ACK goes out this long after an
/// ack-eliciting packet unless an outgoing packet piggybacks it first.
pub const ACK_DELAY: Millis = Millis::from_millis(25);
/// Initial retransmission timeout (doubles per retry). The
/// [`recovery::FixedRto`] controller pins every packet's RTO to this
/// value; adaptive controllers start from the RTT estimator's PTO.
pub const INITIAL_RTO: Millis = Millis::from_millis(300);
/// Retransmissions per packet before its frames are abandoned.
pub const MAX_RETRIES: u32 = 7;
/// Largest frame payload packed into one packet (headroom below the
/// 1280-byte IPv6 MTU; the simulated exchanges are far smaller).
const MAX_PACKET_PAYLOAD: usize = 1024;

/// Connection role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Client,
    Server,
}

/// Events surfaced by [`Connection::handle_datagram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuicEvent {
    /// A datagram to transmit immediately (handshake reply, ACK, or a
    /// queued packet released by freshly freed congestion quota).
    Transmit(Vec<u8>),
    /// Newly contiguous application bytes on a stream. `fin` is true
    /// once the peer's side of the stream is complete.
    Stream {
        /// Stream ID.
        id: u64,
        /// The newly delivered bytes (may be empty on a bare FIN).
        data: Vec<u8>,
        /// Whether the stream's receive side is now finished.
        fin: bool,
    },
    /// The handshake completed; 1-RTT data can flow.
    Established,
}

/// The outcome of one [`Connection::poll`] call: datagrams to put on
/// the wire now, and when to poll again.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Transmit {
    /// Datagrams to transmit immediately (standalone ACKs,
    /// retransmissions, queued packets released by quota).
    pub datagrams: Vec<Vec<u8>>,
    /// The next timer deadline after this poll, if any.
    pub next_timeout: Option<Instant>,
}

struct SentPacket {
    space: Space,
    /// Retransmittable frames only (CRYPTO/STREAM).
    frames: Vec<Frame>,
    /// Packet number of the latest transmission (retransmissions are
    /// sent under fresh pns and re-keyed here).
    last_pn: u64,
    retries: u32,
    rto: Millis,
    deadline: Instant,
    /// When the *original* transmission left (Karn: RTT samples come
    /// only from packets that were never retransmitted).
    sent_at: Instant,
    /// Wire size of the original datagram (congestion accounting).
    size: usize,
}

/// A QUIC-lite connection endpoint.
pub struct Connection {
    role: Role,
    cid: [u8; CID_LEN],
    psk: Vec<u8>,
    local_random: [u8; 32],
    established: bool,
    tx_keys: Option<PacketKeys>,
    rx_keys: Option<PacketKeys>,
    next_pn: u64,
    // Receiver ACK state.
    rx_seen: BTreeSet<u64>,
    ack_pending: bool,
    ack_deadline: Option<Instant>,
    // Sender loss recovery.
    sent: Vec<SentPacket>,
    rtt: RttEstimator,
    cc: Box<dyn CongestionController>,
    bytes_in_flight: usize,
    /// Stream frames awaiting congestion quota, in send order.
    queued: VecDeque<Frame>,
    /// Datagrams that exhausted their retries (observability).
    abandoned: u64,
    // Streams.
    next_stream_id: u64,
    send_offset: HashMap<u64, u64>,
    recv: HashMap<u64, RecvStream>,
}

fn random32(seed: u64) -> [u8; 32] {
    let mut x = seed | 1;
    let mut out = [0u8; 32];
    for chunk in out.chunks_mut(8) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        chunk.copy_from_slice(&x.wrapping_mul(0x2545F4914F6CDD1D).to_be_bytes());
    }
    out
}

impl Connection {
    fn new(role: Role, seed: u64, psk: &[u8], controller: ControllerKind) -> Self {
        Connection {
            role,
            cid: [0xD0, 0xC1],
            psk: psk.to_vec(),
            local_random: random32(seed ^ role as u64),
            established: false,
            tx_keys: None,
            rx_keys: None,
            next_pn: 0,
            rx_seen: BTreeSet::new(),
            ack_pending: false,
            ack_deadline: None,
            sent: Vec::new(),
            rtt: RttEstimator::new(),
            cc: controller.build(),
            bytes_in_flight: 0,
            queued: VecDeque::new(),
            abandoned: 0,
            next_stream_id: 0,
            send_offset: HashMap::new(),
            recv: HashMap::new(),
        }
    }

    /// A client endpoint (initiates the handshake, opens streams
    /// 0, 4, 8, …) with the default [`FixedRto`] oracle controller.
    ///
    /// [`FixedRto`]: recovery::FixedRto
    pub fn client(seed: u64, psk: &[u8]) -> Self {
        Connection::new(Role::Client, seed, psk, ControllerKind::FixedRto)
    }

    /// A server endpoint (answers the handshake, replies on the
    /// client's streams) with the default [`FixedRto`] oracle
    /// controller.
    ///
    /// [`FixedRto`]: recovery::FixedRto
    pub fn server(seed: u64, psk: &[u8]) -> Self {
        Connection::new(Role::Server, seed, psk, ControllerKind::FixedRto)
    }

    /// A client endpoint with an explicit congestion controller.
    pub fn client_with(seed: u64, psk: &[u8], controller: ControllerKind) -> Self {
        Connection::new(Role::Client, seed, psk, controller)
    }

    /// A server endpoint with an explicit congestion controller.
    pub fn server_with(seed: u64, psk: &[u8], controller: ControllerKind) -> Self {
        Connection::new(Role::Server, seed, psk, controller)
    }

    /// Whether 1-RTT keys are installed.
    pub fn is_established(&self) -> bool {
        self.established
    }

    /// Datagrams whose frames were abandoned after [`MAX_RETRIES`].
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Packets currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.sent.len()
    }

    /// Bytes currently counted against the congestion window.
    pub fn bytes_in_flight(&self) -> usize {
        self.bytes_in_flight
    }

    /// The connection's RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    fn derive_keys(&mut self, peer_random: &[u8]) {
        let mut secret = self.psk.clone();
        match self.role {
            Role::Client => {
                secret.extend_from_slice(&self.local_random);
                secret.extend_from_slice(peer_random);
            }
            Role::Server => {
                secret.extend_from_slice(peer_random);
                secret.extend_from_slice(&self.local_random);
            }
        }
        let (tx, rx) = match self.role {
            Role::Client => ("client write", "server write"),
            Role::Server => ("server write", "client write"),
        };
        self.tx_keys = Some(PacketKeys::derive(&secret, tx));
        self.rx_keys = Some(PacketKeys::derive(&secret, rx));
        self.established = true;
    }

    /// Build one packet carrying `frames`; tracks retransmittable
    /// frames for loss recovery when `track_at` is given.
    fn build_packet(
        &mut self,
        space: Space,
        frames: &[Frame],
        track_at: Option<Instant>,
    ) -> Vec<u8> {
        let pn = self.next_pn;
        self.next_pn += 1;
        let mut datagram = Vec::new();
        Header::encode_into(space, self.cid, pn, &mut datagram);
        let header_len = datagram.len();
        let mut payload = Vec::new();
        for f in frames {
            f.encode_into(&mut payload);
        }
        match space {
            Space::Handshake => datagram.extend_from_slice(&payload),
            Space::OneRtt => {
                let header = datagram[..header_len].to_vec();
                self.tx_keys
                    .as_ref()
                    .expect("1-RTT packet before keys")
                    .seal_into(pn, &header, &payload, &mut datagram)
                    .expect("seal cannot fail on sane sizes");
            }
        }
        if let Some(now) = track_at {
            let keep: Vec<Frame> = frames
                .iter()
                .filter(|f| f.retransmittable())
                .cloned()
                .collect();
            if !keep.is_empty() {
                let size = datagram.len();
                let rto = self.cc.rto(&self.rtt);
                self.sent.push(SentPacket {
                    space,
                    frames: keep,
                    last_pn: pn,
                    retries: 0,
                    rto,
                    deadline: now + rto,
                    sent_at: now,
                    size,
                });
                self.bytes_in_flight += size;
                self.cc.on_packet_sent(now, size);
            }
        }
        datagram
    }

    /// Take the pending ACK as a frame to piggyback on an outgoing
    /// packet (clears the delayed-ACK timer).
    fn take_ack(&mut self) -> Option<Frame> {
        let largest = *self.rx_seen.last()?;
        if !self.ack_pending {
            return None;
        }
        self.ack_pending = false;
        self.ack_deadline = None;
        // Contiguous run below `largest`.
        let mut first_range = 0;
        while self.rx_seen.contains(&(largest - first_range - 1)) {
            first_range += 1;
            if first_range == largest {
                break;
            }
        }
        Some(Frame::Ack {
            largest,
            first_range,
        })
    }

    /// Mark a tracked packet delivered: release its quota and (per
    /// Karn's algorithm) feed the RTT estimator if it was never
    /// retransmitted. Handshake packets are excluded from sampling:
    /// sessions pre-established in memory (`establish_pair`) pump both
    /// flights at one instant, and a degenerate 0 ms sample would
    /// poison the smoothed estimate.
    fn packet_delivered(&mut self, now: Instant, p: SentPacket) {
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(p.size);
        if p.retries == 0 && p.space == Space::OneRtt {
            self.rtt
                .on_sample(now, now.saturating_duration_since(p.sent_at));
        }
        self.cc.on_ack(now, p.size, &self.rtt);
    }

    /// Build packets for queued stream frames while the controller's
    /// send quota allows, appending them to `out`.
    fn drain_queued(&mut self, now: Instant, out: &mut Vec<Vec<u8>>) {
        while !self.queued.is_empty() && self.cc.send_quota(self.bytes_in_flight) >= recovery::MSS {
            let frame = self.queued.pop_front().expect("checked non-empty");
            let mut frames = Vec::new();
            if let Some(ack) = self.take_ack() {
                frames.push(ack);
            }
            frames.push(frame);
            out.push(self.build_packet(Space::OneRtt, &frames, Some(now)));
        }
    }

    /// Client: produce the first handshake flight.
    pub fn connect(&mut self, now: Instant) -> Vec<Vec<u8>> {
        assert_eq!(self.role, Role::Client, "only clients initiate");
        let crypto = Frame::Crypto {
            offset: 0,
            data: self.local_random.to_vec(),
        };
        vec![self.build_packet(Space::Handshake, &[crypto], Some(now))]
    }

    /// Allocate the next locally initiated bidirectional stream ID.
    pub fn open_stream(&mut self) -> u64 {
        let id = self.next_stream_id;
        self.next_stream_id += 4;
        id
    }

    /// Send `data` on stream `id` (appended at the stream's current
    /// send offset), optionally finishing the stream. Returns the
    /// datagrams to transmit now; frames beyond the controller's send
    /// quota are queued and released by later ACKs or [`Connection::poll`].
    pub fn send_stream(
        &mut self,
        id: u64,
        data: &[u8],
        fin: bool,
        now: Instant,
    ) -> Result<Vec<Vec<u8>>, QuicError> {
        if !self.established {
            return Err(QuicError::NotEstablished);
        }
        let mut out = Vec::new();
        let offset = self.send_offset.entry(id).or_insert(0);
        let mut chunks: Vec<Frame> = Vec::new();
        if data.is_empty() {
            chunks.push(Frame::Stream {
                id,
                offset: *offset,
                fin,
                data: Vec::new(),
            });
        } else {
            for (i, chunk) in data.chunks(MAX_PACKET_PAYLOAD).enumerate() {
                let last = (i + 1) * MAX_PACKET_PAYLOAD >= data.len();
                chunks.push(Frame::Stream {
                    id,
                    offset: *offset + (i * MAX_PACKET_PAYLOAD) as u64,
                    fin: fin && last,
                    data: chunk.to_vec(),
                });
            }
        }
        *offset += data.len() as u64;
        let mut first = true;
        for frame in chunks {
            // Preserve frame order: once one frame queues on quota,
            // everything behind it queues too.
            if !self.queued.is_empty() || self.cc.send_quota(self.bytes_in_flight) < recovery::MSS {
                self.queued.push_back(frame);
                continue;
            }
            // Piggyback the pending ACK on the first packet.
            let mut frames = Vec::new();
            if first {
                if let Some(ack) = self.take_ack() {
                    frames.push(ack);
                }
            }
            first = false;
            frames.push(frame);
            out.push(self.build_packet(Space::OneRtt, &frames, Some(now)));
        }
        Ok(out)
    }

    /// Process one received datagram.
    pub fn handle_datagram(&mut self, now: Instant, datagram: &[u8]) -> Vec<QuicEvent> {
        let mut events = Vec::new();
        let Ok(header) = Header::decode(datagram) else {
            return events; // garbage datagrams are dropped silently
        };
        let body = &datagram[header.len..];
        let frames = match header.space {
            Space::Handshake => match Frame::decode_all(body) {
                Ok(f) => f,
                Err(_) => return events,
            },
            Space::OneRtt => {
                let Some(keys) = self.rx_keys.as_ref() else {
                    return events; // data before keys: drop
                };
                let aad = &datagram[..header.len];
                let Ok(plain) = keys.open(header.pn, aad, body) else {
                    return events; // bad auth: drop
                };
                match Frame::decode_all(&plain) {
                    Ok(f) => f,
                    Err(_) => return events,
                }
            }
        };
        // De-duplicate retransmitted packets (1-RTT replay guard; the
        // handshake flight is idempotent and re-answered below).
        if header.space == Space::OneRtt && !self.rx_seen.insert(header.pn) {
            return events;
        }
        let mut ack_eliciting = false;
        for frame in frames {
            ack_eliciting |= frame.ack_eliciting();
            match frame {
                Frame::Crypto { data, .. } => {
                    if header.space != Space::Handshake {
                        continue;
                    }
                    match self.role {
                        Role::Server => {
                            let was_established = self.established;
                            if !was_established {
                                self.derive_keys(&data);
                                events.push(QuicEvent::Established);
                            }
                            // Answer (and re-answer, if our reply was
                            // lost) with the server flight.
                            let crypto = Frame::Crypto {
                                offset: 0,
                                data: self.local_random.to_vec(),
                            };
                            let reply = self.build_packet(Space::Handshake, &[crypto], None);
                            events.push(QuicEvent::Transmit(reply));
                        }
                        Role::Client => {
                            if !self.established {
                                self.derive_keys(&data);
                                // The handshake flight is answered;
                                // stop retransmitting it. Its round
                                // trip is the first RTT sample.
                                let mut i = 0;
                                while i < self.sent.len() {
                                    if self.sent[i].space == Space::Handshake {
                                        let p = self.sent.remove(i);
                                        self.packet_delivered(now, p);
                                    } else {
                                        i += 1;
                                    }
                                }
                                events.push(QuicEvent::Established);
                            }
                        }
                    }
                }
                Frame::Ack {
                    largest,
                    first_range,
                } => {
                    self.on_ack(now, largest, first_range);
                }
                Frame::Stream {
                    id,
                    offset,
                    fin,
                    data,
                } => {
                    let stream = self.recv.entry(id).or_default();
                    let delivered = stream.push(offset, &data, fin);
                    // The FIN is announced exactly once; duplicate
                    // retransmits that deliver nothing stay silent so
                    // request/response consumers never answer twice.
                    let finished = stream.take_fin_notification();
                    if !delivered.is_empty() || finished {
                        events.push(QuicEvent::Stream {
                            id,
                            data: delivered,
                            fin: finished,
                        });
                    }
                }
                Frame::Ping | Frame::Padding => {}
            }
        }
        if ack_eliciting && header.space == Space::OneRtt {
            self.ack_pending = true;
            let deadline = now + ACK_DELAY;
            self.ack_deadline = Some(self.ack_deadline.map_or(deadline, |d| d.min(deadline)));
        }
        // Bound the dedup set (packets older than the ack window are
        // long decided either way).
        while self.rx_seen.len() > 256 {
            self.rx_seen.pop_first();
        }
        // ACKs may have freed congestion quota: release queued frames.
        let mut drained = Vec::new();
        self.drain_queued(now, &mut drained);
        events.extend(drained.into_iter().map(QuicEvent::Transmit));
        events
    }

    fn on_ack(&mut self, now: Instant, largest: u64, first_range: u64) {
        // Each tracked entry is identified by the pn of its latest
        // transmission. The single ACK range covers
        // `largest - first_range ..= largest`; an entry whose latest
        // transmission falls inside it is delivered. Older entries
        // (earlier transmissions lost) keep their RTO.
        let low = largest - first_range;
        let mut i = 0;
        while i < self.sent.len() {
            if (low..=largest).contains(&self.sent[i].last_pn) {
                let p = self.sent.remove(i);
                self.packet_delivered(now, p);
            } else {
                i += 1;
            }
        }
    }

    /// Earliest timer deadline (delayed ACK or retransmission), if any.
    pub fn next_timeout(&self) -> Option<Instant> {
        let rto = self.sent.iter().map(|p| p.deadline).min();
        match (self.ack_pending.then_some(self.ack_deadline).flatten(), rto) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The single sans-IO driver entry point: fire due timers (emit a
    /// standalone ACK if the delayed-ACK timer expired, retransmit
    /// timed-out packets, release queued frames up to the send quota)
    /// and report when to poll next.
    pub fn poll(&mut self, now: Instant) -> Transmit {
        let mut out = Vec::new();
        if self.ack_pending && self.ack_deadline.is_some_and(|d| d <= now) {
            if let Some(ack) = self.take_ack() {
                let pkt = self.build_packet(Space::OneRtt, &[ack], None);
                out.push(pkt);
            }
        }
        let mut due: Vec<SentPacket> = Vec::new();
        let mut i = 0;
        while i < self.sent.len() {
            if self.sent[i].deadline <= now {
                due.push(self.sent.remove(i));
            } else {
                i += 1;
            }
        }
        for mut p in due {
            if p.retries >= MAX_RETRIES {
                self.abandoned += 1;
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(p.size);
                self.cc.on_loss(now, p.size);
                continue;
            }
            // An expired RTO is a loss signal for the controller; the
            // retransmission itself keeps the packet's quota.
            self.cc.on_loss(now, p.size);
            p.retries += 1;
            p.rto = p.rto.saturating_mul(2);
            let datagram = self.build_packet(p.space, &p.frames, None);
            p.deadline = now + p.rto;
            p.last_pn = self.next_pn - 1;
            out.push(datagram);
            self.sent.push(p);
        }
        self.drain_queued(now, &mut out);
        Transmit {
            datagrams: out,
            next_timeout: self.next_timeout(),
        }
    }
}

//! The CoAP message layer (RFC 7252 §4) as a sans-IO state machine.
//!
//! [`Endpoint`] owns outgoing-CON retransmission state, incoming-CON
//! deduplication, and token/MID correlation. It is driven by the caller
//! with explicit timestamps (milliseconds of virtual time), which lets
//! `doc-netsim` run thousands of reproducible experiments.
//!
//! Timer parameters follow RFC 7252 §4.8 — and thereby RIOT's gCoAP,
//! which the paper's experiments used: `ACK_TIMEOUT = 2 s`,
//! `ACK_RANDOM_FACTOR = 1.5`, `MAX_RETRANSMIT = 4`. The initial timeout
//! is drawn uniformly from `[ACK_TIMEOUT, ACK_TIMEOUT ×
//! ACK_RANDOM_FACTOR)` and doubles on each retransmission — producing
//! the scatter regions shaded grey in the paper's Fig. 11.

use crate::msg::{CoapMessage, MsgType};
use std::collections::HashMap;

/// Retransmission parameters (RFC 7252 §4.8).
#[derive(Debug, Clone, Copy)]
pub struct TransmissionParams {
    /// Base acknowledgement timeout in milliseconds.
    pub ack_timeout_ms: u64,
    /// Random factor applied to the initial timeout (×1000, i.e. 1500
    /// means 1.5).
    pub ack_random_factor_permille: u64,
    /// Maximum number of retransmissions.
    pub max_retransmit: u32,
    /// Deduplication window (EXCHANGE_LIFETIME) in milliseconds.
    pub exchange_lifetime_ms: u64,
}

impl Default for TransmissionParams {
    fn default() -> Self {
        TransmissionParams {
            ack_timeout_ms: 2000,
            ack_random_factor_permille: 1500,
            max_retransmit: 4,
            exchange_lifetime_ms: 247_000,
        }
    }
}

/// Events produced by the endpoint for the caller to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<A> {
    /// Send this datagram to the peer.
    Transmit {
        /// Destination address.
        to: A,
        /// Encoded CoAP datagram.
        datagram: Vec<u8>,
        /// True when this is a retransmission (Fig. 11 bookkeeping).
        retransmission: bool,
    },
    /// A fresh (non-duplicate) request arrived.
    Request {
        /// Sender address.
        from: A,
        /// Decoded request.
        msg: CoapMessage,
    },
    /// A response matching one of our outstanding tokens arrived.
    Response {
        /// Sender address.
        from: A,
        /// Decoded response.
        msg: CoapMessage,
    },
    /// A CON we sent exhausted its retransmissions.
    TimedOut {
        /// Peer that never acknowledged.
        to: A,
        /// Token of the failed exchange (empty for raw CON).
        token: Vec<u8>,
    },
    /// A Reset arrived for one of our messages.
    Reset {
        /// Peer that rejected the message.
        from: A,
        /// MID that was reset.
        mid: u16,
    },
}

#[derive(Debug)]
struct PendingCon<A> {
    to: A,
    datagram: Vec<u8>,
    mid: u16,
    token: Vec<u8>,
    expects_response: bool,
    retries: u32,
    timeout_at: u64,
    backoff_ms: u64,
}

#[derive(Debug)]
struct SeenExchange<A> {
    from: A,
    mid: u16,
    at: u64,
    /// Cached wire response for duplicate CONs (RFC 7252 §4.2: "reply
    /// with the same response").
    response: Option<Vec<u8>>,
}

/// A sans-IO CoAP endpoint over peer addresses of type `A`.
pub struct Endpoint<A: Copy + Eq> {
    params: TransmissionParams,
    rng: u64,
    next_mid: u16,
    next_token: u16,
    pending: Vec<PendingCon<A>>,
    /// Tokens we have issued and not yet seen a (final) response for.
    open_requests: HashMap<Vec<u8>, A>,
    seen: Vec<SeenExchange<A>>,
}

impl<A: Copy + Eq> Endpoint<A> {
    /// Create an endpoint with default RFC 7252 parameters.
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, TransmissionParams::default())
    }

    /// Create an endpoint with explicit parameters.
    pub fn with_params(seed: u64, params: TransmissionParams) -> Self {
        Endpoint {
            params,
            rng: seed | 1,
            next_mid: (seed as u16) ^ (seed >> 40) as u16 | 1,
            next_token: (seed >> 16) as u16 ^ (seed >> 48) as u16,
            pending: Vec::new(),
            open_requests: HashMap::new(),
            seen: Vec::new(),
        }
    }

    fn rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Allocate a fresh message ID.
    pub fn alloc_mid(&mut self) -> u16 {
        self.next_mid = self.next_mid.wrapping_add(1);
        self.next_mid
    }

    /// Allocate a fresh 2-byte token (gCoAP-style short tokens).
    pub fn alloc_token(&mut self) -> Vec<u8> {
        self.next_token = self.next_token.wrapping_add(1);
        self.next_token.to_be_bytes().to_vec()
    }

    /// Number of in-flight confirmable transmissions.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Send a request. CON requests enter the retransmission machine;
    /// NON requests are fire-and-forget (but still correlated by
    /// token). Returns the events to act on (always starts with a
    /// `Transmit`).
    pub fn send_request(&mut self, now: u64, to: A, msg: &CoapMessage) -> Vec<Event<A>> {
        debug_assert!(msg.code.is_request());
        self.open_requests.insert(msg.token.clone(), to);
        self.send_message(now, to, msg, true)
    }

    /// Send a response. Piggybacked ACK responses are not retransmitted
    /// (the peer's CON machinery recovers loss); CON responses
    /// (separate responses) are.
    ///
    /// The response is also recorded so duplicate requests re-trigger
    /// the identical datagram.
    pub fn send_response(&mut self, now: u64, to: A, msg: &CoapMessage) -> Vec<Event<A>> {
        debug_assert!(msg.code.is_response());
        let wire = msg.encode();
        if msg.mtype == MsgType::Ack {
            if let Some(entry) = self
                .seen
                .iter_mut()
                .find(|s| s.from == to && s.mid == msg.message_id)
            {
                entry.response = Some(wire.clone());
            }
        }
        self.send_message(now, to, msg, false)
    }

    fn send_message(
        &mut self,
        now: u64,
        to: A,
        msg: &CoapMessage,
        expects_response: bool,
    ) -> Vec<Event<A>> {
        let wire = msg.encode();
        if msg.mtype == MsgType::Con {
            let spread =
                self.params.ack_timeout_ms * (self.params.ack_random_factor_permille - 1000) / 1000;
            let jitter = if spread == 0 {
                0
            } else {
                self.rand() % (spread + 1)
            };
            let backoff = self.params.ack_timeout_ms + jitter;
            self.pending.push(PendingCon {
                to,
                datagram: wire.clone(),
                mid: msg.message_id,
                token: msg.token.clone(),
                expects_response,
                retries: 0,
                timeout_at: now + backoff,
                backoff_ms: backoff,
            });
        }
        vec![Event::Transmit {
            to,
            datagram: wire,
            retransmission: false,
        }]
    }

    /// Process an incoming datagram.
    pub fn handle_datagram(&mut self, now: u64, from: A, datagram: &[u8]) -> Vec<Event<A>> {
        let msg = match CoapMessage::decode(datagram) {
            Ok(m) => m,
            // Malformed datagrams are silently dropped (a real endpoint
            // may send RST; for the experiments dropping is equivalent).
            Err(_) => return Vec::new(),
        };
        let mut events = Vec::new();
        match msg.mtype {
            MsgType::Ack | MsgType::Rst => {
                let is_rst = msg.mtype == MsgType::Rst;
                // Stop retransmitting the matched CON.
                if let Some(idx) = self.pending.iter().position(|p| p.mid == msg.message_id) {
                    let p = self.pending.remove(idx);
                    if is_rst {
                        events.push(Event::Reset {
                            from,
                            mid: msg.message_id,
                        });
                        self.open_requests.remove(&p.token);
                        return events;
                    }
                    // Piggybacked response?
                    if msg.code.is_response() && self.open_requests.remove(&msg.token).is_some() {
                        events.push(Event::Response { from, msg });
                    }
                    // Empty ACK: separate response will follow; keep
                    // open_requests entry.
                    let _ = p;
                } else if msg.code.is_response() && self.open_requests.remove(&msg.token).is_some()
                {
                    // ACK response whose original CON already completed
                    // (e.g. response to a retransmission): still deliver.
                    events.push(Event::Response { from, msg });
                }
            }
            MsgType::Con | MsgType::Non => {
                if msg.code.is_request() {
                    // Deduplication.
                    if let Some(entry) = self
                        .seen
                        .iter()
                        .find(|s| s.from == from && s.mid == msg.message_id)
                    {
                        if let Some(resp) = &entry.response {
                            events.push(Event::Transmit {
                                to: from,
                                datagram: resp.clone(),
                                retransmission: true,
                            });
                        }
                        return events;
                    }
                    self.seen.push(SeenExchange {
                        from,
                        mid: msg.message_id,
                        at: now,
                        response: None,
                    });
                    events.push(Event::Request { from, msg });
                } else if msg.code.is_response() {
                    // Separate response (CON or NON).
                    if msg.mtype == MsgType::Con {
                        // Always ACK a CON, even a duplicate.
                        events.push(Event::Transmit {
                            to: from,
                            datagram: CoapMessage::empty_ack(msg.message_id).encode(),
                            retransmission: false,
                        });
                    }
                    if self.open_requests.remove(&msg.token).is_some() {
                        events.push(Event::Response { from, msg });
                    }
                }
            }
        }
        events
    }

    /// Advance timers: returns retransmissions and failures due at `now`.
    pub fn poll(&mut self, now: u64) -> Vec<Event<A>> {
        let mut events = Vec::new();
        let params = self.params;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].timeout_at <= now {
                if self.pending[i].retries >= params.max_retransmit {
                    let p = self.pending.remove(i);
                    if p.expects_response {
                        self.open_requests.remove(&p.token);
                    }
                    events.push(Event::TimedOut {
                        to: p.to,
                        token: p.token,
                    });
                    continue;
                }
                let p = &mut self.pending[i];
                p.retries += 1;
                p.backoff_ms *= 2;
                p.timeout_at = now + p.backoff_ms;
                events.push(Event::Transmit {
                    to: p.to,
                    datagram: p.datagram.clone(),
                    retransmission: true,
                });
            }
            i += 1;
        }
        // Purge the dedup window.
        self.seen
            .retain(|s| now.saturating_sub(s.at) < params.exchange_lifetime_ms);
        events
    }

    /// The earliest pending timer, if any (lets the simulator schedule
    /// the next wake-up precisely).
    pub fn next_timeout(&self) -> Option<u64> {
        self.pending.iter().map(|p| p.timeout_at).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Code;
    use crate::opt::{CoapOption, OptionNumber};

    type Addr = u8;

    fn fetch(ep: &mut Endpoint<Addr>) -> CoapMessage {
        let mid = ep.alloc_mid();
        let token = ep.alloc_token();
        CoapMessage::request(Code::FETCH, MsgType::Con, mid, token)
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(b"query".to_vec())
    }

    fn first_transmit(events: &[Event<Addr>]) -> Vec<u8> {
        for e in events {
            if let Event::Transmit { datagram, .. } = e {
                return datagram.clone();
            }
        }
        panic!("no transmit event");
    }

    #[test]
    fn request_response_exchange() {
        let mut client = Endpoint::<Addr>::new(1);
        let mut server = Endpoint::<Addr>::new(2);
        let req = fetch(&mut client);
        let ev = client.send_request(0, 2, &req);
        let wire = first_transmit(&ev);

        let ev = server.handle_datagram(5, 1, &wire);
        let incoming = match &ev[0] {
            Event::Request { msg, .. } => msg.clone(),
            other => panic!("expected request, got {other:?}"),
        };
        let resp =
            CoapMessage::ack_response(&incoming, Code::CONTENT).with_payload(b"answer".to_vec());
        let ev = server.send_response(6, 1, &resp);
        let resp_wire = first_transmit(&ev);

        let ev = client.handle_datagram(10, 2, &resp_wire);
        match &ev[0] {
            Event::Response { msg, .. } => {
                assert_eq!(msg.payload, b"answer");
                assert_eq!(msg.token, req.token);
            }
            other => panic!("expected response, got {other:?}"),
        }
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn retransmission_schedule_exponential() {
        let mut client = Endpoint::<Addr>::new(42);
        let req = fetch(&mut client);
        client.send_request(0, 2, &req);
        let t1 = client.next_timeout().unwrap();
        // Initial timeout within [2000, 3000] ms.
        assert!((2000..=3000).contains(&t1), "t1 = {t1}");
        // Drive through all 4 retransmissions.
        let mut retransmissions = 0;
        let mut now = t1;
        let mut last_backoff = t1;
        loop {
            let evs = client.poll(now);
            let mut done = false;
            for e in evs {
                match e {
                    Event::Transmit { retransmission, .. } => {
                        assert!(retransmission);
                        retransmissions += 1;
                    }
                    Event::TimedOut { token, .. } => {
                        assert_eq!(token, req.token);
                        done = true;
                    }
                    _ => {}
                }
            }
            if done {
                break;
            }
            let next = client.next_timeout().unwrap();
            let gap = next - now;
            // Back-off doubles each round.
            assert!(gap >= last_backoff, "gap {gap} < previous {last_backoff}");
            last_backoff = gap;
            now = next;
        }
        assert_eq!(retransmissions, 4);
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn ack_stops_retransmission() {
        let mut client = Endpoint::<Addr>::new(3);
        let req = fetch(&mut client);
        client.send_request(0, 2, &req);
        let ack = CoapMessage::empty_ack(req.message_id);
        client.handle_datagram(100, 2, &ack.encode());
        assert_eq!(client.in_flight(), 0);
        assert!(client.poll(10_000).is_empty());
        // The request stays open awaiting a separate response.
        let sep = CoapMessage {
            mtype: MsgType::Con,
            code: Code::CONTENT,
            message_id: 999,
            token: req.token.clone(),
            options: vec![],
            payload: b"late".to_vec(),
        };
        let ev = client.handle_datagram(5000, 2, &sep.encode());
        // First event: ACK for the CON response; second: delivery.
        assert!(matches!(ev[0], Event::Transmit { .. }));
        assert!(matches!(&ev[1], Event::Response { msg, .. } if msg.payload == b"late"));
    }

    #[test]
    fn duplicate_request_replays_response() {
        let mut server = Endpoint::<Addr>::new(4);
        let req = CoapMessage::request(Code::FETCH, MsgType::Con, 77, vec![1, 2]);
        let wire = req.encode();
        let ev = server.handle_datagram(0, 9, &wire);
        assert!(matches!(ev[0], Event::Request { .. }));
        let resp = CoapMessage::ack_response(&req, Code::CONTENT).with_payload(b"r".to_vec());
        server.send_response(1, 9, &resp);
        // Duplicate arrives: no Request event, replayed response instead.
        let ev = server.handle_datagram(2, 9, &wire);
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            Event::Transmit {
                datagram,
                retransmission,
                ..
            } => {
                assert!(*retransmission);
                assert_eq!(*datagram, resp.encode());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_before_response_is_dropped() {
        let mut server = Endpoint::<Addr>::new(5);
        let req = CoapMessage::request(Code::FETCH, MsgType::Con, 78, vec![9]);
        let wire = req.encode();
        assert_eq!(server.handle_datagram(0, 9, &wire).len(), 1);
        assert!(server.handle_datagram(1, 9, &wire).is_empty());
    }

    #[test]
    fn rst_cancels_exchange() {
        let mut client = Endpoint::<Addr>::new(6);
        let req = fetch(&mut client);
        client.send_request(0, 2, &req);
        let rst = CoapMessage::reset(req.message_id);
        let ev = client.handle_datagram(1, 2, &rst.encode());
        assert!(matches!(ev[0], Event::Reset { .. }));
        assert_eq!(client.in_flight(), 0);
        // No response delivery possible afterwards.
        let resp = CoapMessage {
            mtype: MsgType::Non,
            code: Code::CONTENT,
            message_id: 1,
            token: req.token,
            options: vec![],
            payload: vec![],
        };
        assert!(client.handle_datagram(2, 2, &resp.encode()).is_empty());
    }

    #[test]
    fn unsolicited_response_ignored() {
        let mut client = Endpoint::<Addr>::new(7);
        let resp = CoapMessage {
            mtype: MsgType::Non,
            code: Code::CONTENT,
            message_id: 5,
            token: vec![0xDE, 0xAD],
            options: vec![],
            payload: vec![],
        };
        assert!(client.handle_datagram(0, 2, &resp.encode()).is_empty());
    }

    #[test]
    fn malformed_datagram_ignored() {
        let mut ep = Endpoint::<Addr>::new(8);
        assert!(ep.handle_datagram(0, 1, &[0xFF, 0x00]).is_empty());
        assert!(ep.handle_datagram(0, 1, &[]).is_empty());
    }

    #[test]
    fn non_request_is_not_retransmitted() {
        let mut client = Endpoint::<Addr>::new(9);
        let mid = client.alloc_mid();
        let token = client.alloc_token();
        let req = CoapMessage::request(Code::GET, MsgType::Non, mid, token);
        client.send_request(0, 2, &req);
        assert_eq!(client.in_flight(), 0);
        assert!(client.poll(100_000).is_empty());
    }

    #[test]
    fn distinct_mids_and_tokens() {
        let mut ep = Endpoint::<Addr>::new(11);
        let mids: Vec<u16> = (0..100).map(|_| ep.alloc_mid()).collect();
        let tokens: Vec<Vec<u8>> = (0..100).map(|_| ep.alloc_token()).collect();
        let mut m = mids.clone();
        m.dedup();
        assert_eq!(m.len(), 100);
        let mut t = tokens.clone();
        t.dedup();
        assert_eq!(t.len(), 100);
    }
}

//! The testbed-in-a-crate: drives DoC clients, the forwarder/proxy and
//! the DoC server over the `doc-netsim` simulator, reproducing the
//! paper's experiment setups:
//!
//! * **§5.1/§5.4 (Fig. 7)** — two clients, two wireless hops, opaque
//!   forwarder; 50 queries per run, Poisson λ = 5 /s; transports UDP,
//!   DTLSv1.2, CoAP (FETCH/GET/POST), CoAPSv1.2 (FETCH/GET/POST),
//!   OSCORE (FETCH); DTLS sessions and OSCORE replay windows are
//!   pre-initialized exactly as the paper does.
//! * **§6 (Fig. 10/11)** — 50 queries over 8 distinct names, 4 AAAA
//!   records per answer, TTLs uniform in [2 s, 8 s]; caching knobs:
//!   client DNS cache, client CoAP cache, caching forward proxy;
//!   policies DoH-like vs EOL TTLs.
//! * **Appendix D (Fig. 15)** — block-wise FETCH with block sizes
//!   16/32/64 over CoAP and CoAPS.
//!
//! The driver owns all node state machines and pumps the simulator's
//! event loop; every run is deterministic in its seed.

use crate::client::{DocClient, QueryOutcome};
use crate::method::DocMethod;
use crate::policy::CachePolicy;
use crate::proxy::{CoapProxy, ProxyAction};
use crate::server::{DocServer, MockUpstream};
use crate::transport::{
    experiment_name, frame_stream_query, frame_stream_response, TransportKind, QUIC_PSK,
};
use doc_coap::block::{Block1Sender, BlockAssembler, BlockOpt};
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::OptionNumber;
use doc_coap::reliability::{Endpoint, Event as EpEvent};
use doc_dns::{Message, Question, RecordType};
use doc_netsim::{LinkKind, NodeId, Sim, SimEvent, Tag};
use doc_oscore::context::SecurityContext;
use doc_oscore::protect::OscoreEndpoint;
use doc_oscore::RequestBinding;
use std::collections::HashMap;

/// Experiment configuration. Defaults reproduce the Fig. 7 FETCH/CoAP
/// setup.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// DNS transport under test.
    pub transport: TransportKind,
    /// CoAP method (CoAP-based transports only).
    pub method: DocMethod,
    /// TTL↔Max-Age policy.
    pub policy: CachePolicy,
    /// Forwarder runs as caching CoAP proxy (vs. opaque IPv6 router).
    pub proxy_cache: bool,
    /// Clients keep a CoAP response cache.
    pub client_coap_cache: bool,
    /// Clients keep a DNS cache.
    pub client_dns_cache: bool,
    /// Queried record type.
    pub record_type: RecordType,
    /// Number of clients (paper: 2).
    pub num_clients: usize,
    /// Total queries across all clients (paper: 50).
    pub num_queries: usize,
    /// Number of distinct names queried (Fig. 7: 50; Fig. 10: 8).
    pub num_names: usize,
    /// Answer records per response (Fig. 7: 1; Fig. 10: 4).
    pub answers_per_response: u16,
    /// Upstream TTL range in seconds (Fig. 10: 2..=8).
    pub ttl_range: (u32, u32),
    /// Poisson query rate per second (paper: 5.0).
    pub lambda: f64,
    /// Per-frame wireless loss in permille.
    pub loss_permille: u32,
    /// Block-wise transfer size (Fig. 15), None = off.
    pub block_size: Option<usize>,
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            transport: TransportKind::Coap,
            method: DocMethod::Fetch,
            policy: CachePolicy::EolTtls,
            proxy_cache: false,
            client_coap_cache: false,
            client_dns_cache: false,
            record_type: RecordType::Aaaa,
            num_clients: 2,
            num_queries: 50,
            num_names: 50,
            answers_per_response: 1,
            ttl_range: (300, 300),
            lambda: 5.0,
            loss_permille: 100,
            block_size: None,
            seed: 0xD0C,
        }
    }
}

/// What happened to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRecord {
    /// Which client issued it.
    pub client: usize,
    /// Issue time (virtual ms).
    pub issued_ms: u64,
    /// Completion time, None = never resolved.
    pub resolved_ms: Option<u64>,
}

impl QueryRecord {
    /// Resolution latency if resolved.
    pub fn latency_ms(&self) -> Option<u64> {
        self.resolved_ms.map(|r| r.saturating_sub(self.issued_ms))
    }
}

/// Kinds of client/proxy events tracked for Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// First transmission of a CoAP message for this query.
    Transmission,
    /// A CoAP retransmission.
    Retransmission,
    /// A cache hit (client or proxy) answered the query.
    CacheHit,
    /// A cache revalidation completed (2.03 observed).
    CacheValidation,
}

/// One Fig. 11 scatter point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxEvent {
    /// The absolute issue time of the query this event belongs to.
    pub query_start_ms: u64,
    /// Offset of the event from the query start.
    pub offset_ms: u64,
    /// Event kind.
    pub kind: EventKind,
}

/// Aggregated outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-query records in issue order.
    pub queries: Vec<QueryRecord>,
    /// Client↔proxy link (2 hops from sink), both directions,
    /// aggregated over clients.
    pub client_proxy: doc_netsim::LinkStats,
    /// Proxy↔border-router link (1 hop from sink).
    pub proxy_br: doc_netsim::LinkStats,
    /// Fig. 11 event scatter.
    pub events: Vec<TxEvent>,
    /// Summed client stats.
    pub client_stats: crate::client::ClientStats,
    /// Proxy stats (zero when the forwarder was opaque).
    pub proxy_stats: crate::proxy::ProxyStats,
    /// Server stats.
    pub server_stats: crate::server::ServerStats,
}

impl ExperimentResult {
    /// Sorted resolution times of completed queries (CDF input).
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.queries.iter().filter_map(|q| q.latency_ms()).collect();
        v.sort_unstable();
        v
    }

    /// Fraction of queries resolving within `limit_ms`.
    pub fn fraction_within(&self, limit_ms: u64) -> f64 {
        let done = self
            .queries
            .iter()
            .filter(|q| q.latency_ms().is_some_and(|l| l <= limit_ms))
            .count();
        done as f64 / self.queries.len().max(1) as f64
    }

    /// Fraction of queries that resolved at all.
    pub fn success_rate(&self) -> f64 {
        let done = self
            .queries
            .iter()
            .filter(|q| q.resolved_ms.is_some())
            .count();
        done as f64 / self.queries.len().max(1) as f64
    }
}

// ---------------------------------------------------------------------
// Driver internals
// ---------------------------------------------------------------------

/// CoAP-style retransmitter for the non-CoAP transports (the paper:
/// "we support the retransmission algorithm of CoAP for DNS over UDP,
/// i.e., 4 retransmissions using an exponential back-off").
struct RawRetrans {
    entries: Vec<RawEntry>,
    rng: u64,
}

struct RawEntry {
    dns_id: u16,
    query_idx: usize,
    dns_bytes: Vec<u8>,
    retries: u32,
    backoff_ms: u64,
    timeout_at: u64,
}

impl RawRetrans {
    fn new(seed: u64) -> Self {
        RawRetrans {
            entries: Vec::new(),
            rng: seed | 1,
        }
    }
    fn rand(&mut self) -> u64 {
        self.rng = crate::server::xorshift64(self.rng);
        self.rng.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn arm(&mut self, dns_id: u16, query_idx: usize, dns_bytes: Vec<u8>, now: u64) {
        let backoff = 2000 + self.rand() % 1001; // [2.0, 3.0] s
        self.entries.push(RawEntry {
            dns_id,
            query_idx,
            dns_bytes,
            retries: 0,
            backoff_ms: backoff,
            timeout_at: now + backoff,
        });
    }
    fn complete(&mut self, dns_id: u16) -> Option<usize> {
        let idx = self.entries.iter().position(|e| e.dns_id == dns_id)?;
        Some(self.entries.remove(idx).query_idx)
    }
    /// Returns the (dns_bytes, query_idx) pairs due for a resend. An
    /// entry due after its fourth retransmission is dropped.
    fn poll(&mut self, now: u64) -> Vec<(Vec<u8>, usize)> {
        let mut resend = Vec::new();
        self.entries.retain_mut(|e| {
            if e.timeout_at > now {
                return true;
            }
            if e.retries >= 4 {
                return false;
            }
            e.retries += 1;
            e.backoff_ms *= 2;
            e.timeout_at = now + e.backoff_ms;
            resend.push((e.dns_bytes.clone(), e.query_idx));
            true
        });
        resend
    }
    fn next_timeout(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.timeout_at).min()
    }
}

/// One CoAP exchange a client has open, keyed by its token.
struct Exchange {
    qidx: usize,
    /// OSCORE: what the response must be bound to.
    binding: Option<RequestBinding>,
    /// Block-wise runs (Fig. 15).
    blockwise: Option<BlockwiseState>,
}

/// Per-query block-wise state (Fig. 15 runs).
struct BlockwiseState {
    sender: Option<Block1Sender>,
    assembler: BlockAssembler,
    first_response: Option<CoapMessage>,
}

/// Which end of a client's [`Session`] acts.
#[derive(Clone, Copy)]
enum End {
    Client,
    Server,
}

/// One end of a QUIC-lite session, with the stream bytes it has
/// received.
struct QuicEnd {
    conn: doc_quic::Connection,
    /// DoQ/DoH: per-stream bytes kept until FIN.
    streams: HashMap<u64, Vec<u8>>,
    /// DoT: the splitter of the one pipelined stream.
    dot: doc_quic::doq::DotReassembler,
}

impl QuicEnd {
    /// Takes in one STREAM frame and returns the DNS messages it
    /// completes.
    fn receive(&mut self, kind: TransportKind, id: u64, data: &[u8], fin: bool) -> Vec<Vec<u8>> {
        if kind == TransportKind::Dot {
            // Pipelined messages, split on the 2-byte length prefix.
            return self.dot.push(data);
        }
        // RFC 9250: one message per stream, complete at FIN.
        self.streams.entry(id).or_default().extend_from_slice(data);
        if !fin {
            return Vec::new();
        }
        let buf = self.streams.remove(&id).unwrap_or_default();
        let dns = match kind {
            TransportKind::Quic => doc_quic::doq::decode_doq(&buf),
            _ => doc_quic::doq::decode_doh(&buf),
        };
        dns.into_iter().map(<[u8]>::to_vec).collect()
    }
}

/// Both ends of one session.
struct Ends<C, S> {
    client: C,
    server: S,
}

/// The protection between one client and the server. Each end's state
/// runs to kilobytes, so the pair is boxed.
enum Session {
    /// UDP and CoAP.
    Plain,
    Oscore(Box<Ends<OscoreEndpoint, OscoreEndpoint>>),
    /// DTLS and CoAPS.
    Dtls(Box<Ends<doc_dtls::DtlsClient, doc_dtls::DtlsServer>>),
    /// The stream transports: DoQ, DoH, DoT.
    Quic(Box<Ends<QuicEnd, QuicEnd>>),
}

impl Session {
    /// Client `c`'s session, pre-established (paper §5.1: "we
    /// pre-initialize DTLS sessions … before starting experiments").
    /// QUIC-lite is set up the same way; its 1-RTT handshake cost is
    /// measured separately by `session_setup` and the conformance test.
    fn new(kind: TransportKind, c: usize, seed: u64) -> Self {
        let seed = seed ^ ((c as u64 + 1) << 8);
        match kind {
            TransportKind::Oscore => {
                let (secret, salt, kid) = (b"0123456789abcdef", b"doc-salt", [c as u8 + 1]);
                let cctx = SecurityContext::derive(secret, salt, &kid, &[0x00]);
                let sctx = SecurityContext::derive(secret, salt, &[0x00], &kid);
                let (client, server) = (
                    OscoreEndpoint::new(cctx, false),
                    OscoreEndpoint::new(sctx, false),
                );
                Session::Oscore(Box::new(Ends { client, server }))
            }
            TransportKind::Dtls | TransportKind::Coaps => {
                let (client, server) = establish_dtls(seed);
                Session::Dtls(Box::new(Ends { client, server }))
            }
            TransportKind::Quic | TransportKind::DohLite | TransportKind::Dot => {
                let (client, server) = doc_quic::establish_pair(seed, QUIC_PSK);
                let end = |conn| QuicEnd {
                    conn,
                    streams: HashMap::new(),
                    dot: doc_quic::doq::DotReassembler::new(),
                };
                let (client, server) = (end(client), end(server));
                Session::Quic(Box::new(Ends { client, server }))
            }
            _ => Session::Plain,
        }
    }

    fn quic(&mut self, end: End) -> Option<&mut QuicEnd> {
        match (self, end) {
            (Session::Quic(ends), End::Client) => Some(&mut ends.client),
            (Session::Quic(ends), End::Server) => Some(&mut ends.server),
            _ => None,
        }
    }
}

/// Everything one client owns.
struct ClientNode {
    endpoint: Endpoint<NodeId>,
    doc: DocClient,
    session: Session,
    exchanges: HashMap<Vec<u8>, Exchange>,
    /// Stream transports: match key → query index. The key is the
    /// stream ID for DoQ/DoH (one query per stream) and the DNS
    /// message ID for DoT (matched like UDP).
    stream_query: HashMap<u64, usize>,
    raw: RawRetrans,
    scheduled_poll: Option<u64>,
}

const QUERY_TOKEN_BASE: u64 = 1_000_000;
const POLL_TOKEN: u64 = 1;

/// Run one experiment.
pub fn run(cfg: &ExperimentConfig) -> ExperimentResult {
    Driver::new(cfg).run()
}

struct Driver<'a> {
    cfg: &'a ExperimentConfig,
    sim: Sim,
    clients: Vec<ClientNode>,
    server: DocServer,
    server_ep: Endpoint<NodeId>,
    proxy: CoapProxy,
    proxy_ep: Endpoint<NodeId>,
    proxy_exchanges: HashMap<Vec<u8>, (u64, NodeId)>,
    queries: Vec<QueryRecord>,
    events: Vec<TxEvent>,
    n: usize,
    proxy_id: NodeId,
    br_id: NodeId,
    server_id: NodeId,
}

impl<'a> Driver<'a> {
    fn new(cfg: &'a ExperimentConfig) -> Self {
        assert!(
            cfg.transport.coap_based() || cfg.block_size.is_none(),
            "block-wise requires a CoAP transport"
        );
        assert!(
            cfg.transport == TransportKind::Coap
                || (!cfg.proxy_cache && !cfg.client_coap_cache && !cfg.client_dns_cache),
            "caching scenarios use unencrypted CoAP (paper §6.1)"
        );
        assert!(
            !cfg.proxy_cache || cfg.block_size.is_none(),
            "the caching proxy does not relay block-wise exchanges"
        );
        let n = cfg.num_clients;
        let proxy_id = n;
        let br_id = n + 1;
        let server_id = n + 2;

        let mut sim = Sim::new(cfg.seed);
        for c in 0..n {
            sim.add_link(
                c,
                proxy_id,
                LinkKind::Wireless {
                    channel: 0,
                    loss_permille: cfg.loss_permille,
                },
            );
        }
        sim.add_link(
            proxy_id,
            br_id,
            LinkKind::Wireless {
                channel: 0,
                loss_permille: cfg.loss_permille,
            },
        );
        sim.add_link(br_id, server_id, LinkKind::Wired { latency_us: 1000 });
        for c in 0..n {
            if cfg.proxy_cache {
                sim.add_route(&[c, proxy_id]);
            } else {
                sim.add_route(&[c, proxy_id, br_id, server_id]);
            }
        }
        sim.add_route(&[proxy_id, br_id, server_id]);

        let upstream = MockUpstream::new(cfg.seed ^ 0x5e4, cfg.ttl_range.0, cfg.ttl_range.1);
        for nm in (0..cfg.num_names as u32).map(experiment_name) {
            match cfg.record_type {
                RecordType::A => upstream.add_a(nm, cfg.answers_per_response as u8),
                _ => upstream.add_aaaa(nm, cfg.answers_per_response),
            }
        }
        let mut server = DocServer::new(cfg.policy, upstream);
        if let Some(bs) = cfg.block_size {
            server = server.with_block_size(bs);
        }

        let clients: Vec<ClientNode> = (0..n)
            .map(|c| {
                let mut doc = DocClient::new(cfg.method, cfg.policy);
                if cfg.client_dns_cache {
                    doc = doc.with_dns_cache();
                }
                if cfg.client_coap_cache {
                    doc = doc.with_coap_cache();
                }
                ClientNode {
                    doc,
                    session: Session::new(cfg.transport, c, cfg.seed),
                    endpoint: Endpoint::new(cfg.seed ^ ((c as u64 + 1) << 32)),
                    exchanges: HashMap::new(),
                    stream_query: HashMap::new(),
                    raw: RawRetrans::new(cfg.seed ^ 0xAB00 ^ c as u64),
                    scheduled_poll: None,
                }
            })
            .collect();

        let arrivals =
            doc_netsim::poisson_arrivals(cfg.seed ^ 0x90155, cfg.lambda, cfg.num_queries);
        let mut queries = Vec::with_capacity(cfg.num_queries);
        for (i, &t) in arrivals.iter().enumerate() {
            let client = i % n;
            queries.push(QueryRecord {
                client,
                issued_ms: t.as_millis(),
                resolved_ms: None,
            });
            sim.set_timer(client, t, QUERY_TOKEN_BASE + i as u64);
        }

        Driver {
            cfg,
            sim,
            clients,
            server,
            server_ep: Endpoint::new(cfg.seed ^ 0x1111),
            proxy: CoapProxy::new(50),
            proxy_ep: Endpoint::new(cfg.seed ^ 0x2222),
            proxy_exchanges: HashMap::new(),
            queries,
            events: Vec::new(),
            n,
            proxy_id,
            br_id,
            server_id,
        }
    }

    fn record_event(&mut self, qidx: usize, now: u64, kind: EventKind) {
        let start = self.queries[qidx].issued_ms;
        self.events.push(TxEvent {
            query_start_ms: start,
            offset_ms: now.saturating_sub(start),
            kind,
        });
    }

    /// Marks query `qidx` resolved at `now`; false if it already was.
    fn resolve(&mut self, qidx: usize, now: u64) -> bool {
        let resolved = &mut self.queries[qidx].resolved_ms;
        if resolved.is_some() {
            return false;
        }
        *resolved = Some(now);
        true
    }

    /// Drops all that client `c` keeps for the CoAP exchange `token`.
    fn forget(&mut self, c: usize, token: &[u8]) {
        let node = &mut self.clients[c];
        node.doc.fail_exchange(token);
        node.exchanges.remove(token);
    }

    /// Puts one datagram on the air. Node IDs grow upstream (clients,
    /// proxy, border router, server), so one sent to a higher ID is a
    /// query and one sent to a lower ID a response.
    fn send(&mut self, from: NodeId, to: NodeId, wire: Vec<u8>) {
        let tag = if to > from { Tag::Query } else { Tag::Response };
        self.sim.send_datagram(from, to, wire, tag);
    }

    /// The session between nodes `a` and `b` and the end of it that `a`
    /// holds; None unless one is a client and the other the server.
    fn session(&mut self, a: NodeId, b: NodeId) -> Option<(&mut Session, End)> {
        if a < self.n && b == self.server_id {
            Some((&mut self.clients[a].session, End::Client))
        } else if a == self.server_id && b < self.n {
            Some((&mut self.clients[b].session, End::Server))
        } else {
            None
        }
    }

    /// Seals bytes that `from` sends to `to` in their session: a DTLS
    /// record, or the bytes as they are.
    fn seal(&mut self, from: NodeId, to: NodeId, bytes: Vec<u8>) -> Vec<u8> {
        match self.session(from, to) {
            Some((Session::Dtls(ends), End::Client)) => ends.client.send_application_data(&bytes),
            Some((Session::Dtls(ends), End::Server)) => ends.server.send_application_data(&bytes),
            _ => return bytes,
        }
        .expect("session established")
    }

    /// Opens bytes that `at` received from `from`; None when the session
    /// dropped the record (e.g. a replay).
    fn open(&mut self, at: NodeId, from: NodeId, now: u64, bytes: Vec<u8>) -> Option<Vec<u8>> {
        let evs = match self.session(at, from) {
            Some((Session::Dtls(ends), End::Client)) => ends.client.handle_datagram(now, &bytes),
            Some((Session::Dtls(ends), End::Server)) => ends.server.handle_datagram(now, &bytes),
            _ => return Some(bytes),
        };
        // The last application record the datagram carried.
        evs.into_iter().rev().find_map(|ev| match ev {
            doc_dtls::DtlsEvent::ApplicationData(d) => Some(d),
            _ => None,
        })
    }

    fn quic(&mut self, at: NodeId, peer: NodeId) -> Option<&mut QuicEnd> {
        self.session(at, peer).and_then(|(s, end)| s.quic(end))
    }

    /// The CoAP endpoint of node `at`; None for the border router and
    /// for an opaque forwarder.
    fn endpoint(&mut self, at: NodeId) -> Option<&mut Endpoint<NodeId>> {
        if at == self.server_id {
            Some(&mut self.server_ep)
        } else if at == self.proxy_id {
            self.cfg.proxy_cache.then_some(&mut self.proxy_ep)
        } else {
            self.clients.get_mut(at).map(|c| &mut c.endpoint)
        }
    }

    /// Acts on the events of node `at`'s CoAP endpoint, in order.
    fn on_events(&mut self, at: NodeId, evs: Vec<EpEvent<NodeId>>, now: u64) {
        for e in evs {
            match e {
                EpEvent::Transmit {
                    to,
                    datagram,
                    retransmission,
                } => self.transmit(at, to, datagram, retransmission, now),
                EpEvent::Request { from, msg } if at == self.server_id => {
                    self.serve_request(from, msg, now);
                }
                EpEvent::Request { from, msg } if at == self.proxy_id => {
                    self.proxy_request(from, msg, now);
                }
                EpEvent::Response { msg, .. } if at == self.proxy_id => {
                    self.proxy_response(msg, now);
                }
                EpEvent::Response { msg, .. } if at < self.n => {
                    self.complete_client_response(at, msg, now);
                }
                _ => {}
            }
        }
    }

    /// Sends a CoAP datagram from `from` to `to`, sealed in their
    /// session. A client's counts as its query's (re)transmission.
    fn transmit(&mut self, from: NodeId, to: NodeId, datagram: Vec<u8>, resend: bool, now: u64) {
        if from < self.n {
            let qidx = CoapMessage::decode(&datagram)
                .ok()
                .and_then(|msg| self.clients[from].exchanges.get(&msg.token).map(|x| x.qidx));
            if let Some(qidx) = qidx {
                let kind = if resend {
                    EventKind::Retransmission
                } else {
                    EventKind::Transmission
                };
                self.record_event(qidx, now, kind);
            }
        }
        let wire = self.seal(from, to, datagram);
        self.send(from, to, wire);
    }

    fn run(mut self) -> ExperimentResult {
        let deadline_ms = 600_000;
        while let Some((now, ev)) = self.sim.next_event() {
            // The protocol stack below keeps raw millisecond counts;
            // the typed boundary is the simulator/QUIC surface.
            let now = u64::from(now);
            if now > deadline_ms {
                break;
            }
            match ev {
                SimEvent::Timer { node, token } if token >= QUERY_TOKEN_BASE => {
                    self.issue_query(node, (token - QUERY_TOKEN_BASE) as usize, now);
                }
                SimEvent::Timer { node, .. } => {
                    self.handle_poll(node, now);
                }
                SimEvent::Datagram { from, to, bytes } => {
                    self.handle_datagram(to, from, bytes, now);
                }
            }
            self.rearm_timers();
        }
        self.collect()
    }

    fn rearm_timers(&mut self) {
        for c in 0..self.n {
            let node = &mut self.clients[c];
            let quic = node.session.quic(End::Client);
            let next = node
                .endpoint
                .next_timeout()
                .into_iter()
                .chain(node.raw.next_timeout())
                .chain(quic.and_then(|q| q.conn.next_timeout()).map(u64::from))
                .min();
            if let Some(t) = next {
                if node.scheduled_poll.is_none_or(|s| t < s) {
                    node.scheduled_poll = Some(t);
                    self.sim.set_timer(c, t.into(), POLL_TOKEN);
                }
            }
        }
        if let Some(t) = self.proxy_ep.next_timeout() {
            self.sim.set_timer(self.proxy_id, t.into(), POLL_TOKEN);
        }
        let server_next = self
            .server_ep
            .next_timeout()
            .into_iter()
            .chain(self.clients.iter_mut().filter_map(|c| {
                let quic = c.session.quic(End::Server)?;
                quic.conn.next_timeout().map(u64::from)
            }))
            .min();
        if let Some(t) = server_next {
            self.sim.set_timer(self.server_id, t.into(), POLL_TOKEN);
        }
    }

    // -- query issue ---------------------------------------------------

    fn issue_query(&mut self, c: NodeId, qidx: usize, now: u64) {
        let name = experiment_name((qidx % self.cfg.num_names) as u32);
        let kind = self.cfg.transport;
        if !kind.coap_based() {
            // The DNS ID is the match key, except on DoQ/DoH streams.
            let id = qidx as u16 + 1;
            let mut q = Message::query(id, name, self.cfg.record_type);
            q.header.rd = true;
            let dns = q.encode();
            let node = &mut self.clients[c];
            let datagrams = if let Some(quic) = node.session.quic(End::Client) {
                // Loss recovery lives in the QUIC-lite connection, not
                // in an app-level retransmitter.
                let framed = frame_stream_query(kind, &dns);
                let (key, sid, fin) = if kind == TransportKind::Dot {
                    // One pipelined stream for the whole session.
                    (u64::from(id), 0, false)
                } else {
                    // RFC 9250: one query per stream, FIN after it.
                    let sid = quic.conn.open_stream();
                    (sid, sid, true)
                };
                node.stream_query.insert(key, qidx);
                quic.conn
                    .send_stream(sid, &framed, fin, now.into())
                    .expect("session pre-established")
            } else {
                node.raw.arm(id, qidx, dns.clone(), now);
                vec![self.seal(c, self.server_id, dns)]
            };
            for d in datagrams {
                self.send(c, self.server_id, d);
            }
            self.record_event(qidx, now, EventKind::Transmission);
            return;
        }
        let question = Question::new(name, self.cfg.record_type);
        let mid = self.clients[c].endpoint.alloc_mid();
        let tok = self.clients[c].endpoint.alloc_token();
        match self.clients[c]
            .doc
            .begin_query(question, mid, tok.clone(), now)
        {
            Ok(QueryOutcome::Answered(_)) => {
                self.resolve(qidx, now);
                self.record_event(qidx, now, EventKind::CacheHit);
            }
            Ok(QueryOutcome::SendRequest(req)) => {
                let mut outgoing = *req;
                let blockwise = self.cfg.block_size.map(|bs| {
                    let sender = (outgoing.payload.len() > bs && self.cfg.method.blockwise_query())
                        .then(|| {
                            let mut sender = Block1Sender::new(outgoing.payload.clone(), bs)
                                .expect("valid block size");
                            let (slice, block) = sender.next_block().expect("non-empty body");
                            doc_coap::block::apply_block1(&mut outgoing, slice, block);
                            sender
                        });
                    BlockwiseState {
                        sender,
                        assembler: BlockAssembler::new(),
                        first_response: None,
                    }
                });
                let node = &mut self.clients[c];
                let binding = match &mut node.session {
                    Session::Oscore(ends) => {
                        let (outer, binding) = ends
                            .client
                            .protect_request(&outgoing)
                            .expect("oscore protect");
                        outgoing = outer;
                        Some(binding)
                    }
                    _ => None,
                };
                let exchange = Exchange {
                    qidx,
                    binding,
                    blockwise,
                };
                node.exchanges.insert(tok, exchange);
                self.send_request(c, &outgoing, now);
            }
            Err(_) => {}
        }
    }

    /// Sends client `c`'s request to the proxy or, without one, the
    /// server.
    fn send_request(&mut self, c: usize, req: &CoapMessage, now: u64) {
        let dest = if self.cfg.proxy_cache {
            self.proxy_id
        } else {
            self.server_id
        };
        let evs = self.clients[c].endpoint.send_request(now, dest, req);
        self.on_events(c, evs, now);
    }

    // -- timers ----------------------------------------------------------

    fn handle_poll(&mut self, node: NodeId, now: u64) {
        let Some(ep) = self.endpoint(node) else {
            return;
        };
        let evs = ep.poll(now);
        if node < self.n {
            self.clients[node].scheduled_poll = None;
            // Timeouts first (they clear state).
            for e in &evs {
                if let EpEvent::TimedOut { token, .. } = e {
                    self.forget(node, token);
                }
            }
        }
        self.on_events(node, evs, now);
        if node < self.n {
            for (dns, qidx) in self.clients[node].raw.poll(now) {
                let wire = self.seal(node, self.server_id, dns);
                self.send(node, self.server_id, wire);
                self.record_event(qidx, now, EventKind::Retransmission);
            }
            self.poll_quic(node, self.server_id, now);
        } else if node == self.server_id {
            for c in 0..self.n {
                self.poll_quic(node, c, now);
            }
        }
    }

    /// Fires the QUIC-lite timers of `at`'s end of its session with
    /// `peer`.
    fn poll_quic(&mut self, at: NodeId, peer: NodeId, now: u64) {
        let Some(quic) = self.quic(at, peer) else {
            return;
        };
        for d in quic.conn.poll(now.into()).datagrams {
            self.send(at, peer, d);
        }
    }

    // -- datagrams ------------------------------------------------------

    /// A datagram from `from` arrives at node `at`.
    fn handle_datagram(&mut self, at: NodeId, from: NodeId, bytes: Vec<u8>, now: u64) {
        let kind = self.cfg.transport;
        if kind.stream_based() {
            self.quic_datagram(at, from, &bytes, now);
            return;
        }
        let Some(datagram) = self.open(at, from, now, bytes) else {
            return;
        };
        if kind.coap_based() {
            let Some(ep) = self.endpoint(at) else {
                return;
            };
            let evs = ep.handle_datagram(now, from, &datagram);
            self.on_events(at, evs, now);
        } else if at == self.server_id {
            if let Some(resp) = self.answer_dns(&datagram, now) {
                let wire = self.seal(at, from, resp);
                self.send(at, from, wire);
            }
        } else if let Ok(msg) = Message::decode(&datagram) {
            let node = self.clients.get_mut(at);
            if let Some(qidx) = node.and_then(|n| n.raw.complete(msg.header.id)) {
                self.resolve(qidx, now);
            }
        }
    }

    /// Feeds a datagram from `from` to `at`'s QUIC-lite end, sends what
    /// the connection answers and hands on each DNS message a stream
    /// completes.
    fn quic_datagram(&mut self, at: NodeId, from: NodeId, bytes: &[u8], now: u64) {
        let kind = self.cfg.transport;
        let Some(quic) = self.quic(at, from) else {
            return;
        };
        for ev in quic.conn.handle_datagram(now.into(), bytes) {
            match ev {
                // ACKs and other connection maintenance.
                doc_quic::QuicEvent::Transmit(d) => self.send(at, from, d),
                doc_quic::QuicEvent::Stream { id, data, fin } => {
                    let quic = self.quic(at, from).expect("checked above");
                    for dns in quic.receive(kind, id, &data, fin) {
                        self.stream_message(at, from, id, &dns, now);
                    }
                }
                doc_quic::QuicEvent::Established => {}
            }
        }
    }

    /// A DNS message that stream `sid` completed at `at`: the server
    /// answers it on the same stream, a client resolves its query.
    fn stream_message(&mut self, at: NodeId, peer: NodeId, sid: u64, dns: &[u8], now: u64) {
        let kind = self.cfg.transport;
        if at == self.server_id {
            let Some(resp) = self.answer_dns(dns, now) else {
                return;
            };
            let framed = frame_stream_response(kind, &resp);
            let quic = self.quic(at, peer).expect("stream transport");
            let datagrams = quic
                .conn
                .send_stream(sid, &framed, kind != TransportKind::Dot, now.into())
                .expect("session pre-established");
            for d in datagrams {
                self.send(at, peer, d);
            }
        } else if let Ok(resp) = Message::decode(dns) {
            let key = match kind {
                TransportKind::Dot => u64::from(resp.header.id),
                _ => sid,
            };
            if let Some(qidx) = self.clients[at].stream_query.remove(&key) {
                self.resolve(qidx, now);
            }
        }
    }

    fn complete_client_response(&mut self, c: usize, outer: CoapMessage, now: u64) {
        let token = outer.token.clone();
        let node = &self.clients[c];
        let Some(exchange) = node.exchanges.get(&token) else {
            return;
        };
        let qidx = exchange.qidx;
        // OSCORE unprotect (responses bound to the stored binding).
        let msg = match (&exchange.binding, &node.session) {
            (Some(binding), Session::Oscore(ends)) => {
                match ends.client.unprotect_response(&outer, binding) {
                    Ok(inner) => inner,
                    Err(_) => return,
                }
            }
            _ => outer,
        };

        // Block-wise continuation.
        let exchange = self.clients[c]
            .exchanges
            .get_mut(&token)
            .expect("looked up above");
        if let Some(bw) = exchange.blockwise.as_mut() {
            if msg.code == Code::CONTINUE {
                if let Some((slice, block)) = bw.sender.as_mut().and_then(|s| s.next_block()) {
                    let mid = self.clients[c].endpoint.alloc_mid();
                    let mut req = crate::method::build_request(
                        self.cfg.method,
                        &[],
                        MsgType::Con,
                        mid,
                        token.clone(),
                    )
                    .expect("request construction");
                    doc_coap::block::apply_block1(&mut req, slice, block);
                    self.send_request(c, &req, now);
                }
                return;
            }
            if let Some(Ok(block2)) = BlockOpt::from_message(&msg, OptionNumber::BLOCK2) {
                if bw.first_response.is_none() {
                    bw.first_response = Some(msg.clone());
                }
                match bw.assembler.push(block2, &msg.payload) {
                    Ok(Some(full)) => {
                        let first = bw.first_response.take();
                        let mut synthesized = first.expect("first response recorded");
                        exchange.blockwise = None;
                        synthesized.payload = full;
                        synthesized.remove_option(OptionNumber::BLOCK2);
                        self.finish_query(c, &token, &synthesized, now, qidx);
                    }
                    Ok(None) => {
                        let size = self.cfg.block_size.expect("block-wise run");
                        let mid = self.clients[c].endpoint.alloc_mid();
                        let mut follow = CoapMessage::request(
                            self.cfg.method.code(),
                            MsgType::Con,
                            mid,
                            token.clone(),
                        );
                        follow.options.push(doc_coap::opt::CoapOption::new(
                            OptionNumber::URI_PATH,
                            crate::DEFAULT_RESOURCE.as_bytes().to_vec(),
                        ));
                        follow.set_option(
                            BlockOpt::new(block2.num + 1, false, size)
                                .expect("valid block")
                                .to_option(OptionNumber::BLOCK2),
                        );
                        self.send_request(c, &follow, now);
                    }
                    Err(_) => exchange.blockwise = None,
                }
                return;
            }
            // Response without a Block2 option: the body fit one
            // exchange after all.
            exchange.blockwise = None;
        }
        self.finish_query(c, &token, &msg, now, qidx);
    }

    fn finish_query(&mut self, c: usize, token: &[u8], msg: &CoapMessage, now: u64, qidx: usize) {
        if self.clients[c].doc.handle_response(token, msg, now).is_ok()
            && self.resolve(qidx, now)
            && msg.code == Code::VALID
        {
            self.record_event(qidx, now, EventKind::CacheValidation);
        }
        self.clients[c].exchanges.remove(token);
    }

    // -- server ----------------------------------------------------------

    /// The server answers client `from`'s CoAP request, OSCORE-protected
    /// when the request was.
    fn serve_request(&mut self, from: NodeId, msg: CoapMessage, now: u64) {
        let mut osc = match self.clients.get_mut(from).map(|c| &mut c.session) {
            Some(Session::Oscore(ends)) => Some(&mut ends.server),
            _ => None,
        };
        let (inner, binding) = match osc.as_mut().map(|o| o.unprotect_request(&msg)) {
            Some(Ok((inner, binding))) => (inner, Some(binding)),
            Some(Err(_)) => return,
            None => (msg.clone(), None),
        };
        let mut resp = self.server.handle_request_from(from as u64, &inner, now);
        if let (Some(osc), Some(binding)) = (osc, &binding) {
            match osc.protect_response(&resp, binding, &msg) {
                Ok(outer) => resp = outer,
                Err(_) => return,
            }
        }
        let evs = self.server_ep.send_response(now, from, &resp);
        self.on_events(self.server_id, evs, now);
    }

    /// Answers a plain DNS query from the upstream, as the server does
    /// for every non-CoAP transport.
    fn answer_dns(&mut self, dns: &[u8], now: u64) -> Option<Vec<u8>> {
        let query = Message::decode(dns).ok()?;
        let resp = self.server.upstream.resolve(&query, now);
        self.server.count_raw_dns_response();
        Some(resp.encode())
    }

    // -- proxy -----------------------------------------------------------

    /// The caching proxy answers `client`'s request from its cache or
    /// forwards it upstream.
    fn proxy_request(&mut self, client: NodeId, msg: CoapMessage, now: u64) {
        let evs = match self.proxy.handle_client_request(&msg, now) {
            ProxyAction::Respond(resp) => {
                let exchange = self.clients[client].exchanges.get(&msg.token);
                if let Some(qidx) = exchange.map(|x| x.qidx) {
                    let kind = if resp.code == Code::VALID {
                        EventKind::CacheValidation
                    } else {
                        EventKind::CacheHit
                    };
                    self.record_event(qidx, now, kind);
                }
                self.proxy_ep.send_response(now, client, &resp)
            }
            ProxyAction::Forward {
                mut request,
                exchange_id,
            } => {
                request.message_id = self.proxy_ep.alloc_mid();
                request.token = self.proxy_ep.alloc_token();
                self.proxy_exchanges
                    .insert(request.token.clone(), (exchange_id, client));
                self.proxy_ep.send_request(now, self.server_id, &request)
            }
        };
        self.on_events(self.proxy_id, evs, now);
    }

    /// The proxy relays the server's response to the client that asked.
    fn proxy_response(&mut self, msg: CoapMessage, now: u64) {
        let Some((exchange_id, client)) = self.proxy_exchanges.remove(&msg.token) else {
            return;
        };
        if let Some(resp) = self.proxy.handle_upstream_response(exchange_id, &msg, now) {
            let evs = self.proxy_ep.send_response(now, client, &resp);
            self.on_events(self.proxy_id, evs, now);
        }
    }

    // -- results ---------------------------------------------------------

    fn collect(self) -> ExperimentResult {
        let mut client_proxy = doc_netsim::LinkStats::default();
        for c in 0..self.n {
            let s = self.sim.link_stats_bidir(c, self.proxy_id);
            client_proxy.frames += s.frames;
            client_proxy.bytes += s.bytes;
            for k in 0..3 {
                client_proxy.frames_by_tag[k] += s.frames_by_tag[k];
                client_proxy.bytes_by_tag[k] += s.bytes_by_tag[k];
            }
            client_proxy.dropped_datagrams += s.dropped_datagrams;
        }
        let proxy_br = self.sim.link_stats_bidir(self.proxy_id, self.br_id);
        let mut client_stats = crate::client::ClientStats::default();
        for c in &self.clients {
            let s = c.doc.stats;
            client_stats.queries += s.queries;
            client_stats.dns_cache_hits += s.dns_cache_hits;
            client_stats.coap_cache_hits += s.coap_cache_hits;
            client_stats.revalidations_sent += s.revalidations_sent;
            client_stats.revalidated += s.revalidated;
            client_stats.full_responses += s.full_responses;
        }
        ExperimentResult {
            queries: self.queries,
            client_proxy,
            proxy_br,
            events: self.events,
            client_stats,
            proxy_stats: self.proxy.stats(),
            server_stats: self.server.stats(),
        }
    }
}

/// Establish one DTLS session out-of-band (paper-style
/// pre-initialization; the handshake cost is measured separately in
/// Fig. 6).
fn establish_dtls(seed: u64) -> (doc_dtls::DtlsClient, doc_dtls::DtlsServer) {
    let mut client = doc_dtls::DtlsClient::new(seed | 1, b"Client_ID", b"123456789");
    let mut server = doc_dtls::DtlsServer::new((seed ^ 0xF00D) | 1, b"123456789");
    let mut c2s: Vec<Vec<u8>> = Vec::new();
    for ev in client.start(0) {
        if let doc_dtls::DtlsEvent::Transmit { datagram, .. } = ev {
            c2s.push(datagram);
        }
    }
    for _ in 0..8 {
        let mut s2c = Vec::new();
        for d in c2s.drain(..) {
            for ev in server.handle_datagram(0, &d) {
                if let doc_dtls::DtlsEvent::Transmit { datagram, .. } = ev {
                    s2c.push(datagram);
                }
            }
        }
        for d in s2c {
            for ev in client.handle_datagram(0, &d) {
                if let doc_dtls::DtlsEvent::Transmit { datagram, .. } = ev {
                    c2s.push(datagram);
                }
            }
        }
        if client.is_connected() && server.is_connected() {
            break;
        }
    }
    assert!(client.is_connected() && server.is_connected());
    (client, server)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> ExperimentConfig {
        ExperimentConfig {
            num_queries: 20,
            num_names: 20,
            loss_permille: 50,
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(expected = "the caching proxy does not relay block-wise exchanges")]
    fn proxy_cache_with_block_size_is_rejected() {
        run(&ExperimentConfig {
            proxy_cache: true,
            block_size: Some(32),
            ..base_cfg()
        });
    }

    #[test]
    fn coap_fetch_resolves_queries() {
        let r = run(&base_cfg());
        assert!(r.success_rate() > 0.9, "success {}", r.success_rate());
        assert!(r.server_stats.requests >= 18);
        // Resolution times well below a second for unfragmented queries.
        let lat = r.sorted_latencies();
        assert!(lat[lat.len() / 2] < 1000, "median {:?}", lat);
    }

    #[test]
    fn udp_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Udp;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.9, "success {}", r.success_rate());
    }

    #[test]
    fn dtls_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Dtls;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    #[test]
    fn coaps_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Coaps;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    #[test]
    fn oscore_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Oscore;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    #[test]
    fn quic_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Quic;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
        assert!(r.server_stats.requests >= 18);
    }

    #[test]
    fn doh_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::DohLite;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    #[test]
    fn dot_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Dot;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    /// QUIC loss recovery really runs over the event queue: with heavy
    /// loss, queries still resolve via stream retransmission (no
    /// app-level retransmitter exists for stream transports).
    #[test]
    fn quic_recovers_from_heavy_loss() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Quic;
        cfg.loss_permille = 200;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.7, "success {}", r.success_rate());
    }

    #[test]
    fn stream_transports_deterministic() {
        for transport in [
            TransportKind::Quic,
            TransportKind::DohLite,
            TransportKind::Dot,
        ] {
            let mut cfg = base_cfg();
            cfg.transport = transport;
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(a.queries, b.queries, "{transport:?}");
            assert_eq!(a.client_proxy, b.client_proxy, "{transport:?}");
        }
    }

    /// Fig. 7 shape: UDP A-record resolution beats transports whose
    /// packets fragment.
    #[test]
    fn udp_a_faster_than_coaps() {
        let mut cfg = base_cfg();
        cfg.record_type = RecordType::A;
        cfg.loss_permille = 100;
        cfg.transport = TransportKind::Udp;
        let udp = run(&cfg);
        cfg.transport = TransportKind::Coaps;
        let coaps = run(&cfg);
        assert!(
            udp.fraction_within(250) > coaps.fraction_within(250),
            "udp {} vs coaps {}",
            udp.fraction_within(250),
            coaps.fraction_within(250)
        );
    }

    /// Fig. 10 effect: a caching proxy cuts proxy↔BR traffic roughly in
    /// half when 50 queries target only 8 names.
    #[test]
    fn proxy_cache_reduces_upstream_traffic() {
        let mut cfg = base_cfg();
        cfg.num_queries = 50;
        cfg.num_names = 8;
        cfg.answers_per_response = 4;
        cfg.ttl_range = (2, 8);
        cfg.loss_permille = 20;
        cfg.proxy_cache = false;
        let opaque = run(&cfg);
        cfg.proxy_cache = true;
        let proxied = run(&cfg);
        assert!(proxied.proxy_stats.cache_hits > 0, "proxy never hit");
        assert!(
            (proxied.proxy_br.bytes as f64) < 0.8 * opaque.proxy_br.bytes as f64,
            "proxied {} vs opaque {}",
            proxied.proxy_br.bytes,
            opaque.proxy_br.bytes
        );
        assert!(proxied.success_rate() > 0.9);
    }

    /// EOL TTLs revalidates where DoH-like must re-transfer: fewer
    /// upstream bytes.
    #[test]
    fn eol_beats_doh_like_with_proxy() {
        let mut cfg = base_cfg();
        cfg.num_queries = 50;
        cfg.num_names = 8;
        cfg.answers_per_response = 4;
        cfg.ttl_range = (2, 8);
        cfg.loss_permille = 20;
        cfg.proxy_cache = true;
        cfg.policy = CachePolicy::DohLike;
        let doh = run(&cfg);
        cfg.policy = CachePolicy::EolTtls;
        let eol = run(&cfg);
        assert!(
            eol.server_stats.validations > doh.server_stats.validations,
            "eol {} vs doh {}",
            eol.server_stats.validations,
            doh.server_stats.validations
        );
        assert!(
            eol.proxy_br.bytes < doh.proxy_br.bytes,
            "eol {} vs doh {} bytes upstream",
            eol.proxy_br.bytes,
            doh.proxy_br.bytes
        );
    }

    /// Fig. 15: smaller blocks mean more exchanges and slower
    /// resolution.
    #[test]
    fn blockwise_slows_resolution() {
        let mut cfg = base_cfg();
        cfg.loss_permille = 20;
        cfg.num_queries = 10;
        let plain = run(&cfg);
        cfg.block_size = Some(16);
        let b16 = run(&cfg);
        assert!(
            b16.success_rate() > 0.7,
            "b16 success {}",
            b16.success_rate()
        );
        let p50_plain = plain.sorted_latencies()[plain.sorted_latencies().len() / 2];
        let lat16 = b16.sorted_latencies();
        let p50_16 = lat16[lat16.len() / 2];
        assert!(
            p50_16 > p50_plain,
            "16-byte blocks {} ms vs plain {} ms",
            p50_16,
            p50_plain
        );
    }

    /// At total loss every query is sent once, retransmitted four times
    /// and given up: the raw retransmitter's cap and the CoAP
    /// endpoint's `TimedOut` both end the run long before the deadline.
    #[test]
    fn retransmissions_stop_at_the_cap_under_total_loss() {
        for transport in [TransportKind::Udp, TransportKind::Dtls, TransportKind::Coap] {
            let mut cfg = base_cfg();
            cfg.transport = transport;
            cfg.loss_permille = 1000;
            let r = run(&cfg);
            assert_eq!(r.success_rate(), 0.0, "{transport:?}");
            for q in &r.queries {
                // Issue times may coincide at ms resolution.
                let same_start = r.queries.iter().filter(|o| o.issued_ms == q.issued_ms);
                let n = same_start.count();
                let of_kind = |kind| {
                    r.events
                        .iter()
                        .filter(|e| e.query_start_ms == q.issued_ms && e.kind == kind)
                        .count()
                };
                assert_eq!(of_kind(EventKind::Transmission), n, "{transport:?}");
                assert_eq!(of_kind(EventKind::Retransmission), 4 * n, "{transport:?}");
            }
            assert_eq!(r.events.len(), 5 * r.queries.len(), "{transport:?}");
            let last = r
                .events
                .iter()
                .map(|e| e.query_start_ms + e.offset_ms)
                .max();
            assert!(last.is_some_and(|t| t < 600_000), "{transport:?}: {last:?}");
        }
    }

    #[test]
    fn deterministic_runs() {
        let cfg = base_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.client_proxy, b.client_proxy);
    }

    #[test]
    fn client_dns_cache_reduces_queries_to_server() {
        let mut cfg = base_cfg();
        cfg.num_queries = 40;
        cfg.num_names = 4;
        cfg.ttl_range = (30, 30); // long TTLs: cache always hits
        cfg.client_dns_cache = true;
        cfg.loss_permille = 0;
        let r = run(&cfg);
        assert!(r.client_stats.dns_cache_hits > 20);
        assert!(r.server_stats.requests < 20);
        assert!(r.success_rate() > 0.95);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    fn blockwise_zero_loss_all_resolve() {
        let cfg = ExperimentConfig {
            num_queries: 10,
            num_names: 10,
            loss_permille: 0,
            block_size: Some(16),
            ..Default::default()
        };
        let r = run(&cfg);
        let unresolved: Vec<usize> = r
            .queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.resolved_ms.is_none())
            .map(|(i, _)| i)
            .collect();
        assert!(
            r.success_rate() > 0.99,
            "success {} with zero loss; unresolved {:?}; server {:?}; issued {:?}",
            r.success_rate(),
            unresolved,
            r.server_stats,
            r.queries.iter().map(|q| q.issued_ms).collect::<Vec<_>>()
        );
    }
}

//! The four seeded workloads: their query mix, the program under test
//! built from the repository's public API, and the single-threaded
//! reference that computes the expected reply of every request.

use doc_bench::throughput::{build_mix, LoadSpec};
use doc_coap::msg::CoapMessage;
use doc_core::pool::{ReplySeal, RequestOpen};
use doc_core::proxy::ProxyAction;
use doc_core::{BufferPool, CachePolicy, CoapProxy, Datagram, DocServer, MockUpstream, ProxyPool};
use doc_dtls::record::{CipherState, ContentType, Record};
use doc_quic::packet::{Header, PacketKeys, Space};
use doc_time::Instant;
use std::sync::Arc;

/// Worker threads. The producer (or UDP pump) plus one worker already
/// fill a 2-vCPU host; a third busy thread would measure the scheduler.
const WORKERS: usize = 1;
/// Lock stripes of the proxy cache, exchange table and upstream zone.
const SHARDS: usize = 16;
/// Injector ring capacity: the in-memory closed loop's in-flight bound.
pub const RING: usize = 256;
/// GET share of the mix in permille (the rest is FETCH).
const GET_PERMILLE: u32 = 300;
/// Seed of the mock upstream's TTL draws. Fixed: `--seed` only shapes
/// the datagrams the program receives.
const UPSTREAM_SEED: u64 = 0xD0C;
/// Receive stamp of every request on the workloads whose clock stands
/// still (all but `churn`).
pub const PINNED_MS: u64 = 1;
/// Request buffers in circulation at most: a full ring, a worker's
/// full injector grab, the one being filled, with room to spare.
const IN_FLIGHT_BUFFERS: usize = 2 * RING;
/// Capacity of each pre-filled request buffer (largest request: 83 bytes).
const REQUEST_BUFFER: usize = 128;
/// Request peers: block-wise state is scoped per peer.
const PEERS: u64 = 16;

/// QUIC-lite material protecting the `sealed` request leg.
const REQUEST_SECRET: &[u8] = b"docbench sealed request secret";
const REQUEST_LABEL: &str = "client write";
const REQUEST_CID: [u8; 2] = [0xD0, 0xC0];
/// DTLS key block protecting the `sealed` reply leg.
pub const REPLY_KEY: [u8; 16] = *b"docbench-reply-k";
pub const REPLY_IV: [u8; 4] = [0xD0, 0xC5, 0xEA, 0x1D];
pub const REPLY_EPOCH: u16 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Churn,
    Sealed,
    Udp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Hot,
        Workload::Churn,
        Workload::Sealed,
        Workload::Udp,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Churn => "churn",
            Workload::Sealed => "sealed",
            Workload::Udp => "udp",
        }
    }

    /// Distinct names in the working set.
    pub fn names(self) -> u32 {
        match self {
            Workload::Churn => 4096,
            _ => 256,
        }
    }

    /// Proxy cache entries: `churn`'s working set is twice the cache.
    fn capacity(self) -> usize {
        match self {
            Workload::Churn => 2048,
            _ => 1024,
        }
    }

    /// Upstream TTL range in seconds.
    fn ttl_s(self) -> (u32, u32) {
        match self {
            Workload::Churn => (20, 60),
            _ => (3600, 3600),
        }
    }

    /// Virtual milliseconds between consecutive requests.
    pub fn clock_step_ms(self) -> u64 {
        match self {
            Workload::Churn => 1,
            _ => 0,
        }
    }

    /// Requests per measured segment, sized so one segment takes
    /// roughly 50-100 ms of CPU on a current x86 core.
    pub fn segment_requests(self) -> usize {
        match self {
            Workload::Hot => 65_536,
            Workload::Churn => 16_384,
            Workload::Sealed => 32_768,
            Workload::Udp => 4_096,
        }
    }

    /// Whether the workload primes every name into the cache at set-up.
    fn primed(self) -> bool {
        self != Workload::Churn
    }
}

/// splitmix64: the seeded source of every access sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_D0C0_BE4C_4A11)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// Peer a request for mix entry `entry` comes from.
pub fn peer_of(entry: u32) -> u64 {
    entry as u64 % PEERS
}

/// Zone plus plaintext CoAP request per name, registered in `upstream`.
fn zone_and_mix(w: Workload, upstream: &MockUpstream) -> Vec<Vec<u8>> {
    let spec = LoadSpec {
        unique_names: w.names(),
        get_permille: GET_PERMILLE,
        ..LoadSpec::default()
    };
    build_mix(&spec, upstream).wires().to_vec()
}

fn proxy_and_server(w: Workload) -> (CoapProxy, DocServer, Vec<Vec<u8>>) {
    let (ttl_min, ttl_max) = w.ttl_s();
    let upstream = MockUpstream::with_shards(UPSTREAM_SEED, ttl_min, ttl_max, SHARDS);
    let mix = zone_and_mix(w, &upstream);
    let proxy = CoapProxy::with_shards(w.capacity(), SHARDS);
    let server = DocServer::with_shards(CachePolicy::EolTtls, upstream, SHARDS);
    (proxy, server, mix)
}

pub fn request_keys() -> PacketKeys {
    PacketKeys::derive(REQUEST_SECRET, REQUEST_LABEL)
}

/// QUIC-lite protect one plaintext request as packet `pn`.
pub fn seal_request(keys: &PacketKeys, pn: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + 32);
    Header::encode_into(Space::OneRtt, REQUEST_CID, pn, &mut out);
    let header = out.clone();
    keys.seal_into(pn, &header, plaintext, &mut out)
        .expect("request plaintexts fit one packet");
    out
}

/// DTLS-seal one plaintext reply as record `seq`, exactly as the
/// pool's reply leg frames it.
pub fn seal_reply(cipher: &CipherState, seq: u64, plaintext: &[u8], out: &mut Vec<u8>) {
    let payload = cipher
        .seal(ContentType::ApplicationData, REPLY_EPOCH, seq, plaintext)
        .expect("reply plaintexts fit one record");
    Record {
        ctype: ContentType::ApplicationData,
        epoch: REPLY_EPOCH,
        seq,
        payload,
    }
    .encode_into(out);
}

/// The program under test, as built by one set-up.
pub struct Program {
    pub pool: ProxyPool,
    /// Spent request buffers, reused by the producer.
    pub recycle: Arc<BufferPool>,
    /// Request datagrams as the program receives them, one per name
    /// (QUIC-lite protected on `sealed`).
    pub wires: Vec<Vec<u8>>,
    /// Bound loopback front-end (`udp` only).
    pub io: Option<doc_core::UdpProvider>,
}

impl Program {
    /// Set up the workload at its real size: zone and mix, proxy,
    /// server and pool, cache priming, socket bind.
    pub fn build(w: Workload) -> std::io::Result<Program> {
        let (proxy, server, plain) = proxy_and_server(w);
        let recycle = Arc::new(BufferPool::new());
        let mut pool = ProxyPool::new(WORKERS, Arc::new(proxy), Arc::new(server));
        // Only the in-memory producer takes buffers back; `run_io`'s
        // provider allocates its own, so recycling there would only
        // grow the pool.
        if w != Workload::Udp {
            pool = pool.with_wire_recycling(Arc::clone(&recycle));
            // Pre-filled: the producer never finds the pool dry, so
            // no request buffer is allocated inside a measured segment.
            recycle.put_batch((0..IN_FLIGHT_BUFFERS).map(|_| Vec::with_capacity(REQUEST_BUFFER)));
        }
        let mut wires = plain.clone();
        if w == Workload::Sealed {
            let keys = request_keys();
            wires = plain
                .iter()
                .enumerate()
                .map(|(pn, p)| seal_request(&keys, pn as u64, p))
                .collect();
            pool = pool
                .with_request_open(RequestOpen::new(request_keys()))
                .with_reply_seal(ReplySeal::new(&REPLY_KEY, REPLY_IV, REPLY_EPOCH));
        }
        if w.primed() {
            let mut scratch = Vec::new();
            for (i, wire) in plain.iter().enumerate() {
                let d = Datagram {
                    peer: peer_of(i as u32),
                    seq: i as u64,
                    at: Instant::from_millis(PINNED_MS),
                    wire: wire.clone(),
                };
                pool.serve(&d, &mut scratch)
                    .expect("priming requests are well-formed");
            }
        }
        let io = match w {
            Workload::Udp => Some(
                doc_core::UdpProvider::bind("127.0.0.1:0")?
                    .with_virtual_time(Instant::from_millis(PINNED_MS)),
            ),
            _ => None,
        };
        Ok(Program {
            pool,
            recycle,
            wires,
            io,
        })
    }
}

/// The single-threaded `CoapProxy` + `DocServer` pair the paper's
/// experiments use, driven through the owned-message API. It is built
/// exactly like the program, so at one worker the pool must answer
/// every request with the same bytes.
pub struct Reference {
    proxy: CoapProxy,
    server: DocServer,
    plain: Vec<Vec<u8>>,
}

impl Reference {
    pub fn new(w: Workload) -> Reference {
        let (proxy, server, plain) = proxy_and_server(w);
        let reference = Reference {
            proxy,
            server,
            plain,
        };
        if w.primed() {
            for entry in 0..reference.plain.len() as u32 {
                reference.reply(entry, PINNED_MS, &mut Vec::new());
            }
        }
        reference
    }

    /// Append the reply to mix entry `entry` received at `now_ms`.
    pub fn reply(&self, entry: u32, now_ms: u64, out: &mut Vec<u8>) {
        let req = CoapMessage::decode(&self.plain[entry as usize]).expect("mix requests decode");
        let resp = match self.proxy.handle_client_request(&req, now_ms) {
            ProxyAction::Respond(resp) => *resp,
            ProxyAction::Forward {
                request,
                exchange_id,
            } => {
                let upstream = self
                    .server
                    .handle_request_from(peer_of(entry), &request, now_ms);
                self.proxy
                    .handle_upstream_response(exchange_id, &upstream, now_ms)
                    .expect("the exchange was just opened")
            }
        };
        out.extend_from_slice(&resp.encode());
    }
}

/// Byte strings packed into one buffer, indexed by position.
#[derive(Default)]
pub struct Arena {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Arena {
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Buffer to append the next entry to; close it with [`Arena::seal`].
    pub fn open(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    pub fn seal(&mut self) {
        self.ends.push(self.bytes.len());
    }

    pub fn push(&mut self, item: &[u8]) {
        self.bytes.extend_from_slice(item);
        self.seal();
    }

    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }
}

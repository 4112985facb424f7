//! `doc-core` — DNS over CoAP (DoC), the primary contribution of
//! *Securing Name Resolution in the IoT: DNS over CoAP* (Lenders et
//! al., CoNEXT 2023).
//!
//! DoC maps each DNS query/response pair onto a CoAP message exchange
//! (paper §4), protected either by DTLS (CoAPS) or by OSCORE, and
//! aligns DNS TTLs with CoAP's caching model so that en-route CoAP
//! caches — on clients and on forward proxies — can serve and
//! revalidate DNS responses:
//!
//! * [`method`] — the three request mappings (Table 5): **FETCH**
//!   (cacheable + body + block-wise; the preferred method), **GET**
//!   (query in a base64url URI variable via a URI template) and
//!   **POST** (body, not cacheable).
//! * [`uri_template`] — the lightweight URI-template processor GET
//!   requires (RFC 6570 form-style query expansion, e.g. `/dns{?dns}`).
//! * [`policy`] — the two TTL↔Max-Age alignment schemes of §4.2:
//!   **DoH-like** (RFC 8484 semantics: Max-Age = min TTL, TTLs decay in
//!   the payload, ETags break on TTL change) and **EOL TTLs** (the
//!   paper's improvement: TTLs rewritten to 0, ETag stable, clients
//!   restore TTLs from Max-Age).
//! * [`client`] — the DoC client: canonical queries (DNS ID = 0),
//!   client-side DNS cache, client-side CoAP cache, ETag revalidation.
//! * [`server`] — the DoC server with a mock recursive resolver
//!   upstream (the paper's resolver is "mocked up to generate the
//!   desired responses").
//! * [`proxy`] — a DoC-agnostic caching CoAP forward proxy (the node
//!   `P` of Fig. 2/3).
//! * [`transport`] — datagram framings for all five evaluated
//!   transports (UDP, DTLSv1.2, CoAP, CoAPSv1.2, OSCORE) used by the
//!   packet-size analyses (Fig. 6/9/14).
//! * [`experiment`] — the testbed-in-a-crate: drives clients, proxy and
//!   server over `doc-netsim` to regenerate Fig. 7/10/11/15.

pub mod bottleneck;
pub mod client;
pub mod experiment;
pub mod io;
pub mod method;
pub mod policy;
pub mod pool;
pub mod proxy;
pub mod server;
pub mod transport;
pub mod uri_template;

pub use client::DocClient;
#[cfg(target_os = "linux")]
pub use io::UdpProvider;
pub use io::{IoProvider, RecvSlot, SimProvider};
pub use method::DocMethod;
pub use policy::CachePolicy;
pub use pool::{BufferPool, Datagram, ProxyPool, Reply, ServeScratch};
pub use proxy::CoapProxy;
pub use server::{DocServer, MockUpstream};

/// CoAP Content-Format for `application/dns-message`
/// (draft-ietf-core-dns-over-coap: value 553).
pub const CONTENT_FORMAT_DNS_MESSAGE: u16 = 553;

/// The default DoC resource path (the paper: "the requested DNS
/// resource is /dns").
pub const DEFAULT_RESOURCE: &str = "dns";

/// Errors produced by the DoC layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// The request/response did not carry a parseable DNS message.
    BadDnsMessage,
    /// The CoAP message was not a valid DoC request (wrong method,
    /// missing query variable, unsupported Content-Format …).
    BadRequest,
    /// A GET request's `dns` variable failed base64url decoding.
    BadEncoding,
    /// The URI template could not be processed.
    BadTemplate,
    /// A response arrived for an unknown token.
    UnknownExchange,
}

impl core::fmt::Display for DocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DocError::BadDnsMessage => write!(f, "invalid DNS message"),
            DocError::BadRequest => write!(f, "invalid DoC request"),
            DocError::BadEncoding => write!(f, "invalid base64url encoding"),
            DocError::BadTemplate => write!(f, "invalid URI template"),
            DocError::UnknownExchange => write!(f, "unknown exchange"),
        }
    }
}

impl std::error::Error for DocError {}

//! Multi-worker datagram front-end: one bounded injector ring fanning
//! request datagrams onto N worker threads.
//!
//! The paper's evaluation is single-node and the whole protocol stack
//! is sans-IO, so scaling across cores is purely a front-end concern:
//! workers pull raw datagrams off the ring and run the *existing*
//! borrowed-view path, wire in and wire out on every leg —
//! [`CoapProxy::serve_wire`] for the client leg and, on a miss or
//! revalidation, [`ForwardRequest::encode_into`] →
//! [`DocServer::serve_wire`] → [`CoapProxy::serve_upstream_wire`] for
//! the origin leg, all on per-worker buffers — against state that is
//! lock-striped per shard ([`doc_coap::shard`]).
//! Nothing in the protocol logic knows it is being run concurrently,
//! and no per-peer state depends on which worker serves a datagram,
//! so any idle worker may take any datagram.
//!
//! * [`SpmcRing`] — a bounded single-producer/multi-consumer ring of
//!   fixed power-of-two capacity, the pool's shared **injector**. The
//!   producer blocks when the ring is full (closed-loop backpressure:
//!   in-flight work is bounded by the ring), workers drain it in
//!   batches of up to `INJECTOR_GRAB` to amortize lock/wake traffic
//!   and sleep on its condvar when it is empty.
//! * [`ProxyPool`] — N workers sharing one `Arc<CoapProxy>` and one
//!   `Arc<DocServer>`; each datagram is a DoC (CoAP) request, runs the
//!   full client → proxy → (origin, on a cache miss) → client
//!   exchange, optionally behind QUIC-lite request opening and DTLS
//!   reply sealing ([`RequestOpen`], [`ReplySeal`]), and the reply is
//!   handed to a caller-supplied sink as a *borrowed* [`Reply`] — the
//!   worker retains the reply buffer, so a steady-state cache hit
//!   allocates nothing (see `BENCH_proxy.json`'s `allocs_per_req`) and
//!   a forward allocates only what the cache keeps: the key and the
//!   stored response.
//!
//! Where datagrams come from is the caller's choice: the closed-loop
//! throughput harness (`doc-bench`) feeds [`ProxyPool::run`] from a
//! replayed query mix, and [`ProxyPool::run_io`] serves a
//! [`crate::io`] provider (`doc-netsim` drains or a real UDP socket)
//! on its calling thread. Both serve each drain through the identical
//! per-drain step.

use crate::proxy::{CoapProxy, ForwardRequest, ProxyScratch, WireAction};
use crate::server::{DocServer, ServerScratch};
// The sync primitives come from `doc-check`: outside a model execution
// they are passthroughs to `std::sync`, inside one every operation is
// a scheduling point — so `check_gate` explores the interleavings of
// *this* ring, not a copy (see `crates/check`).
use doc_check::sync::atomic::{AtomicU64, Ordering};
use doc_check::sync::{Arc, Condvar, Mutex};
use doc_crypto::ccm::{recycle, CcmScratch, SealRequest, LOCKSTEP_GROUP};
use doc_dtls::record::{CipherState, ContentType, RecordCrypto, CIPHERTEXT_OFFSET};
use doc_quic::packet::{Header, OpenScratch, PacketKeys, PacketOpen};

/// A bounded single-producer/multi-consumer ring buffer.
///
/// Fixed storage allocated once at construction; `push` blocks while
/// the ring is full, `pop`/`pop_batch` block while it is empty. After
/// [`SpmcRing::close`], pushes fail and pops drain the remaining items
/// before returning `None`.
pub struct SpmcRing<T> {
    state: Mutex<RingState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct RingState<T> {
    /// `capacity` slots; `None` = empty slot.
    slots: Box<[Option<T>]>,
    /// Next slot to pop (wraps with the power-of-two mask).
    head: u64,
    /// Next slot to push.
    tail: u64,
    closed: bool,
}

impl<T> RingState<T> {
    fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }
    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }
}

impl<T> SpmcRing<T> {
    /// Create a ring with `capacity` slots (rounded up to a power of
    /// two, at least 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        SpmcRing {
            state: Mutex::new(RingState {
                slots: (0..cap).map(|_| None).collect(),
                head: 0,
                tail: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.state.lock().unwrap().slots.len()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push an item, blocking while the ring is full. Returns the item
    /// back if the ring was closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap();
        while st.len() == st.slots.len() && !st.closed {
            st = self.not_full.wait(st).unwrap();
        }
        if st.closed {
            return Err(item);
        }
        let idx = (st.tail & st.mask()) as usize;
        st.slots[idx] = Some(item);
        st.tail += 1;
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pop one item, blocking while the ring is empty. Returns `None`
    /// once the ring is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.len() > 0 {
                let idx = (st.head & st.mask()) as usize;
                let item = st.slots[idx].take();
                st.head += 1;
                drop(st);
                self.not_full.notify_one();
                return item;
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Pop up to `max` items into `out`, blocking while the ring is
    /// empty. **`out` is cleared at entry**: the batch a call returns
    /// is exactly the batch it drained, so a caller reusing a scratch
    /// buffer across drains can never silently reprocess stale items.
    /// Returns the number of items drained — 0 only once the ring is
    /// closed and drained. Batch draining takes the lock once per
    /// batch instead of once per datagram.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        out.clear();
        let mut st = self.state.lock().unwrap();
        loop {
            let n = st.len().min(max.max(1));
            if n > 0 {
                for _ in 0..n {
                    let idx = (st.head & st.mask()) as usize;
                    out.push(st.slots[idx].take().expect("occupied slot"));
                    st.head += 1;
                }
                drop(st);
                // Several slots freed: there may be room for more than
                // one producer push and other consumers may still find
                // items.
                self.not_full.notify_all();
                return n;
            }
            if st.closed {
                return 0;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Close the ring: subsequent pushes fail, pops drain what is left.
    /// Idempotent.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// A shared free-list of byte buffers — the allocation-recycling link
/// between a producer that must give each [`Datagram`] an owned
/// `wire` and the workers that are done with it. Workers return a
/// whole drain's buffers in one lock acquisition; the producer
/// [`BufferPool::take`]s them back (cleared, capacity intact) instead
/// of allocating. This is what holds the pool's steady-state
/// `allocs_per_req` below 1.
pub struct BufferPool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl BufferPool {
    /// A new, empty pool.
    pub fn new() -> Self {
        BufferPool {
            bufs: Mutex::new(Vec::new()),
        }
    }

    /// Take a recycled buffer (empty, capacity preserved), or a fresh
    /// one if the pool is dry.
    pub fn take(&self) -> Vec<u8> {
        let mut buf = self.bufs.lock().unwrap().pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Buffers currently pooled.
    pub fn len(&self) -> usize {
        self.bufs.lock().unwrap().len()
    }

    /// Whether the free-list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Return one spent buffer.
    pub fn put(&self, buf: Vec<u8>) {
        self.bufs.lock().unwrap().push(buf);
    }

    /// Return a batch of spent buffers under one lock acquisition.
    pub fn put_batch(&self, bufs: impl Iterator<Item = Vec<u8>>) {
        self.bufs.lock().unwrap().extend(bufs);
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

/// Closes the injector when dropped — including when a worker or the
/// producer unwinds. Without this, a panicking participant would leave
/// the others blocked on the ring forever instead of letting the scope
/// join and propagate the panic.
struct CloseGuard<'a>(&'a SpmcRing<Datagram>);

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One request datagram entering the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Peer (client) identifier — scopes block-wise transfer state.
    pub peer: u64,
    /// Caller-chosen sequence number, carried through to the reply.
    pub seq: u64,
    /// Virtual receive time (drives cache freshness).
    pub at: doc_time::Instant,
    /// The CoAP request wire bytes.
    pub wire: Vec<u8>,
}

/// One reply datagram leaving the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Peer the reply goes back to.
    pub peer: u64,
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// Index of the worker that served the exchange (always 0 for
    /// [`ProxyPool::run_io`], which serves on its calling thread).
    pub worker: usize,
    /// The CoAP response wire bytes (`None`: the datagram was
    /// malformed and dropped, like a real UDP front-end would).
    pub wire: Option<Vec<u8>>,
}

/// Counters aggregated over one [`ProxyPool::run`] or
/// [`ProxyPool::run_io`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolRunStats {
    /// Datagrams served: always `replies + errors`.
    pub processed: u64,
    /// Replies produced.
    pub replies: u64,
    /// Malformed datagrams dropped.
    pub errors: u64,
    /// One entry per serving thread (each `run` worker; the one
    /// calling thread of `run_io`), always zero: the pool has no
    /// stealing. Its only reader is the standalone benchmark
    /// (`docbench`), whose `pool.steals` metric sums it. Empty only
    /// for a default-constructed value.
    pub steals_per_worker: Vec<u64>,
}

impl PoolRunStats {
    /// Sum of [`PoolRunStats::steals_per_worker`]; always zero for a
    /// pool run, kept for the same reader.
    pub fn total_steals(&self) -> u64 {
        self.steals_per_worker.iter().sum()
    }

    /// Count one drain's replies.
    pub(crate) fn count(&mut self, replies: &[Reply]) {
        let served = replies.iter().filter(|r| r.wire.is_some()).count() as u64;
        self.processed += replies.len() as u64;
        self.replies += served;
        self.errors += replies.len() as u64 - served;
    }
}

/// DTLS protection for the pool's reply leg: every reply leaving the
/// pool is sealed as an epoch-`epoch` ApplicationData record, built in
/// the reply's own slab buffer. The record header and explicit nonce
/// go in front of the plaintext already there
/// ([`CipherState::frame_in_place`]), then the drain is sealed in
/// place in batched AEAD passes of up to [`LOCKSTEP_GROUP`] replies
/// ([`doc_crypto::ccm::AesCcm::seal_suffix_batch_with`]) on buffers the
/// worker keeps: no payload copy, and no allocation once warm.
pub struct ReplySeal {
    cipher: CipherState,
    epoch: u16,
    /// Next record sequence number; workers reserve a contiguous run
    /// per batch.
    seq: AtomicU64,
}

impl ReplySeal {
    /// Create from the write-direction key-block material.
    pub fn new(key: &[u8; 16], fixed_iv: [u8; 4], epoch: u16) -> Self {
        ReplySeal {
            cipher: CipherState::new(key, fixed_iv),
            epoch,
            seq: AtomicU64::new(0),
        }
    }

    /// Reserve `n` consecutive record sequence numbers.
    fn reserve(&self, n: u64) -> u64 {
        self.seq.fetch_add(n, Ordering::Relaxed)
    }

    /// Seal every served reply in place: its plaintext wire becomes
    /// the full DTLS record wire, in the same buffer. Replies without
    /// a wire (malformed datagrams) stay as they are. A reply that
    /// cannot be sealed — its record sequence number is past
    /// [`doc_dtls::record::MAX_SEQ`], where the nonce would repeat —
    /// is dropped (`wire = None`) and so counted as an error.
    fn seal_replies(&self, replies: &mut [Reply], scratch: &mut SealScratch) {
        let SealScratch { ccm, records, reqs } = scratch;
        let mut seq = self.reserve(replies.iter().filter(|r| r.wire.is_some()).count() as u64);
        // In lockstep-group chunks, so the per-reply buffers below stay
        // group-sized whatever the drain size.
        for chunk in replies.chunks_mut(LOCKSTEP_GROUP) {
            records.clear();
            for r in chunk.iter_mut() {
                let Some(wire) = r.wire.as_mut() else {
                    continue;
                };
                match self.cipher.frame_in_place(
                    ContentType::ApplicationData,
                    self.epoch,
                    seq,
                    wire,
                ) {
                    Ok(crypto) => records.push(crypto),
                    Err(_) => r.wire = None,
                }
                seq = seq.saturating_add(1);
            }
            let mut batch = recycle(std::mem::take(reqs));
            batch.extend(
                chunk
                    .iter_mut()
                    .filter_map(|r| r.wire.as_mut())
                    .zip(records.iter())
                    .map(|(buf, crypto)| SealRequest {
                        nonce: &crypto.nonce,
                        aad: &crypto.aad,
                        buf,
                        start: CIPHERTEXT_OFFSET,
                    }),
            );
            let sealed = self.cipher.ccm().seal_suffix_batch_with(&mut batch, ccm);
            *reqs = recycle(batch);
            if sealed.is_err() {
                // Framing validated every record, so the batch cannot
                // fail; should it, no framed plaintext may leave.
                for r in chunk.iter_mut() {
                    r.wire = None;
                }
            }
        }
    }
}

/// The buffers [`ReplySeal`] reuses from drain to drain.
#[derive(Default)]
pub(crate) struct SealScratch {
    ccm: CcmScratch,
    /// Each framed record's nonce and AAD, in chunk order.
    records: Vec<RecordCrypto>,
    /// Emptied between drains; parked at `'static` (see [`recycle`]).
    reqs: Vec<SealRequest<'static>>,
}

/// QUIC-lite packet protection for the pool's *inbound* leg: each
/// datagram arrives as `header || ciphertext || tag` under these keys,
/// and a worker opens its drain in batched passes of up to
/// [`LOCKSTEP_GROUP`] datagrams ([`PacketKeys::open_batch_with`]) — the
/// decrypt-side mirror of [`ReplySeal`]'s batched seal, on buffers the
/// worker keeps.
/// Datagrams that fail header parsing or authentication have their
/// wire cleared, so they fall through the serve path as malformed and
/// are counted as errors.
pub struct RequestOpen {
    keys: PacketKeys,
}

/// Headers are 1 flag byte + 2 CID bytes + a varint packet number —
/// never more than 11 bytes; 16 gives slack.
const HEADER_SCRATCH: usize = 16;

/// A request datagram's parsed QUIC-lite header, its bytes copied out:
/// [`PacketOpen`] borrows the header immutably and the buffer mutably,
/// which can't both come from the same `d.wire`.
struct ParsedHeader {
    pn: u64,
    len: usize,
    bytes: [u8; HEADER_SCRATCH],
}

/// The buffers [`RequestOpen`] reuses from drain to drain.
#[derive(Default)]
pub(crate) struct OpenDrainScratch {
    /// Per datagram: its header, or `None` when it did not parse.
    headers: Vec<Option<ParsedHeader>>,
    /// Emptied between drains; parked at `'static` (see [`recycle`]).
    opens: Vec<PacketOpen<'static>>,
    keys: OpenScratch,
}

impl RequestOpen {
    /// Protect the inbound leg with `keys` (the client-write
    /// direction).
    pub fn new(keys: PacketKeys) -> Self {
        RequestOpen { keys }
    }

    /// Open every datagram in `batch` in place: on success `d.wire`
    /// becomes the plaintext request; on parse/auth failure it is
    /// cleared. Returns the failure count. Allocates its buffers for
    /// this one call; the pool's workers keep theirs across drains.
    pub fn open_drain(&self, batch: &mut [Datagram]) -> u64 {
        self.open_drain_with(batch, &mut OpenDrainScratch::default())
    }

    /// [`RequestOpen::open_drain`] on reused buffers, in lockstep-group
    /// chunks so the per-datagram buffers stay group-sized whatever the
    /// drain size.
    pub(crate) fn open_drain_with(
        &self,
        batch: &mut [Datagram],
        scratch: &mut OpenDrainScratch,
    ) -> u64 {
        batch
            .chunks_mut(LOCKSTEP_GROUP)
            .map(|chunk| self.open_chunk(chunk, scratch))
            .sum()
    }

    /// Open one chunk of a drain; returns its failure count. The happy
    /// path is a single [`PacketKeys::open_batch_with`] pass. That call
    /// is all-or-nothing, so when the chunk contains a forgery it is
    /// retried packet-at-a-time to salvage the authentic ones — the
    /// slow path only runs under active tampering.
    fn open_chunk(&self, batch: &mut [Datagram], scratch: &mut OpenDrainScratch) -> u64 {
        let OpenDrainScratch {
            headers,
            opens,
            keys,
        } = scratch;
        let mut failed = 0u64;
        // Phase 1: parse the headers.
        headers.clear();
        headers.reserve(batch.len());
        for d in batch.iter_mut() {
            let parsed = match Header::decode(&d.wire) {
                Ok(h) if h.len <= HEADER_SCRATCH && h.len <= d.wire.len() => {
                    let mut bytes = [0u8; HEADER_SCRATCH];
                    bytes[..h.len].copy_from_slice(&d.wire[..h.len]);
                    Some(ParsedHeader {
                        pn: h.pn,
                        len: h.len,
                        bytes,
                    })
                }
                _ => {
                    d.wire.clear();
                    failed += 1;
                    None
                }
            };
            headers.push(parsed);
        }
        // Phase 2: one batched open over the parseable packets.
        let mut packets = recycle(std::mem::take(opens));
        packets.reserve(batch.len());
        for (d, h) in batch.iter_mut().zip(headers.iter()) {
            if let Some(h) = h {
                packets.push(PacketOpen {
                    pn: h.pn,
                    header: &h.bytes[..h.len],
                    buf: &mut d.wire,
                    start: h.len,
                });
            }
        }
        if self.keys.open_batch_with(&mut packets, keys).is_err() {
            // Batch failed atomically (buffers restored): retry each
            // packet alone so one forgery doesn't take the authentic
            // drain down with it. A forgery's wire is cleared.
            for o in packets.iter_mut() {
                match self.keys.open(o.pn, o.header, &o.buf[o.start..]) {
                    Ok(plain) => {
                        o.buf.truncate(o.start);
                        o.buf.extend_from_slice(&plain);
                    }
                    Err(_) => o.buf.clear(),
                }
            }
        }
        *opens = recycle(packets);
        // Phase 3: strip the headers off the opened packets; an opened
        // packet keeps at least its header, a forgery nothing.
        for (d, h) in batch.iter_mut().zip(headers.iter()) {
            if let Some(h) = h {
                if d.wire.is_empty() {
                    failed += 1;
                } else {
                    d.wire.drain(..h.len);
                }
            }
        }
        failed
    }
}

/// A multi-worker proxy front-end: N threads sharing one thread-safe
/// [`CoapProxy`] and [`DocServer`].
pub struct ProxyPool {
    /// The shared (sharded) caching proxy.
    pub proxy: Arc<CoapProxy>,
    /// The shared origin server.
    pub server: Arc<DocServer>,
    workers: usize,
    /// When set, replies leave the pool as DTLS records, batch-sealed
    /// per drain. `None` (the default) keeps the plaintext reply wire.
    seal: Option<ReplySeal>,
    /// When set, inbound datagrams are QUIC-lite protected and each
    /// drain is opened in one batched pass before serving.
    request_open: Option<RequestOpen>,
    /// When set, spent `Datagram::wire` buffers are returned here
    /// after each drain so the producer can reuse them.
    recycle: Option<Arc<BufferPool>>,
}

/// How many datagrams a `run` worker drains from the injector per lock
/// acquisition — also the largest batch one seal/open pass covers
/// there (`run_io` drains are `recv_batch`-sized).
const INJECTOR_GRAB: usize = 128;

impl ProxyPool {
    /// Create a pool of `workers` threads (at least 1) over shared
    /// proxy/server state.
    pub fn new(workers: usize, proxy: Arc<CoapProxy>, server: Arc<DocServer>) -> Self {
        ProxyPool {
            proxy,
            server,
            workers: workers.max(1),
            seal: None,
            request_open: None,
            recycle: None,
        }
    }

    /// Protect the reply leg: every reply this pool emits becomes a
    /// DTLS ApplicationData record, sealed batch-at-a-time (the crypto
    /// analogue of `pop_batch`'s lock amortization).
    pub fn with_reply_seal(mut self, seal: ReplySeal) -> Self {
        self.seal = Some(seal);
        self
    }

    /// Protect the inbound leg: every datagram entering the pool is a
    /// QUIC-lite packet opened (batch-at-a-time) before serving.
    pub fn with_request_open(mut self, open: RequestOpen) -> Self {
        self.request_open = Some(open);
        self
    }

    /// Recycle spent `Datagram::wire` buffers through `pool` — the
    /// producer side of the closed loop takes them back with
    /// [`BufferPool::take`] instead of allocating.
    pub fn with_wire_recycling(mut self, pool: Arc<BufferPool>) -> Self {
        self.recycle = Some(pool);
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Serve one request datagram end to end on the calling thread:
    /// proxy view path, then (on miss/revalidation) the origin's view
    /// path, then the upstream response re-entering the proxy. Returns
    /// the reply wire bytes, or `None` for malformed datagrams.
    ///
    /// `upstream_buf` is a scratch buffer reused across calls for the
    /// upstream request wire. Callers serving many datagrams keep a
    /// [`ServeScratch`] and call [`ProxyPool::serve_wire`] instead.
    pub fn serve(&self, d: &Datagram, upstream_buf: &mut Vec<u8>) -> Option<Vec<u8>> {
        let mut scratch = ServeScratch::default();
        std::mem::swap(&mut scratch.origin.request, upstream_buf);
        let mut out = Vec::new();
        let served = self.serve_wire(d, &mut scratch, &mut out);
        std::mem::swap(&mut scratch.origin.request, upstream_buf);
        served.then_some(out)
    }

    /// The serve core the workers run: the reply wire is written into
    /// `out` (cleared first) and `scratch` is reused across calls, so
    /// once both are warm a fresh cache hit allocates nothing and a
    /// forward allocates only what the proxy cache keeps (the key and
    /// the stored response). Returns whether a reply was produced.
    pub fn serve_wire(&self, d: &Datagram, scratch: &mut ServeScratch, out: &mut Vec<u8>) -> bool {
        out.clear();
        let now = d.at.as_millis();
        let ServeScratch { proxy, origin } = scratch;
        match self.proxy.serve_wire(&d.wire, now, proxy, out) {
            Ok(WireAction::Responded) => true,
            Ok(WireAction::Forward {
                request,
                exchange_id,
            }) => origin.exchange(self, d.peer, now, request, exchange_id, out),
            Err(_) => false,
        }
    }

    /// Fan `datagrams` over the worker threads through a bounded
    /// injector ring of `ring_capacity` slots and hand every reply to
    /// `on_reply` (called from worker threads; replies arrive in
    /// completion order, not submission order). The `Reply` is
    /// **borrowed**: the worker keeps ownership of the reply buffer and
    /// reuses it on the next drain, so a sink that only inspects or
    /// copies out costs the pool nothing.
    ///
    /// The calling thread is the single producer: it blocks while the
    /// injector is full, which bounds in-flight work and gives
    /// closed-loop behaviour when the iterator is replayed load. A
    /// panic in a worker (including in `on_reply`) or in the iterator
    /// closes the ring and propagates out of `run`.
    pub fn run<I>(
        &self,
        ring_capacity: usize,
        datagrams: I,
        on_reply: &(dyn Fn(&Reply) + Sync),
    ) -> PoolRunStats
    where
        I: IntoIterator<Item = Datagram>,
    {
        let injector: SpmcRing<Datagram> = SpmcRing::new(ring_capacity);
        let mut stats = PoolRunStats {
            steals_per_worker: vec![0; self.workers],
            ..PoolRunStats::default()
        };
        std::thread::scope(|scope| {
            // The producer needs the same unwind protection as the
            // workers: if the datagram iterator panics, the scope body
            // unwinds before the explicit close below, and scope()
            // would join workers blocked on the empty ring forever.
            let _producer_guard = CloseGuard(&injector);
            let injector = &injector;
            let workers: Vec<_> = (0..self.workers)
                .map(|worker| scope.spawn(move || self.work(worker, injector, on_reply)))
                .collect();
            for d in datagrams {
                if injector.push(d).is_err() {
                    break;
                }
            }
            injector.close();
            for w in workers {
                let tally = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                stats.processed += tally.processed;
                stats.replies += tally.replies;
                stats.errors += tally.errors;
            }
        });
        stats
    }

    /// One worker thread: drain the injector until it is closed and
    /// empty, returning this worker's tally. The tally stays local and
    /// is summed once at join, so serving touches no shared counter
    /// per datagram.
    fn work(
        &self,
        worker: usize,
        injector: &SpmcRing<Datagram>,
        on_reply: &(dyn Fn(&Reply) + Sync),
    ) -> PoolRunStats {
        // If this worker unwinds (serve or on_reply panicking), the
        // guard closes the injector so the producer unblocks and the
        // scope can join and propagate the panic instead of
        // deadlocking.
        let _close_guard = CloseGuard(injector);
        let mut batch: Vec<Datagram> = Vec::with_capacity(INJECTOR_GRAB);
        let mut scratch = WorkerScratch::with_capacity(INJECTOR_GRAB);
        let mut tally = PoolRunStats::default();
        while injector.pop_batch(&mut batch, INJECTOR_GRAB) > 0 {
            let replies = self.serve_batch(worker, &mut batch, &mut scratch);
            tally.count(replies);
            replies.iter().for_each(on_reply);
        }
        tally
    }

    /// Serve one drain on the calling thread — the per-drain step of
    /// both [`ProxyPool::run`]'s workers and [`ProxyPool::run_io`]:
    /// open the drain if the request leg is protected, serve every
    /// datagram into the reply slab, batch-seal the slab if the reply
    /// leg is protected, then recycle the spent request wires. Returns
    /// the drain's replies, one per datagram in drain order, borrowed
    /// from the slab; a malformed datagram's reply has no wire.
    pub(crate) fn serve_batch<'s>(
        &self,
        worker: usize,
        batch: &mut Vec<Datagram>,
        scratch: &'s mut WorkerScratch,
    ) -> &'s [Reply] {
        let WorkerScratch {
            replies,
            serve,
            open: open_scratch,
            seal: seal_scratch,
        } = scratch;
        if let Some(open) = &self.request_open {
            open.open_drain_with(batch, open_scratch);
        }
        // The reply slab: one reply per batch slot, grown once to the
        // largest drain seen. A served reply's wire buffer stays in its
        // slot and is reused by the next drain; `serve_wire` clears it
        // before writing, so nothing leaks across the boundary. A slab
        // serves one thread, whose `worker` never changes.
        while replies.len() < batch.len() {
            replies.push(Reply {
                peer: 0,
                seq: 0,
                worker,
                wire: None,
            });
        }
        let replies = &mut replies[..batch.len()];
        for (d, r) in batch.iter().zip(replies.iter_mut()) {
            r.peer = d.peer;
            r.seq = d.seq;
            if !self.serve_wire(d, serve, r.wire.get_or_insert_with(Vec::new)) {
                r.wire = None;
            }
        }
        if let Some(seal) = &self.seal {
            seal.seal_replies(replies, seal_scratch);
        }
        match &self.recycle {
            Some(recycle) => recycle.put_batch(batch.drain(..).map(|mut d| {
                d.wire.clear();
                d.wire
            })),
            None => batch.clear(),
        }
        replies
    }
}

/// Per-thread reusable scratch state: the reply slab, the serve
/// buffers and the protected legs' crypto buffers. Everything here is
/// grown during warmup and reused for the rest of the run; a leg that
/// is not protected leaves its buffers empty, holding no heap.
pub(crate) struct WorkerScratch {
    replies: Vec<Reply>,
    serve: ServeScratch,
    open: OpenDrainScratch,
    seal: SealScratch,
}

impl WorkerScratch {
    /// Scratch whose reply slab holds `drain` replies without growing.
    pub(crate) fn with_capacity(drain: usize) -> Self {
        WorkerScratch {
            replies: Vec::with_capacity(drain),
            serve: ServeScratch::default(),
            open: OpenDrainScratch::default(),
            seal: SealScratch::default(),
        }
    }
}

/// Reusable buffers for [`ProxyPool::serve_wire`]: the proxy's scratch
/// and the buffers of a forwarded exchange's origin leg.
#[derive(Debug, Default)]
pub struct ServeScratch {
    proxy: ProxyScratch,
    origin: OriginLeg,
}

/// The buffers of a forwarded exchange's origin leg.
#[derive(Debug, Default)]
struct OriginLeg {
    /// The upstream request wire.
    request: Vec<u8>,
    server: ServerScratch,
    /// The origin's reply wire.
    reply: Vec<u8>,
}

impl OriginLeg {
    /// Run a forwarded exchange through the origin and back into the
    /// proxy, writing the client reply into `out`. Returns whether a
    /// reply was produced.
    fn exchange(
        &mut self,
        pool: &ProxyPool,
        peer: u64,
        now: u64,
        request: ForwardRequest<'_>,
        exchange_id: u64,
        out: &mut Vec<u8>,
    ) -> bool {
        self.request.clear();
        request.encode_into(&mut self.request);
        let served =
            pool.server
                .serve_wire(peer, &self.request, now, &mut self.server, &mut self.reply);
        served.is_ok()
            && pool
                .proxy
                .serve_upstream_wire(exchange_id, &self.reply, now, out)
                .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{build_request, DocMethod};
    use crate::policy::CachePolicy;
    use crate::server::MockUpstream;
    use doc_coap::msg::{Code, MsgType};
    use doc_coap::view::CoapView;
    use doc_dns::{Message, Name, RecordType};
    use doc_dtls::record::{Record, MAX_SEQ};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ring_is_bounded_fifo() {
        let ring = SpmcRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.pop(), Some(0));
        assert_eq!(ring.pop(), Some(1));
        ring.push(4).unwrap();
        let mut batch = Vec::new();
        assert_eq!(ring.pop_batch(&mut batch, 8), 3);
        assert_eq!(batch, vec![2, 3, 4]);
        ring.close();
        assert_eq!(ring.pop(), None);
        assert!(ring.push(9).is_err());
    }

    #[test]
    fn ring_full_push_blocks_until_pop() {
        let ring = Arc::new(SpmcRing::new(2));
        ring.push(1u32).unwrap();
        ring.push(2).unwrap();
        let r2 = Arc::clone(&ring);
        let producer = std::thread::spawn(move || r2.push(3).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ring.pop(), Some(1), "push of 3 must still be parked");
        assert!(producer.join().unwrap());
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
    }

    #[test]
    fn ring_multi_consumer_partitions_items() {
        let ring = Arc::new(SpmcRing::new(8));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    let mut batch = Vec::new();
                    while ring.pop_batch(&mut batch, 4) > 0 {
                        seen.lock().unwrap().append(&mut batch);
                    }
                })
            })
            .collect();
        for i in 0..100u32 {
            ring.push(i).unwrap();
        }
        ring.close();
        for c in consumers {
            c.join().unwrap();
        }
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "exactly-once delivery");
    }

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

    fn pool(workers: usize, names: &[&str]) -> ProxyPool {
        let up = MockUpstream::new(7, 3600, 3600);
        for n in names {
            up.add_aaaa(Name::parse(n).unwrap(), 1);
        }
        ProxyPool::new(
            workers,
            Arc::new(CoapProxy::with_shards(256, 8)),
            Arc::new(DocServer::new(CachePolicy::EolTtls, up)),
        )
    }

    #[test]
    fn pool_serves_all_datagrams_with_matching_exchanges() {
        let names = ["a.example.org", "b.example.org", "c.example.org"];
        let pool = pool(4, &names);
        let total = 300u64;
        let replies = Mutex::new(Vec::new());
        let stats = pool.run(
            16,
            (0..total).map(|seq| Datagram {
                peer: seq % 5,
                seq,
                at: doc_time::Instant::from_millis(seq),
                wire: fetch_wire(names[(seq % 3) as usize], seq),
            }),
            &|r| replies.lock().unwrap().push(r.clone()),
        );
        assert_eq!(stats.processed, total);
        assert_eq!(stats.replies, total);
        assert_eq!(stats.errors, 0);
        let replies = replies.lock().unwrap();
        assert_eq!(replies.len(), total as usize);
        for r in replies.iter() {
            // Each reply carries its own request's token and MID — no
            // cross-exchange mix-ups under concurrency.
            let wire = r.wire.as_ref().expect("reply present");
            let v = CoapView::parse(wire).unwrap();
            assert_eq!(v.code, Code::CONTENT, "seq {}", r.seq);
            assert_eq!(v.message_id, r.seq as u16);
            assert_eq!(v.token(), &[r.seq as u8, (r.seq >> 8) as u8]);
        }
        // 3 distinct names with 1-hour TTLs: all but the first touches
        // are proxy cache hits. Concurrent first touches can each miss
        // before the insert lands, so the miss count is bounded by
        // names × workers, not names.
        let p = pool.proxy.stats();
        assert_eq!(p.requests, total as u32);
        assert!(p.cache_hits >= total as u32 - 12, "hits {}", p.cache_hits);
    }

    #[test]
    fn pool_drops_malformed_datagrams() {
        let pool = pool(2, &["a.example.org"]);
        let errors = AtomicUsize::new(0);
        let stats = pool.run(
            4,
            (0..10u64).map(|seq| Datagram {
                peer: 0,
                seq,
                at: doc_time::Instant::from_millis(0),
                wire: if seq % 2 == 0 {
                    fetch_wire("a.example.org", seq)
                } else {
                    vec![0xFF, 0x00, 0x01] // not a CoAP datagram
                },
            }),
            &|r| {
                if r.wire.is_none() {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        assert_eq!(stats.processed, 10);
        assert_eq!(stats.replies, 5);
        assert_eq!(stats.errors, 5);
        assert_eq!(errors.load(Ordering::Relaxed), 5);
    }

    /// A panicking worker must propagate out of `run` (via the scope
    /// join), not leave the producer deadlocked on the full ring.
    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let pool = pool(1, &["a.example.org"]);
        // Far more datagrams than ring slots, so the producer would
        // park on the full ring if the sole (panicked) worker stopped
        // draining without closing it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(
                4,
                (0..1000u64).map(|seq| Datagram {
                    peer: 0,
                    seq,
                    at: doc_time::Instant::from_millis(0),
                    wire: fetch_wire("a.example.org", seq),
                }),
                &|_| panic!("reply sink failure"),
            )
        }));
        assert!(result.is_err(), "panic must propagate");
    }

    /// A panicking datagram source must propagate out of `run` the
    /// same way a panicking worker does — not leave the workers parked
    /// on the open ring's condvar.
    #[test]
    fn producer_panic_propagates_instead_of_deadlocking() {
        let pool = pool(2, &["a.example.org"]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(
                4,
                (0..100u64).map(|seq| {
                    if seq == 50 {
                        panic!("load source failure");
                    }
                    Datagram {
                        peer: 0,
                        seq,
                        at: doc_time::Instant::from_millis(0),
                        wire: fetch_wire("a.example.org", seq),
                    }
                }),
                &|_| {},
            )
        }));
        assert!(result.is_err(), "panic must propagate");
    }

    /// With one worker the sealed pool's output must be byte-exactly
    /// what sealing each plaintext reply sequentially would produce.
    #[test]
    fn sealed_replies_match_sequential_seal() {
        let names = ["a.example.org"];
        let key = [0x4Du8; 16];
        let iv = [9, 8, 7, 6];
        let make_load = || {
            (0..40u64).map(|seq| Datagram {
                peer: 0,
                seq,
                at: doc_time::Instant::from_millis(1),
                wire: fetch_wire("a.example.org", seq),
            })
        };
        // Plaintext reference replies (submission order: 1 worker).
        let plain_pool = pool(1, &names);
        let plain = Mutex::new(Vec::new());
        plain_pool.run(8, make_load(), &|r| plain.lock().unwrap().push(r.clone()));
        let mut plain = plain.lock().unwrap().clone();
        plain.sort_by_key(|r| r.seq);

        let sealed_pool = pool(1, &names).with_reply_seal(ReplySeal::new(&key, iv, 1));
        let sealed = Mutex::new(Vec::new());
        let stats = sealed_pool.run(8, make_load(), &|r| sealed.lock().unwrap().push(r.clone()));
        assert_eq!(stats.replies, 40);
        let mut sealed = sealed.lock().unwrap().clone();
        sealed.sort_by_key(|r| r.seq);

        // One worker drains in submission order, so record seqs are
        // 0..40 in reply order; re-seal the plaintext replies with a
        // fresh cipher and compare byte-for-byte.
        let cipher = CipherState::new(&key, iv);
        for (rec_seq, (p, s)) in plain.iter().zip(sealed.iter()).enumerate() {
            let expect = Record {
                ctype: ContentType::ApplicationData,
                epoch: 1,
                seq: rec_seq as u64,
                payload: cipher
                    .seal(
                        ContentType::ApplicationData,
                        1,
                        rec_seq as u64,
                        p.wire.as_ref().unwrap(),
                    )
                    .unwrap(),
            }
            .encode();
            assert_eq!(s.wire.as_ref().unwrap(), &expect, "reply {}", p.seq);
        }
    }

    /// Multi-worker sealed replies all decrypt to valid responses with
    /// unique record sequence numbers.
    #[test]
    fn sealed_replies_decrypt_under_concurrency() {
        let names = ["a.example.org", "b.example.org"];
        let key = [0x4Du8; 16];
        let iv = [1, 2, 3, 4];
        let pool = pool(4, &names).with_reply_seal(ReplySeal::new(&key, iv, 1));
        let replies = Mutex::new(Vec::new());
        let total = 200u64;
        let stats = pool.run(
            16,
            (0..total).map(|seq| Datagram {
                peer: seq % 3,
                seq,
                at: doc_time::Instant::from_millis(1),
                wire: fetch_wire(names[(seq % 2) as usize], seq),
            }),
            &|r| replies.lock().unwrap().push(r.clone()),
        );
        assert_eq!(stats.replies, total);
        let cipher = CipherState::new(&key, iv);
        let mut seen_seqs = Vec::new();
        for r in replies.lock().unwrap().iter() {
            let wire = r.wire.as_ref().expect("reply present");
            let (rec, used) = Record::decode(wire).unwrap();
            assert_eq!(used, wire.len());
            assert_eq!(rec.ctype, ContentType::ApplicationData);
            assert_eq!(rec.epoch, 1);
            seen_seqs.push(rec.seq);
            let inner = cipher
                .open(rec.ctype, rec.epoch, rec.seq, &rec.payload)
                .unwrap();
            let v = CoapView::parse(&inner).unwrap();
            assert_eq!(v.code, Code::CONTENT);
            assert_eq!(v.message_id, r.seq as u16);
        }
        seen_seqs.sort_unstable();
        seen_seqs.dedup();
        assert_eq!(seen_seqs.len(), total as usize, "record seqs unique");
    }

    /// Record sequence numbers never wrap: at the last 48-bit value the
    /// first reply is sealed as record `MAX_SEQ`, and the next, which
    /// would reuse record 0's nonce, is dropped and counted as an error.
    #[test]
    fn reply_seal_drops_replies_past_the_48_bit_sequence_space() {
        let key = [0x4Du8; 16];
        let iv = [1, 2, 3, 4];
        let seal = ReplySeal::new(&key, iv, 1);
        seal.seq.store(MAX_SEQ, Ordering::Relaxed);
        let pool = pool(1, &["a.example.org"]).with_reply_seal(seal);
        let replies = Mutex::new(Vec::new());
        let stats = pool.run(
            8,
            (0..2u64).map(|seq| Datagram {
                peer: 0,
                seq,
                at: doc_time::Instant::from_millis(1),
                wire: fetch_wire("a.example.org", seq),
            }),
            &|r| replies.lock().unwrap().push(r.clone()),
        );
        assert_eq!((stats.replies, stats.errors), (1, 1));
        let mut replies = replies.lock().unwrap().clone();
        replies.sort_by_key(|r| r.seq);
        let (rec, _) = Record::decode(replies[0].wire.as_ref().expect("first sealed")).unwrap();
        assert_eq!(rec.seq, MAX_SEQ);
        let inner = CipherState::new(&key, iv)
            .open(rec.ctype, rec.epoch, rec.seq, &rec.payload)
            .unwrap();
        assert_eq!(CoapView::parse(&inner).unwrap().message_id, 0);
        assert_eq!(replies[1].wire, None, "second reply dropped");
    }

    #[test]
    fn single_and_multi_worker_agree_on_totals() {
        let names = ["x.example.org", "y.example.org"];
        let total = 200u64;
        let run = |workers| {
            let pool = pool(workers, &names);
            // Prime the cache single-threaded so the measured run has
            // no first-touch races; after that, totals are exact and
            // identical for every worker count.
            let mut buf = Vec::new();
            for (i, n) in names.iter().enumerate() {
                pool.serve(
                    &Datagram {
                        peer: 9,
                        seq: 1000 + i as u64,
                        at: doc_time::Instant::from_millis(0),
                        wire: fetch_wire(n, 1000 + i as u64),
                    },
                    &mut buf,
                );
            }
            let stats = pool.run(
                8,
                (0..total).map(|seq| Datagram {
                    peer: 0,
                    seq,
                    at: doc_time::Instant::from_millis(5), // single instant: no TTL churn
                    wire: fetch_wire(names[(seq % 2) as usize], seq),
                }),
                &|_| {},
            );
            (stats, pool.proxy.stats(), pool.server.stats())
        };
        let (s1, p1, sv1) = run(1);
        let (s4, p4, sv4) = run(4);
        assert_eq!(s1.processed, s4.processed);
        assert_eq!(s1.replies, s4.replies);
        assert_eq!(s1.errors, s4.errors);
        assert_eq!(p1.requests, p4.requests);
        assert_eq!(p1.cache_hits, p4.cache_hits);
        assert_eq!(p1.cache_hits, total as u32, "every measured request hits");
        assert_eq!(sv1.full_responses, sv4.full_responses);
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let pool = BufferPool::new();
        assert!(pool.is_empty());
        let mut buf = pool.take();
        assert!(buf.is_empty());
        buf.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let cap = buf.capacity();
        pool.put(buf);
        assert_eq!(pool.len(), 1);
        let again = pool.take();
        assert!(again.is_empty(), "recycled buffers come back cleared");
        assert_eq!(again.capacity(), cap, "…with their capacity intact");
        pool.put_batch((0..3).map(|_| vec![0u8; 16]));
        assert_eq!(pool.len(), 3);
    }

    fn quic_request_wire(
        keys: &doc_quic::packet::PacketKeys,
        pn: u64,
        plaintext: &[u8],
    ) -> Vec<u8> {
        use doc_quic::packet::{Header, Space};
        let mut wire = Vec::new();
        Header::encode_into(Space::OneRtt, [7, 7], pn, &mut wire);
        let header = wire.clone();
        keys.seal_into(pn, &header, plaintext, &mut wire).unwrap();
        wire
    }

    #[test]
    fn request_open_opens_batch_and_salvages_around_forgery() {
        use doc_quic::packet::PacketKeys;
        let secret = b"psk-material-client-random-bits";
        let keys = PacketKeys::derive(secret, "client write");
        let open = RequestOpen::new(PacketKeys::derive(secret, "client write"));

        let mk = |seq: u64| Datagram {
            peer: 0,
            seq,
            at: doc_time::Instant::from_millis(0),
            wire: quic_request_wire(&keys, seq, &fetch_wire("a.example.org", seq)),
        };
        // Clean batch: single batched pass, every wire becomes the
        // plaintext request.
        let mut batch: Vec<Datagram> = (0..8).map(mk).collect();
        assert_eq!(open.open_drain(&mut batch), 0);
        for d in &batch {
            assert_eq!(d.wire, fetch_wire("a.example.org", d.seq), "seq {}", d.seq);
        }
        // A forged tag and a truncated header inside the batch: the
        // per-packet fallback salvages the authentic packets, the bad
        // ones are cleared and counted.
        let mut batch: Vec<Datagram> = (0..6).map(mk).collect();
        let last = batch[3].wire.len() - 1;
        batch[3].wire[last] ^= 0xFF; // break the AEAD tag
        batch[5].wire.truncate(2); // not even a full header
        assert_eq!(open.open_drain(&mut batch), 2);
        for (i, d) in batch.iter().enumerate() {
            if i == 3 || i == 5 {
                assert!(d.wire.is_empty(), "seq {} dropped", d.seq);
            } else {
                assert_eq!(d.wire, fetch_wire("a.example.org", d.seq), "seq {}", d.seq);
            }
        }
    }

    /// End to end: QUIC-protected CoAP requests in, DTLS-sealed
    /// replies out, both legs batch-processed.
    #[test]
    fn pool_opens_protected_requests_before_serving() {
        use doc_quic::packet::PacketKeys;
        let secret = b"psk-material-client-random-bits";
        let keys = PacketKeys::derive(secret, "client write");
        let pool = pool(2, &["a.example.org"])
            .with_request_open(RequestOpen::new(PacketKeys::derive(secret, "client write")));
        let total = 60u64;
        let replies = Mutex::new(Vec::new());
        let stats = pool.run(
            16,
            (0..total).map(|seq| Datagram {
                peer: 0,
                seq,
                at: doc_time::Instant::from_millis(1),
                wire: if seq == 30 {
                    vec![0xAA; 5] // unparseable header → dropped
                } else {
                    quic_request_wire(&keys, seq, &fetch_wire("a.example.org", seq))
                },
            }),
            &|r| replies.lock().unwrap().push(r.clone()),
        );
        assert_eq!(stats.processed, total);
        assert_eq!(stats.replies, total - 1);
        assert_eq!(stats.errors, 1);
        for r in replies.lock().unwrap().iter() {
            if r.seq == 30 {
                assert!(r.wire.is_none());
            } else {
                let wire = r.wire.as_ref().expect("reply present");
                let v = CoapView::parse(wire).unwrap();
                assert_eq!(v.code, Code::CONTENT, "seq {}", r.seq);
                assert_eq!(v.message_id, r.seq as u16);
            }
        }
    }

    /// The wire-recycling loop: after a run with a [`BufferPool`]
    /// attached, the spent wires are back in the pool (cleared) for
    /// the producer to take.
    #[test]
    fn wire_recycling_returns_buffers_to_pool() {
        let recycle = Arc::new(BufferPool::new());
        let pool = pool(2, &["a.example.org"]).with_wire_recycling(Arc::clone(&recycle));
        let total = 50u64;
        let stats = pool.run(
            8,
            (0..total).map(|seq| Datagram {
                peer: 0,
                seq,
                at: doc_time::Instant::from_millis(1),
                wire: fetch_wire("a.example.org", seq),
            }),
            &|_| {},
        );
        assert_eq!(stats.replies, total);
        assert_eq!(
            recycle.len(),
            total as usize,
            "every wire buffer recycled exactly once"
        );
        assert!(recycle.take().is_empty(), "recycled wires come back empty");
    }
}

//! Multi-worker datagram front-end: N worker threads pulling request
//! datagrams straight from one shared source.
//!
//! The paper's evaluation is single-node and the whole protocol stack
//! is sans-IO, so scaling across cores is purely a front-end concern:
//! each worker pulls a drain of raw datagrams and runs the *existing*
//! borrowed-view path, wire in and wire out on every leg —
//! [`CoapProxy::serve_wire`] for the client leg and, on a miss or
//! revalidation, [`crate::proxy::ForwardRequest::encode_into`] →
//! [`DocServer::serve_wire`] → [`CoapProxy::serve_upstream_wire`] for
//! the origin leg, all on per-worker buffers — against state that is
//! lock-striped per shard ([`doc_coap::shard`]).
//! Nothing in the protocol logic knows it is being run concurrently,
//! and no per-peer state depends on which worker serves a datagram,
//! so any idle worker may take any datagram.
//!
//! * [`ProxyPool`] — N workers sharing one `Arc<CoapProxy>` and one
//!   `Arc<DocServer>`; each datagram is a DoC (CoAP) request, runs the
//!   full client → proxy → (origin, on a cache miss) → client
//!   exchange, optionally behind QUIC-lite request opening and DTLS
//!   reply sealing ([`RequestOpen`], [`ReplySeal`]), and the reply is
//!   handed to a caller-supplied sink as a *borrowed* [`Reply`] — the
//!   worker retains the reply buffer, so a steady-state cache hit
//!   allocates nothing (see `BENCH_proxy.json`'s `allocs_per_req`), and
//!   neither does a forward once the cache is full: the exchange's key
//!   buffer returns to the worker, and the stored reply reuses the
//!   evicted entry's buffer, growing it only for a longer reply.
//!
//! Where datagrams come from is the caller's choice: the throughput
//! harness (`doc-bench`) hands [`ProxyPool::run`] an iterator over a
//! replayed query mix, which the workers share behind one lock, and
//! [`ProxyPool::run_io`] serves a [`crate::io`] provider (`doc-netsim`
//! drains or a real UDP socket) on its calling thread. Either way each
//! serving thread pulls a drain, serves it and hands the replies out.

use crate::io::IoRun;
use crate::proxy::{CoapProxy, ProxyScratch, WireAction};
use crate::server::{DocServer, ServerScratch};
// The sync primitives come from `doc-check`, as in the proxy: outside
// a model execution they are passthroughs to `std::sync` (see
// `crates/check`).
use doc_check::sync::atomic::{AtomicU64, Ordering};
use doc_check::sync::{Arc, Mutex, MutexGuard};
use doc_crypto::ccm::{recycle, CcmScratch, SealRequest, LOCKSTEP_GROUP};
use doc_dtls::record::{CipherState, ContentType, RecordCrypto, CIPHERTEXT_OFFSET};
use doc_quic::packet::{Header, OpenScratch, PacketKeys, PacketOpen};
use std::sync::PoisonError;

/// A shared free-list of byte buffers — the allocation-recycling link
/// between a datagram source that must give each [`Datagram`] an
/// owned `wire` and the workers that are done with it. Workers return
/// a whole drain's buffers in one lock acquisition; the source
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
        let mut buf = self.free_list().pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Buffers currently pooled.
    pub fn len(&self) -> usize {
        self.free_list().len()
    }

    /// Whether the free-list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Return a batch of spent buffers under one lock acquisition.
    pub fn put_batch(&self, bufs: impl Iterator<Item = Vec<u8>>) {
        self.free_list().extend(bufs);
    }

    /// The locked free-list. A thread that panicked while holding it
    /// left a list of whole buffers, so poisoning is ignored.
    fn free_list(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.bufs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
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
    /// One entry per `run` worker, always zero: the pool has no
    /// stealing. Its only reader is the standalone benchmark
    /// (`docbench`), whose `pool.steals` metric sums it. Empty for
    /// `run_io`, so that a restarted pump allocates nothing, and for a
    /// default-constructed value.
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

    /// Seal every served reply in place: its plaintext wire becomes
    /// the full DTLS record wire, in the same buffer. Replies without
    /// a wire (malformed datagrams) stay as they are. A reply that
    /// cannot be sealed — its record sequence number is past
    /// [`doc_dtls::record::MAX_SEQ`], where the nonce would repeat —
    /// is dropped (`wire = None`) and so counted as an error.
    fn seal_replies(&self, replies: &mut [Reply], scratch: &mut SealScratch) {
        let SealScratch { ccm, records, reqs } = scratch;
        let served = replies.iter().filter(|r| r.wire.is_some()).count() as u64;
        let mut seq = self.seq.fetch_add(served, Ordering::Relaxed);
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

impl ParsedHeader {
    /// The header's bytes (`len` never exceeds the scratch: parsing
    /// rejects a longer header).
    fn header(&self) -> &[u8] {
        self.bytes.get(..self.len).unwrap_or_default()
    }
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
            let parsed = Header::decode(&d.wire).ok().and_then(|h| {
                let mut bytes = [0u8; HEADER_SCRATCH];
                let src = d.wire.get(..h.len)?;
                bytes.get_mut(..h.len)?.copy_from_slice(src);
                Some(ParsedHeader {
                    pn: h.pn,
                    len: h.len,
                    bytes,
                })
            });
            if parsed.is_none() {
                d.wire.clear();
                failed += 1;
            }
            headers.push(parsed);
        }
        // Phase 2: one batched open over the parseable packets.
        let mut packets = recycle(std::mem::take(opens));
        packets.reserve(batch.len());
        for (d, h) in batch.iter_mut().zip(headers.iter()) {
            if let Some(h) = h {
                packets.push(PacketOpen {
                    pn: h.pn,
                    header: h.header(),
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
                let ciphertext = o.buf.get(o.start..).unwrap_or_default();
                match self.keys.open(o.pn, o.header, ciphertext) {
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
    /// When set, `run`'s workers return spent `Datagram::wire` buffers
    /// here after each drain so the datagram source can reuse them.
    recycle: Option<Arc<BufferPool>>,
    /// The run state of `run_io` calls that have returned, for the
    /// next calls to take.
    io_runs: Mutex<Vec<IoRun>>,
}

/// The most datagrams a `run` worker pulls from the source per lock
/// acquisition — also the largest batch one seal/open pass covers
/// there (`run_io` drains are `recv_batch`-sized).
pub const MAX_DRAIN: usize = 128;

/// Initial capacity of a reply slab buffer: a cache-hit reply is
/// written piecewise, and starting at 128 bytes, where a typical DoC
/// reply ends up anyway, saves the 8 → 16 → 32 → 64 growth steps of
/// every slot's first drain.
const REPLY_BUF: usize = 128;

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
            io_runs: Mutex::new(Vec::new()),
        }
    }

    /// Protect the reply leg: every reply this pool emits becomes a
    /// DTLS ApplicationData record, sealed a drain at a time.
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
    /// datagram source of the closed loop takes them back with
    /// [`BufferPool::take`] instead of allocating. Only
    /// [`ProxyPool::run`] feeds it: [`ProxyPool::run_io`] hands spent
    /// datagrams back to its provider's receive slots instead.
    pub fn with_wire_recycling(mut self, pool: Arc<BufferPool>) -> Self {
        self.recycle = Some(pool);
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The spent `run_io` run states. A call that panicked while
    /// holding the lock left whole run states, so poisoning is ignored.
    pub(crate) fn spent_io_runs(&self) -> MutexGuard<'_, Vec<IoRun>> {
        self.io_runs.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// once both and the cache are warm neither a fresh cache hit nor a
    /// forward allocates (a stored reply longer than the slot's last
    /// one grows its buffer once). Returns whether a reply was
    /// produced.
    pub fn serve_wire(&self, d: &Datagram, scratch: &mut ServeScratch, out: &mut Vec<u8>) -> bool {
        out.clear();
        let now = d.at.as_millis();
        let ServeScratch { proxy, origin } = scratch;
        match self.proxy.serve_wire(&d.wire, now, proxy, out) {
            Ok(WireAction::Responded) => true,
            Ok(WireAction::Forward {
                request,
                exchange_id,
            }) => {
                // Encoded first: `request` borrows the proxy scratch
                // the origin's reply hands the exchange's key back to.
                origin.request.clear();
                request.encode_into(&mut origin.request);
                origin.exchange(self, d.peer, now, exchange_id, proxy, out)
            }
            Err(_) => false,
        }
    }

    /// Serve `datagrams` on the pool's worker threads and hand every
    /// reply to `on_reply` (called from worker threads; replies arrive
    /// in completion order, not submission order). The `Reply` is
    /// **borrowed**: the worker keeps ownership of the reply buffer and
    /// reuses it on the next drain, so a sink that only inspects or
    /// copies out costs the pool nothing.
    ///
    /// The iterator is the workers' shared queue: each worker locks it,
    /// pulls a drain of up to `max_drain` datagrams (clamped to
    /// `1..=`[`MAX_DRAIN`]), unlocks, serves the drain and pulls again,
    /// until a pull comes back empty. The iterator therefore runs on
    /// the workers, one pull at a time, and in-flight work is bounded
    /// by one drain per worker. The calling thread only waits for the
    /// workers. A panic in a worker (including in `on_reply`) or in the
    /// iterator empties the source, so the other workers stop at their
    /// next pull, and propagates out of `run`.
    pub fn run<I>(
        &self,
        max_drain: usize,
        datagrams: I,
        on_reply: &(dyn Fn(&Reply) + Sync),
    ) -> PoolRunStats
    where
        I: IntoIterator<Item = Datagram>,
        I::IntoIter: Send,
    {
        let source = &Mutex::new(Some(datagrams.into_iter()));
        let grab = max_drain.clamp(1, MAX_DRAIN);
        let mut stats = PoolRunStats {
            steals_per_worker: vec![0; self.workers],
            ..PoolRunStats::default()
        };
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.workers)
                .map(|worker| scope.spawn(move || self.work(worker, source, grab, on_reply)))
                .collect();
            for w in workers {
                let tally = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                stats.processed += tally.processed;
                stats.replies += tally.replies;
                stats.errors += tally.errors;
            }
        });
        stats
    }

    /// One worker thread: pull drains of up to `grab` datagrams from
    /// `source` and serve them until a pull comes back empty, returning
    /// this worker's tally. The tally stays local and is summed once at
    /// join, so serving touches no shared counter per datagram.
    fn work<S: Iterator<Item = Datagram>>(
        &self,
        worker: usize,
        source: &Mutex<Option<S>>,
        grab: usize,
        on_reply: &(dyn Fn(&Reply) + Sync),
    ) -> PoolRunStats {
        let _stop = StopSource(source);
        let mut batch: Vec<Datagram> = Vec::with_capacity(grab);
        let mut scratch = WorkerScratch::default();
        scratch.reserve(grab);
        let mut tally = PoolRunStats::default();
        loop {
            // A poisoned lock means a pull panicked: that pull is empty.
            if let Ok(Some(it)) = source.lock().as_deref_mut() {
                batch.extend(it.by_ref().take(grab));
            }
            if batch.is_empty() {
                return tally;
            }
            let replies = self.serve_batch(worker, &mut batch, &mut scratch);
            tally.count(replies);
            replies.iter().for_each(on_reply);
            // Spent request wires go back to the datagram source.
            if let Some(recycle) = &self.recycle {
                recycle.put_batch(batch.drain(..).map(|d| d.wire));
            }
            batch.clear();
        }
    }

    /// Serve one drain on the calling thread — the per-drain step of
    /// both [`ProxyPool::run`]'s workers and [`ProxyPool::run_io`]:
    /// open the drain if the request leg is protected, serve every
    /// datagram into the reply slab, then batch-seal the slab if the
    /// reply leg is protected. Returns the drain's replies, one per
    /// datagram in drain order, borrowed from the slab; a malformed
    /// datagram's reply has no wire. `batch` is left in place (opened
    /// in place on a protected leg) for the caller to dispose of.
    pub(crate) fn serve_batch<'s>(
        &self,
        worker: usize,
        batch: &mut [Datagram],
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
        // Never short: the slab was just grown to the drain.
        let replies = replies.get_mut(..batch.len()).unwrap_or_default();
        for (d, r) in batch.iter().zip(replies.iter_mut()) {
            r.peer = d.peer;
            r.seq = d.seq;
            let out = r.wire.get_or_insert_with(|| Vec::with_capacity(REPLY_BUF));
            if !self.serve_wire(d, serve, out) {
                r.wire = None;
            }
        }
        if let Some(seal) = &self.seal {
            seal.seal_replies(replies, seal_scratch);
        }
        replies
    }
}

/// Empties `run`'s datagram source when its worker stops — the source
/// ran dry, or the iterator or the sink panicked — so every other
/// worker stops at its next pull and the scope can join and propagate
/// the panic. It drops the iterator even if the lock is poisoned.
struct StopSource<'a, S>(&'a Mutex<Option<S>>);

impl<S> Drop for StopSource<'_, S> {
    fn drop(&mut self) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Per-thread reusable scratch state: the reply slab, the serve
/// buffers and the protected legs' crypto buffers. Everything here is
/// grown during warmup and reused for the rest of the run; a leg that
/// is not protected leaves its buffers empty, holding no heap.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    replies: Vec<Reply>,
    serve: ServeScratch,
    open: OpenDrainScratch,
    seal: SealScratch,
}

impl WorkerScratch {
    /// Make room for a drain of `drain` replies in the slab, so it
    /// holds them without growing (the replies of earlier drains stay
    /// in place).
    pub(crate) fn reserve(&mut self, drain: usize) {
        self.replies
            .reserve(drain.saturating_sub(self.replies.len()));
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
    /// Run a forwarded exchange, its request wire in `self.request`,
    /// through the origin and back into the proxy, writing the client
    /// reply into `out`. Returns whether a reply was produced.
    fn exchange(
        &mut self,
        pool: &ProxyPool,
        peer: u64,
        now: u64,
        exchange_id: u64,
        proxy: &mut ProxyScratch,
        out: &mut Vec<u8>,
    ) -> bool {
        let served =
            pool.server
                .serve_wire(peer, &self.request, now, &mut self.server, &mut self.reply);
        served.is_ok()
            && pool
                .proxy
                .serve_upstream_wire(exchange_id, &self.reply, now, proxy, out)
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
    /// join), not leave `run` waiting on it.
    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let pool = pool(1, &["a.example.org"]);
        // Far more datagrams than one drain, so the source is still
        // full when the sole worker panics.
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
    /// same way a panicking worker does — the iterator runs on the
    /// worker that pulls, and its panic poisons the source's lock.
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

    /// A worker that unwinds empties the source, so the other workers
    /// stop at their next pull even when the source never ends.
    #[test]
    fn worker_panic_stops_an_endless_source() {
        let pool = pool(4, &["a.example.org"]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(
                8,
                (0u64..).map(|seq| Datagram {
                    peer: 0,
                    seq,
                    at: doc_time::Instant::from_millis(0),
                    wire: fetch_wire("a.example.org", seq),
                }),
                &|r| {
                    if r.seq == 100 {
                        panic!("reply sink failure");
                    }
                },
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
        pool.put_batch(std::iter::once(buf));
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
    /// the datagram source to take.
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

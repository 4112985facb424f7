//! Loss recovery and congestion control for the QUIC-lite transport:
//! an RFC 6298-style [`RttEstimator`] feeding a pluggable
//! [`CongestionController`] (the s2n-quic `recovery/` split, scaled to
//! a simulated transport).
//!
//! Three controllers ship:
//!
//! * [`FixedRto`] — the original fixed 300 ms doubling RTO with an
//!   unlimited window. Kept byte-exact as the conformance oracle that
//!   `tests/quic_conformance.rs` pins against `doc-models::quic`.
//! * [`Cubic`] — RFC 8312-shaped cubic window growth with hybrid slow
//!   start (delay-increase exit) and β = 0.7 multiplicative decrease.
//! * [`BbrLite`] — a reduced BBR: bandwidth/min-RTT probing state
//!   machine (Startup → Drain → ProbeBw) sizing the window to a gain
//!   multiple of the estimated bandwidth-delay product.

use crate::conn::{ACK_DELAY, INITIAL_RTO};
use doc_time::{Instant, Millis};

/// Nominal maximum datagram size used as the congestion-window unit.
/// QUIC-lite datagrams are smaller (≤ ~1.1 kB), so gating sends on
/// whole-MSS quota is conservative.
pub const MSS: usize = 1200;
/// Initial congestion window (RFC 9002's 10 × max datagram size).
pub const INITIAL_WINDOW: usize = 10 * MSS;
/// Floor for every adaptive controller's window.
pub const MIN_WINDOW: usize = 2 * MSS;
/// Timer granularity floor for the RTO variance term.
pub const GRANULARITY: Millis = Millis::from_millis(1);
/// How long a min-RTT observation stays valid before the window
/// forgets it (route changes re-probe within this horizon).
pub const MIN_RTT_WINDOW: Millis = Millis::from_millis(10_000);

/// SRTT/RTTVAR smoothing per RFC 6298 plus a windowed min-RTT filter.
///
/// Samples are fed only from packets that were never retransmitted
/// (Karn's algorithm — the `Connection` enforces this).
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    srtt: Option<Millis>,
    rttvar: Millis,
    min_rtt: Option<(Instant, Millis)>,
}

impl RttEstimator {
    /// A fresh estimator with no samples.
    pub fn new() -> RttEstimator {
        RttEstimator::default()
    }

    /// Feed one RTT sample taken at `now`.
    pub fn on_sample(&mut self, now: Instant, sample: Millis) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = Millis::from_millis(sample.as_millis() / 2);
            }
            Some(srtt) => {
                let s = sample.as_millis();
                let delta = srtt.as_millis().abs_diff(s);
                self.rttvar = Millis::from_millis((3 * self.rttvar.as_millis() + delta) / 4);
                self.srtt = Some(Millis::from_millis((7 * srtt.as_millis() + s) / 8));
            }
        }
        match self.min_rtt {
            Some((at, min))
                if sample > min && now.saturating_duration_since(at) < MIN_RTT_WINDOW => {}
            _ => self.min_rtt = Some((now, sample)),
        }
    }

    /// The smoothed RTT, if any sample has been observed.
    pub fn srtt(&self) -> Option<Millis> {
        self.srtt
    }

    /// The smoothed RTT variance.
    pub fn rttvar(&self) -> Millis {
        self.rttvar
    }

    /// The windowed minimum RTT, if any sample has been observed.
    pub fn min_rtt(&self) -> Option<Millis> {
        self.min_rtt.map(|(_, min)| min)
    }

    /// Probe timeout: `SRTT + max(4·RTTVAR, granularity) + max ACK
    /// delay`, or the conservative handshake RTO before any sample.
    pub fn pto(&self) -> Millis {
        match self.srtt {
            None => INITIAL_RTO,
            Some(srtt) => srtt + self.rttvar.saturating_mul(4).max(GRANULARITY) + ACK_DELAY,
        }
    }
}

/// A pluggable congestion controller driven by the `Connection`'s
/// sans-IO event loop.
pub trait CongestionController: core::fmt::Debug + Send {
    /// A tracked (retransmittable) packet of `bytes` left at `now`.
    fn on_packet_sent(&mut self, now: Instant, bytes: usize);
    /// A tracked packet of `bytes` was acknowledged at `now`.
    fn on_ack(&mut self, now: Instant, bytes: usize, rtt: &RttEstimator);
    /// A tracked packet of `bytes` was declared lost at `now`.
    fn on_loss(&mut self, now: Instant, bytes: usize);
    /// Current congestion window in bytes.
    fn window(&self) -> usize;
    /// Retransmission timeout for a freshly sent packet.
    fn rto(&self, rtt: &RttEstimator) -> Millis {
        rtt.pto()
    }
    /// Bytes the connection may still put in flight — the pacing-aware
    /// send quota the driver consults before building packets.
    fn send_quota(&self, bytes_in_flight: usize) -> usize {
        self.window().saturating_sub(bytes_in_flight)
    }
    /// Stable identifier used in benchmark rows and logs.
    fn name(&self) -> &'static str;
}

/// Selects a [`CongestionController`] implementation when constructing
/// a `Connection`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerKind {
    /// Fixed 300 ms doubling RTO, unlimited window (the oracle).
    FixedRto,
    /// CUBIC with hybrid slow start.
    Cubic,
    /// Reduced BBR bandwidth/min-RTT prober.
    BbrLite,
}

impl ControllerKind {
    /// Instantiate the selected controller.
    pub fn build(self) -> Box<dyn CongestionController> {
        match self {
            ControllerKind::FixedRto => Box::new(FixedRto),
            ControllerKind::Cubic => Box::new(Cubic::new()),
            ControllerKind::BbrLite => Box::new(BbrLite::new()),
        }
    }

    /// The stable row identifier (`fixed_rto` / `cubic` / `bbr_lite`).
    pub fn name(self) -> &'static str {
        match self {
            ControllerKind::FixedRto => "fixed_rto",
            ControllerKind::Cubic => "cubic",
            ControllerKind::BbrLite => "bbr_lite",
        }
    }

    /// All controllers, in oracle-first order.
    pub const ALL: [ControllerKind; 3] = [
        ControllerKind::FixedRto,
        ControllerKind::Cubic,
        ControllerKind::BbrLite,
    ];
}

/// The original QUIC-lite recovery behavior: no window, no RTT
/// adaptation, a fixed [`INITIAL_RTO`] that the connection doubles per
/// retry. Every byte it emits is identical to the pre-recovery
/// transport, which is what the conformance suite pins.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedRto;

impl CongestionController for FixedRto {
    fn on_packet_sent(&mut self, _now: Instant, _bytes: usize) {}
    fn on_ack(&mut self, _now: Instant, _bytes: usize, _rtt: &RttEstimator) {}
    fn on_loss(&mut self, _now: Instant, _bytes: usize) {}
    fn window(&self) -> usize {
        usize::MAX
    }
    fn rto(&self, _rtt: &RttEstimator) -> Millis {
        INITIAL_RTO
    }
    fn name(&self) -> &'static str {
        "fixed_rto"
    }
}

/// CUBIC constants (RFC 8312): scaling factor and multiplicative
/// decrease.
const CUBIC_C: f64 = 0.4;
const CUBIC_BETA: f64 = 0.7;
/// Hybrid slow start: consecutive delay-increase ACKs before exiting.
const HYSTART_ACKS: u32 = 8;

/// RFC 8312-shaped CUBIC with hybrid slow start.
///
/// Window growth between loss events is monotone non-decreasing (the
/// cubic target is only ever applied as a non-negative increment);
/// every loss applies the β = 0.7 multiplicative decrease down to
/// [`MIN_WINDOW`].
#[derive(Debug)]
pub struct Cubic {
    cwnd: f64,
    ssthresh: f64,
    w_max: f64,
    k: f64,
    epoch_start: Option<Instant>,
    hystart_streak: u32,
}

impl Cubic {
    /// A fresh controller in slow start at [`INITIAL_WINDOW`].
    pub fn new() -> Cubic {
        Cubic {
            cwnd: INITIAL_WINDOW as f64,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            k: 0.0,
            epoch_start: None,
            hystart_streak: 0,
        }
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl Default for Cubic {
    fn default() -> Cubic {
        Cubic::new()
    }
}

impl CongestionController for Cubic {
    fn on_packet_sent(&mut self, _now: Instant, _bytes: usize) {}

    fn on_ack(&mut self, now: Instant, bytes: usize, rtt: &RttEstimator) {
        if self.in_slow_start() {
            self.cwnd += bytes as f64;
            // Hybrid slow start, delay-increase flavor: a sustained
            // streak of SRTT samples well above the min-RTT floor means
            // the queue is building — exit before the loss.
            if let (Some(srtt), Some(min)) = (rtt.srtt(), rtt.min_rtt()) {
                let threshold = (min.as_millis() / 8).max(4);
                if srtt.as_millis() > min.as_millis() + threshold {
                    self.hystart_streak += 1;
                    if self.hystart_streak >= HYSTART_ACKS {
                        self.ssthresh = self.cwnd;
                    }
                } else {
                    self.hystart_streak = 0;
                }
            }
            return;
        }
        // Congestion avoidance: grow toward the cubic target
        // W(t) = C·(t − K)³ + W_max (window in MSS units, t in s).
        let epoch = *self.epoch_start.get_or_insert(now);
        let t = now.saturating_duration_since(epoch).as_millis() as f64 / 1000.0;
        let w_max_mss = self.w_max / MSS as f64;
        let target_mss = CUBIC_C * (t - self.k).powi(3) + w_max_mss;
        let target = (target_mss * MSS as f64).max(MIN_WINDOW as f64);
        let delta = (target - self.cwnd).max(0.0);
        // Per-ACK portion of the distance to target, capped at one MSS
        // so bursts of ACKs cannot overshoot.
        self.cwnd += (delta * bytes as f64 / self.cwnd).min(MSS as f64);
    }

    fn on_loss(&mut self, _now: Instant, _bytes: usize) {
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * CUBIC_BETA).max(MIN_WINDOW as f64);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
        let w_max_mss = self.w_max / MSS as f64;
        self.k = (w_max_mss * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
        self.hystart_streak = 0;
    }

    fn window(&self) -> usize {
        self.cwnd as usize
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

/// BBR-lite probing phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbrMode {
    /// Exponential bandwidth search (gain 2.885) until the bottleneck
    /// estimate stops growing.
    Startup,
    /// One interval below unity gain to drain the startup queue.
    Drain,
    /// Steady state: cycle gains around 1.0 to re-probe for bandwidth.
    ProbeBw,
}

const BBR_STARTUP_GAIN: f64 = 2.885;
const BBR_DRAIN_GAIN: f64 = 0.75;
const BBR_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Startup exits after this many intervals without ≥ 25 % bw growth.
const BBR_FULL_BW_ROUNDS: u32 = 3;

/// A reduced BBR: estimates bottleneck bandwidth as the windowed max
/// of per-interval delivery rates, pairs it with the estimator's
/// min-RTT to form a BDP, and walks the Startup → Drain → ProbeBw
/// state machine to size the window. Loss feeds a soft in-flight cap
/// (BBR is rate-based, not loss-backoff-based).
#[derive(Debug)]
pub struct BbrLite {
    mode: BbrMode,
    bw_window: [f64; 8],
    bw_idx: usize,
    interval_start: Option<Instant>,
    interval_bytes: usize,
    full_bw: f64,
    full_bw_rounds: u32,
    cycle_idx: usize,
    inflight_cap: usize,
    /// Last min-RTT observed via the estimator (ms), for the BDP.
    min_rtt_ms: f64,
}

impl BbrLite {
    /// A fresh controller in Startup.
    pub fn new() -> BbrLite {
        BbrLite {
            mode: BbrMode::Startup,
            bw_window: [0.0; 8],
            bw_idx: 0,
            interval_start: None,
            interval_bytes: 0,
            full_bw: 0.0,
            full_bw_rounds: 0,
            cycle_idx: 0,
            inflight_cap: usize::MAX,
            min_rtt_ms: 5.0,
        }
    }

    /// Windowed-max bottleneck bandwidth estimate (bytes per ms).
    fn btl_bw(&self) -> f64 {
        self.bw_window.iter().fold(0.0, |a, &b| a.max(b))
    }

    fn gain(&self) -> f64 {
        match self.mode {
            BbrMode::Startup => BBR_STARTUP_GAIN,
            BbrMode::Drain => BBR_DRAIN_GAIN,
            BbrMode::ProbeBw => BBR_CYCLE[self.cycle_idx % BBR_CYCLE.len()],
        }
    }

    fn advance_interval(&mut self, rate: f64) {
        self.bw_window[self.bw_idx % self.bw_window.len()] = rate;
        self.bw_idx += 1;
        self.inflight_cap = usize::MAX;
        let bw = self.btl_bw();
        match self.mode {
            BbrMode::Startup => {
                if bw >= self.full_bw * 1.25 || self.full_bw == 0.0 {
                    self.full_bw = bw;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= BBR_FULL_BW_ROUNDS {
                        self.mode = BbrMode::Drain;
                    }
                }
            }
            BbrMode::Drain => self.mode = BbrMode::ProbeBw,
            BbrMode::ProbeBw => self.cycle_idx = self.cycle_idx.wrapping_add(1),
        }
    }
}

impl Default for BbrLite {
    fn default() -> BbrLite {
        BbrLite::new()
    }
}

impl CongestionController for BbrLite {
    fn on_packet_sent(&mut self, _now: Instant, _bytes: usize) {}

    fn on_ack(&mut self, now: Instant, bytes: usize, rtt: &RttEstimator) {
        self.interval_bytes += bytes;
        let start = *self.interval_start.get_or_insert(now);
        let min_rtt = rtt.min_rtt().unwrap_or(Millis::from_millis(5));
        self.min_rtt_ms = (min_rtt.as_millis() as f64).max(1.0);
        let interval = min_rtt.max(Millis::from_millis(5));
        let elapsed = now.saturating_duration_since(start);
        if elapsed >= interval {
            let rate = self.interval_bytes as f64 / elapsed.as_millis().max(1) as f64;
            self.interval_bytes = 0;
            self.interval_start = Some(now);
            self.advance_interval(rate);
        }
    }

    fn on_loss(&mut self, _now: Instant, _bytes: usize) {
        // Soft reaction: cap in-flight below the current window until
        // the next delivery-rate interval completes.
        self.inflight_cap = (self.window().saturating_mul(7) / 8).max(2 * MSS);
    }

    fn window(&self) -> usize {
        let bw = self.btl_bw();
        let base = if bw == 0.0 {
            // No delivery-rate estimate yet: run on the initial window
            // scaled by the phase gain.
            (INITIAL_WINDOW as f64 * self.gain()) as usize
        } else {
            let bdp = bw * self.min_rtt_ms;
            ((bdp * self.gain()) as usize).max(MIN_WINDOW)
        };
        base.clamp(MIN_WINDOW, self.inflight_cap.max(MIN_WINDOW))
    }

    fn name(&self) -> &'static str {
        "bbr_lite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Millis {
        Millis::from_millis(v)
    }
    fn at(v: u64) -> Instant {
        Instant::from_millis(v)
    }

    #[test]
    fn rtt_first_sample_initializes_per_rfc6298() {
        let mut rtt = RttEstimator::new();
        assert_eq!(rtt.srtt(), None);
        assert_eq!(rtt.pto(), INITIAL_RTO);
        rtt.on_sample(at(0), ms(40));
        assert_eq!(rtt.srtt(), Some(ms(40)));
        assert_eq!(rtt.rttvar(), ms(20));
        assert_eq!(rtt.min_rtt(), Some(ms(40)));
        assert_eq!(rtt.pto(), ms(40) + ms(80) + ACK_DELAY);
    }

    #[test]
    fn rtt_min_window_expires() {
        let mut rtt = RttEstimator::new();
        rtt.on_sample(at(0), ms(10));
        rtt.on_sample(at(100), ms(50));
        assert_eq!(rtt.min_rtt(), Some(ms(10)));
        // Past the window, a larger sample replaces the stale min.
        rtt.on_sample(at(20_000), ms(50));
        assert_eq!(rtt.min_rtt(), Some(ms(50)));
    }

    #[test]
    fn fixed_rto_is_the_oracle() {
        let c = FixedRto;
        let mut rtt = RttEstimator::new();
        rtt.on_sample(at(0), ms(5));
        assert_eq!(c.rto(&rtt), INITIAL_RTO);
        assert_eq!(c.window(), usize::MAX);
        assert_eq!(c.send_quota(1 << 40), usize::MAX - (1 << 40));
    }

    #[test]
    fn cubic_slow_start_doubles_and_loss_backs_off() {
        let mut c = Cubic::new();
        let rtt = RttEstimator::new();
        let w0 = c.window();
        c.on_ack(at(10), MSS, &rtt);
        assert_eq!(c.window(), w0 + MSS);
        let before = c.window();
        c.on_loss(at(20), MSS);
        let after = c.window();
        assert!(after < before);
        assert!(after >= MIN_WINDOW);
        assert_eq!(after, ((before as f64) * CUBIC_BETA) as usize);
    }

    #[test]
    fn cubic_growth_is_monotone_after_loss_epoch() {
        let mut c = Cubic::new();
        let mut rtt = RttEstimator::new();
        rtt.on_sample(at(0), ms(20));
        c.on_loss(at(0), MSS);
        let mut last = c.window();
        for i in 1..200u64 {
            c.on_ack(at(i * 20), MSS, &rtt);
            assert!(c.window() >= last, "cubic window shrank without loss");
            last = c.window();
        }
        assert!(last > MIN_WINDOW, "cubic window never grew");
    }

    #[test]
    fn bbr_walks_startup_drain_probe() {
        let mut b = BbrLite::new();
        let mut rtt = RttEstimator::new();
        rtt.on_sample(at(0), ms(10));
        assert_eq!(b.mode, BbrMode::Startup);
        // Constant delivery rate: startup detects the plateau and
        // drains into ProbeBw.
        for i in 0..400u64 {
            b.on_ack(at(i * 2), MSS, &rtt);
        }
        assert_eq!(b.mode, BbrMode::ProbeBw);
        assert!(b.btl_bw() > 0.0);
        assert!(b.window() >= MIN_WINDOW);
    }

    #[test]
    fn bbr_loss_caps_inflight_until_next_interval() {
        let mut b = BbrLite::new();
        let w0 = b.window();
        b.on_loss(at(0), MSS);
        assert!(b.window() <= w0);
        assert!(b.window() >= MIN_WINDOW);
    }

    #[test]
    fn controller_kinds_build_their_names() {
        for kind in ControllerKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }
}

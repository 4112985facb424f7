//! Sliding anti-replay window, shared by the DTLS record layer (RFC
//! 6347 §4.1.2.6, record sequence numbers) and OSCORE (RFC 8613 §7.4,
//! recipient Partial IVs).
//!
//! Both RFCs update the window only once a message has authenticated:
//! a caller opens first and calls [`ReplayWindow::check_and_update`]
//! after, so a forged far-future number never slides the window past
//! the genuine traffic.
//!
//! The paper notes "we increase … the OSCORE replay window size" for
//! long experiment runs; the window size here is configurable for the
//! same reason.

/// Which of the last `bits` sequence numbers have been seen, up to the
/// highest one accepted.
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    window: u128,
    highest: u64,
    bits: u32,
    initialized: bool,
}

impl ReplayWindow {
    /// A window covering `bits` sequence numbers, clamped to 1..=128.
    pub fn new(bits: u32) -> Self {
        ReplayWindow {
            window: 0,
            highest: 0,
            bits: bits.clamp(1, 128),
            initialized: false,
        }
    }

    /// Check whether `seq` is fresh and mark it seen. Returns `false`
    /// for replays and for numbers older than the window. The first
    /// number is accepted whatever its value.
    pub fn check_and_update(&mut self, seq: u64) -> bool {
        if !self.initialized {
            self.initialized = true;
            self.highest = seq;
            self.window = 1;
            return true;
        }
        if seq > self.highest {
            let shift = seq - self.highest;
            if shift >= self.bits as u64 {
                self.window = 1;
            } else {
                self.window = (self.window << shift) | 1;
            }
            self.highest = seq;
            true
        } else {
            let offset = self.highest - seq;
            if offset >= self.bits as u64 {
                return false; // too old
            }
            let mask = 1u128 << offset;
            if self.window & mask != 0 {
                return false; // replay
            }
            self.window |= mask;
            true
        }
    }

    /// Highest sequence number accepted so far.
    pub fn highest(&self) -> u64 {
        self.highest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_window_basics() {
        let mut w = ReplayWindow::new(64);
        assert!(w.check_and_update(5));
        assert!(!w.check_and_update(5)); // replay
        assert!(w.check_and_update(6));
        assert!(w.check_and_update(4)); // in-window, unseen
        assert!(!w.check_and_update(4)); // now a replay
        assert_eq!(w.highest(), 6);
    }

    #[test]
    fn replay_window_too_old() {
        let mut w = ReplayWindow::new(8);
        assert!(w.check_and_update(100));
        assert!(!w.check_and_update(92)); // 8 behind, outside window
        assert!(w.check_and_update(93)); // 7 behind, inside
    }

    #[test]
    fn replay_window_big_jump() {
        let mut w = ReplayWindow::new(64);
        assert!(w.check_and_update(1));
        assert!(w.check_and_update(1000));
        assert!(!w.check_and_update(1000));
        assert!(!w.check_and_update(1)); // far outside the shifted window
        assert!(w.check_and_update(999));
    }

    #[test]
    fn out_of_order_within_window() {
        let mut w = ReplayWindow::new(64);
        for seq in [10u64, 8, 9, 12, 11, 7] {
            assert!(w.check_and_update(seq), "seq {seq} should be fresh");
        }
        for seq in [10u64, 8, 9, 12, 11, 7] {
            assert!(!w.check_and_update(seq), "seq {seq} should be replay");
        }
    }

    /// `bits` is clamped to 1..=128: a 0-bit window acts as a 1-bit
    /// one (only numbers above the highest are fresh), and a 200-bit
    /// one reaches back 127 numbers, not 199, without overflowing its
    /// 128-bit mask.
    #[test]
    fn replay_window_bits_are_clamped() {
        let mut w = ReplayWindow::new(0);
        assert!(w.check_and_update(10));
        assert!(!w.check_and_update(10)); // offset 0 < 1: replay
        assert!(!w.check_and_update(9)); // offset 1 == bits: too old
        assert!(w.check_and_update(11));

        let mut w = ReplayWindow::new(200);
        assert!(w.check_and_update(1000));
        assert!(w.check_and_update(1000 - 127)); // inside 128
        assert!(!w.check_and_update(1000 - 128)); // offset == 128: too old
    }

    /// A 128-bit window keeps its history across a shift of 127 (the
    /// old highest lands in the top bit) and resets it at a shift of
    /// 128, the whole width, instead of overflowing the shift.
    #[test]
    fn replay_window_full_width_shifts() {
        let mut w = ReplayWindow::new(128);
        assert!(w.check_and_update(0));
        assert!(w.check_and_update(127));
        assert!(!w.check_and_update(0)); // kept: offset 127, still marked
        assert!(w.check_and_update(1)); // offset 126, unseen

        let mut w = ReplayWindow::new(128);
        assert!(w.check_and_update(0));
        assert!(w.check_and_update(128));
        assert!(!w.check_and_update(0)); // offset 128 == bits: too old
        assert!(w.check_and_update(1)); // offset 127: history reset, unseen
        assert!(!w.check_and_update(1));
    }

    /// The first number is accepted whatever its value, and the window
    /// is anchored there.
    #[test]
    fn replay_window_first_number_is_accepted() {
        for first in [0, 1, 1 << 47, u64::MAX] {
            let mut w = ReplayWindow::new(64);
            assert!(w.check_and_update(first), "first {first}");
            assert_eq!(w.highest(), first);
            assert!(!w.check_and_update(first), "replay of {first}");
        }
    }
}

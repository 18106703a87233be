//! Lane-parallel (bit-sliced) helpers for evaluating a block of codewords
//! at once.
//!
//! The bit-sliced Monte-Carlo kernel packs the same bit position of up to
//! 256 sampled dies into one [`W256`] lane, so the SECDED / P-ECC decision
//! "does this word hold two or more observable errors?" must be answered
//! for all dies with bitwise logic instead of per-die `count_ones` calls.
//! [`LaneCounter`] is the classic carry-save (ripple-carry) popcount
//! saturating at two: after feeding every per-column error lane through
//! [`LaneCounter::add`], bit `j` of [`LaneCounter::at_least_two`] answers
//! the SECDED correction-radius question for die `j`.

use faultmit_memsim::W256;

/// A saturating-at-two carry-save counter over [`W256::LANES`] parallel
/// lanes.
///
/// Feeding `n` lanes costs `2n` lane-wide bitwise ops total — the XOR-fold
/// that lets the block kernels compute every die's syndrome weight at once.
///
/// # Example
///
/// ```
/// use faultmit_ecc::LaneCounter;
/// use faultmit_memsim::W256;
///
/// let mut counter = LaneCounter::new();
/// counter.add(W256([0b1011, 0, 0, 1])); // dies 0, 1, 3, 192 see an error
/// counter.add(W256([0b0011, 0, 0, 0])); // dies 0, 1 see another error
/// assert_eq!(counter.at_least_one(), W256([0b1011, 0, 0, 1]));
/// assert_eq!(counter.at_least_two(), W256([0b0011, 0, 0, 0])); // hit twice
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounter {
    ones: W256,
    twos: W256,
}

impl LaneCounter {
    /// A counter with every lane at zero.
    #[must_use]
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one error lane: bit `j` of `lane` increments die `j`'s count.
    #[inline]
    pub fn add(&mut self, lane: W256) {
        self.twos |= self.ones & lane;
        self.ones ^= lane;
    }

    /// Lanes whose count is at least one.
    #[must_use]
    #[inline]
    pub fn at_least_one(&self) -> W256 {
        self.ones | self.twos
    }

    /// Lanes whose count is at least two — for SECDED, the dies whose word
    /// exceeded the single-error correction radius.
    #[must_use]
    #[inline]
    pub fn at_least_two(&self) -> W256 {
        self.twos
    }

    /// Lanes whose count is exactly one — the dies SECDED corrects.
    #[must_use]
    #[inline]
    pub fn exactly_one(&self) -> W256 {
        self.ones & !self.twos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_matches_scalar_popcount_per_die() {
        // Feed 7 pseudo-random lanes with per-word fills, so every W256
        // word participates, and check every die against a scalar per-die
        // count.
        let lanes: Vec<W256> = (0..7u64)
            .map(|i| {
                W256([
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17),
                    i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(31),
                    i.wrapping_mul(0x1656_67B1_9E37_79F9).rotate_left(7),
                    i.wrapping_mul(0xD6E8_FEB8_6659_FD93).rotate_left(43),
                ])
            })
            .collect();
        let mut counter = LaneCounter::new();
        for &lane in &lanes {
            counter.add(lane);
        }
        for die in 0..W256::LANES {
            let count: u32 = lanes.iter().map(|lane| lane.bit(die) as u32).sum();
            assert_eq!(
                counter.at_least_one().bit(die) == 1,
                count >= 1,
                "die {die}"
            );
            assert_eq!(
                counter.at_least_two().bit(die) == 1,
                count >= 2,
                "die {die}"
            );
            assert_eq!(counter.exactly_one().bit(die) == 1, count == 1, "die {die}");
        }
    }

    #[test]
    fn empty_counter_reports_nothing() {
        let counter = LaneCounter::new();
        assert!(counter.at_least_one().is_zero());
        assert!(counter.at_least_two().is_zero());
        assert!(counter.exactly_one().is_zero());
    }

    #[test]
    fn saturation_holds_beyond_two() {
        // One die per backing word, so saturation is checked on each word.
        let lane = W256::lane_bit(0) | W256::lane_bit(64) | W256::lane_bit(255);
        let mut counter = LaneCounter::new();
        for _ in 0..5 {
            counter.add(lane);
        }
        assert_eq!(counter.at_least_two(), lane);
        assert_eq!(counter.at_least_one(), lane);
        assert!(counter.exactly_one().is_zero());
    }
}

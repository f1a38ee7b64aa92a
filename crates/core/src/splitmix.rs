//! SplitMix64: the one seeded 64-bit stream the workspace draws from.
//!
//! Chaos injection sites, serve retry jitter and the synthetic corpus
//! generator all need cheap, reproducible pseudo-randomness with no
//! shared state. SplitMix64 (Steele, Lea and Flood) is a Weyl sequence
//! pushed through a 64-bit finalizer: each step adds the golden-ratio
//! gamma to the state and mixes the sum.

/// A SplitMix64 stream. The state is public so a caller can seed it
/// directly and keep it in its own structs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Advance the stream one step and return the mixed output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A stateless draw keyed by `x`: the first output of a stream seeded
/// at `x`. Equal keys always give equal draws.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    SplitMix64(x).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_outputs() {
        // The first outputs of the reference implementation seeded at
        // zero.
        let mut s = SplitMix64(0);
        assert_eq!(s.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(s.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(s.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn stateless_draw_is_the_first_stream_output() {
        for x in [0, 1, 0xC1A05, u64::MAX] {
            assert_eq!(splitmix64(x), SplitMix64(x).next_u64());
        }
    }
}

//! Fault primitives: bit flips and where to apply them.

use cimon_mem::{BusTap, Memory};

/// One bit flip in an instruction word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BitFlip {
    /// Word-aligned address of the affected instruction.
    pub addr: u32,
    /// Bit position within the 32-bit word (0 = LSB).
    pub bit: u8,
}

impl BitFlip {
    /// Construct a flip.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned or `bit >= 32`.
    pub fn new(addr: u32, bit: u8) -> BitFlip {
        assert!(addr % 4 == 0, "flip address must be word-aligned");
        assert!(bit < 32, "bit index out of range");
        BitFlip { addr, bit }
    }

    /// The XOR mask this flip applies to the word.
    pub fn mask(&self) -> u32 {
        1 << self.bit
    }

    /// Apply the flip to a stored image in memory.
    pub fn apply_to_memory(&self, mem: &mut Memory) {
        let word = mem
            .read_u32(self.addr)
            .unwrap_or_else(|_| unreachable!("aligned by construction"));
        mem.write_u32(self.addr, word ^ self.mask())
            .unwrap_or_else(|_| unreachable!("aligned by construction"));
    }
}

/// Whether a bus fault fires once or on every fetch of the address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusFaultMode {
    /// A transient glitch: corrupt only the first matching fetch.
    OneShot,
    /// A persistent defect: corrupt every fetch of the address.
    StuckAt,
}

/// Where faults are injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Flip bits in the stored text image before the run.
    StoredImage,
    /// Corrupt words on the fetch bus.
    FetchBus(BusFaultMode),
}

/// A complete fault plan for one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Injection site.
    pub site: FaultSite,
    /// The flips (applied to the same or different words).
    pub flips: Vec<BitFlip>,
}

impl FaultPlan {
    /// A single-bit stored-image fault.
    pub fn stored(addr: u32, bit: u8) -> FaultPlan {
        FaultPlan {
            site: FaultSite::StoredImage,
            flips: vec![BitFlip::new(addr, bit)],
        }
    }

    /// A single-bit one-shot bus fault.
    pub fn bus_transient(addr: u32, bit: u8) -> FaultPlan {
        FaultPlan {
            site: FaultSite::FetchBus(BusFaultMode::OneShot),
            flips: vec![BitFlip::new(addr, bit)],
        }
    }

    /// Total number of bits flipped.
    pub fn weight(&self) -> usize {
        self.flips.len()
    }
}

/// Bus tap applying planned flips to fetched words.
#[derive(Clone, Debug)]
pub struct PlannedBusTap {
    flips: Vec<(BitFlip, bool)>, // (flip, already fired)
    mode: BusFaultMode,
}

impl PlannedBusTap {
    /// Build a tap for the given flips.
    pub fn new(flips: Vec<BitFlip>, mode: BusFaultMode) -> PlannedBusTap {
        PlannedBusTap {
            flips: flips.into_iter().map(|f| (f, false)).collect(),
            mode,
        }
    }
}

impl BusTap for PlannedBusTap {
    fn on_fetch(&mut self, addr: u32, word: u32) -> u32 {
        let mut out = word;
        for (flip, fired) in &mut self.flips {
            if flip.addr != addr {
                continue;
            }
            match self.mode {
                BusFaultMode::StuckAt => out ^= flip.mask(),
                BusFaultMode::OneShot => {
                    if !*fired {
                        *fired = true;
                        out ^= flip.mask();
                    }
                }
            }
        }
        out
    }

    /// No flip in `[start, end]` can still fire: a stuck-at flip fires
    /// on every fetch of its address, a one-shot flip until it has.
    fn passes_through(&self, start: u32, end: u32) -> bool {
        !self.flips.iter().any(|(flip, fired)| {
            (start..=end).contains(&flip.addr) && (self.mode == BusFaultMode::StuckAt || !*fired)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_mask_and_memory_application() {
        let f = BitFlip::new(0x100, 7);
        assert_eq!(f.mask(), 0x80);
        let mut mem = Memory::new();
        mem.write_u32(0x100, 0xffff_ffff).unwrap();
        f.apply_to_memory(&mut mem);
        assert_eq!(mem.read_u32(0x100).unwrap(), 0xffff_ff7f);
        f.apply_to_memory(&mut mem);
        assert_eq!(mem.read_u32(0x100).unwrap(), 0xffff_ffff);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_flip_panics() {
        BitFlip::new(0x101, 0);
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn bit_out_of_range_panics() {
        BitFlip::new(0x100, 32);
    }

    #[test]
    fn oneshot_tap_fires_once() {
        let mut tap = PlannedBusTap::new(vec![BitFlip::new(0x100, 0)], BusFaultMode::OneShot);
        assert!(!tap.passes_through(0x100, 0x100));
        assert_eq!(tap.on_fetch(0x100, 0), 1);
        assert!(tap.passes_through(0x100, 0x100));
        assert_eq!(tap.on_fetch(0x100, 0), 0);
        assert_eq!(tap.on_fetch(0x200, 0), 0);
    }

    #[test]
    fn stuckat_tap_fires_every_time() {
        let mut tap = PlannedBusTap::new(vec![BitFlip::new(0x100, 4)], BusFaultMode::StuckAt);
        assert_eq!(tap.on_fetch(0x100, 0), 16);
        assert_eq!(tap.on_fetch(0x100, 0), 16);
        assert!(!tap.passes_through(0x100, 0x100));
    }

    #[test]
    fn pass_through_ranges_are_inclusive_at_both_edges() {
        for mode in [BusFaultMode::OneShot, BusFaultMode::StuckAt] {
            let tap = PlannedBusTap::new(vec![BitFlip::new(0x100, 3)], mode);
            // The flip on either edge of the range blocks it.
            assert!(!tap.passes_through(0x100, 0x10c), "{mode:?}");
            assert!(!tap.passes_through(0xf4, 0x100), "{mode:?}");
            assert!(!tap.passes_through(0x100, 0x100), "{mode:?}");
            // One word short on either side does not.
            assert!(tap.passes_through(0x104, 0x10c), "{mode:?}");
            assert!(tap.passes_through(0xf4, 0xfc), "{mode:?}");
        }
    }

    #[test]
    fn a_fired_one_shot_passes_but_its_unfired_sibling_does_not() {
        let mut tap = PlannedBusTap::new(
            vec![BitFlip::new(0x100, 0), BitFlip::new(0x108, 1)],
            BusFaultMode::OneShot,
        );
        assert!(!tap.passes_through(0x100, 0x104));
        assert_eq!(tap.on_fetch(0x100, 0), 1);
        assert!(tap.passes_through(0x100, 0x104));
        assert!(!tap.passes_through(0x100, 0x108));
        assert_eq!(tap.on_fetch(0x108, 0), 2);
        assert!(tap.passes_through(0x100, 0x108));
        assert!(tap.passes_through(0, u32::MAX));
    }

    #[test]
    fn stuckat_never_passes_its_flips_however_often_they_fire() {
        let mut tap = PlannedBusTap::new(
            vec![BitFlip::new(0x100, 0), BitFlip::new(0x200, 1)],
            BusFaultMode::StuckAt,
        );
        for _ in 0..3 {
            tap.on_fetch(0x100, 0);
            tap.on_fetch(0x200, 0);
        }
        assert!(!tap.passes_through(0x100, 0x100));
        assert!(!tap.passes_through(0x1fc, 0x200));
        assert!(tap.passes_through(0x104, 0x1fc));
    }

    #[test]
    fn multiple_flips_same_word_compose() {
        let mut tap = PlannedBusTap::new(
            vec![BitFlip::new(0x100, 0), BitFlip::new(0x100, 1)],
            BusFaultMode::OneShot,
        );
        assert_eq!(tap.on_fetch(0x100, 0), 3);
    }

    #[test]
    fn plan_constructors() {
        let p = FaultPlan::stored(0x40_0000, 5);
        assert_eq!(p.site, FaultSite::StoredImage);
        assert_eq!(p.weight(), 1);
        let q = FaultPlan::bus_transient(0x40_0000, 5);
        assert_eq!(q.site, FaultSite::FetchBus(BusFaultMode::OneShot));
    }
}

//! IHT refill policies.
//!
//! The paper assumes the OS "replaces half of the entries with hash
//! records from the FHT" under LRU ([`ReplaceHalfLru`]); its conclusion
//! names refining this policy as future work. The alternatives here
//! ([`SingleLru`], [`Fifo`], [`RandomReplace`]) feed the A1 ablation
//! bench.

use cimon_core::{BlockRecord, Iht};
use cimon_isa::codec::{CodecError, Dec, Enc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Config-friendly selector for a refill policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefillPolicyKind {
    /// The paper's replace-half-LRU with sequential prefetch.
    ReplaceHalfLru,
    /// Single-entry LRU insertion.
    SingleLru,
    /// Round-robin replacement.
    Fifo,
    /// Uniformly random victim, with this RNG seed.
    Random(u64),
}

impl RefillPolicyKind {
    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn RefillPolicy> {
        match self {
            RefillPolicyKind::ReplaceHalfLru => Box::new(ReplaceHalfLru::default()),
            RefillPolicyKind::SingleLru => Box::new(SingleLru),
            RefillPolicyKind::Fifo => Box::new(Fifo::default()),
            RefillPolicyKind::Random(seed) => Box::new(RandomReplace::new(seed)),
        }
    }

    /// Short name for reports (matches the built policy's
    /// [`RefillPolicy::name`]).
    pub fn name(self) -> &'static str {
        match self {
            RefillPolicyKind::ReplaceHalfLru => "replace-half-lru",
            RefillPolicyKind::SingleLru => "single-lru",
            RefillPolicyKind::Fifo => "fifo",
            RefillPolicyKind::Random(_) => "random",
        }
    }

    /// All kinds, for the replacement-policy ablation sweep.
    pub fn all(seed: u64) -> [RefillPolicyKind; 4] {
        [
            RefillPolicyKind::ReplaceHalfLru,
            RefillPolicyKind::SingleLru,
            RefillPolicyKind::Fifo,
            RefillPolicyKind::Random(seed),
        ]
    }
}

/// Captured cross-miss state of a refill policy, for snapshot/restore.
///
/// Policies that carry state between misses (a round-robin cursor, an
/// RNG) must round-trip it through this enum so a restored run replays
/// the exact same victim sequence the uninterrupted run would have.
/// Scratch buffers that are rebuilt from scratch on every refill (e.g.
/// [`ReplaceHalfLru`]'s victim list) are not state in this sense.
#[derive(Clone, Debug)]
pub enum PolicyState {
    /// The policy carries no state between misses.
    Stateless,
    /// [`Fifo`]'s next victim slot.
    FifoCursor(usize),
    /// [`RandomReplace`]'s RNG, captured mid-stream.
    Rng(StdRng),
}

impl PolicyState {
    /// Serialize the state for a checkpoint: a variant tag plus the
    /// cursor or the RNG's internal state word.
    pub fn encode_into(&self, e: &mut Enc) {
        match self {
            PolicyState::Stateless => e.u8(0),
            PolicyState::FifoCursor(next) => {
                e.u8(1);
                e.usize(*next);
            }
            PolicyState::Rng(rng) => {
                e.u8(2);
                e.u64(rng.state());
            }
        }
    }

    /// Rebuild a state serialized by [`PolicyState::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or an unknown variant tag.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<PolicyState, CodecError> {
        match d.u8()? {
            0 => Ok(PolicyState::Stateless),
            1 => Ok(PolicyState::FifoCursor(d.usize()?)),
            2 => Ok(PolicyState::Rng(StdRng::seed_from_u64(d.u64()?))),
            _ => Err(CodecError::Invalid {
                what: "policy state tag",
            }),
        }
    }
}

/// Strategy the OS uses to refill the IHT after a hash miss.
///
/// `missing` is the record of the block whose lookup missed (already
/// verified present in the FHT by the kernel), and `successors` are the
/// FHT records that follow it in address order — strictly increasing
/// keys, none equal to `missing`'s. Implementations must install
/// `missing` and may prefetch from `successors`.
pub trait RefillPolicy {
    /// Refill `iht`; returns the number of entries written.
    fn refill(&mut self, iht: &mut Iht, successors: &[BlockRecord], missing: BlockRecord) -> usize;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Capture any cross-miss state for a snapshot. The default says
    /// the policy is stateless, which is correct for policies whose
    /// refills depend only on the tables passed in.
    fn snapshot_state(&self) -> PolicyState {
        PolicyState::Stateless
    }

    /// Reinstate state previously captured by
    /// [`RefillPolicy::snapshot_state`]. The default ignores it.
    fn restore_state(&mut self, _state: &PolicyState) {}
}

/// The paper's policy: evict the least-recently-used half of the table
/// and install the missing block plus the FHT records that follow it in
/// address order (sequential prefetch).
///
/// Holds reusable victim/prefetch scratch: the refill runs on every
/// IHT miss, which makes it part of the monitored simulator's hot
/// path, so a warm policy allocates nothing per miss.
#[derive(Clone, Debug, Default)]
pub struct ReplaceHalfLru {
    victims: Vec<usize>,
    incoming: Vec<BlockRecord>,
}

impl RefillPolicy for ReplaceHalfLru {
    fn refill(&mut self, iht: &mut Iht, successors: &[BlockRecord], missing: BlockRecord) -> usize {
        let half = iht.capacity().div_ceil(2);
        iht.lru_prefix_into(half, &mut self.victims);
        // Prefetch the blocks following the missing one, skipping any
        // already resident so the refill does not duplicate entries.
        // `successors` are distinct and all after `missing`, so none
        // repeats an incoming record.
        self.incoming.clear();
        self.incoming.push(missing);
        for &r in successors.iter().take(half.saturating_sub(1) * 2) {
            if self.incoming.len() == half {
                break;
            }
            if iht.probe(r.key).is_none() {
                self.incoming.push(r);
            }
        }
        for (&slot, &record) in self.victims.iter().zip(&self.incoming) {
            iht.replace_at(slot, record);
        }
        self.incoming.len().min(self.victims.len())
    }

    fn name(&self) -> &'static str {
        "replace-half-lru"
    }
}

/// Minimal policy: install only the missing block over the single LRU
/// victim.
#[derive(Clone, Copy, Debug, Default)]
pub struct SingleLru;

impl RefillPolicy for SingleLru {
    fn refill(
        &mut self,
        iht: &mut Iht,
        _successors: &[BlockRecord],
        missing: BlockRecord,
    ) -> usize {
        iht.insert_lru(missing);
        1
    }

    fn name(&self) -> &'static str {
        "single-lru"
    }
}

/// Round-robin replacement, ignoring recency.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fifo {
    next: usize,
}

impl RefillPolicy for Fifo {
    fn refill(
        &mut self,
        iht: &mut Iht,
        _successors: &[BlockRecord],
        missing: BlockRecord,
    ) -> usize {
        let slot = self.next % iht.capacity();
        self.next = (self.next + 1) % iht.capacity();
        iht.replace_at(slot, missing);
        1
    }

    fn name(&self) -> &'static str {
        "fifo"
    }

    fn snapshot_state(&self) -> PolicyState {
        PolicyState::FifoCursor(self.next)
    }

    fn restore_state(&mut self, state: &PolicyState) {
        if let PolicyState::FifoCursor(next) = state {
            self.next = *next;
        }
    }
}

/// Replace a uniformly random slot (seeded, deterministic).
#[derive(Clone, Debug)]
pub struct RandomReplace {
    rng: StdRng,
}

impl RandomReplace {
    /// A policy with a fixed seed so runs are reproducible.
    pub fn new(seed: u64) -> RandomReplace {
        RandomReplace {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl RefillPolicy for RandomReplace {
    fn refill(
        &mut self,
        iht: &mut Iht,
        _successors: &[BlockRecord],
        missing: BlockRecord,
    ) -> usize {
        let slot = self.rng.gen_range(0..iht.capacity());
        iht.replace_at(slot, missing);
        1
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn snapshot_state(&self) -> PolicyState {
        PolicyState::Rng(self.rng.clone())
    }

    fn restore_state(&mut self, state: &PolicyState) {
        if let PolicyState::Rng(rng) = state {
            self.rng = rng.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_core::BlockKey;

    fn rec(start: u32, hash: u32) -> BlockRecord {
        BlockRecord {
            key: BlockKey::new(start, start + 4),
            hash,
        }
    }

    /// The records of a 16-block FHT that follow `missing` in address
    /// order: what the kernel hands a policy on a miss.
    fn after(missing: BlockRecord) -> Vec<BlockRecord> {
        (0..16u32)
            .map(|i| rec(0x1000 + i * 0x20, i))
            .filter(|r| r.key > missing.key)
            .collect()
    }

    #[test]
    fn replace_half_installs_missing_plus_prefetch() {
        let mut iht = Iht::new(8);
        let mut pol = ReplaceHalfLru::default();
        let missing = rec(0x1000 + 4 * 0x20, 4);
        let written = pol.refill(&mut iht, &after(missing), missing);
        assert_eq!(written, 4); // half of 8
        assert!(iht.probe(missing.key).is_some());
        // Prefetched successors 5, 6, 7:
        for i in 5..8u32 {
            assert!(iht
                .probe(BlockKey::new(0x1000 + i * 0x20, 0x1004 + i * 0x20))
                .is_some());
        }
    }

    #[test]
    fn replace_half_evicts_lru_half_only() {
        let mut iht = Iht::new(4);
        for i in 0..4u32 {
            iht.insert_lru(rec(0x9000 + i * 0x10, i));
        }
        // Touch two entries so they are MRU.
        iht.lookup(BlockKey::new(0x9020, 0x9024), 2);
        iht.lookup(BlockKey::new(0x9030, 0x9034), 3);
        let mut pol = ReplaceHalfLru::default();
        let missing = rec(0x1000, 0);
        pol.refill(&mut iht, &after(missing), missing);
        // MRU half survives.
        assert!(iht.probe(BlockKey::new(0x9020, 0x9024)).is_some());
        assert!(iht.probe(BlockKey::new(0x9030, 0x9034)).is_some());
        // LRU half is gone.
        assert!(iht.probe(BlockKey::new(0x9000, 0x9004)).is_none());
        assert!(iht.probe(BlockKey::new(0x9010, 0x9014)).is_none());
    }

    #[test]
    fn replace_half_on_one_entry_table() {
        let mut iht = Iht::new(1);
        let mut pol = ReplaceHalfLru::default();
        let missing = rec(0x1000, 0);
        let written = pol.refill(&mut iht, &after(missing), missing);
        assert_eq!(written, 1);
        assert_eq!(iht.len(), 1);
    }

    #[test]
    fn replace_half_does_not_duplicate_resident_blocks() {
        let mut iht = Iht::new(8);
        // Successor of the missing block is already resident.
        let resident = rec(0x1000 + 5 * 0x20, 5);
        iht.insert_lru(resident);
        let mut pol = ReplaceHalfLru::default();
        let missing = rec(0x1000 + 4 * 0x20, 4);
        pol.refill(&mut iht, &after(missing), missing);
        let count = iht.records().filter(|r| r.key == resident.key).count();
        assert_eq!(count, 1, "resident block duplicated");
    }

    #[test]
    fn single_lru_touches_one_slot() {
        let mut iht = Iht::new(4);
        let mut pol = SingleLru;
        assert_eq!(pol.refill(&mut iht, &[], rec(0x1000, 0)), 1);
        assert_eq!(iht.len(), 1);
    }

    #[test]
    fn fifo_cycles_slots() {
        let mut iht = Iht::new(2);
        let mut pol = Fifo::default();
        pol.refill(&mut iht, &[], rec(0x1000, 0));
        pol.refill(&mut iht, &[], rec(0x2000, 1));
        pol.refill(&mut iht, &[], rec(0x3000, 2));
        // Third refill wrapped to slot 0: 0x1000 evicted.
        assert!(iht.probe(BlockKey::new(0x1000, 0x1004)).is_none());
        assert!(iht.probe(BlockKey::new(0x2000, 0x2004)).is_some());
        assert!(iht.probe(BlockKey::new(0x3000, 0x3004)).is_some());
    }

    #[test]
    fn random_is_seed_deterministic() {
        let run = |seed| {
            let mut iht = Iht::new(8);
            let mut pol = RandomReplace::new(seed);
            for i in 0..6u32 {
                pol.refill(&mut iht, &[], rec(0x5000 + i * 0x10, i));
            }
            let mut v: Vec<u32> = iht.records().map(|r| r.key.start).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn policy_state_encode_decode_replays_victim_sequence() {
        use rand::RngCore;
        // Each variant round-trips; the RNG variant must continue the
        // exact stream it was captured mid-way through.
        let mut pol = RandomReplace::new(7);
        let mut iht = Iht::new(8);
        pol.refill(&mut iht, &[], rec(0x5000, 0));
        for state in [
            PolicyState::Stateless,
            PolicyState::FifoCursor(3),
            pol.snapshot_state(),
        ] {
            let mut e = Enc::new();
            state.encode_into(&mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let back = PolicyState::decode_from(&mut d).unwrap();
            d.finish().unwrap();
            match (&state, &back) {
                (PolicyState::Stateless, PolicyState::Stateless) => {}
                (PolicyState::FifoCursor(a), PolicyState::FifoCursor(b)) => assert_eq!(a, b),
                (PolicyState::Rng(a), PolicyState::Rng(b)) => {
                    let (mut a, mut b) = (a.clone(), b.clone());
                    for _ in 0..20 {
                        assert_eq!(a.next_u64(), b.next_u64());
                    }
                }
                other => panic!("variant changed across the wire: {other:?}"),
            }
        }
        assert!(PolicyState::decode_from(&mut Dec::new(&[9u8])).is_err());
        assert!(PolicyState::decode_from(&mut Dec::new(&[])).is_err());
    }

    #[test]
    fn names() {
        assert_eq!(ReplaceHalfLru::default().name(), "replace-half-lru");
        assert_eq!(SingleLru.name(), "single-lru");
        assert_eq!(Fifo::default().name(), "fifo");
        assert_eq!(RandomReplace::new(0).name(), "random");
    }
}

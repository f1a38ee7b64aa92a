//! The Internal Hash Table (`IHTbb`).
//!
//! A small, fully associative table of `(Addst, Addend, Hash)` tuples —
//! in hardware a CAM searched by the `(Addst, Addend)` pair with the hash
//! compared by `COMP` (paper, Section 4.2). The table keeps
//! hardware-maintained recency state: the paper's OS-managed scheme
//! relies on "specific hardwares … to implement the replacement policy
//! and select appropriate entries to overwrite when the IHT is full"
//! (Section 3.3). The OS reads that state through [`Iht::lru_order`] and
//! writes entries through [`Iht::replace_at`] / [`Iht::insert_lru`].

use cimon_isa::codec::{CodecError, Dec, Enc};

use crate::block::{BlockKey, BlockRecord};

/// Result of an associative lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Entry present and hash equal: the block is intact.
    Hit,
    /// Entry present but hash differs: the code was altered. Carries the
    /// expected hash for diagnosis.
    Mismatch {
        /// The hash stored in the table.
        expected: u32,
    },
    /// No entry with this `(start, end)` key.
    Miss,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    record: BlockRecord,
    /// Monotonic recency stamp; larger = more recently used.
    stamp: u64,
}

/// The internal hash table.
#[derive(Clone, Debug)]
pub struct Iht {
    slots: Vec<Option<Slot>>,
    clock: u64,
    /// Slot of the last key match — probed first on the next lookup.
    /// Hot loops re-check the block they just checked, so this turns
    /// the common-case scan into a single compare. Pure search-order
    /// state: the modelled CAM searches all ways in parallel, and keys
    /// are unique in the table, so which slot is examined first is
    /// unobservable in outcomes and recency.
    mru: usize,
}

impl Iht {
    /// A table with `entries` slots, all invalid.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: usize) -> Iht {
        assert!(entries > 0, "IHT must have at least one entry");
        Iht {
            slots: vec![None; entries],
            clock: 0,
            mru: 0,
        }
    }

    /// Table capacity in entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The associative lookup performed by the ID-stage micro-op
    /// `<found,match> = IHTbb.lookup(<start,end,hashv>)`.
    ///
    /// A hit refreshes the entry's recency. A mismatch also counts as a
    /// lookup but does not refresh (the program is about to be killed).
    pub fn lookup(&mut self, key: BlockKey, hash: u32) -> LookupOutcome {
        let mut hint = self.mru;
        self.lookup_from(key, hash, &mut hint)
    }

    /// [`Iht::lookup`] probing way `*hint` first, then the rest in
    /// order. On a key match both `*hint` and the table's MRU way are
    /// set to the matching way. Like the MRU probe this is pure search
    /// order: keys are unique in the table, so the hint is checked by
    /// a key compare before it is trusted, and outcomes and recency
    /// are exactly those of [`Iht::lookup`] whatever its value
    /// (an out-of-range hint is clamped).
    pub fn lookup_from(&mut self, key: BlockKey, hash: u32, hint: &mut usize) -> LookupOutcome {
        let stamp = self.tick();
        let n = self.slots.len();
        let first = (*hint).min(n - 1);
        let holds = |s: &Option<Slot>| s.is_some_and(|s| s.record.key == key);
        let way = if holds(&self.slots[first]) {
            Some(first)
        } else {
            (0..n).find(|&i| i != first && holds(&self.slots[i]))
        };
        let Some(way) = way else {
            return LookupOutcome::Miss;
        };
        *hint = way;
        self.mru = way;
        let slot = self.slots[way]
            .as_mut()
            .unwrap_or_else(|| unreachable!("matched way is valid"));
        if slot.record.hash == hash {
            slot.stamp = stamp;
            LookupOutcome::Hit
        } else {
            LookupOutcome::Mismatch {
                expected: slot.record.hash,
            }
        }
    }

    /// Probe without touching recency (used by tests and
    /// the OS to inspect the table).
    pub fn probe(&self, key: BlockKey) -> Option<BlockRecord> {
        self.slots
            .iter()
            .flatten()
            .find(|s| s.record.key == key)
            .map(|s| s.record)
    }

    /// Slot indices ordered least-recently-used first. Invalid slots come
    /// before all valid ones (they are the cheapest victims).
    pub fn lru_order(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.lru_order_into(&mut idx);
        idx
    }

    /// [`Iht::lru_order`] into a caller-owned buffer (cleared first) —
    /// the refill path runs on every IHT miss, so victim selection must
    /// not allocate once the buffer has warmed.
    pub fn lru_order_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..self.slots.len());
        out.sort_unstable_by_key(|&i| self.recency_key(i));
    }

    /// Slot `i`'s position in the LRU order: invalid slots first, then
    /// valid ones stalest first, ties broken by index.
    fn recency_key(&self, i: usize) -> (bool, u64, usize) {
        match &self.slots[i] {
            None => (false, 0, i),
            Some(s) => (true, s.stamp, i),
        }
    }

    /// Overwrite slot `index` with `record`, marking it most recent.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_at(&mut self, index: usize, record: BlockRecord) {
        let stamp = self.tick();
        self.slots[index] = Some(Slot { record, stamp });
    }

    /// Insert `record`, evicting the LRU slot if the table is full.
    /// Returns the evicted record, if any. If the key is already present
    /// the entry is updated in place.
    pub fn insert_lru(&mut self, record: BlockRecord) -> Option<BlockRecord> {
        let stamp = self.tick();
        if let Some(slot) = self
            .slots
            .iter_mut()
            .flatten()
            .find(|s| s.record.key == record.key)
        {
            slot.record = record;
            slot.stamp = stamp;
            return None;
        }
        // The head of `lru_order`, found by one scan instead of a sort:
        // every key is distinct, so the minimum is unique.
        let victim_idx = (0..self.slots.len())
            .min_by_key(|&i| self.recency_key(i))
            .unwrap_or_else(|| unreachable!("an IHT has at least one slot"));
        let evicted = self.slots[victim_idx].map(|s| s.record);
        self.slots[victim_idx] = Some(Slot { record, stamp });
        evicted
    }

    /// Invalidate every entry (e.g. on context switch).
    pub fn flush(&mut self) {
        self.slots.fill(None);
    }

    /// Iterate over the valid records, in slot order.
    pub fn records(&self) -> impl Iterator<Item = BlockRecord> + '_ {
        self.slots.iter().flatten().map(|s| s.record)
    }

    /// Serialize the table — entries, recency stamps and search-order
    /// state — for checkpoint serialization.
    pub fn encode_into(&self, e: &mut Enc) {
        e.usize(self.slots.len());
        e.u64(self.clock);
        e.usize(self.mru);
        for slot in &self.slots {
            match slot {
                None => e.bool(false),
                Some(s) => {
                    e.bool(true);
                    e.u32(s.record.key.start);
                    e.u32(s.record.key.end);
                    e.u32(s.record.hash);
                    e.u64(s.stamp);
                }
            }
        }
    }

    /// Rebuild a table serialized by [`Iht::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, a zero capacity, or an
    /// out-of-range MRU index.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Iht, CodecError> {
        let capacity = d.usize()?;
        if capacity == 0 {
            return Err(CodecError::Invalid {
                what: "IHT capacity",
            });
        }
        let clock = d.u64()?;
        let mru = d.usize()?;
        if mru >= capacity {
            return Err(CodecError::Invalid {
                what: "IHT MRU index",
            });
        }
        // Cap the pre-allocation: a corrupt capacity fails on the first
        // truncated slot read instead of aborting in the allocator.
        let mut slots = Vec::with_capacity(capacity.min(1 << 16));
        for _ in 0..capacity {
            slots.push(if d.bool()? {
                let start = d.u32()?;
                let end = d.u32()?;
                let hash = d.u32()?;
                let stamp = d.u64()?;
                // Validate before the constructor: its well-formedness
                // panics must become typed errors on corrupt bytes.
                if start % 4 != 0 || end % 4 != 0 || end < start {
                    return Err(CodecError::Invalid {
                        what: "IHT block key",
                    });
                }
                Some(Slot {
                    record: BlockRecord {
                        key: BlockKey::new(start, end),
                        hash,
                    },
                    stamp,
                })
            } else {
                None
            });
        }
        Ok(Iht { slots, clock, mru })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u32, hash: u32) -> BlockRecord {
        BlockRecord {
            key: BlockKey::new(start, start + 8),
            hash,
        }
    }

    #[test]
    fn lookup_hit_mismatch_miss() {
        let mut iht = Iht::new(4);
        iht.replace_at(0, rec(0x1000, 0xaa));
        assert_eq!(
            iht.lookup(BlockKey::new(0x1000, 0x1008), 0xaa),
            LookupOutcome::Hit
        );
        assert_eq!(
            iht.lookup(BlockKey::new(0x1000, 0x1008), 0xbb),
            LookupOutcome::Mismatch { expected: 0xaa }
        );
        assert_eq!(
            iht.lookup(BlockKey::new(0x2000, 0x2008), 0xaa),
            LookupOutcome::Miss
        );
    }

    #[test]
    fn key_includes_both_ends() {
        // Same start, different end must miss: the CAM matches the pair.
        let mut iht = Iht::new(2);
        iht.replace_at(0, rec(0x1000, 0xaa));
        assert_eq!(
            iht.lookup(BlockKey::new(0x1000, 0x100c), 0xaa),
            LookupOutcome::Miss
        );
    }

    #[test]
    fn lru_order_prefers_invalid_then_stalest() {
        let mut iht = Iht::new(3);
        iht.replace_at(0, rec(0x1000, 1));
        iht.replace_at(1, rec(0x2000, 2));
        // slot 2 invalid → first victim; then slot 0 (older), slot 1.
        assert_eq!(iht.lru_order(), vec![2, 0, 1]);
        // Touch slot 0 via hit → slot 1 becomes stalest valid.
        iht.lookup(BlockKey::new(0x1000, 0x1008), 1);
        assert_eq!(iht.lru_order(), vec![2, 1, 0]);
    }

    #[test]
    fn insert_lru_fills_then_evicts() {
        let mut iht = Iht::new(2);
        assert_eq!(iht.insert_lru(rec(0x1000, 1)), None);
        assert_eq!(iht.insert_lru(rec(0x2000, 2)), None);
        assert_eq!(iht.len(), 2);
        // 0x1000 is LRU → evicted.
        let evicted = iht.insert_lru(rec(0x3000, 3)).unwrap();
        assert_eq!(evicted.key.start, 0x1000);
        assert!(iht.probe(BlockKey::new(0x3000, 0x3008)).is_some());
        assert!(iht.probe(BlockKey::new(0x1000, 0x1008)).is_none());
    }

    #[test]
    fn insert_existing_key_updates_in_place() {
        let mut iht = Iht::new(2);
        iht.insert_lru(rec(0x1000, 1));
        iht.insert_lru(rec(0x2000, 2));
        assert_eq!(iht.insert_lru(rec(0x1000, 9)), None);
        assert_eq!(iht.len(), 2);
        assert_eq!(iht.probe(BlockKey::new(0x1000, 0x1008)).unwrap().hash, 9);
    }

    #[test]
    fn mismatch_does_not_refresh_recency() {
        let mut iht = Iht::new(2);
        iht.replace_at(0, rec(0x1000, 1));
        iht.replace_at(1, rec(0x2000, 2));
        // Mismatching lookup on 0x1000 must not make it MRU.
        iht.lookup(BlockKey::new(0x1000, 0x1008), 99);
        assert_eq!(iht.lru_order()[0], 0);
    }

    #[test]
    fn flush_invalidates() {
        let mut iht = Iht::new(2);
        iht.insert_lru(rec(0x1000, 1));
        iht.flush();
        assert!(iht.is_empty());
        assert_eq!(
            iht.lookup(BlockKey::new(0x1000, 0x1008), 1),
            LookupOutcome::Miss
        );
    }

    #[test]
    fn capacity_one_behaves() {
        let mut iht = Iht::new(1);
        iht.insert_lru(rec(0x1000, 1));
        assert_eq!(iht.insert_lru(rec(0x2000, 2)).unwrap().key.start, 0x1000);
        assert_eq!(iht.capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        Iht::new(0);
    }

    #[test]
    fn records_iterates_valid_only() {
        let mut iht = Iht::new(4);
        iht.replace_at(1, rec(0x1000, 1));
        iht.replace_at(3, rec(0x2000, 2));
        let recs: Vec<_> = iht.records().collect();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn encode_decode_round_trips_entries_recency_and_stats() {
        let mut iht = Iht::new(4);
        iht.insert_lru(rec(0x1000, 1));
        iht.insert_lru(rec(0x2000, 2));
        iht.lookup(BlockKey::new(0x1000, 0x1008), 1);
        iht.lookup(BlockKey::new(0x3000, 0x3008), 3);
        let mut e = Enc::new();
        iht.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut back = Iht::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.capacity(), iht.capacity());
        assert_eq!(back.lru_order(), iht.lru_order());
        let a: Vec<_> = back.records().collect();
        let b: Vec<_> = iht.records().collect();
        assert_eq!(a, b);
        // Future behaviour must match too: same eviction decisions.
        assert_eq!(
            back.insert_lru(rec(0x4000, 4)),
            iht.insert_lru(rec(0x4000, 4))
        );
        assert_eq!(back.lru_order(), iht.lru_order());
        // Truncation and a zero capacity are typed errors.
        assert!(Iht::decode_from(&mut Dec::new(&bytes[..bytes.len() - 2])).is_err());
        let mut z = Enc::new();
        z.usize(0);
        assert!(Iht::decode_from(&mut Dec::new(&z.into_bytes())).is_err());
    }
}

//! The Internal Hash Table (`IHTbb`).
//!
//! A small, fully associative table of `(Addst, Addend, Hash)` tuples —
//! in hardware a CAM searched by the `(Addst, Addend)` pair with the hash
//! compared by `COMP` (paper, Section 4.2). The table keeps
//! hardware-maintained recency state: the paper's OS-managed scheme
//! relies on "specific hardwares … to implement the replacement policy
//! and select appropriate entries to overwrite when the IHT is full"
//! (Section 3.3). The OS reads that state through
//! [`Iht::lru_prefix_into`] and writes entries through
//! [`Iht::replace_at`] / [`Iht::insert_lru`].

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

/// Packed key of an invalid slot. A real key's start is word-aligned,
/// so no key packs to this value and a key compare never needs a
/// validity check.
const EMPTY: u64 = u64::MAX;

/// A key as one comparable word: `(start << 32) | end`.
fn pack(key: BlockKey) -> u64 {
    (u64::from(key.start) << 32) | u64::from(key.end)
}

/// The internal hash table.
///
/// Stored as parallel arrays, one element per slot, so the associative
/// search is a scan of packed keys: `keys` (`EMPTY` when invalid),
/// `hashes`, and `stamps`, the monotonic recency stamps (larger = more
/// recently used, 0 = invalid; the clock's first tick is 1).
#[derive(Clone, Debug)]
pub struct Iht {
    keys: Vec<u64>,
    hashes: Vec<u32>,
    stamps: Vec<u64>,
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
            keys: vec![EMPTY; entries],
            hashes: vec![0; entries],
            stamps: vec![0; entries],
            clock: 0,
            mru: 0,
        }
    }

    /// Table capacity in entries.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.stamps.iter().filter(|&&s| s != 0).count()
    }

    /// Whether no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The valid record in slot `i`.
    fn record(&self, i: usize) -> BlockRecord {
        let k = self.keys[i];
        BlockRecord {
            key: BlockKey {
                start: (k >> 32) as u32,
                end: k as u32,
            },
            hash: self.hashes[i],
        }
    }

    /// The slot holding `key`, if any.
    fn way_of(&self, key: BlockKey) -> Option<usize> {
        let packed = pack(key);
        self.keys.iter().position(|&k| k == packed)
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
        let first = (*hint).min(self.keys.len() - 1);
        let way = if self.keys[first] == pack(key) {
            first
        } else {
            match self.way_of(key) {
                Some(way) => way,
                None => return LookupOutcome::Miss,
            }
        };
        *hint = way;
        self.mru = way;
        let expected = self.hashes[way];
        if expected == hash {
            self.stamps[way] = stamp;
            LookupOutcome::Hit
        } else {
            LookupOutcome::Mismatch { expected }
        }
    }

    /// Probe without touching recency (used by tests and
    /// the OS to inspect the table).
    pub fn probe(&self, key: BlockKey) -> Option<BlockRecord> {
        self.way_of(key).map(|i| self.record(i))
    }

    /// Slot indices ordered least-recently-used first. Invalid slots come
    /// before all valid ones (they are the cheapest victims).
    pub fn lru_order(&self) -> Vec<usize> {
        let mut idx = Vec::new();
        self.lru_prefix_into(self.capacity(), &mut idx);
        idx
    }

    /// The first `k` slots of [`Iht::lru_order`] (all of them if `k`
    /// is at least the capacity) into a caller-owned buffer, cleared
    /// first. The refill path runs on every IHT miss, so victim
    /// selection neither allocates once the buffer has warmed nor
    /// sorts the whole table: a selection puts the `k` stalest slots
    /// first, and only those are sorted.
    pub fn lru_prefix_into(&self, k: usize, out: &mut Vec<usize>) {
        out.clear();
        let k = k.min(self.capacity());
        if k == 0 {
            return;
        }
        if k == 1 {
            out.push(self.lru_head());
            return;
        }
        out.extend(0..self.capacity());
        if k < out.len() {
            out.select_nth_unstable_by_key(k - 1, |&i| self.recency_key(i));
            out.truncate(k);
        }
        out.sort_unstable_by_key(|&i| self.recency_key(i));
    }

    /// The head of [`Iht::lru_order`], by one scan.
    fn lru_head(&self) -> usize {
        (0..self.capacity())
            .min_by_key(|&i| self.recency_key(i))
            .unwrap_or_else(|| unreachable!("an IHT has at least one slot"))
    }

    /// Slot `i`'s position in the LRU order: invalid slots (stamp 0)
    /// first, then valid ones stalest first, ties broken by index. The
    /// keys are distinct, so the order is total.
    fn recency_key(&self, i: usize) -> (u64, usize) {
        (self.stamps[i], i)
    }

    /// Overwrite slot `index` with `record`, marking it most recent.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn replace_at(&mut self, index: usize, record: BlockRecord) {
        let stamp = self.tick();
        self.keys[index] = pack(record.key);
        self.hashes[index] = record.hash;
        self.stamps[index] = stamp;
    }

    /// Insert `record`, evicting the LRU slot if the table is full.
    /// Returns the evicted record, if any. If the key is already present
    /// the entry is updated in place.
    pub fn insert_lru(&mut self, record: BlockRecord) -> Option<BlockRecord> {
        if let Some(way) = self.way_of(record.key) {
            self.replace_at(way, record);
            return None;
        }
        let victim = self.lru_head();
        let evicted = (self.stamps[victim] != 0).then(|| self.record(victim));
        self.replace_at(victim, record);
        evicted
    }

    /// Invalidate every entry (e.g. on context switch).
    pub fn flush(&mut self) {
        self.keys.fill(EMPTY);
        self.hashes.fill(0);
        self.stamps.fill(0);
    }

    /// Iterate over the valid records, in slot order.
    pub fn records(&self) -> impl Iterator<Item = BlockRecord> + '_ {
        (0..self.capacity())
            .filter(|&i| self.stamps[i] != 0)
            .map(|i| self.record(i))
    }

    /// Serialize the table — entries, recency stamps and search-order
    /// state — for checkpoint serialization.
    pub fn encode_into(&self, e: &mut Enc) {
        e.usize(self.capacity());
        e.u64(self.clock);
        e.usize(self.mru);
        for i in 0..self.capacity() {
            if self.stamps[i] == 0 {
                e.bool(false);
            } else {
                let r = self.record(i);
                e.bool(true);
                e.u32(r.key.start);
                e.u32(r.key.end);
                e.u32(r.hash);
                e.u64(self.stamps[i]);
            }
        }
    }

    /// Rebuild a table serialized by [`Iht::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, a zero capacity, an out-of-range
    /// MRU index, a malformed block key, or a valid slot with the
    /// invalid slots' recency stamp 0.
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
        let reserve = capacity.min(1 << 16);
        let mut iht = Iht {
            keys: Vec::with_capacity(reserve),
            hashes: Vec::with_capacity(reserve),
            stamps: Vec::with_capacity(reserve),
            clock,
            mru,
        };
        for _ in 0..capacity {
            let (key, hash, stamp) = if d.bool()? {
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
                if stamp == 0 {
                    return Err(CodecError::Invalid {
                        what: "IHT recency stamp",
                    });
                }
                (pack(BlockKey::new(start, end)), hash, stamp)
            } else {
                (EMPTY, 0, 0)
            };
            iht.keys.push(key);
            iht.hashes.push(hash);
            iht.stamps.push(stamp);
        }
        Ok(iht)
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

    #[test]
    fn decode_rejects_a_valid_slot_with_stamp_zero() {
        // Stamp 0 marks an invalid slot, and the clock's first tick is
        // 1, so no encoded valid slot carries it.
        let mut e = Enc::new();
        e.usize(1);
        e.u64(5);
        e.usize(0);
        e.bool(true);
        e.u32(0x1000);
        e.u32(0x1008);
        e.u32(0xaa);
        e.u64(0);
        let bytes = e.into_bytes();
        assert_eq!(
            Iht::decode_from(&mut Dec::new(&bytes)).unwrap_err(),
            CodecError::Invalid {
                what: "IHT recency stamp"
            }
        );
    }
}

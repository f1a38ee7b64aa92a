//! The Full Hash Table: every expected block hash, resident in memory.
//!
//! The FHT is to the IHT what memory is to a cache (paper, Section 3.3).
//! It is generated statically — by the compiler, a post-link tool, or
//! the OS loader (`cimon-hashgen` implements the post-link tool) — and
//! attached to the application image.

use cimon_core::{BlockKey, BlockRecord};

/// Memory-resident table of every expected `(start, end) → hash` entry.
///
/// Held as one slice of records sorted by key, so a lookup is a binary
/// search and the records following a block in address order — the
/// refill's prefetch candidates — are the slice after it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FullHashTable {
    records: Vec<BlockRecord>,
}

impl FullHashTable {
    /// An empty table.
    pub fn new() -> FullHashTable {
        FullHashTable::default()
    }

    /// Build from records; later duplicates overwrite earlier ones.
    pub fn from_records(records: impl IntoIterator<Item = BlockRecord>) -> FullHashTable {
        let mut records: Vec<BlockRecord> = records.into_iter().collect();
        // Stable, so equal keys keep their input order and the merge
        // below leaves the last one's hash.
        records.sort_by_key(|r| r.key);
        records.dedup_by(|later, kept| {
            let same = later.key == kept.key;
            if same {
                kept.hash = later.hash;
            }
            same
        });
        FullHashTable { records }
    }

    /// Insert or update one record.
    pub fn insert(&mut self, record: BlockRecord) {
        match self.records.binary_search_by_key(&record.key, |r| r.key) {
            Ok(i) => self.records[i].hash = record.hash,
            Err(i) => self.records.insert(i, record),
        }
    }

    /// Index of `key`'s record in [`FullHashTable::records`], if known.
    pub fn find(&self, key: BlockKey) -> Option<usize> {
        self.records.binary_search_by_key(&key, |r| r.key).ok()
    }

    /// The expected hash for a block, if known.
    pub fn lookup(&self, key: BlockKey) -> Option<u32> {
        self.find(key).map(|i| self.records[i].hash)
    }

    /// Whether the block is known.
    pub fn contains(&self, key: BlockKey) -> bool {
        self.find(key).is_some()
    }

    /// Every record, in address order.
    pub fn records(&self) -> &[BlockRecord] {
        &self.records
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in address order.
    pub fn iter(&self) -> impl Iterator<Item = BlockRecord> + '_ {
        self.records.iter().copied()
    }

    /// Size of the table as attached to the image, in bytes: three words
    /// per entry (`Addst`, `Addend`, `Hash`).
    pub fn attached_bytes(&self) -> usize {
        self.len() * 12
    }
}

impl FromIterator<BlockRecord> for FullHashTable {
    fn from_iter<T: IntoIterator<Item = BlockRecord>>(iter: T) -> Self {
        FullHashTable::from_records(iter)
    }
}

impl Extend<BlockRecord> for FullHashTable {
    fn extend<T: IntoIterator<Item = BlockRecord>>(&mut self, iter: T) {
        for r in iter {
            self.insert(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u32, hash: u32) -> BlockRecord {
        BlockRecord {
            key: BlockKey::new(start, start + 4),
            hash,
        }
    }

    #[test]
    fn build_and_lookup() {
        let fht: FullHashTable = [rec(0x1000, 1), rec(0x2000, 2)].into_iter().collect();
        assert_eq!(fht.len(), 2);
        assert!(!fht.is_empty());
        assert_eq!(fht.lookup(BlockKey::new(0x1000, 0x1004)), Some(1));
        assert!(!fht.contains(BlockKey::new(0x3000, 0x3004)));
        assert_eq!(fht.attached_bytes(), 24);
    }

    #[test]
    fn duplicate_keys_take_latest() {
        let fht = FullHashTable::from_records([rec(0x1000, 1), rec(0x1000, 9)]);
        assert_eq!(fht.len(), 1);
        assert_eq!(fht.lookup(BlockKey::new(0x1000, 0x1004)), Some(9));
    }

    #[test]
    fn successors_follow_address_order() {
        let fht = FullHashTable::from_records([
            rec(0x4000, 4),
            rec(0x2000, 2),
            rec(0x1000, 1),
            rec(0x3000, 3),
        ]);
        let i = fht.find(BlockKey::new(0x2000, 0x2004)).unwrap();
        let next = &fht.records()[i + 1..];
        assert_eq!(next.len(), 2);
        assert_eq!(next[0].key.start, 0x3000);
        assert_eq!(next[1].key.start, 0x4000);
        // Tail: nothing follows the last record.
        let last = fht.find(BlockKey::new(0x4000, 0x4004)).unwrap();
        assert!(fht.records()[last + 1..].is_empty());
        assert_eq!(fht.find(BlockKey::new(0x2000, 0x2008)), None);
    }

    #[test]
    fn insert_keeps_address_order_and_updates_in_place() {
        let mut fht = FullHashTable::new();
        for r in [
            rec(0x3000, 3),
            rec(0x1000, 1),
            rec(0x4000, 4),
            rec(0x1000, 9),
        ] {
            fht.insert(r);
        }
        let starts: Vec<u32> = fht.iter().map(|r| r.key.start).collect();
        assert_eq!(starts, vec![0x1000, 0x3000, 0x4000]);
        assert_eq!(fht.lookup(BlockKey::new(0x1000, 0x1004)), Some(9));
        assert_eq!(
            fht,
            FullHashTable::from_records([
                rec(0x3000, 3),
                rec(0x1000, 1),
                rec(0x4000, 4),
                rec(0x1000, 9)
            ])
        );
    }

    #[test]
    fn iter_in_address_order() {
        let fht = FullHashTable::from_records([rec(0x3000, 3), rec(0x1000, 1)]);
        let starts: Vec<u32> = fht.iter().map(|r| r.key.start).collect();
        assert_eq!(starts, vec![0x1000, 0x3000]);
    }

    #[test]
    fn extend_adds() {
        let mut fht = FullHashTable::new();
        fht.extend([rec(0x1000, 1)]);
        assert_eq!(fht.len(), 1);
    }
}

//! Differential test of the replace-half-LRU refill.
//!
//! [`ReplaceHalfLru::refill`] picks its victims with
//! [`Iht::lru_prefix_into`] and walks the FHT's successor slice. The
//! reference here is the same policy written the direct way: the whole
//! table sorted into LRU order (read from the table's serialised
//! form), and the successors walked in a `BTreeMap` of the FHT. Over
//! random FHTs, random table histories and table sizes from 1 to 256,
//! every refill must write the same number of entries and leave the
//! table byte-identical under [`Iht::encode_into`].

use std::collections::BTreeMap;
use std::ops::Bound;

use cimon_core::{BlockKey, BlockRecord, Iht};
use cimon_isa::codec::{Dec, Enc};
use cimon_os::{FullHashTable, RefillPolicy, ReplaceHalfLru};
use proptest::prelude::*;

/// The table's serialised bytes.
fn bytes(iht: &Iht) -> Vec<u8> {
    let mut e = Enc::new();
    iht.encode_into(&mut e);
    e.into_bytes()
}

/// Each slot's `(key, recency stamp)`, `None` when invalid, read from
/// the serialised table rather than through its methods.
fn slots(iht: &Iht) -> Vec<Option<(BlockKey, u64)>> {
    let bytes = bytes(iht);
    let mut d = Dec::new(&bytes);
    let capacity = d.usize().unwrap();
    let _clock = d.u64().unwrap();
    let _mru = d.usize().unwrap();
    (0..capacity)
        .map(|_| {
            d.bool().unwrap().then(|| {
                let key = BlockKey::new(d.u32().unwrap(), d.u32().unwrap());
                let _hash = d.u32().unwrap();
                (key, d.u64().unwrap())
            })
        })
        .collect()
}

/// The refill written the direct way: sort every slot into LRU order
/// (invalid first, then stalest, ties by index), keep the first half,
/// and prefetch the FHT keys after `missing` by a range walk.
fn reference_refill(iht: &mut Iht, fht: &BTreeMap<BlockKey, u32>, missing: BlockRecord) -> usize {
    let slots = slots(iht);
    let half = slots.len().div_ceil(2);
    let mut victims: Vec<usize> = (0..slots.len()).collect();
    victims.sort_by_key(|&i| match slots[i] {
        None => (false, 0, i),
        Some((_, stamp)) => (true, stamp, i),
    });
    victims.truncate(half);
    let mut incoming = vec![missing];
    let after = (Bound::Excluded(missing.key), Bound::Unbounded);
    for (&key, &hash) in fht.range(after).take(half.saturating_sub(1) * 2) {
        if incoming.len() == half {
            break;
        }
        let resident = slots.iter().flatten().any(|&(k, _)| k == key);
        if !resident && !incoming.iter().any(|r| r.key == key) {
            incoming.push(BlockRecord { key, hash });
        }
    }
    let mut written = 0;
    for (&slot, &record) in victims.iter().zip(&incoming) {
        iht.replace_at(slot, record);
        written += 1;
    }
    written
}

/// One step of a table's history.
#[derive(Clone, Debug)]
enum Op {
    /// A lookup of a pooled record: a hit when `true`, else a
    /// mismatch (or a miss if the record is not resident).
    Lookup(usize, bool),
    /// An `insert_lru` of a pooled record.
    Insert(usize),
    /// A miss on an FHT record, refilled by both implementations.
    Miss(usize),
    /// Invalidate the whole table.
    Flush,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<bool>()).prop_map(|(i, hit)| Op::Lookup(i as usize, hit)),
        any::<u16>().prop_map(|i| Op::Lookup(i as usize, true)),
        any::<u16>().prop_map(|i| Op::Insert(i as usize)),
        any::<u16>().prop_map(|i| Op::Miss(i as usize)),
        any::<u16>().prop_map(|i| Op::Miss(i as usize)),
        (0u8..16).prop_map(|i| if i == 0 {
            Op::Flush
        } else {
            Op::Miss(i as usize)
        }),
    ]
}

/// Random records: word-aligned starts drawn from a window narrow
/// enough that keys repeat, blocks of 1–16 words.
fn arb_records() -> impl Strategy<Value = Vec<BlockRecord>> {
    prop::collection::vec((0u16..1200, 0u8..16, any::<u32>()), 1..320).prop_map(|raw| {
        raw.into_iter()
            .map(|(slot, len, hash)| {
                let start = 0x1000 + 4 * u32::from(slot);
                BlockRecord {
                    key: BlockKey::new(start, start + 4 * u32::from(len)),
                    hash,
                }
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn replace_half_lru_matches_the_sorting_reference(
        capacity in prop::sample::select(vec![1usize, 2, 3, 8, 32, 256]),
        fht_records in arb_records(),
        strays in arb_records(),
        ops in prop::collection::vec(arb_op(), 0..400),
    ) {
        // Later duplicates win in both tables.
        let fht = FullHashTable::from_records(fht_records.iter().copied());
        let map: BTreeMap<BlockKey, u32> =
            fht_records.iter().map(|r| (r.key, r.hash)).collect();
        let from_map: Vec<BlockRecord> =
            map.iter().map(|(&key, &hash)| BlockRecord { key, hash }).collect();
        prop_assert_eq!(fht.records(), &from_map[..]);
        // Resident entries come from the FHT and from outside it.
        let mut pool = from_map;
        pool.extend(strays.iter().take(32));
        let mut iht = Iht::new(capacity);
        let mut reference = Iht::new(capacity);
        let mut policy = ReplaceHalfLru::default();
        for op in ops {
            match op {
                Op::Lookup(i, hit) => {
                    let r = pool[i % pool.len()];
                    let hash = if hit { r.hash } else { !r.hash };
                    prop_assert_eq!(iht.lookup(r.key, hash), reference.lookup(r.key, hash));
                }
                Op::Insert(i) => {
                    let r = pool[i % pool.len()];
                    prop_assert_eq!(iht.insert_lru(r), reference.insert_lru(r));
                }
                Op::Miss(i) => {
                    let i = i % fht.len();
                    let missing = fht.records()[i];
                    // The kernel refills only after a miss.
                    if iht.probe(missing.key).is_none() {
                        let written = policy.refill(&mut iht, &fht.records()[i + 1..], missing);
                        prop_assert_eq!(written, reference_refill(&mut reference, &map, missing));
                    }
                }
                Op::Flush => {
                    iht.flush();
                    reference.flush();
                }
            }
            prop_assert_eq!(bytes(&iht), bytes(&reference));
        }
    }
}

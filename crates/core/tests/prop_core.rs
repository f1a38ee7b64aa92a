//! Property tests for the checker hardware: the IHT behaves like an
//! abstract LRU-tagged map, and the hash units obey their detection
//! algebra. Also the `SimError` wire form: decoding untrusted
//! `(kind, rendering)` pairs never panics, and every kind tag
//! round-trips.

use cimon_core::{hash, BlockKey, BlockRecord, HashAlgoKind, Iht, LookupOutcome, SimError};
use cimon_isa::codec::Enc;
use proptest::prelude::*;

/// Abstract operations on the table.
#[derive(Clone, Debug)]
enum Op {
    Lookup { start: u8, hash: u8 },
    Insert { start: u8, hash: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12, any::<u8>()).prop_map(|(start, hash)| Op::Lookup { start, hash }),
        (0u8..12, any::<u8>()).prop_map(|(start, hash)| Op::Insert { start, hash }),
    ]
}

fn key(start: u8) -> BlockKey {
    let s = 0x1000 + (start as u32) * 0x40;
    BlockKey::new(s, s + 12)
}

/// Reference model: vector of (key, hash) with LRU order maintained by
/// moving touched entries to the back.
#[derive(Default)]
struct Model {
    entries: Vec<(BlockKey, u32)>,
    cap: usize,
}

impl Model {
    fn lookup(&mut self, k: BlockKey, h: u32) -> LookupOutcome {
        if let Some(pos) = self.entries.iter().position(|(ek, _)| *ek == k) {
            let (ek, eh) = self.entries[pos];
            if eh == h {
                // refresh recency
                self.entries.remove(pos);
                self.entries.push((ek, eh));
                LookupOutcome::Hit
            } else {
                LookupOutcome::Mismatch { expected: eh }
            }
        } else {
            LookupOutcome::Miss
        }
    }

    fn insert(&mut self, k: BlockKey, h: u32) {
        if let Some(pos) = self.entries.iter().position(|(ek, _)| *ek == k) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push((k, h));
    }
}

proptest! {
    /// The hardware IHT agrees with the abstract LRU map on every
    /// lookup outcome, for any operation sequence and any capacity.
    #[test]
    fn iht_matches_reference_model(
        cap in 1usize..9,
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut iht = Iht::new(cap);
        let mut model = Model { entries: Vec::new(), cap };
        for op in ops {
            match op {
                Op::Lookup { start, hash } => {
                    let got = iht.lookup(key(start), hash as u32);
                    let want = model.lookup(key(start), hash as u32);
                    prop_assert_eq!(got, want);
                }
                Op::Insert { start, hash } => {
                    iht.insert_lru(BlockRecord { key: key(start), hash: hash as u32 });
                    model.insert(key(start), hash as u32);
                }
            }
            prop_assert!(iht.len() <= cap);
            prop_assert_eq!(iht.len(), model.entries.len());
        }
    }

    /// The way hint is search order only: a lookup probing any hint
    /// first — stale, wrong or out of range — leaves outcomes, recency
    /// and the serialised table (MRU way included) exactly as the plain
    /// lookup does.
    #[test]
    fn hinted_lookup_is_indistinguishable_from_lookup(
        cap in 1usize..9,
        ops in prop::collection::vec(arb_op(), 1..120),
        hints in prop::collection::vec(0usize..12, 120..121),
    ) {
        let mut plain = Iht::new(cap);
        let mut hinted = Iht::new(cap);
        for (op, &hint) in ops.into_iter().zip(&hints) {
            match op {
                Op::Lookup { start, hash } => {
                    let mut way = hint;
                    let got = hinted.lookup_from(key(start), hash as u32, &mut way);
                    prop_assert_eq!(got, plain.lookup(key(start), hash as u32));
                    if got == LookupOutcome::Miss {
                        prop_assert_eq!(way, hint);
                    } else {
                        prop_assert!(way < cap);
                    }
                }
                Op::Insert { start, hash } => {
                    let record = BlockRecord { key: key(start), hash: hash as u32 };
                    prop_assert_eq!(hinted.insert_lru(record), plain.insert_lru(record));
                }
            }
            prop_assert_eq!(hinted.lru_order(), plain.lru_order());
            let (mut a, mut b) = (Enc::new(), Enc::new());
            hinted.encode_into(&mut a);
            plain.encode_into(&mut b);
            prop_assert_eq!(a.into_bytes(), b.into_bytes());
        }
    }

    /// `insert_lru` of a key not in the table takes the head of
    /// `lru_order` as its victim, for any table state: holes left by
    /// `replace_at`, stale and refreshed entries, any capacity. The new
    /// entry lands in that slot as the most recent, and the evicted
    /// record is the one the slot held.
    #[test]
    fn insert_lru_evicts_the_head_of_lru_order(
        cap in 1usize..9,
        ops in prop::collection::vec(arb_op(), 0..60),
        places in prop::collection::vec((0usize..9, 0u8..12), 0..6),
        fresh in 12u8..24,
    ) {
        let mut iht = Iht::new(cap);
        for (index, start) in places {
            iht.replace_at(index % cap, BlockRecord { key: key(start), hash: 0 });
        }
        for op in ops {
            match op {
                Op::Lookup { start, hash } => {
                    iht.lookup(key(start), hash as u32);
                }
                Op::Insert { start, hash } => {
                    iht.insert_lru(BlockRecord { key: key(start), hash: hash as u32 });
                }
            }
        }
        let victim = iht.lru_order()[0];
        let held = if iht.len() == cap {
            iht.records().nth(victim)
        } else {
            None
        };
        let record = BlockRecord { key: key(fresh), hash: 7 };
        prop_assert_eq!(iht.insert_lru(record), held);
        prop_assert_eq!(iht.lru_order().last().copied(), Some(victim));
        prop_assert_eq!(iht.probe(key(fresh)), Some(record));
    }

    /// Victim selection against a slot-level recency model updated per
    /// operation: every slot's record, plus the valid slots listed
    /// stalest first (a hit or a write moves a slot to the back). After
    /// every lookup, `insert_lru` and `replace_at`, each prefix
    /// `lru_prefix_into(k)` is the model's invalid slots in index
    /// order followed by its recency list, and `insert_lru` evicts the
    /// model's head and lands in that slot.
    #[test]
    fn victims_follow_a_recency_model(
        cap in prop::sample::select(vec![1usize, 2, 3, 5, 8, 13, 40]),
        ops in prop::collection::vec(
            (0u8..4, 0u8..48, any::<u8>(), 0usize..40),
            0..200,
        ),
    ) {
        let mut iht = Iht::new(cap);
        let mut slots: Vec<Option<BlockRecord>> = vec![None; cap];
        let mut recency: Vec<usize> = Vec::new();
        let touch = |recency: &mut Vec<usize>, slot: usize| {
            recency.retain(|&s| s != slot);
            recency.push(slot);
        };
        let mut prefix = Vec::new();
        for (kind, start, hash, at) in ops {
            let record = BlockRecord { key: key(start), hash: u32::from(hash % 4) };
            let resident = slots.iter().position(|s| s.is_some_and(|r| r.key == record.key));
            match kind {
                0 | 1 => {
                    // Lookup: only a hit refreshes.
                    iht.lookup(record.key, record.hash);
                    if let Some(slot) = resident {
                        if slots[slot].is_some_and(|r| r.hash == record.hash) {
                            touch(&mut recency, slot);
                        }
                    }
                }
                2 => {
                    let (slot, evicted) = match resident {
                        Some(slot) => (slot, None),
                        None => {
                            let head = (0..cap)
                                .find(|&s| slots[s].is_none())
                                .unwrap_or_else(|| recency[0]);
                            (head, slots[head])
                        }
                    };
                    prop_assert_eq!(iht.insert_lru(record), evicted);
                    slots[slot] = Some(record);
                    touch(&mut recency, slot);
                }
                _ => {
                    // `replace_at` a slot, keeping keys unique.
                    let slot = at % cap;
                    if resident.is_none() || resident == Some(slot) {
                        iht.replace_at(slot, record);
                        slots[slot] = Some(record);
                        touch(&mut recency, slot);
                    }
                }
            }
            let mut order: Vec<usize> = (0..cap).filter(|&s| slots[s].is_none()).collect();
            order.extend(&recency);
            for k in 0..=cap + 1 {
                iht.lru_prefix_into(k, &mut prefix);
                prop_assert_eq!(&prefix[..], &order[..k.min(cap)]);
            }
            let held: Vec<BlockRecord> = slots.iter().flatten().copied().collect();
            prop_assert_eq!(iht.records().collect::<Vec<_>>(), held);
        }
    }

    /// LRU replacement never evicts the most-recently-hit entry: after
    /// any operation history, a successful hit refreshes an entry's
    /// recency, so a subsequent capacity eviction must pick a victim
    /// other than the hit entry (for any table with at least 2 slots).
    #[test]
    fn lru_never_evicts_most_recently_hit(
        cap in 2usize..9,
        ops in prop::collection::vec(arb_op(), 0..120),
        probe in 0u8..12,
    ) {
        let mut iht = Iht::new(cap);
        for op in ops {
            match op {
                Op::Lookup { start, hash } => {
                    iht.lookup(key(start), hash as u32);
                }
                Op::Insert { start, hash } => {
                    iht.insert_lru(BlockRecord { key: key(start), hash: hash as u32 });
                }
            }
        }
        // Make `probe` resident, then *hit* it (the recency refresh).
        iht.insert_lru(BlockRecord { key: key(probe), hash: 0x77 });
        prop_assert_eq!(iht.lookup(key(probe), 0x77), LookupOutcome::Hit);
        // A fresh key outside the op universe forces a replacement
        // decision; the most-recently-hit entry must survive it.
        let fresh = BlockKey::new(0x9000_0000, 0x9000_000c);
        if let Some(evicted) = iht.insert_lru(BlockRecord { key: fresh, hash: 1 }) {
            prop_assert_ne!(evicted.key, key(probe));
        }
        prop_assert!(iht.probe(key(probe)).is_some());
    }

    /// Any odd number of bit flips anywhere in a block is detected by
    /// the XOR checksum (column parity argument, paper Section 6.3).
    #[test]
    fn xor_detects_odd_flip_counts(
        words in prop::collection::vec(any::<u32>(), 1..24),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u32..32), 1..8),
    ) {
        let clean = hash::hash_words(HashAlgoKind::Xor, 0, words.iter().copied());
        let mut corrupted = words.clone();
        // Apply an odd number of flips (truncate to odd length).
        let n = if flips.len() % 2 == 0 { flips.len() - 1 } else { flips.len() };
        let n = n.max(1);
        for (idx, bit) in flips.into_iter().take(n) {
            let i = idx.index(corrupted.len());
            corrupted[i] ^= 1 << bit;
        }
        // Flips can coincide and cancel pairwise; count the *effective*
        // flipped bits to decide the expectation.
        let effective: u32 = words
            .iter()
            .zip(&corrupted)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        let dirty = hash::hash_words(HashAlgoKind::Xor, 0, corrupted.iter().copied());
        if effective % 2 == 1 {
            prop_assert_ne!(clean, dirty);
        }
    }

    /// Single-bit flips are detected by every implemented algorithm.
    #[test]
    fn all_algorithms_detect_single_flips(
        words in prop::collection::vec(any::<u32>(), 1..16),
        idx in any::<prop::sample::Index>(),
        bit in 0u32..32,
    ) {
        for kind in HashAlgoKind::ALL {
            let clean = hash::hash_words(kind, 0x5eed, words.iter().copied());
            let mut corrupted = words.clone();
            let i = idx.index(corrupted.len());
            corrupted[i] ^= 1 << bit;
            let dirty = hash::hash_words(kind, 0x5eed, corrupted.iter().copied());
            prop_assert_ne!(clean, dirty, "{} missed a single-bit flip", kind);
        }
    }

    /// Hash units are deterministic: same words, same digest.
    #[test]
    fn hashing_is_deterministic(words in prop::collection::vec(any::<u32>(), 0..32)) {
        for kind in HashAlgoKind::ALL {
            let a = hash::hash_words(kind, 42, words.iter().copied());
            let b = hash::hash_words(kind, 42, words.iter().copied());
            prop_assert_eq!(a, b);
        }
    }

    /// Reset after an arbitrary stream restores block-start behaviour:
    /// hashing a block is independent of what preceded the reset.
    #[test]
    fn reset_isolates_blocks(
        prefix in prop::collection::vec(any::<u32>(), 0..16),
        block in prop::collection::vec(any::<u32>(), 1..16),
    ) {
        for kind in HashAlgoKind::ALL {
            let mut unit = hash::hasher_for(kind, 7);
            for w in &prefix {
                unit.update(*w);
            }
            unit.reset();
            for w in &block {
                unit.update(*w);
            }
            let streamed = unit.digest();
            let fresh = hash::hash_words(kind, 7, block.iter().copied());
            prop_assert_eq!(streamed, fresh, "{} reset leaks state", kind);
        }
    }
}

/// Pieces of real wire renderings, so generated strings get past the
/// prefix checks and into every field parser.
const FRAGMENTS: [&str; 24] = [
    "assembly failed: ",
    "undecodable word ",
    " at ",
    "0x",
    "deadbeef",
    "FFFFFFFF",
    "snapshot checksum mismatch: expected ",
    ", found ",
    "worker panic in ",
    "sweep",
    " pool: ",
    "cycle budget of ",
    " exhausted",
    "watchdog fired after ",
    " ms",
    "admission queue full: ",
    " of ",
    "18446744073709551616",
    "-1",
    "server draining: not admitting new requests",
    "checkpoint spill failed: ",
    "resume mismatch: ",
    "\u{0}é",
    "",
];

fn arb_rendering() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..6),
        prop::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(parts, raw)| parts.concat() + &String::from_utf8_lossy(&raw))
}

/// Tags of variants that no longer exist: stored rows carrying them
/// decode as unknown.
const REMOVED_KINDS: [&str; 2] = ["checkpoint-spill", "snapshot-corrupt"];

/// One value of the variant tagged `tag`, its payload drawn from `n`
/// and `text`.
fn variant(tag: &str, n: u64, text: &str) -> SimError {
    let message = text.to_string();
    match tag {
        "assembly" => SimError::Assembly { message },
        "hash-gen" => SimError::HashGen { message },
        "decode" => SimError::Decode {
            addr: n as u32,
            word: (n >> 32) as u32,
        },
        "memory-bounds" => SimError::MemoryBounds { addr: n as u32 },
        "worker-panic" => SimError::WorkerPanic {
            site: ["sweep", "campaign", "serve"][(n % 3) as usize],
            message,
        },
        "cycle-budget" => SimError::CycleBudget { max_cycles: n },
        "watchdog" => SimError::Watchdog { max_wall_ms: n },
        "invalid-config" => SimError::InvalidConfig { message },
        "overloaded" => SimError::Overloaded {
            queued: (n as u32) as usize,
            capacity: (n >> 32) as usize,
        },
        "draining" => SimError::Draining,
        "protocol" => SimError::Protocol { message },
        "io" => SimError::Io { message },
        "resume-mismatch" => SimError::ResumeMismatch { message },
        other => panic!("no generator for kind tag `{other}`"),
    }
}

proptest! {
    /// Arbitrary wire pairs — every live tag, the removed
    /// `checkpoint-spill` and `snapshot-corrupt` tags, and unknown tags
    /// — decode to `None` or to a value of the tag asked for that
    /// re-renders to itself. Never a panic.
    #[test]
    fn wire_decoding_of_arbitrary_strings_never_panics(
        tag_idx in any::<prop::sample::Index>(),
        text in arb_rendering(),
    ) {
        let mut tags: Vec<&str> = SimError::KINDS.to_vec();
        tags.extend(REMOVED_KINDS);
        tags.extend(["", "warp-core"]);
        let tag = tags[tag_idx.index(tags.len())];
        if let Some(e) = SimError::from_wire(tag, &text) {
            prop_assert_eq!(e.kind(), tag);
            prop_assert_eq!(SimError::from_wire(e.kind(), &e.to_string()), Some(e));
        }
        for removed in REMOVED_KINDS {
            prop_assert_eq!(SimError::from_wire(removed, &text), None);
        }
    }

    /// Every kind tag round-trips through its wire form for arbitrary
    /// payloads.
    #[test]
    fn every_kind_tag_round_trips(n in any::<u64>(), text in arb_rendering()) {
        for removed in REMOVED_KINDS {
            prop_assert!(!SimError::KINDS.contains(&removed));
        }
        for tag in SimError::KINDS {
            let e = variant(tag, n, &text);
            prop_assert_eq!(e.kind(), tag);
            prop_assert_eq!(SimError::from_wire(tag, &e.to_string()), Some(e));
        }
    }
}

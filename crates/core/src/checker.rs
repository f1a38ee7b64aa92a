//! The assembled Code Integrity Checker.
//!
//! [`Cic`] groups the monitoring hardware of Figure 2 — `HASHFU`, the
//! `IHTbb` and the comparator — behind exactly the operations the
//! monitoring micro-ops perform: a hash step per fetch, a reset at block
//! boundaries, and the `(found, match)` lookup at block ends. The
//! pipeline's micro-op environment delegates here; the OS refills the
//! table through [`Cic::iht_mut`].

use crate::block::BlockKey;
use crate::hash::{decode_kind, encode_kind, BlockHasher, HashAlgo};
use crate::iht::{Iht, LookupOutcome};
use cimon_isa::codec::{CodecError, Dec, Enc};
use cimon_microop::HashAlgoKind;

/// Configuration of the checker hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CicConfig {
    /// IHT capacity in entries (the paper evaluates 1, 8, 16, 32).
    pub iht_entries: usize,
    /// The `HASHFU` algorithm (the paper uses [`HashAlgoKind::Xor`]).
    pub hash_algo: HashAlgoKind,
    /// Seed for the seeded-XOR variant; ignored by other algorithms.
    pub hash_seed: u32,
}

impl Default for CicConfig {
    /// The paper's headline configuration: 8-entry IHT, XOR checksum.
    fn default() -> Self {
        CicConfig {
            iht_entries: 8,
            hash_algo: HashAlgoKind::Xor,
            hash_seed: 0,
        }
    }
}

impl CicConfig {
    /// Convenience constructor with the given table size.
    pub fn with_entries(iht_entries: usize) -> CicConfig {
        CicConfig {
            iht_entries,
            ..CicConfig::default()
        }
    }
}

/// Cumulative checker statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CicStats {
    /// Instruction words folded into the running hash.
    pub words_hashed: u64,
    /// Block-end checks performed.
    pub checks: u64,
    /// Checks that hit with a matching hash.
    pub hits: u64,
    /// Checks that missed (key absent) — these trap to the OS.
    pub misses: u64,
    /// Checks that found the key but not the hash — integrity violations.
    pub mismatches: u64,
}

impl CicStats {
    /// Miss rate in percent over all checks (Figure 6's metric).
    pub fn miss_rate_percent(&self) -> f64 {
        if self.checks == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.checks as f64
        }
    }
}

/// Memoised check state of one block, for [`Cic::check_block_memo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockMemo {
    /// The block's digest hashed from reset, once computed.
    pub digest: Option<u32>,
    /// The IHT way the block's key last matched in: a search-order
    /// hint, checked by a key compare before it is trusted.
    pub way: usize,
}

/// The Code Integrity Checker unit.
///
/// The hash unit is the enum-dispatch [`HashAlgo`]: `hash_step` runs
/// once per fetched instruction, so the checker avoids a virtual call
/// there. User-supplied [`crate::hash::BlockHasher`] implementations
/// plug in at the [`cimon_microop::MicroEnv`] level instead.
///
/// The checker is `Clone`: a clone is a complete snapshot of the
/// monitoring hardware's run state (digest, table contents and LRU
/// order, statistics), which the snapshot/restore machinery captures
/// at checkpoint boundaries.
#[derive(Clone)]
pub struct Cic {
    config: CicConfig,
    hasher: HashAlgo,
    iht: Iht,
    stats: CicStats,
}

impl std::fmt::Debug for Cic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cic")
            .field("config", &self.config)
            .field("iht_valid", &self.iht.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cic {
    /// Build the checker for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.iht_entries == 0`.
    pub fn new(config: CicConfig) -> Cic {
        Cic {
            config,
            hasher: HashAlgo::new(config.hash_algo, config.hash_seed),
            iht: Iht::new(config.iht_entries),
            stats: CicStats::default(),
        }
    }

    /// The configuration this checker was built with.
    pub fn config(&self) -> CicConfig {
        self.config
    }

    /// One `HASHFU.ope` step: absorb a fetched instruction word and
    /// return the updated digest (the new `RHASH` value).
    pub fn hash_step(&mut self, word: u32) -> u32 {
        self.stats.words_hashed += 1;
        self.hasher.update(word);
        self.hasher.digest()
    }

    /// A whole run of `HASHFU.ope` steps in one call: absorb every
    /// word in order and return the digest after the last — exactly
    /// what per-word [`Cic::hash_step`] calls would leave behind
    /// (counter included), with the intermediate digest readbacks the
    /// block dispatcher never consumes skipped.
    pub fn hash_block_step(&mut self, words: &[u32]) -> u32 {
        self.stats.words_hashed += words.len() as u64;
        self.hasher.update_block(words);
        self.hasher.digest()
    }

    /// The current digest without absorbing anything.
    pub fn hash_value(&self) -> u32 {
        self.hasher.digest()
    }

    /// `RHASH.reset()`: restart the hash unit for a new block.
    pub fn hash_reset(&mut self) {
        self.hasher.reset();
    }

    /// The reset-state digest (what `RHASH` holds after reset) — zero for
    /// plain XOR, the seed-derived value for seeded algorithms.
    pub fn hash_reset_value(&self) -> u32 {
        let mut probe = HashAlgo::new(self.config.hash_algo, self.config.hash_seed);
        probe.reset();
        probe.digest()
    }

    /// Account `n` words as hashed without touching the digest: a check
    /// that replays a memoised block digest
    /// ([`Cic::check_block_memo`]) must leave
    /// [`CicStats::words_hashed`] exactly where per-word hashing would.
    pub fn note_words_hashed(&mut self, n: u64) {
        self.stats.words_hashed += n;
    }

    /// Whether the hash unit currently sits in its reset state — the
    /// precondition for replaying a memoised whole-block digest.
    pub fn hasher_is_reset(&self) -> bool {
        let mut probe = HashAlgo::new(self.config.hash_algo, self.config.hash_seed);
        probe.reset();
        self.hasher == probe
    }

    /// The ID-stage block-end check:
    /// `<found,match> = IHTbb.lookup(<start,end,hashv>)`.
    pub fn check_block(&mut self, key: BlockKey, hash: u32) -> (bool, bool) {
        let outcome = self.iht.lookup(key, hash);
        self.tally(outcome)
    }

    /// One whole block checked from the reset state: hash `words`,
    /// check the digest for `key`, leave the hash unit reset — returning
    /// `(digest, found, match)` exactly as [`Cic::hash_block_step`],
    /// [`Cic::check_block`] and [`Cic::hash_reset`] in sequence would.
    ///
    /// The digest of a block hashed from reset is a pure function of
    /// its words and this checker's algorithm and seed, so `memo`
    /// carries it from the first call to every later one (which only
    /// account the words as hashed), and the IHT way the key last
    /// matched in, probed first ([`Iht::lookup_from`]). The caller owns
    /// the rest of the contract: `memo` belongs to one block whose
    /// `words` never change, and the hash unit is at reset on entry.
    pub fn check_block_memo(
        &mut self,
        words: &[u32],
        key: BlockKey,
        memo: &mut BlockMemo,
    ) -> (u32, bool, bool) {
        debug_assert!(self.hasher_is_reset(), "memoised check from mid-block");
        let digest = match memo.digest {
            Some(digest) => {
                self.note_words_hashed(words.len() as u64);
                digest
            }
            None => {
                let digest = self.hash_block_step(words);
                self.hasher.reset();
                memo.digest = Some(digest);
                digest
            }
        };
        let outcome = self.iht.lookup_from(key, digest, &mut memo.way);
        let (found, matched) = self.tally(outcome);
        (digest, found, matched)
    }

    /// Fold one lookup outcome into the check counters.
    fn tally(&mut self, outcome: LookupOutcome) -> (bool, bool) {
        self.stats.checks += 1;
        match outcome {
            LookupOutcome::Hit => {
                self.stats.hits += 1;
                (true, true)
            }
            LookupOutcome::Mismatch { .. } => {
                self.stats.mismatches += 1;
                (true, false)
            }
            LookupOutcome::Miss => {
                self.stats.misses += 1;
                (false, false)
            }
        }
    }

    /// Immutable access to the table (inspection).
    pub fn iht(&self) -> &Iht {
        &self.iht
    }

    /// Mutable access to the table — the interface the OS refill handler
    /// uses (paper: replacement hardware exposed to the OS).
    pub fn iht_mut(&mut self) -> &mut Iht {
        &mut self.iht
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CicStats {
        self.stats
    }

    /// Serialize the complete monitoring-hardware run state — config,
    /// mid-block hash unit, table, and statistics — for checkpoint
    /// serialization. Inverse of [`Cic::decode_from`].
    pub fn encode_into(&self, e: &mut Enc) {
        e.usize(self.config.iht_entries);
        encode_kind(self.config.hash_algo, e);
        e.u32(self.config.hash_seed);
        self.hasher.encode_into(e);
        self.iht.encode_into(e);
        e.u64(self.stats.words_hashed);
        e.u64(self.stats.checks);
        e.u64(self.stats.hits);
        e.u64(self.stats.misses);
        e.u64(self.stats.mismatches);
    }

    /// Rebuild a checker serialized by [`Cic::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or an internally inconsistent
    /// payload (zero table size, hash unit not matching the config).
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Cic, CodecError> {
        let iht_entries = d.usize()?;
        if iht_entries == 0 {
            return Err(CodecError::Invalid {
                what: "CIC table size",
            });
        }
        let hash_algo = decode_kind(d)?;
        let hash_seed = d.u32()?;
        let config = CicConfig {
            iht_entries,
            hash_algo,
            hash_seed,
        };
        let hasher = HashAlgo::decode_from(d)?;
        if hasher.kind() != hash_algo {
            return Err(CodecError::Invalid {
                what: "CIC hash unit kind",
            });
        }
        let iht = Iht::decode_from(d)?;
        if iht.capacity() != iht_entries {
            return Err(CodecError::Invalid {
                what: "CIC table capacity",
            });
        }
        let stats = CicStats {
            words_hashed: d.u64()?,
            checks: d.u64()?,
            hits: d.u64()?,
            misses: d.u64()?,
            mismatches: d.u64()?,
        };
        Ok(Cic {
            config,
            hasher,
            iht,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockRecord;
    use crate::hash::hash_words;

    fn key(start: u32, n_instrs: u32) -> BlockKey {
        BlockKey::new(start, start + 4 * (n_instrs - 1))
    }

    #[test]
    fn end_to_end_block_check() {
        let mut cic = Cic::new(CicConfig::default());
        let words = [0x0109_5020u32, 0x2508_0001, 0x1500_fffe];
        let k = key(0x40_0000, 3);
        let expect = hash_words(HashAlgoKind::Xor, 0, words);
        cic.iht_mut().insert_lru(BlockRecord {
            key: k,
            hash: expect,
        });

        let mut rhash = 0;
        for w in words {
            rhash = cic.hash_step(w);
        }
        assert_eq!(rhash, expect);
        assert_eq!(cic.check_block(k, rhash), (true, true));
        cic.hash_reset();
        assert_eq!(cic.hash_value(), 0);
        let s = cic.stats();
        assert_eq!((s.checks, s.hits, s.misses, s.mismatches), (1, 1, 0, 0));
        assert_eq!(s.words_hashed, 3);
    }

    #[test]
    fn corrupted_word_yields_mismatch() {
        let mut cic = Cic::new(CicConfig::default());
        let words = [0x1111_1111u32, 0x2222_2222];
        let k = key(0x40_0000, 2);
        cic.iht_mut().insert_lru(BlockRecord {
            key: k,
            hash: hash_words(HashAlgoKind::Xor, 0, words),
        });
        cic.hash_step(words[0] ^ (1 << 13)); // transient flip
        let rhash = cic.hash_step(words[1]);
        assert_eq!(cic.check_block(k, rhash), (true, false));
        assert_eq!(cic.stats().mismatches, 1);
    }

    #[test]
    fn unknown_block_is_a_miss() {
        let mut cic = Cic::new(CicConfig::with_entries(1));
        let rhash = cic.hash_step(0x42);
        assert_eq!(cic.check_block(key(0x40_0000, 1), rhash), (false, false));
        assert_eq!(cic.stats().misses, 1);
        assert!((cic.stats().miss_rate_percent() - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn seeded_config_resets_to_seed_value() {
        let cfg = CicConfig {
            hash_algo: HashAlgoKind::SeededXor,
            hash_seed: 0xfeed_face,
            ..CicConfig::default()
        };
        let mut cic = Cic::new(cfg);
        assert_eq!(cic.hash_reset_value(), 0xfeed_face);
        cic.hash_step(1);
        cic.hash_reset();
        assert_eq!(cic.hash_value(), 0xfeed_face);
    }

    #[test]
    fn encode_decode_round_trips_mid_block_state() {
        use cimon_isa::codec::{Dec, Enc};
        let cfg = CicConfig {
            iht_entries: 4,
            hash_algo: HashAlgoKind::SeededXor,
            hash_seed: 0x5eed_cafe,
        };
        let mut cic = Cic::new(cfg);
        cic.iht_mut().insert_lru(BlockRecord {
            key: key(0x1000, 2),
            hash: 0xaa,
        });
        cic.hash_step(0x1111_1111); // mid-block: hash unit not reset
        cic.check_block(key(0x2000, 1), 7);
        let mut e = Enc::new();
        cic.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut back = Cic::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.config(), cic.config());
        assert_eq!(back.stats(), cic.stats());
        assert_eq!(back.hash_value(), cic.hash_value());
        assert!(!back.hasher_is_reset());
        // Continue the block on both: digests must stay identical.
        assert_eq!(back.hash_step(0x2222_2222), cic.hash_step(0x2222_2222));
        assert_eq!(
            back.check_block(key(0x1000, 2), 0xaa),
            cic.check_block(key(0x1000, 2), 0xaa)
        );
        assert!(Cic::decode_from(&mut Dec::new(&bytes[..bytes.len() - 3])).is_err());
    }

    #[test]
    fn memoised_check_matches_hash_check_reset() {
        for algo in HashAlgoKind::ALL {
            let cfg = CicConfig {
                iht_entries: 4,
                hash_algo: algo,
                hash_seed: 0x5eed_cafe,
            };
            let words = [0x0109_5020u32, 0x2508_0001, 0x1500_fffe];
            let k = key(0x40_0000, 3);
            let mut plain = Cic::new(cfg);
            let mut memoised = Cic::new(cfg);
            for cic in [&mut plain, &mut memoised] {
                cic.iht_mut().replace_at(
                    2,
                    BlockRecord {
                        key: k,
                        hash: hash_words(algo, 0x5eed_cafe, words),
                    },
                );
                cic.iht_mut().replace_at(
                    0,
                    BlockRecord {
                        key: key(0x1000, 1),
                        hash: 0,
                    },
                );
            }
            let mut memo = BlockMemo::default();
            for round in 0..3 {
                let digest = plain.hash_block_step(&words);
                let (found, matched) = plain.check_block(k, digest);
                plain.hash_reset();
                assert_eq!(
                    memoised.check_block_memo(&words, k, &mut memo),
                    (digest, found, matched),
                    "{algo:?} round {round}"
                );
                assert_eq!(
                    memo,
                    BlockMemo {
                        digest: Some(digest),
                        way: 2
                    }
                );
                assert!(memoised.hasher_is_reset());
                assert_eq!(memoised.stats(), plain.stats());
                assert_eq!(memoised.iht().lru_order(), plain.iht().lru_order());
            }
            assert_eq!(plain.stats().words_hashed, 9);
        }
    }

    #[test]
    fn stats_reset_keeps_table() {
        // A block-boundary digest reset restarts the hash only: the
        // counters and the table contents survive it.
        let mut cic = Cic::new(CicConfig::default());
        cic.iht_mut().insert_lru(BlockRecord {
            key: key(0x1000, 1),
            hash: 0,
        });
        cic.hash_step(7);
        cic.check_block(key(0x2000, 1), 7);
        let stats = cic.stats();
        cic.hash_reset();
        assert!(cic.hasher_is_reset());
        assert_eq!(cic.stats(), stats);
        assert_eq!((stats.words_hashed, stats.checks, stats.misses), (1, 1, 1));
        assert_eq!(cic.iht().len(), 1);
    }
}

//! Basic-block superblock dispatch: group the predecoded image into
//! basic blocks so the processor can execute a whole block per dispatch.
//!
//! The paper's CIC already works at basic-block granularity — the hash
//! is checked only at a block's terminating control-flow instruction —
//! yet the simulator used to pay instruction-granular dispatch overhead
//! (stage micro-programs, datapath register traffic, predecode lookups)
//! on every cycle. A [`BlockCache`] precomputes, for every possible
//! entry PC, the run of predecoded instructions that ends at the first
//! control-flow instruction (or at [`MAX_BLOCK_LEN`], an undecodable
//! word, or the image edge), so `Processor::step_block` can hoist the
//! per-instruction machinery to block boundaries.
//!
//! **The cache can never mask an attack.** Like the predecode plane it
//! is built on, the block cache is validated against the words the
//! memory system actually holds at dispatch time: a clean bus, or a
//! tap that passes the block's span through unchanged
//! ([`BusTap::passes_through`](cimon_mem::BusTap::passes_through)),
//! lets a whole block be checked with one bulk comparison, while any
//! other bus tap (or a failed bulk comparison) drops to per-word fetches
//! through the real [`FetchBus`](cimon_mem::FetchBus). Any divergence
//! between a delivered word and its predecoded form bails out to the
//! per-instruction path mid-block, reproducing the unoptimised
//! behaviour exactly — see `Processor::step_block`.
//!
//! A store inside a block can change one of its later words only by
//! changing the program's own text, and every write that changes a byte
//! of it bumps [`Memory::dense_epoch`](cimon_mem::Memory::dense_epoch).
//! A bulk comparison therefore holds for the rest of its block while the
//! epoch is unchanged; the dispatcher re-reads it after every executed
//! instruction and fetches per word from the first text change on, so
//! self-modification is observed at the architecturally correct instant.

use std::sync::Arc;

use cimon_isa::INSTR_BYTES;

use crate::predecode::{PredecodedEntry, PredecodedImage};
use crate::timing::{BlockPlan, TimingConfig};

/// Upper bound on instructions per cached block. Blocks are cut here
/// even without control flow so one dispatch's bookkeeping (bulk
/// comparison span, bail-out granularity) stays bounded.
pub const MAX_BLOCK_LEN: usize = 64;

/// One cached basic block, resolved for a concrete start PC.
#[derive(Clone, Copy, Debug)]
pub struct CachedBlock<'a> {
    /// The block's predecoded instructions, in address order.
    pub entries: &'a [PredecodedEntry],
    /// The block's expected text bytes (little-endian), for the bulk
    /// comparison against the memory's dense region.
    pub bytes: &'a [u8],
    /// The same span as instruction words — what a batched hash
    /// observe absorbs for a bulk-validated block.
    pub words: &'a [u32],
}

/// The predecoded image grouped into basic blocks, shareable across
/// runs (sweeps cache one per workload on `cimon_sim::Artifact`).
pub struct BlockCache {
    image: Arc<PredecodedImage>,
    base: u32,
    /// Dense copy of the decodable predecoded entries; slots whose word
    /// does not decode hold a placeholder that no block ever covers.
    entries: Vec<PredecodedEntry>,
    /// The predecoded words as little-endian bytes, slot-aligned.
    bytes: Vec<u8>,
    /// The predecoded words themselves, slot-aligned (the batched
    /// hash-observe form of `bytes`).
    words: Vec<u32>,
    /// Instructions in the block starting at each slot (0 when the slot
    /// itself is undecodable — dispatch falls back to live decode).
    lens: Vec<u16>,
    /// Per-slot static timing plan of the block's straight-line body
    /// (an empty plan for blocks of one instruction), precomputed under
    /// `timing_config`.
    plans: Vec<BlockPlan>,
    /// The latency configuration the plans were built for — a
    /// processor running different latencies must not replay them.
    timing_config: TimingConfig,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("base", &format_args!("{:#010x}", self.base))
            .field("slots", &self.lens.len())
            .field("blocks", &self.block_count())
            .finish()
    }
}

impl BlockCache {
    /// Group a predecoded image into basic blocks (one linear pass),
    /// with block timing plans built for the default [`TimingConfig`].
    pub fn new(image: Arc<PredecodedImage>) -> BlockCache {
        BlockCache::with_timing(image, TimingConfig::default())
    }

    /// Group a predecoded image into basic blocks, precomputing each
    /// block's static timing plan under `timing_config`.
    pub fn with_timing(image: Arc<PredecodedImage>, timing_config: TimingConfig) -> BlockCache {
        let slots = image.slots();
        let n = slots.len();
        let placeholder = slots.iter().flatten().next().copied();
        let mut entries = Vec::new();
        let mut bytes = Vec::new();
        let mut words = Vec::new();
        let mut lens = vec![0u16; n];
        if let Some(ph) = placeholder {
            entries.reserve(n);
            bytes.reserve(n * 4);
            words.reserve(n);
            for slot in slots {
                let e = slot.as_ref().copied().unwrap_or(ph);
                let word = slot.as_ref().map_or(0, |e| e.word);
                bytes.extend_from_slice(&word.to_le_bytes());
                words.push(word);
                entries.push(e);
            }
            for i in (0..n).rev() {
                lens[i] = match &slots[i] {
                    None => 0,
                    Some(e) if e.is_control_flow => 1,
                    Some(_) => {
                        let next = if i + 1 < n { lens[i + 1] } else { 0 };
                        if next == 0 {
                            1
                        } else {
                            (1 + next).min(MAX_BLOCK_LEN as u16)
                        }
                    }
                };
            }
        }
        // Plan every slot's block body (all entries but the terminator)
        // once: dispatches replay the plan instead of re-deriving the
        // schedule, and overlapping blocks each get their own plan so a
        // jump target mid-block replays its shorter schedule exactly.
        let plans = (0..n)
            .map(|i| {
                let len = lens[i] as usize;
                if len <= 1 {
                    BlockPlan::default()
                } else {
                    BlockPlan::build(&entries[i..i + len - 1], timing_config)
                }
            })
            .collect();
        BlockCache {
            base: image.base(),
            image,
            entries,
            bytes,
            words,
            lens,
            plans,
            timing_config,
        }
    }

    /// The predecoded image this cache was built over.
    pub fn image(&self) -> &Arc<PredecodedImage> {
        &self.image
    }

    /// Base address of the cached range.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of instruction slots covered.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// Whether the cache covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Number of distinct blocks when entered from fall-through order
    /// (jump targets can start additional, shorter blocks).
    pub fn block_count(&self) -> usize {
        let mut i = 0;
        let mut count = 0;
        while i < self.lens.len() {
            let len = self.lens[i].max(1) as usize;
            i += len;
            count += 1;
        }
        count
    }

    /// The block starting at `pc`, if `pc` lands on a decodable slot.
    #[inline]
    pub fn block_at(&self, pc: u32) -> Option<CachedBlock<'_>> {
        self.slot_at(pc).map(|slot| self.block_at_slot(slot))
    }

    /// The slot index serving `pc`, if `pc` lands on a decodable slot —
    /// the key of the per-slot validation and plan state.
    #[inline]
    pub fn slot_at(&self, pc: u32) -> Option<u32> {
        let off = pc.wrapping_sub(self.base);
        if off % INSTR_BYTES != 0 {
            return None;
        }
        let idx = off / INSTR_BYTES;
        match self.lens.get(idx as usize) {
            Some(&len) if len > 0 => Some(idx),
            _ => None,
        }
    }

    /// The block at a slot index previously returned by
    /// [`BlockCache::slot_at`] (the cache is immutable, so a recorded
    /// slot can never go stale).
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not produced by [`BlockCache::slot_at`] on
    /// this cache.
    #[inline]
    pub fn block_at_slot(&self, slot: u32) -> CachedBlock<'_> {
        let idx = slot as usize;
        let len = self.lens[idx] as usize;
        debug_assert!(len > 0, "slot {slot} holds no block");
        CachedBlock {
            entries: &self.entries[idx..idx + len],
            bytes: &self.bytes[4 * idx..4 * (idx + len)],
            words: &self.words[idx..idx + len],
        }
    }

    /// The precomputed timing plan of the block at `slot` (an empty
    /// plan for single-instruction blocks).
    #[inline]
    pub fn plan_at(&self, slot: u32) -> &BlockPlan {
        &self.plans[slot as usize]
    }

    /// The latency configuration the cached timing plans were built
    /// under.
    pub fn timing_config(&self) -> TimingConfig {
        self.timing_config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockExec, Processor, ProcessorConfig, RunOutcome};
    use cimon_asm::assemble;
    use cimon_mem::{BusTap, ProgramImage};
    use std::cell::Cell;
    use std::rc::Rc;

    fn cache_of(src: &str) -> (BlockCache, ProgramImage) {
        let image = assemble(src).unwrap().image;
        let pre = Arc::new(PredecodedImage::new(&image));
        (BlockCache::new(pre), image)
    }

    const PROGRAM: &str = "
        .text
    main:
        li   $t0, 10
        li   $t1, 0
    loop:
        addu $t1, $t1, $t0
        sw   $t1, 0($gp)
        addiu $t0, $t0, -1
        bnez $t0, loop
        move $a0, $t1
        li   $v0, 10
        syscall
    ";

    #[test]
    fn blocks_end_at_control_flow() {
        let (cache, img) = cache_of(PROGRAM);
        assert_eq!(cache.base(), img.text.base);
        assert_eq!(cache.len(), img.text.bytes.len() / 4);
        assert!(!cache.is_empty());
        // Entry block: li, li, addu, sw, addiu, bnez — six instructions.
        let b = cache.block_at(img.entry).unwrap();
        assert_eq!(b.entries.len(), 6);
        assert!(b.entries[5].is_control_flow);
        assert_eq!(b.bytes.len(), 24);
        assert_eq!(b.bytes, &img.text.bytes[..24]);
        // The loop target starts a shorter block with the same end.
        let l = cache.block_at(img.entry + 8).unwrap();
        assert_eq!(l.entries.len(), 4);
        // Exit block: move, li, syscall.
        let e = cache.block_at(img.entry + 24).unwrap();
        assert_eq!(e.entries.len(), 3);
        assert_eq!(cache.block_count(), 2);
    }

    /// An identity tap that counts the fetches it sees and passes every
    /// span through, so only per-word fetches reach it.
    struct CountingTap(Rc<Cell<u64>>);

    impl BusTap for CountingTap {
        fn on_fetch(&mut self, _addr: u32, word: u32) -> u32 {
            self.0.set(self.0.get() + 1);
            word
        }

        fn passes_through(&self, _start: u32, _end: u32) -> bool {
            true
        }
    }

    /// Run `src` at baseline under block dispatch behind a
    /// [`CountingTap`]: the outcome, the per-word fetches the tap saw,
    /// and the run's retired instructions and bail-outs.
    fn per_word_fetches(src: &str) -> (RunOutcome, u64, u64, u64) {
        let image = assemble(src).unwrap().image;
        let mut cpu = Processor::new(
            &image,
            ProcessorConfig {
                block_exec: BlockExec::On,
                ..ProcessorConfig::baseline()
            },
        );
        let seen = Rc::new(Cell::new(0));
        cpu.set_bus_tap(Box::new(CountingTap(seen.clone())));
        let outcome = cpu.run();
        (
            outcome,
            seen.get(),
            cpu.stats().instructions,
            cpu.block_stats().bailouts,
        )
    }

    #[test]
    fn stores_before_the_block_end_keep_bulk_validation() {
        // The entry and loop blocks carry a mid-block data store: it
        // never lands in the text, so every word stays bulk-validated.
        let (cache, img) = cache_of(PROGRAM);
        assert_eq!(cache.block_at(img.entry).unwrap().entries.len(), 6);
        let (outcome, seen, _, bailouts) = per_word_fetches(PROGRAM);
        assert_eq!(outcome, RunOutcome::Exited { code: 55 });
        assert_eq!(seen, 0, "no word of a store-carrying block is fetched");
        assert_eq!(bailouts, 0);
    }

    #[test]
    fn text_stores_fetch_only_the_rest_of_their_block() {
        // A store that changes the text (the block's own first word,
        // already run), mid-block: the four words after it are fetched
        // per word, the five up to it are not.
        let mid = "
            .text
        main:
            la   $t8, main
            lw   $t9, 0($t8)
            xori $t9, $t9, 1
            sw   $t9, 0($t8)
            addu $t0, $t0, $t1
            addu $t0, $t0, $t1
            li   $v0, 10
            syscall
        ";
        let (cache, img) = cache_of(mid);
        assert_eq!(cache.block_at(img.entry).unwrap().entries.len(), 9);
        let (outcome, seen, instructions, bailouts) = per_word_fetches(mid);
        assert_eq!(outcome, RunOutcome::Exited { code: 0 });
        assert_eq!((seen, instructions, bailouts), (4, 9, 0));

        // A store of the word already there changes nothing: no word of
        // its block is fetched.
        let same = mid.replace("xori $t9, $t9, 1", "xori $t9, $t9, 0");
        let (outcome, seen, instructions, _) = per_word_fetches(&same);
        assert_eq!(outcome, RunOutcome::Exited { code: 0 });
        assert_eq!((seen, instructions), (0, 9));

        // The changing store as the final instruction of a size-cut
        // block: no word of its block follows it, and the next block
        // re-validates in bulk against the written text.
        let mut last = String::from(
            "    .text\nmain:\n    la $t8, main\n    lw $t9, 0($t8)\n    xori $t9, $t9, 1\n",
        );
        for _ in 0..(MAX_BLOCK_LEN - 5) {
            last.push_str("    addu $t0, $t0, $t1\n");
        }
        last.push_str("    sw $t9, 0($t8)\n"); // slot MAX_BLOCK_LEN - 1
        last.push_str("    li $v0, 10\n    syscall\n");
        let (cache, img) = cache_of(&last);
        let b = cache.block_at(img.entry).unwrap();
        assert_eq!(b.entries.len(), MAX_BLOCK_LEN);
        let (outcome, seen, instructions, _) = per_word_fetches(&last);
        assert_eq!(outcome, RunOutcome::Exited { code: 0 });
        assert_eq!((seen, instructions), (0, MAX_BLOCK_LEN as u64 + 2));
    }

    #[test]
    fn misaligned_and_out_of_range_pcs_miss() {
        let (cache, img) = cache_of(PROGRAM);
        assert!(cache.block_at(img.entry + 2).is_none());
        assert!(cache.block_at(img.text.end()).is_none());
        assert!(cache.block_at(img.entry.wrapping_sub(4)).is_none());
    }

    #[test]
    fn undecodable_slots_cut_and_skip_blocks() {
        let image = {
            let mut img = assemble(PROGRAM).unwrap().image;
            // Corrupt the addu (slot 2) into an undecodable word.
            img.text.bytes[8..12].copy_from_slice(&0xffff_ffffu32.to_le_bytes());
            img
        };
        let pre = Arc::new(PredecodedImage::new(&image));
        let cache = BlockCache::new(pre);
        // The entry block now stops before the bad slot.
        let b = cache.block_at(image.entry).unwrap();
        assert_eq!(b.entries.len(), 2);
        assert!(!b.entries[1].is_control_flow);
        // Dispatch at the bad slot itself falls back entirely.
        assert!(cache.block_at(image.entry + 8).is_none());
        // The slot after it starts a fresh block.
        assert!(cache.block_at(image.entry + 12).is_some());
    }

    #[test]
    fn long_straight_line_runs_are_cut_at_max_block_len() {
        let mut src = String::from("    .text\nmain:\n");
        for _ in 0..(MAX_BLOCK_LEN + 10) {
            src.push_str("    addu $t0, $t0, $t1\n");
        }
        src.push_str("    li $v0, 10\n    syscall\n");
        let (cache, img) = cache_of(&src);
        let b = cache.block_at(img.entry).unwrap();
        assert_eq!(b.entries.len(), MAX_BLOCK_LEN);
        // The continuation picks up exactly where the cut happened.
        let next = cache
            .block_at(img.entry + (MAX_BLOCK_LEN as u32) * 4)
            .unwrap();
        assert!(!next.entries.is_empty());
    }

    #[test]
    fn slot_indexed_access_matches_block_at() {
        let (cache, img) = cache_of(PROGRAM);
        for pc in (img.text.base..img.text.end()).step_by(4) {
            let via_slot = cache.slot_at(pc).map(|s| cache.block_at_slot(s));
            match (cache.block_at(pc), via_slot) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.entries.len(), b.entries.len());
                    assert_eq!(a.bytes, b.bytes);
                    assert_eq!(a.words.len(), a.entries.len());
                    // Words mirror the bytes word for word.
                    for (w, c) in a.words.iter().zip(a.bytes.chunks_exact(4)) {
                        assert_eq!(*w, u32::from_le_bytes(c.try_into().unwrap()));
                    }
                }
                other => panic!("slot/block disagreement at {pc:#x}: {other:?}"),
            }
        }
        assert!(cache.slot_at(img.entry + 2).is_none());
    }

    #[test]
    fn every_block_has_a_plan_for_its_body() {
        let (cache, img) = cache_of(PROGRAM);
        assert_eq!(cache.timing_config(), TimingConfig::default());
        for pc in (img.text.base..img.text.end()).step_by(4) {
            if let Some(slot) = cache.slot_at(pc) {
                let block = cache.block_at_slot(slot);
                let plan = cache.plan_at(slot);
                assert_eq!(
                    plan.body_len(),
                    block.entries.len() - 1,
                    "plan covers all but the terminator at {pc:#x}"
                );
            }
        }
        // A non-default latency configuration is carried on the cache.
        let image = assemble(PROGRAM).unwrap().image;
        let custom = TimingConfig {
            mult_latency: 2,
            div_latency: 5,
        };
        let cache = BlockCache::with_timing(Arc::new(PredecodedImage::new(&image)), custom);
        assert_eq!(cache.timing_config(), custom);
    }

    #[test]
    fn empty_text_yields_an_empty_cache() {
        let image = ProgramImage::default();
        let cache = BlockCache::new(Arc::new(PredecodedImage::new(&image)));
        assert!(cache.is_empty());
        assert_eq!(cache.block_count(), 0);
        assert!(cache.block_at(0).is_none());
    }
}

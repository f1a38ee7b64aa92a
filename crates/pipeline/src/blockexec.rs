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
//! Bulk validation is additionally gated on the block containing no
//! store before its final instruction ([`CachedBlock::bulk_ok`]): a
//! store can write into the program's own text, and only per-word
//! fetches observe such self-modification at the architecturally
//! correct instant.

use std::sync::Arc;

use cimon_isa::{Instr, INSTR_BYTES};

use crate::predecode::{PredecodedEntry, PredecodedImage};
use crate::timing::{BlockPlan, TimingConfig};

/// Upper bound on instructions per cached block. Blocks are cut here
/// even without control flow so one dispatch's bookkeeping (bulk
/// comparison span, bail-out granularity) stays bounded.
pub const MAX_BLOCK_LEN: usize = 64;

/// Per-slot block metadata.
#[derive(Clone, Copy, Debug)]
struct BlockMeta {
    /// Instructions in the block starting at this slot (0 when the slot
    /// itself is undecodable — dispatch falls back to live decode).
    len: u16,
    /// Whether the block contains no store before its final
    /// instruction, making up-front bulk validation sound.
    bulk_ok: bool,
}

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
    /// Whether bulk validation is sound for this block (no store before
    /// the final instruction).
    pub bulk_ok: bool,
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
    meta: Vec<BlockMeta>,
    /// Per-slot static timing plan of the block's straight-line body
    /// (empty plan where `meta.len <= 1`), precomputed under
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
            .field("slots", &self.meta.len())
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
        let mut meta = vec![
            BlockMeta {
                len: 0,
                bulk_ok: true,
            };
            n
        ];
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
            // Stores in slots [0, i): lets "any store before the block's
            // last instruction" be answered with two lookups.
            let mut store_prefix = vec![0u32; n + 1];
            for i in 0..n {
                let is_store = matches!(&slots[i], Some(e) if is_store_instr(&e.instr));
                store_prefix[i + 1] = store_prefix[i] + is_store as u32;
            }
            for i in (0..n).rev() {
                let len = match &slots[i] {
                    None => 0,
                    Some(e) if e.is_control_flow => 1,
                    Some(_) => {
                        let next = if i + 1 < n { meta[i + 1].len } else { 0 };
                        if next == 0 {
                            1
                        } else {
                            (1 + next).min(MAX_BLOCK_LEN as u16)
                        }
                    }
                };
                meta[i].len = len;
                if len > 0 {
                    let last = i + len as usize - 1;
                    meta[i].bulk_ok = store_prefix[last] == store_prefix[i];
                }
            }
        }
        // Plan every slot's block body (all entries but the terminator)
        // once: dispatches replay the plan instead of re-deriving the
        // schedule, and overlapping blocks each get their own plan so a
        // jump target mid-block replays its shorter schedule exactly.
        let plans = (0..n)
            .map(|i| {
                let len = meta[i].len as usize;
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
            meta,
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
        self.meta.len()
    }

    /// Whether the cache covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Number of distinct blocks when entered from fall-through order
    /// (jump targets can start additional, shorter blocks).
    pub fn block_count(&self) -> usize {
        let mut i = 0;
        let mut count = 0;
        while i < self.meta.len() {
            let len = self.meta[i].len.max(1) as usize;
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
        match self.meta.get(idx as usize) {
            Some(meta) if meta.len > 0 => Some(idx),
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
        let meta = &self.meta[idx];
        debug_assert!(meta.len > 0, "slot {slot} holds no block");
        let len = meta.len as usize;
        CachedBlock {
            entries: &self.entries[idx..idx + len],
            bytes: &self.bytes[4 * idx..4 * (idx + len)],
            words: &self.words[idx..idx + len],
            bulk_ok: meta.bulk_ok,
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

/// Whether an instruction writes data memory.
fn is_store_instr(instr: &Instr) -> bool {
    matches!(instr, Instr::I(i) if i.opcode.is_store())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimon_asm::assemble;
    use cimon_mem::ProgramImage;

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

    #[test]
    fn stores_before_the_block_end_disable_bulk_validation() {
        let (cache, img) = cache_of(PROGRAM);
        // Entry block contains a mid-block sw: bulk unsafe.
        assert!(!cache.block_at(img.entry).unwrap().bulk_ok);
        // Block starting right after the sw has no store: bulk ok.
        assert!(cache.block_at(img.entry + 16).unwrap().bulk_ok);
        // Exit block is store-free.
        assert!(cache.block_at(img.entry + 24).unwrap().bulk_ok);
    }

    #[test]
    fn store_as_final_instruction_keeps_bulk_validation() {
        // A store that is the *last* instruction of a size-cut block
        // cannot invalidate any word of its own block, only later
        // fetches — bulk validation stays sound for that block.
        let mut src = String::from("    .text\nmain:\n");
        for _ in 0..(MAX_BLOCK_LEN - 1) {
            src.push_str("    addu $t0, $t0, $t1\n");
        }
        src.push_str("    sw $t0, 0($gp)\n"); // slot MAX_BLOCK_LEN - 1
        src.push_str("    li $v0, 10\n    syscall\n");
        let (cache, img) = cache_of(&src);
        let b = cache.block_at(img.entry).unwrap();
        assert_eq!(b.entries.len(), MAX_BLOCK_LEN);
        assert!(b.bulk_ok, "final-slot store must not disable bulk");
        // One slot later the store sits mid-block: bulk is unsafe.
        let shifted = cache.block_at(img.entry + 4).unwrap();
        assert_eq!(shifted.entries.len(), MAX_BLOCK_LEN);
        assert!(!shifted.bulk_ok);
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
                    assert_eq!(a.bulk_ok, b.bulk_ok);
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

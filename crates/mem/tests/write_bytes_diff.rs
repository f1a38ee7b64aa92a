//! Differential oracle for the bulk byte load.
//!
//! [`Memory::write_bytes`] copies a span in chunks — one per page and
//! one for the dense region. It must leave exactly the memory a
//! per-byte [`Memory::write_u8`] loop leaves: the same resident word
//! stream, the same resident page count and the same dense-region
//! counters — the epoch, which counts the bytes a write changes, and
//! the write count, which counts every byte written — for spans that
//! cross page boundaries, run into or out of the dense region, wrap
//! past `0xFFFF_FFFF`, are empty, or rewrite bytes already there (all
//! of them, or a random mix) — and a `clone()` snapshot sharing the
//! memory's buffers must not see the write.

use proptest::prelude::*;

use cimon_mem::memory::PAGE_SIZE;
use cimon_mem::Memory;

/// A dense-region placement, or none.
#[derive(Clone, Copy, Debug)]
enum Layout {
    Sparse,
    /// At a text-like base, possibly mid-page.
    Text {
        base: u32,
        len: usize,
    },
    /// Ending exactly at the top of the address space.
    Top {
        len: usize,
    },
    /// Starting at address zero, where wrapping spans land.
    Bottom {
        len: usize,
    },
}

impl Layout {
    fn memory(self) -> Memory {
        match self {
            Layout::Sparse => Memory::new(),
            Layout::Text { base, len } => Memory::with_dense_region(base, len),
            Layout::Top { len } => {
                Memory::with_dense_region(0u32.wrapping_sub(len.next_multiple_of(4) as u32), len)
            }
            Layout::Bottom { len } => Memory::with_dense_region(0, len),
        }
    }
}

prop_compose! {
    fn arb_layout()(
        kind in 0u8..4,
        word in 0u32..PAGE_SIZE / 4,
        len in 0usize..3 * PAGE_SIZE as usize,
    ) -> Layout {
        match kind {
            0 => Layout::Sparse,
            1 => Layout::Text { base: 0x0040_0000 + 4 * word, len },
            2 => Layout::Top { len },
            _ => Layout::Bottom { len },
        }
    }
}

/// A span placed near an interesting address: a page boundary, either
/// end of the dense region, the wrap point, or anywhere.
#[derive(Clone, Debug)]
struct Span {
    anchor: u8,
    /// Offset from the anchor plus `BIAS`, so spans start on either
    /// side of it; the absolute base when there is no anchor.
    delta: u32,
    bytes: Vec<u8>,
}

const BIAS: u32 = PAGE_SIZE + 64;

prop_compose! {
    fn arb_span()(
        anchor in 0u8..5,
        delta in 0u32..2 * BIAS,
        anywhere in any::<u32>(),
        bytes in prop::collection::vec(any::<u8>(), 0..3 * PAGE_SIZE as usize),
    ) -> Span {
        let delta = if anchor == 4 { anywhere } else { delta };
        Span { anchor, delta, bytes }
    }
}

impl Span {
    fn base(&self, mem: &Memory) -> u32 {
        let (lo, hi) = match mem.dense_region() {
            Some((base, bytes)) => (base, base.wrapping_add(bytes.len() as u32)),
            None => (0x0040_0000, 0x0040_0000),
        };
        let anchor = match self.anchor {
            0 => 0x1000_0000,
            1 => lo,
            2 => hi,
            3 => 0,
            _ => return self.delta,
        };
        anchor.wrapping_add(self.delta).wrapping_sub(BIAS)
    }
}

fn words(mem: &Memory) -> Vec<u32> {
    let mut out = Vec::new();
    mem.visit_resident_words(|w| out.push(w));
    out
}

/// The memory before the write: the layout plus a few earlier scalar
/// writes around the span, so some of its pages are already resident.
fn prepared(layout: Layout, span: &Span, prior: &[(u32, u8)]) -> Memory {
    let mut mem = layout.memory();
    let base = span.base(&mem);
    for &(off, value) in prior {
        mem.write_u8(base.wrapping_add(off), value);
    }
    mem
}

fn per_byte(mem: &mut Memory, base: u32, bytes: &[u8]) {
    for (i, &b) in bytes.iter().enumerate() {
        mem.write_u8(base.wrapping_add(i as u32), b);
    }
}

#[track_caller]
fn assert_same(bulk: &Memory, oracle: &Memory) {
    assert_eq!(words(bulk), words(oracle), "resident words differ");
    assert_eq!(bulk.resident_pages(), oracle.resident_pages());
    assert_eq!(bulk.dense_epoch(), oracle.dense_epoch());
    assert_eq!(bulk.dense_writes(), oracle.dense_writes());
}

proptest! {
    #[test]
    fn bulk_write_matches_per_byte_writes(
        layout in arb_layout(),
        span in arb_span(),
        prior in prop::collection::vec((0u32..3 * PAGE_SIZE, any::<u8>()), 0..4),
        shared in any::<bool>(),
    ) {
        let mut bulk = prepared(layout, &span, &prior);
        let mut oracle = prepared(layout, &span, &prior);
        // A snapshot sharing every buffer of `bulk` must not see the write.
        let snapshot = shared.then(|| bulk.clone());
        let before = snapshot
            .as_ref()
            .map(|s| (words(s), s.dense_epoch(), s.dense_writes()));
        let base = span.base(&bulk);
        bulk.write_bytes(base, &span.bytes);
        per_byte(&mut oracle, base, &span.bytes);
        assert_same(&bulk, &oracle);
        prop_assert_eq!(bulk.read_bytes(base, span.bytes.len()), span.bytes.clone());
        prop_assert_eq!(
            snapshot.map(|s| (words(&s), s.dense_epoch(), s.dense_writes())),
            before
        );
    }

    #[test]
    fn rewriting_resident_bytes_matches_per_byte_writes(
        layout in arb_layout(),
        span in arb_span(),
        prior in prop::collection::vec((0u32..3 * PAGE_SIZE, any::<u8>()), 0..4),
        // Per byte, a mask XORed into the resident value (zero keeps it).
        edits in prop::collection::vec(any::<u8>(), 0..64),
        same_value in any::<bool>(),
    ) {
        let mut bulk = prepared(layout, &span, &prior);
        let base = span.base(&bulk);
        // The span's bytes start as what is already there, so every
        // byte rewrites its old value unless an edit changes it.
        let mut bytes = bulk.read_bytes(base, span.bytes.len());
        if !same_value && !edits.is_empty() {
            for (i, b) in bytes.iter_mut().enumerate() {
                *b ^= edits[i % edits.len()];
            }
        }
        let mut oracle = prepared(layout, &span, &prior);
        let (epoch, writes) = (bulk.dense_epoch(), bulk.dense_writes());
        bulk.write_bytes(base, &bytes);
        per_byte(&mut oracle, base, &bytes);
        assert_same(&bulk, &oracle);
        prop_assert_eq!(bulk.read_bytes(base, bytes.len()), bytes.clone());
        if same_value || edits.iter().all(|&x| x == 0) {
            prop_assert_eq!(bulk.dense_epoch(), epoch, "nothing changed");
        }
        let landed = oracle.dense_writes() - writes;
        prop_assert!(bulk.dense_epoch() - epoch <= landed);
    }
}

#[test]
fn empty_spans_change_nothing() {
    for base in [0, 0x0040_0000, 0x0040_0ffc, 0xffff_ffff] {
        let mut mem = Memory::with_dense_region(0x0040_0000, 16);
        mem.write_bytes(base, &[]);
        assert_eq!(mem.resident_pages(), 0);
        assert_eq!(mem.dense_epoch(), 0);
        assert_eq!(mem.dense_writes(), 0);
    }
}

#[test]
fn a_span_wrapping_into_a_dense_region_at_zero_counts_its_bytes() {
    let mut bulk = Memory::with_dense_region(0, 8);
    let mut oracle = Memory::with_dense_region(0, 8);
    let bytes: Vec<u8> = (1..=12).collect();
    bulk.write_bytes(0xffff_fffc, &bytes);
    per_byte(&mut oracle, 0xffff_fffc, &bytes);
    assert_same(&bulk, &oracle);
    // Four bytes on the top page, eight in the dense region at zero.
    assert_eq!(bulk.resident_pages(), 1);
    assert_eq!(bulk.dense_epoch(), 8);
    assert_eq!(bulk.dense_writes(), 8);
}

#[test]
fn same_value_and_mixed_spans_count_only_changed_bytes_as_changes() {
    let mut mem = Memory::with_dense_region(0x0040_0000, 16);
    let image: Vec<u8> = (1..=16).collect();
    mem.write_bytes(0x0040_0000, &image);
    assert_eq!((mem.dense_epoch(), mem.dense_writes()), (16, 16));
    // A same-value span is written but changes nothing, and a snapshot
    // sharing the buffer keeps sharing it.
    let snapshot = mem.clone();
    mem.write_bytes(0x0040_0004, &image[4..12]);
    assert_eq!((mem.dense_epoch(), mem.dense_writes()), (16, 24));
    // A mixed span, running past the region's end: three of its eight
    // dense bytes change, and the four past the end land on a page.
    let mut mixed = image[12..].to_vec();
    mixed[0] ^= 1;
    mixed[3] ^= 0x80;
    mixed.extend([0xaa; 4]);
    let mut oracle = mem.clone();
    mem.write_bytes(0x0040_000c, &mixed);
    per_byte(&mut oracle, 0x0040_000c, &mixed);
    assert_same(&mem, &oracle);
    assert_eq!((mem.dense_epoch(), mem.dense_writes()), (18, 28));
    assert_eq!(mem.resident_pages(), 1);
    assert_eq!(snapshot.read_bytes(0x0040_0000, 16), image);
}

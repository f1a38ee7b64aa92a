//! Sparse byte-addressable memory.
//!
//! Two-tier storage tuned for the simulator's fetch-dominated access
//! pattern:
//!
//! * an optional **dense region** — one contiguous buffer serving the
//!   program's text segment with a single bounds check per access (the
//!   instruction-fetch fast path);
//! * **4 KiB pages** allocated on demand for everything else (data,
//!   stack), held in a hash map keyed by page number with a one-multiply
//!   hasher, so a 4 GiB address space costs only what is touched and an
//!   aligned access costs exactly one probe.
//!
//! All multi-byte accesses are little-endian and must be naturally
//! aligned, mirroring the alignment faults a real bus would raise.
//!
//! Both tiers are **copy-on-write**: the dense buffer and every page
//! sit behind an [`Arc`], so `Memory::clone()` is a snapshot costing
//! one pointer bump per resident page — the checkpoint primitive the
//! fault-campaign restart path builds on. A
//! write to a shared buffer clones just that buffer (4 KiB for a page),
//! so only pages dirtied after a snapshot ever get copied.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use cimon_isa::codec::{CodecError, Dec, Enc};

/// Bytes per page.
pub const PAGE_SIZE: u32 = 4096;

type Page = Arc<[u8; PAGE_SIZE as usize]>;

/// One-multiply hasher for page numbers. Page indices are small dense
/// integers; Fibonacci hashing spreads them across the table without
/// SipHash's per-lookup cost on the load/store path.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type PageMap = HashMap<u32, Page, BuildHasherDefault<PageHasher>>;

/// Error raised by memory accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemError {
    /// A halfword or word access was not naturally aligned.
    Misaligned {
        /// The faulting address.
        addr: u32,
        /// Required alignment in bytes (2 or 4).
        required: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Misaligned { addr, required } => {
                write!(f, "misaligned {required}-byte access at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Sparse little-endian memory. Unwritten locations read as zero.
///
/// ```
/// use cimon_mem::Memory;
/// let mut m = Memory::new();
/// m.write_u32(0x2000, 0x1122_3344)?;
/// assert_eq!(m.read_u8(0x2000), 0x44);
/// assert_eq!(m.read_u16(0x2002)?, 0x1122);
/// # Ok::<(), cimon_mem::MemError>(())
/// ```
#[derive(Clone, Default)]
pub struct Memory {
    /// Base address of the dense region (word-aligned).
    dense_base: u32,
    /// Contiguous backing for `[dense_base, dense_base + dense.len())`.
    /// Empty when no dense region was reserved. Copy-on-write: shared
    /// with snapshots until a write changes the text.
    dense: Arc<[u8]>,
    /// Bumped by every write that changes the dense region (the program
    /// text): once per scalar write that changes a byte, once per byte a
    /// [`Memory::write_bytes`] span changes. Callers that validated a
    /// span of the region can skip re-validating while this is
    /// unchanged — data and stack traffic lives on the sparse pages and
    /// never bumps it, and neither does a store of the bytes already
    /// there.
    dense_epoch: u64,
    /// Bumped by every write landing in the dense region, changed or
    /// not: once per scalar write, once per byte of a
    /// [`Memory::write_bytes`] span.
    dense_writes: u64,
    pages: PageMap,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("dense_base", &format_args!("{:#010x}", self.dense_base))
            .field("dense_bytes", &self.dense.len())
            .field("resident_pages", &self.pages.len())
            .field(
                "resident_bytes",
                &(self.dense.len() + self.pages.len() * PAGE_SIZE as usize),
            )
            .finish()
    }
}

impl Memory {
    /// An empty memory; every byte reads as zero.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// An empty memory with a zero-filled dense region reserved at
    /// `[base, base + len)`. Accesses inside the region hit a contiguous
    /// buffer directly — program loaders reserve the text segment here
    /// so instruction fetches skip the page table entirely.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned or the region would wrap
    /// past the top of the address space.
    pub fn with_dense_region(base: u32, len: usize) -> Memory {
        assert!(base % 4 == 0, "dense region base must be word-aligned");
        // Round up to a word multiple so no aligned access can straddle
        // the region's end (it would otherwise split across tiers).
        let len = len.next_multiple_of(4);
        assert!(
            (base as u64) + (len as u64) <= u32::MAX as u64 + 1,
            "dense region wraps the address space"
        );
        Memory {
            dense_base: base,
            dense: Arc::from(vec![0u8; len]),
            dense_epoch: 0,
            dense_writes: 0,
            pages: PageMap::default(),
        }
    }

    /// Generation counter of the dense region ("text changed"):
    /// incremented by every scalar write that changes a byte inside it,
    /// and by the number of bytes a [`write_bytes`](Memory::write_bytes)
    /// span changes inside it (so loading an image leaves the same value
    /// a per-byte loop would). Two equal readings prove the region's
    /// bytes are unchanged, so block dispatch revalidates a cached block
    /// only after a write changed the text; a store of the bytes already
    /// there leaves it alone.
    #[inline]
    pub fn dense_epoch(&self) -> u64 {
        self.dense_epoch
    }

    /// Write counter of the dense region ("text written"): incremented
    /// by every scalar write that lands inside it, whether or not it
    /// changes a byte, and by the number of bytes a
    /// [`write_bytes`](Memory::write_bytes) span lands inside it. Equal
    /// readings prove no store touched the text — what a caller needs
    /// when a store of the clean bytes could still overwrite a byte it
    /// changed out of band (a pre-applied fault).
    #[inline]
    pub fn dense_writes(&self) -> u64 {
        self.dense_writes
    }

    /// Number of resident (touched) sparse pages. The dense region is
    /// always resident and is not counted here.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The dense region as `(base, bytes)`, when one was reserved.
    pub fn dense_region(&self) -> Option<(u32, &[u8])> {
        if self.dense.is_empty() {
            None
        } else {
            Some((self.dense_base, &*self.dense))
        }
    }

    /// Visit every resident word of memory in a deterministic order:
    /// the dense region first, then each sparse page in ascending page
    /// number, its page number fed to the visitor before its contents.
    ///
    /// Snapshot checksums are built on this: the iteration order is
    /// independent of the `HashMap` seed and of the order pages were
    /// touched, so two memories with identical contents always produce
    /// the same word stream.
    pub fn visit_resident_words(&self, mut visit: impl FnMut(u32)) {
        if let Some((base, bytes)) = self.dense_region() {
            visit(base);
            for chunk in bytes.chunks(4) {
                let mut word = [0u8; 4];
                word[..chunk.len()].copy_from_slice(chunk);
                visit(u32::from_le_bytes(word));
            }
        }
        let mut keys: Vec<u32> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            visit(key);
            let page = &self.pages[&key];
            for chunk in page.chunks_exact(4) {
                visit(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
            }
        }
    }

    /// Offset of `addr` into the dense region, if it falls inside.
    #[inline]
    fn dense_off(&self, addr: u32) -> Option<usize> {
        let off = addr.wrapping_sub(self.dense_base) as usize;
        (off < self.dense.len()).then_some(off)
    }

    #[inline]
    fn page_of(addr: u32) -> u32 {
        addr / PAGE_SIZE
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE as usize] {
        Arc::make_mut(
            self.pages
                .entry(Self::page_of(addr))
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize])),
        )
    }

    /// Mutable view of the dense buffer, cloning it first if a snapshot
    /// still shares it (text changes are rare — tampering and
    /// self-modifying code — so the copy never sits on a hot path).
    fn dense_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.dense).is_none() {
            self.dense = Arc::from(self.dense.to_vec());
        }
        Arc::get_mut(&mut self.dense).unwrap_or_else(|| unreachable!("unshared after clone"))
    }

    /// One scalar write of `bytes` at dense offset `off`: counted as a
    /// write, and — only when it changes a byte — as a change, which is
    /// also the only case that unshares the buffer.
    #[inline]
    fn write_dense(&mut self, off: usize, bytes: &[u8]) {
        self.dense_writes += 1;
        if self.dense[off..off + bytes.len()] != *bytes {
            self.dense_mut()[off..off + bytes.len()].copy_from_slice(bytes);
            self.dense_epoch += 1;
        }
    }

    /// Read one byte. Never fails; untouched memory is zero.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        if let Some(off) = self.dense_off(addr) {
            return self.dense[off];
        }
        match self.pages.get(&Self::page_of(addr)) {
            Some(page) => page[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        if let Some(off) = self.dense_off(addr) {
            self.write_dense(off, &[value]);
            return;
        }
        self.page_mut(addr)[(addr % PAGE_SIZE) as usize] = value;
    }

    /// Read a little-endian halfword.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] if `addr` is not 2-byte aligned.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        if addr % 2 != 0 {
            return Err(MemError::Misaligned { addr, required: 2 });
        }
        if let Some(off) = self.dense_off(addr) {
            if off + 2 <= self.dense.len() {
                return Ok(u16::from_le_bytes([self.dense[off], self.dense[off + 1]]));
            }
        }
        // Aligned halfwords never straddle a page: one probe.
        Ok(match self.pages.get(&Self::page_of(addr)) {
            Some(page) => {
                let i = (addr % PAGE_SIZE) as usize;
                u16::from_le_bytes([page[i], page[i + 1]])
            }
            None => 0,
        })
    }

    /// Write a little-endian halfword.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] if `addr` is not 2-byte aligned.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        if addr % 2 != 0 {
            return Err(MemError::Misaligned { addr, required: 2 });
        }
        let b = value.to_le_bytes();
        if let Some(off) = self.dense_off(addr) {
            if off + 2 <= self.dense.len() {
                self.write_dense(off, &b);
                return Ok(());
            }
        }
        let page = self.page_mut(addr);
        let i = (addr % PAGE_SIZE) as usize;
        page[i..i + 2].copy_from_slice(&b);
        Ok(())
    }

    /// Read a little-endian word.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] if `addr` is not 4-byte aligned.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        if addr % 4 != 0 {
            return Err(MemError::Misaligned { addr, required: 4 });
        }
        if let Some(off) = self.dense_off(addr) {
            // One range check for all four bytes: the fetch fast path.
            if let Some(b) = self.dense.get(off..off + 4) {
                return Ok(u32::from_le_bytes(
                    b.try_into()
                        .unwrap_or_else(|_| unreachable!("4-byte slice")),
                ));
            }
        }
        // Aligned words never straddle a page: one probe.
        Ok(match self.pages.get(&Self::page_of(addr)) {
            Some(page) => {
                let i = (addr % PAGE_SIZE) as usize;
                u32::from_le_bytes([page[i], page[i + 1], page[i + 2], page[i + 3]])
            }
            None => 0,
        })
    }

    /// Write a little-endian word.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] if `addr` is not 4-byte aligned.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        if addr % 4 != 0 {
            return Err(MemError::Misaligned { addr, required: 4 });
        }
        let b = value.to_le_bytes();
        if let Some(off) = self.dense_off(addr) {
            if off + 4 <= self.dense.len() {
                self.write_dense(off, &b);
                return Ok(());
            }
        }
        let page = self.page_mut(addr);
        let i = (addr % PAGE_SIZE) as usize;
        page[i..i + 4].copy_from_slice(&b);
        Ok(())
    }

    /// Copy a byte slice into memory starting at `base`, wrapping past
    /// the top of the address space.
    ///
    /// The result is exactly that of one [`write_u8`](Memory::write_u8)
    /// per byte — contents, resident pages, copy-on-write sharing,
    /// [`dense_epoch`](Memory::dense_epoch), which rises by the number
    /// of dense-region bytes the span changes, and
    /// [`dense_writes`](Memory::dense_writes), which rises by the number
    /// landing there — but the copy is made in chunks: one
    /// `copy_from_slice` per page and one for the dense region, each
    /// unsharing its buffer once (the dense one only when a byte
    /// changes). Program loading is the main caller.
    pub fn write_bytes(&mut self, base: u32, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let n = if let Some(off) = self.dense_off(addr) {
                let n = rest.len().min(self.dense.len() - off);
                let changed = self.dense[off..off + n]
                    .iter()
                    .zip(&rest[..n])
                    .filter(|(old, new)| old != new)
                    .count();
                if changed > 0 {
                    self.dense_mut()[off..off + n].copy_from_slice(&rest[..n]);
                    self.dense_epoch += changed as u64;
                }
                self.dense_writes += n as u64;
                n
            } else {
                let i = (addr % PAGE_SIZE) as usize;
                let mut n = rest.len().min(PAGE_SIZE as usize - i);
                if !self.dense.is_empty() {
                    // Stop where the dense region begins inside this
                    // page; `addr` is outside it, so the gap is nonzero.
                    n = n.min(self.dense_base.wrapping_sub(addr) as usize);
                }
                self.page_mut(addr)[i..i + n].copy_from_slice(&rest[..n]);
                n
            };
            addr = addr.wrapping_add(n as u32);
            rest = &rest[n..];
        }
    }

    /// Fill `out` with the bytes starting at `base` — the
    /// allocation-free form of [`read_bytes`](Memory::read_bytes).
    pub fn read_into(&self, base: u32, out: &mut [u8]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.read_u8(base.wrapping_add(i as u32));
        }
    }

    /// Read `len` bytes starting at `base`.
    pub fn read_bytes(&self, base: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(base, &mut out);
        out
    }

    /// Flip a single bit: `addr` selects the byte, `bit` (0..8) the bit
    /// within it. Used by the fault injector for stored-image faults.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) {
        assert!(bit < 8, "bit index out of range: {bit}");
        let old = self.read_u8(addr);
        self.write_u8(addr, old ^ (1 << bit));
    }

    /// Serialize the complete memory — dense region, both counters, and
    /// every resident sparse page in ascending page order — so a decoded
    /// copy is indistinguishable from a [`Memory::clone`] snapshot
    /// (epoch included; callers compare epochs across checkpoints).
    pub fn encode_into(&self, e: &mut Enc) {
        e.u32(self.dense_base);
        e.bytes(&self.dense);
        e.u64(self.dense_epoch);
        e.u64(self.dense_writes);
        let mut keys: Vec<u32> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        e.usize(keys.len());
        for key in keys {
            e.u32(key);
            e.raw(&self.pages[&key][..]);
        }
    }

    /// Rebuild a memory serialized by [`Memory::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the bytes are truncated or structurally
    /// damaged (e.g. a page count pointing past the buffer).
    pub fn decode_from(d: &mut Dec<'_>) -> Result<Memory, CodecError> {
        let dense_base = d.u32()?;
        let dense: Arc<[u8]> = Arc::from(d.bytes()?.to_vec());
        let dense_epoch = d.u64()?;
        let dense_writes = d.u64()?;
        let n_pages = d.usize()?;
        let mut pages = PageMap::default();
        for _ in 0..n_pages {
            let key = d.u32()?;
            let raw = d.raw(PAGE_SIZE as usize)?;
            let mut page = [0u8; PAGE_SIZE as usize];
            page.copy_from_slice(raw);
            if pages.insert(key, Arc::new(page)).is_some() {
                return Err(CodecError::Invalid {
                    what: "duplicate memory page",
                });
            }
        }
        Ok(Memory {
            dense_base,
            dense,
            dense_epoch,
            dense_writes,
            pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_bee0).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(5, 0xab);
        assert_eq!(m.read_u8(5), 0xab);
        m.write_u16(6, 0x1234).unwrap();
        assert_eq!(m.read_u16(6).unwrap(), 0x1234);
        m.write_u32(8, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(8).unwrap(), 0xdead_beef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x10, 0x0102_0304).unwrap();
        assert_eq!(m.read_u8(0x10), 0x04);
        assert_eq!(m.read_u8(0x11), 0x03);
        assert_eq!(m.read_u8(0x12), 0x02);
        assert_eq!(m.read_u8(0x13), 0x01);
    }

    #[test]
    fn misalignment_faults() {
        let mut m = Memory::new();
        assert_eq!(
            m.read_u16(1).unwrap_err(),
            MemError::Misaligned {
                addr: 1,
                required: 2
            }
        );
        assert_eq!(
            m.read_u32(2).unwrap_err(),
            MemError::Misaligned {
                addr: 2,
                required: 4
            }
        );
        assert!(m.write_u16(3, 0).is_err());
        assert!(m.write_u32(6, 0).is_err());
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 2; // halfword straddles... actually aligned
        m.write_u16(addr, 0xbeef).unwrap();
        assert_eq!(m.read_u16(addr).unwrap(), 0xbeef);
        // word that spans a page boundary via byte writes
        let base = PAGE_SIZE - 4;
        m.write_u32(base, 0x1357_9bdf).unwrap();
        assert_eq!(m.read_u32(base).unwrap(), 0x1357_9bdf);
        assert!(m.resident_pages() >= 1);
    }

    #[test]
    fn bulk_bytes() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x8000, &data);
        assert_eq!(m.read_bytes(0x8000, 256), data);
        let mut buf = [0u8; 16];
        m.read_into(0x8010, &mut buf);
        assert_eq!(&buf, &data[0x10..0x20]);
    }

    #[test]
    fn flip_bit_flips_and_restores() {
        let mut m = Memory::new();
        m.write_u8(0x40, 0b0101_0101);
        m.flip_bit(0x40, 1);
        assert_eq!(m.read_u8(0x40), 0b0101_0111);
        m.flip_bit(0x40, 1);
        assert_eq!(m.read_u8(0x40), 0b0101_0101);
    }

    #[test]
    #[should_panic(expected = "bit index out of range")]
    fn flip_bit_bounds() {
        let mut m = Memory::new();
        m.flip_bit(0, 8);
    }

    #[test]
    fn clone_is_a_copy_on_write_snapshot() {
        let mut m = Memory::with_dense_region(0x1000, 8);
        m.write_u32(0x1000, 0xaaaa_aaaa).unwrap();
        m.write_u32(0x9000, 0xbbbb_bbbb).unwrap();
        let snap = m.clone();
        // The live memory and the snapshot share every buffer until a
        // write lands; afterwards they diverge independently.
        m.write_u32(0x1000, 0x1111_1111).unwrap();
        m.write_u32(0x9000, 0x2222_2222).unwrap();
        m.write_u32(0xf000, 0x3333_3333).unwrap();
        assert_eq!(snap.read_u32(0x1000).unwrap(), 0xaaaa_aaaa);
        assert_eq!(snap.read_u32(0x9000).unwrap(), 0xbbbb_bbbb);
        assert_eq!(snap.read_u32(0xf000).unwrap(), 0);
        assert_eq!(m.read_u32(0x1000).unwrap(), 0x1111_1111);
        assert_eq!(m.read_u32(0x9000).unwrap(), 0x2222_2222);
        // Restoring is just cloning back.
        let epoch = snap.dense_epoch();
        m = snap.clone();
        assert_eq!(m.read_u32(0x1000).unwrap(), 0xaaaa_aaaa);
        assert_eq!(m.dense_epoch(), epoch);
    }

    #[test]
    fn only_changing_text_writes_move_the_epoch() {
        let mut m = Memory::with_dense_region(0x1000, 8);
        m.write_u32(0x1000, 0x1122_3344).unwrap();
        assert_eq!((m.dense_epoch(), m.dense_writes()), (1, 1));
        // The same bytes again, at every width: written, not changed.
        m.write_u32(0x1000, 0x1122_3344).unwrap();
        m.write_u16(0x1002, 0x1122).unwrap();
        m.write_u8(0x1000, 0x44);
        m.write_bytes(0x1000, &[0x44, 0x33]);
        assert_eq!((m.dense_epoch(), m.dense_writes()), (1, 6));
        // A span counts the bytes it changes and the bytes it writes.
        m.write_bytes(0x1000, &[0x44, 0x00, 0x22, 0x00]);
        assert_eq!((m.dense_epoch(), m.dense_writes()), (3, 10));
        // Data traffic moves neither counter.
        m.write_u32(0x9000, 7).unwrap();
        assert_eq!((m.dense_epoch(), m.dense_writes()), (3, 10));
    }

    #[test]
    fn encode_decode_round_trips_contents_and_epoch() {
        let mut m = Memory::with_dense_region(0x1000, 12);
        m.write_u32(0x1004, 0xdead_beef).unwrap(); // bumps the epoch
        m.write_u32(0x9000, 0x1234_5678).unwrap();
        m.write_u8(0xffff_f00f, 0x7f);
        let mut e = Enc::new();
        m.encode_into(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = Memory::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back.dense_epoch(), m.dense_epoch());
        assert_eq!(back.dense_writes(), m.dense_writes());
        assert_eq!(back.dense_region(), m.dense_region());
        assert_eq!(back.read_u32(0x1004).unwrap(), 0xdead_beef);
        assert_eq!(back.read_u32(0x9000).unwrap(), 0x1234_5678);
        assert_eq!(back.read_u8(0xffff_f00f), 0x7f);
        assert_eq!(back.resident_pages(), m.resident_pages());
        // Truncated bytes fail with a typed error, never a panic.
        for cut in [0, 5, bytes.len() - 1] {
            assert!(Memory::decode_from(&mut Dec::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn sparse_residency() {
        let mut m = Memory::new();
        m.write_u8(0, 1);
        m.write_u8(0xffff_f000, 1);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn dense_region_serves_all_widths() {
        let mut m = Memory::with_dense_region(0x0040_0000, 64);
        assert_eq!(m.dense_region().unwrap().0, 0x0040_0000);
        assert_eq!(m.read_u32(0x0040_0000).unwrap(), 0);
        m.write_u32(0x0040_0004, 0xdead_beef).unwrap();
        m.write_u16(0x0040_0008, 0x1234).unwrap();
        m.write_u8(0x0040_000b, 0x56);
        assert_eq!(m.read_u32(0x0040_0004).unwrap(), 0xdead_beef);
        assert_eq!(m.read_u16(0x0040_0008).unwrap(), 0x1234);
        assert_eq!(m.read_u8(0x0040_000b), 0x56);
        // No sparse page was touched for in-region traffic.
        assert_eq!(m.resident_pages(), 0);
        // Out-of-region traffic still works and is page-backed.
        m.write_u32(0x1000_0000, 7).unwrap();
        assert_eq!(m.read_u32(0x1000_0000).unwrap(), 7);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn dense_region_edges_fall_back_to_pages() {
        let mut m = Memory::with_dense_region(0x1000, 8);
        // Just below and just past the region.
        m.write_u32(0x0ffc, 0x1111_1111).unwrap();
        m.write_u32(0x1008, 0x2222_2222).unwrap();
        assert_eq!(m.read_u32(0x0ffc).unwrap(), 0x1111_1111);
        assert_eq!(m.read_u32(0x1008).unwrap(), 0x2222_2222);
        // Inside stays dense and independent.
        m.write_u32(0x1000, 0x3333_3333).unwrap();
        assert_eq!(m.read_u32(0x1000).unwrap(), 0x3333_3333);
        assert_eq!(m.read_u32(0x1004).unwrap(), 0);
    }

    #[test]
    fn dense_tampering_is_visible_to_byte_reads() {
        let mut m = Memory::with_dense_region(0x2000, 16);
        m.write_u32(0x2004, 0x0109_5020).unwrap();
        m.flip_bit(0x2006, 3);
        assert_eq!(m.read_u32(0x2004).unwrap(), 0x0109_5020 ^ (1 << (3 + 16)));
    }

    #[test]
    fn read_into_spans_the_dense_page_boundary() {
        // The text/heap boundary: bytes inside the dense region and the
        // bytes immediately past it must read back as one coherent run.
        let mut m = Memory::with_dense_region(0x2000, 8);
        m.write_u32(0x2004, 0xaabb_ccdd).unwrap(); // last dense word
        m.write_u32(0x2008, 0x1122_3344).unwrap(); // first page word
        let mut buf = [0u8; 8];
        m.read_into(0x2004, &mut buf);
        assert_eq!(buf, [0xdd, 0xcc, 0xbb, 0xaa, 0x44, 0x33, 0x22, 0x11]);
        // And approaching from below the region start.
        m.write_u32(0x1ffc, 0x5566_7788).unwrap();
        let mut buf = [0u8; 8];
        m.read_into(0x1ffc, &mut buf);
        assert_eq!(buf, [0x88, 0x77, 0x66, 0x55, 0, 0, 0, 0]);
    }

    #[test]
    fn read_into_zero_length_and_wraparound() {
        let mut m = Memory::new();
        m.read_into(0x1234, &mut []); // no-op, must not panic
        m.write_u8(0xffff_ffff, 0xaa);
        m.write_u8(0, 0xbb);
        let mut buf = [0u8; 2];
        m.read_into(0xffff_ffff, &mut buf);
        assert_eq!(buf, [0xaa, 0xbb], "read_into wraps the address space");
    }

    #[test]
    fn unaligned_dense_length_rounds_to_a_word_tail() {
        // A 6-byte request reserves 8 dense bytes, so no aligned access
        // can straddle the dense/page boundary mid-word.
        let mut m = Memory::with_dense_region(0x3000, 6);
        assert_eq!(m.dense_region().unwrap().1.len(), 8);
        m.write_u32(0x3004, 0xdead_beef).unwrap();
        assert_eq!(m.read_u32(0x3004).unwrap(), 0xdead_beef);
        assert_eq!(m.resident_pages(), 0, "tail word stays dense");
        // The first word past the rounded tail is page-backed.
        m.write_u32(0x3008, 7).unwrap();
        assert_eq!(m.read_u32(0x3008).unwrap(), 7);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn halfword_at_the_dense_tail_stays_dense() {
        let mut m = Memory::with_dense_region(0x1000, 8);
        m.write_u16(0x1006, 0xbeef).unwrap(); // last aligned halfword
        assert_eq!(m.read_u16(0x1006).unwrap(), 0xbeef);
        m.write_u8(0x1007, 0x7f); // very last dense byte
        assert_eq!(m.read_u8(0x1007), 0x7f);
        assert_eq!(m.resident_pages(), 0);
        // One byte further is the heap side of the boundary.
        m.write_u8(0x1008, 0x11);
        assert_eq!(m.read_u8(0x1008), 0x11);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn word_reads_at_the_exact_dense_end_fall_back_to_pages() {
        let m = Memory::with_dense_region(0x1000, 8);
        // 0x1008 is one past the region: zero-filled page territory.
        assert_eq!(m.read_u32(0x1008).unwrap(), 0);
        assert_eq!(m.read_u16(0x1008).unwrap(), 0);
        assert_eq!(m.read_u8(0x1008), 0);
    }
}

//! `HASHFU` — the hash functional unit.
//!
//! The paper employs a plain word-wise **XOR checksum** (Section 3.4):
//! cheap enough to hide inside the IF stage, and — because XOR is a
//! column-wise parity — guaranteed to detect any *odd* number of bit
//! flips in a block. Section 6.3 proposes two hardening directions that
//! are also implemented here: seeding the XOR with a process-dependent
//! random value, and swapping in stronger hash hardware. The stronger
//! functions (Fletcher-32, CRC-32, SHA-1) let the fault-analysis bench
//! quantify what the cheap checksum gives up.
//!
//! A [`BlockHasher`] mirrors the hardware unit: internal state registers,
//! a `reset` line (asserted at block boundaries by the Figure-4
//! micro-ops), an `update` port fed one instruction word per fetch, and a
//! 32-bit `digest` output wired to `RHASH`.

use cimon_isa::codec::{CodecError, Dec, Enc};
use cimon_microop::HashAlgoKind;

/// Wire tag for a hash algorithm kind: its position in
/// [`HashAlgoKind::ALL`].
fn kind_tag(kind: HashAlgoKind) -> u8 {
    HashAlgoKind::ALL
        .iter()
        .position(|&k| k == kind)
        .map(|p| p as u8)
        .unwrap_or(u8::MAX)
}

/// Inverse of [`kind_tag`].
fn kind_from_tag(tag: u8) -> Result<HashAlgoKind, CodecError> {
    HashAlgoKind::ALL
        .get(tag as usize)
        .copied()
        .ok_or(CodecError::Invalid {
            what: "hash algorithm tag",
        })
}

/// Serialize a [`HashAlgoKind`] as a one-byte positional tag.
pub fn encode_kind(kind: HashAlgoKind, e: &mut Enc) {
    e.u8(kind_tag(kind));
}

/// Rebuild a [`HashAlgoKind`] serialized by [`encode_kind`].
///
/// # Errors
///
/// [`CodecError`] on truncation or an out-of-range tag.
pub fn decode_kind(d: &mut Dec<'_>) -> Result<HashAlgoKind, CodecError> {
    kind_from_tag(d.u8()?)
}

/// A running hash unit over the instruction words of one basic block.
///
/// Implementations must be deterministic and must allow `digest` to be
/// read at any point (hardware exposes the register continuously).
pub trait BlockHasher {
    /// Restore the unit to its block-start state.
    fn reset(&mut self);
    /// Absorb one instruction word.
    fn update(&mut self, word: u32);
    /// Absorb a run of instruction words in one call. Exactly
    /// equivalent to calling [`update`](BlockHasher::update) once per
    /// word in order; implementations override it to batch (the FHT
    /// generators and the block dispatcher hash block-sized chunks, so
    /// the per-word call overhead is worth removing).
    fn update_block(&mut self, words: &[u32]) {
        for &w in words {
            self.update(w);
        }
    }
    /// The current 32-bit digest (the value mirrored in `RHASH`).
    fn digest(&self) -> u32;
    /// Which algorithm this unit implements.
    fn kind(&self) -> HashAlgoKind;
}

/// Instantiate the hash unit for an algorithm as a trait object.
///
/// `seed` is used only by [`HashAlgoKind::SeededXor`] (the paper's
/// "process-dependent random value"); other algorithms ignore it.
///
/// The checker's per-fetch hot path uses the enum-dispatch [`HashAlgo`]
/// instead; this boxed form remains for call sites that mix built-in
/// units with user-supplied [`BlockHasher`] implementations.
pub fn hasher_for(kind: HashAlgoKind, seed: u32) -> Box<dyn BlockHasher> {
    Box::new(HashAlgo::new(kind, seed))
}

/// Hash a complete word sequence in one call (used by the static hash
/// generator and tests).
pub fn hash_words(kind: HashAlgoKind, seed: u32, words: impl IntoIterator<Item = u32>) -> u32 {
    let mut h = HashAlgo::new(kind, seed);
    for w in words {
        h.update(w);
    }
    h.digest()
}

/// Hash one block-sized word slice in a single batched call —
/// bit-identical to [`hash_words`] over the same sequence, but the
/// whole chunk flows through [`BlockHasher::update_block`], so the
/// per-word dispatch and any per-word state commits are amortised.
/// This is the entry point the static analyser, the trace generator,
/// and the incremental re-hash share.
pub fn hash_block(kind: HashAlgoKind, seed: u32, words: &[u32]) -> u32 {
    let mut h = HashAlgo::new(kind, seed);
    h.update_block(words);
    h.digest()
}

/// The five built-in hash units behind enum dispatch.
///
/// `HASHFU.ope` runs once per fetched instruction — the single hottest
/// monitor operation in the simulator — so the checker dispatches on
/// this enum rather than through a `Box<dyn BlockHasher>` virtual call.
/// The [`BlockHasher`] trait remains the extension point for
/// user-supplied units (`HashAlgo` implements it too, so the two forms
/// compose).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HashAlgo {
    /// The paper's XOR checksum.
    Xor(XorHasher),
    /// Seeded, rotating XOR (Section 6.3 hardening).
    SeededXor(SeededXorHasher),
    /// Fletcher-32 running checksum.
    Fletcher32(Fletcher32Hasher),
    /// Bit-serial CRC-32.
    Crc32(Crc32Hasher),
    /// Truncated SHA-1 (detection-strength bound).
    Sha1(Sha1Hasher),
}

impl HashAlgo {
    /// Instantiate the unit for an algorithm. `seed` is used only by
    /// [`HashAlgoKind::SeededXor`].
    pub fn new(kind: HashAlgoKind, seed: u32) -> HashAlgo {
        match kind {
            HashAlgoKind::Xor => HashAlgo::Xor(XorHasher::new()),
            HashAlgoKind::SeededXor => HashAlgo::SeededXor(SeededXorHasher::new(seed)),
            HashAlgoKind::Fletcher32 => HashAlgo::Fletcher32(Fletcher32Hasher::new()),
            HashAlgoKind::Crc32 => HashAlgo::Crc32(Crc32Hasher::new()),
            HashAlgoKind::Sha1 => HashAlgo::Sha1(Sha1Hasher::new()),
        }
    }

    /// Serialize the unit's full mid-stream state (checkpoint bytes):
    /// a positional kind tag followed by the per-variant registers.
    pub fn encode_into(&self, e: &mut Enc) {
        encode_kind(self.kind(), e);
        match self {
            HashAlgo::Xor(h) => e.u32(h.acc),
            HashAlgo::SeededXor(h) => {
                e.u32(h.seed);
                e.u32(h.acc);
            }
            HashAlgo::Fletcher32(h) => {
                e.u32(h.s1);
                e.u32(h.s2);
            }
            HashAlgo::Crc32(h) => e.u32(h.crc),
            HashAlgo::Sha1(h) => {
                for v in h.h {
                    e.u32(v);
                }
                e.raw(&h.buf);
                e.usize(h.buf_len);
                e.u64(h.total_bytes);
            }
        }
    }

    /// Rebuild a unit serialized by [`HashAlgo::encode_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, an unknown kind tag, or an
    /// out-of-range SHA-1 buffer length.
    pub fn decode_from(d: &mut Dec<'_>) -> Result<HashAlgo, CodecError> {
        let kind = decode_kind(d)?;
        Ok(match kind {
            HashAlgoKind::Xor => HashAlgo::Xor(XorHasher { acc: d.u32()? }),
            HashAlgoKind::SeededXor => HashAlgo::SeededXor(SeededXorHasher {
                seed: d.u32()?,
                acc: d.u32()?,
            }),
            HashAlgoKind::Fletcher32 => HashAlgo::Fletcher32(Fletcher32Hasher {
                s1: d.u32()?,
                s2: d.u32()?,
            }),
            HashAlgoKind::Crc32 => HashAlgo::Crc32(Crc32Hasher { crc: d.u32()? }),
            HashAlgoKind::Sha1 => {
                let mut h = [0u32; 5];
                for v in &mut h {
                    *v = d.u32()?;
                }
                let mut buf = [0u8; 64];
                buf.copy_from_slice(d.raw(64)?);
                let buf_len = d.usize()?;
                if buf_len >= 64 {
                    return Err(CodecError::Invalid {
                        what: "sha1 buffer length",
                    });
                }
                let total_bytes = d.u64()?;
                HashAlgo::Sha1(Sha1Hasher {
                    h,
                    buf,
                    buf_len,
                    total_bytes,
                })
            }
        })
    }
}

impl BlockHasher for HashAlgo {
    #[inline]
    fn reset(&mut self) {
        match self {
            HashAlgo::Xor(h) => h.reset(),
            HashAlgo::SeededXor(h) => h.reset(),
            HashAlgo::Fletcher32(h) => h.reset(),
            HashAlgo::Crc32(h) => h.reset(),
            HashAlgo::Sha1(h) => h.reset(),
        }
    }

    #[inline]
    fn update(&mut self, word: u32) {
        match self {
            HashAlgo::Xor(h) => h.update(word),
            HashAlgo::SeededXor(h) => h.update(word),
            HashAlgo::Fletcher32(h) => h.update(word),
            HashAlgo::Crc32(h) => h.update(word),
            HashAlgo::Sha1(h) => h.update(word),
        }
    }

    #[inline]
    fn update_block(&mut self, words: &[u32]) {
        // One dispatch per block instead of one per word, into each
        // unit's own batched absorb.
        match self {
            HashAlgo::Xor(h) => h.update_block(words),
            HashAlgo::SeededXor(h) => h.update_block(words),
            HashAlgo::Fletcher32(h) => h.update_block(words),
            HashAlgo::Crc32(h) => h.update_block(words),
            HashAlgo::Sha1(h) => h.update_block(words),
        }
    }

    #[inline]
    fn digest(&self) -> u32 {
        match self {
            HashAlgo::Xor(h) => h.digest(),
            HashAlgo::SeededXor(h) => h.digest(),
            HashAlgo::Fletcher32(h) => h.digest(),
            HashAlgo::Crc32(h) => h.digest(),
            HashAlgo::Sha1(h) => h.digest(),
        }
    }

    fn kind(&self) -> HashAlgoKind {
        match self {
            HashAlgo::Xor(h) => h.kind(),
            HashAlgo::SeededXor(h) => h.kind(),
            HashAlgo::Fletcher32(h) => h.kind(),
            HashAlgo::Crc32(h) => h.kind(),
            HashAlgo::Sha1(h) => h.kind(),
        }
    }
}

/// The paper's XOR checksum: `RHASH ^= word`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XorHasher {
    acc: u32,
}

impl XorHasher {
    /// A fresh unit with zero accumulator.
    pub fn new() -> XorHasher {
        XorHasher::default()
    }
}

impl BlockHasher for XorHasher {
    fn reset(&mut self) {
        self.acc = 0;
    }
    fn update(&mut self, word: u32) {
        self.acc ^= word;
    }
    fn update_block(&mut self, words: &[u32]) {
        // A straight fold the compiler vectorises; XOR is associative,
        // so the batched result is trivially the per-word one.
        self.acc = words.iter().fold(self.acc, |acc, &w| acc ^ w);
    }
    fn digest(&self) -> u32 {
        self.acc
    }
    fn kind(&self) -> HashAlgoKind {
        HashAlgoKind::Xor
    }
}

/// XOR checksum seeded with a process-dependent random value
/// (paper, Section 6.3). An attacker who does not know the seed cannot
/// pre-compute colliding instruction pairs across *processes*, though
/// within one run the XOR algebra is unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeededXorHasher {
    seed: u32,
    acc: u32,
}

impl SeededXorHasher {
    /// A fresh unit accumulating from `seed`.
    pub fn new(seed: u32) -> SeededXorHasher {
        SeededXorHasher { seed, acc: seed }
    }
}

impl BlockHasher for SeededXorHasher {
    fn reset(&mut self) {
        self.acc = self.seed;
    }
    fn update(&mut self, word: u32) {
        // Rotate before mixing so that the seed also breaks the
        // column-independence that lets same-column double flips cancel.
        self.acc = self.acc.rotate_left(1) ^ word;
    }
    fn digest(&self) -> u32 {
        self.acc
    }
    fn kind(&self) -> HashAlgoKind {
        HashAlgoKind::SeededXor
    }
}

/// Fletcher-32 over the little-endian 16-bit halves of each word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fletcher32Hasher {
    s1: u32,
    s2: u32,
}

impl Fletcher32Hasher {
    /// A fresh unit.
    pub fn new() -> Fletcher32Hasher {
        Fletcher32Hasher::default()
    }
}

impl BlockHasher for Fletcher32Hasher {
    fn reset(&mut self) {
        self.s1 = 0;
        self.s2 = 0;
    }
    fn update(&mut self, word: u32) {
        for half in [word & 0xffff, word >> 16] {
            self.s1 = (self.s1 + half) % 65535;
            self.s2 = (self.s2 + self.s1) % 65535;
        }
    }
    fn update_block(&mut self, words: &[u32]) {
        // Deferred modulo: accumulate in u64 and reduce once per chunk.
        // Congruent to the per-half reduction (the sums are exact in
        // u64), so the digest is bit-identical. Chunks of 2^19 words
        // (2^20 halves) keep s2 ≤ 2^20·(65534 + 2^20·65535) ≈ 2^56,
        // far under u64 overflow.
        let mut s1 = self.s1 as u64;
        let mut s2 = self.s2 as u64;
        for chunk in words.chunks(1 << 19) {
            for &w in chunk {
                s1 += (w & 0xffff) as u64;
                s2 += s1;
                s1 += (w >> 16) as u64;
                s2 += s1;
            }
            s1 %= 65535;
            s2 %= 65535;
        }
        self.s1 = s1 as u32;
        self.s2 = s2 as u32;
    }
    fn digest(&self) -> u32 {
        (self.s2 << 16) | self.s1
    }
    fn kind(&self) -> HashAlgoKind {
        HashAlgoKind::Fletcher32
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), fed the four
/// little-endian bytes of each word. Matches zlib's `crc32`.
///
/// The unit steps byte-at-a-time through a precomputed 256-entry
/// table — each table entry is the bit-serial remainder of its index,
/// so the digest is bit-identical to shifting the polynomial one bit
/// at a time (the reference-vector tests pin this). The byte-string
/// helpers [`crc32`] and [`crc32_continue`] share the same table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32Hasher {
    crc: u32,
}

/// The reflected-polynomial remainder of every possible input byte.
const CRC32_TABLE: [u32; 256] = {
    const POLY: u32 = 0xedb8_8320;
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

impl Crc32Hasher {
    /// A fresh unit.
    pub fn new() -> Crc32Hasher {
        Crc32Hasher { crc: 0xffff_ffff }
    }

    #[inline]
    fn absorb(crc: u32, byte: u8) -> u32 {
        (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xff) as usize]
    }
}

/// CRC-32 of a byte string — zlib's `crc32`, the checksum the serve
/// journal stamps on every record.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_continue(0xffff_ffff, bytes)
}

/// Extend a running CRC-32 with more bytes. `state` is the *raw*
/// register: start from `0xffff_ffff`, or pass `!digest` to continue
/// from a finished [`crc32`] digest; the caller applies the final
/// inversion.
pub fn crc32_continue(state: u32, bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(state, |crc, &b| Crc32Hasher::absorb(crc, b))
}

impl Default for Crc32Hasher {
    fn default() -> Self {
        Crc32Hasher::new()
    }
}

impl BlockHasher for Crc32Hasher {
    fn reset(&mut self) {
        self.crc = 0xffff_ffff;
    }
    fn update(&mut self, word: u32) {
        let mut crc = self.crc;
        for byte in word.to_le_bytes() {
            crc = Self::absorb(crc, byte);
        }
        self.crc = crc;
    }
    fn update_block(&mut self, words: &[u32]) {
        let mut crc = self.crc;
        for &word in words {
            for byte in word.to_le_bytes() {
                crc = Self::absorb(crc, byte);
            }
        }
        self.crc = crc;
    }
    fn digest(&self) -> u32 {
        !self.crc
    }
    fn kind(&self) -> HashAlgoKind {
        HashAlgoKind::Crc32
    }
}

/// Streaming SHA-1 over the little-endian bytes of each word, truncated
/// to the first 32 bits of the digest (the FHT stores 32-bit hashes).
///
/// Far too slow and large for a real IF stage — included to bound the
/// detection-strength axis of the design space, as the paper's
/// conclusion anticipates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sha1Hasher {
    h: [u32; 5],
    buf: [u8; 64],
    buf_len: usize,
    total_bytes: u64,
}

impl Sha1Hasher {
    const INIT: [u32; 5] = [
        0x6745_2301,
        0xefcd_ab89,
        0x98ba_dcfe,
        0x1032_5476,
        0xc3d2_e1f0,
    ];

    /// A fresh unit.
    pub fn new() -> Sha1Hasher {
        Sha1Hasher {
            h: Self::INIT,
            buf: [0; 64],
            buf_len: 0,
            total_bytes: 0,
        }
    }

    fn compress(h: &mut [u32; 5], chunk: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                chunk[4 * i],
                chunk[4 * i + 1],
                chunk[4 * i + 2],
                chunk[4 * i + 3],
            ]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5a82_7999),
                20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
                _ => (b ^ c ^ d, 0xca62_c1d6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }

    fn push_byte(&mut self, b: u8) {
        self.buf[self.buf_len] = b;
        self.buf_len += 1;
        self.total_bytes += 1;
        if self.buf_len == 64 {
            let buf = self.buf;
            Self::compress(&mut self.h, &buf);
            self.buf_len = 0;
        }
    }
}

impl Default for Sha1Hasher {
    fn default() -> Self {
        Sha1Hasher::new()
    }
}

impl BlockHasher for Sha1Hasher {
    fn reset(&mut self) {
        *self = Sha1Hasher::new();
    }

    fn update(&mut self, word: u32) {
        for b in word.to_le_bytes() {
            self.push_byte(b);
        }
    }

    fn digest(&self) -> u32 {
        // Finalise a copy so the stream can continue.
        let mut h = self.h;
        let mut buf = self.buf;
        let mut len = self.buf_len;
        let bit_len = self.total_bytes * 8;
        buf[len] = 0x80;
        len += 1;
        if len > 56 {
            buf[len..].fill(0);
            Self::compress(&mut h, &buf);
            buf = [0; 64];
            len = 0;
        }
        buf[len..56].fill(0);
        buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress(&mut h, &buf);
        h[0]
    }

    fn kind(&self) -> HashAlgoKind {
        HashAlgoKind::Sha1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V1: [u32; 1] = [0x6463_6261]; // bytes "abcd"
    const V3: [u32; 3] = [0x1111_1111, 0x2222_2222, 0x3333_3333];
    const V4: [u32; 4] = [0xdead_beef, 0x0000_0000, 0xffff_ffff, 0x1234_5678];

    #[test]
    fn xor_is_word_parity() {
        assert_eq!(hash_words(HashAlgoKind::Xor, 0, V3), 0x0000_0000);
        assert_eq!(
            hash_words(HashAlgoKind::Xor, 0, V4),
            0xdead_beef ^ 0xffff_ffff ^ 0x1234_5678
        );
    }

    #[test]
    fn xor_detects_single_bit_flip() {
        for bit in 0..32 {
            let mut v = V4;
            v[2] ^= 1 << bit;
            assert_ne!(
                hash_words(HashAlgoKind::Xor, 0, v),
                hash_words(HashAlgoKind::Xor, 0, V4),
                "bit {bit} flip went undetected"
            );
        }
    }

    #[test]
    fn xor_misses_same_column_double_flip() {
        // Two flips in the same bit column cancel: the known weakness.
        let mut v = V4;
        v[0] ^= 1 << 7;
        v[2] ^= 1 << 7;
        assert_eq!(
            hash_words(HashAlgoKind::Xor, 0, v),
            hash_words(HashAlgoKind::Xor, 0, V4)
        );
    }

    #[test]
    fn seeded_xor_catches_same_column_double_flip() {
        let seed = 0x1234_5678;
        let base = hash_words(HashAlgoKind::SeededXor, seed, V4);
        let mut v = V4;
        v[0] ^= 1 << 7;
        v[2] ^= 1 << 7;
        assert_ne!(hash_words(HashAlgoKind::SeededXor, seed, v), base);
    }

    #[test]
    fn seeded_xor_depends_on_seed() {
        assert_ne!(
            hash_words(HashAlgoKind::SeededXor, 1, V3),
            hash_words(HashAlgoKind::SeededXor, 2, V3)
        );
    }

    #[test]
    fn fletcher_reference_vectors() {
        assert_eq!(hash_words(HashAlgoKind::Fletcher32, 0, V1), 0x2926_c6c4);
        assert_eq!(hash_words(HashAlgoKind::Fletcher32, 0, V3), 0x4444_cccc);
        assert_eq!(hash_words(HashAlgoKind::Fletcher32, 0, V4), 0xcd63_064a);
    }

    #[test]
    fn crc32_reference_vectors() {
        assert_eq!(hash_words(HashAlgoKind::Crc32, 0, V1), 0xed82_cd11);
        assert_eq!(hash_words(HashAlgoKind::Crc32, 0, V3), 0x6ddb_5d74);
        assert_eq!(hash_words(HashAlgoKind::Crc32, 0, V4), 0xd6a1_84ec);
        // The byte-string form: the IEEE check value, and the same
        // digest reached in two pieces through the raw register.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        let raw = crc32_continue(0xffff_ffff, b"12345");
        assert_eq!(!crc32_continue(raw, b"6789"), 0xcbf4_3926);
        assert_eq!(!crc32_continue(!crc32(b"1234"), b"56789"), 0xcbf4_3926);
        // The word unit and the byte helpers agree on the same bytes.
        let bytes: Vec<u8> = V3.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(crc32(&bytes), hash_words(HashAlgoKind::Crc32, 0, V3));
    }

    #[test]
    fn sha1_reference_vectors() {
        assert_eq!(hash_words(HashAlgoKind::Sha1, 0, V1), 0x81fe_8bfe);
        assert_eq!(hash_words(HashAlgoKind::Sha1, 0, V3), 0x0cbd_a062);
        assert_eq!(hash_words(HashAlgoKind::Sha1, 0, V4), 0x0a85_4402);
    }

    #[test]
    fn sha1_streams_across_block_boundary() {
        // More than 64 bytes forces an internal compress mid-stream.
        let words: Vec<u32> = (0..40u32).collect();
        let mut h = Sha1Hasher::new();
        for &w in &words {
            h.update(w);
        }
        let d1 = h.digest();
        // digest() must not disturb the stream:
        h.update(123);
        let _ = h.digest();
        let mut h2 = Sha1Hasher::new();
        for &w in words.iter().chain([123u32].iter()) {
            h2.update(w);
        }
        assert_eq!(h.digest(), h2.digest());
        assert_ne!(d1, h.digest());
    }

    #[test]
    fn reset_restores_initial_state_for_all() {
        for kind in HashAlgoKind::ALL {
            let mut h = hasher_for(kind, 0x55aa_55aa);
            let initial = h.digest();
            h.update(0xdead_beef);
            h.update(0x0bad_f00d);
            h.reset();
            assert_eq!(h.digest(), initial, "{kind} reset broken");
            assert_eq!(h.kind(), kind);
        }
    }

    #[test]
    fn digest_is_readable_mid_stream_for_all() {
        for kind in HashAlgoKind::ALL {
            let mut a = hasher_for(kind, 7);
            let mut b = hasher_for(kind, 7);
            a.update(1);
            let _ = a.digest(); // observing must not perturb
            a.update(2);
            b.update(1);
            b.update(2);
            assert_eq!(a.digest(), b.digest(), "{kind} digest perturbs state");
        }
    }

    #[test]
    fn enum_dispatch_matches_boxed_units() {
        // The devirtualised unit must be bit-identical to the trait
        // objects it replaced on the hot path.
        for kind in HashAlgoKind::ALL {
            let mut e = HashAlgo::new(kind, 0x5eed);
            let mut b: Box<dyn BlockHasher> = match kind {
                HashAlgoKind::Xor => Box::new(XorHasher::new()),
                HashAlgoKind::SeededXor => Box::new(SeededXorHasher::new(0x5eed)),
                HashAlgoKind::Fletcher32 => Box::new(Fletcher32Hasher::new()),
                HashAlgoKind::Crc32 => Box::new(Crc32Hasher::new()),
                HashAlgoKind::Sha1 => Box::new(Sha1Hasher::new()),
            };
            assert_eq!(e.kind(), kind);
            for w in V4 {
                e.update(w);
                b.update(w);
                assert_eq!(e.digest(), b.digest(), "{kind}");
            }
            e.reset();
            b.reset();
            assert_eq!(e.digest(), b.digest(), "{kind} reset");
        }
    }

    #[test]
    fn batched_update_matches_word_at_a_time_for_all() {
        // The batching contract: update_block(words) ≡ update per word,
        // from any mid-stream state, for every unit — including the
        // deferred-modulo Fletcher and the table-driven CRC.
        let words: Vec<u32> = (0..1500u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ (i << 13))
            .collect();
        for kind in HashAlgoKind::ALL {
            let mut batched = HashAlgo::new(kind, 0x5eed);
            let mut serial = HashAlgo::new(kind, 0x5eed);
            // Mid-stream start: absorb a prefix word-at-a-time first.
            for &w in &words[..7] {
                batched.update(w);
                serial.update(w);
            }
            for chunk in words[7..].chunks(31) {
                batched.update_block(chunk);
                for &w in chunk {
                    serial.update(w);
                }
                assert_eq!(batched.digest(), serial.digest(), "{kind}");
            }
            batched.update_block(&[]);
            assert_eq!(batched.digest(), serial.digest(), "{kind} empty block");
        }
    }

    #[test]
    fn hash_block_matches_hash_words() {
        let words: Vec<u32> = (0..257u32).map(|i| i.wrapping_mul(2654435761)).collect();
        for kind in HashAlgoKind::ALL {
            assert_eq!(
                hash_block(kind, 0xfeed, &words),
                hash_words(kind, 0xfeed, words.iter().copied()),
                "{kind}"
            );
        }
    }

    #[test]
    fn encode_decode_round_trips_mid_stream_state_for_all() {
        // Serialize every unit mid-stream (SHA-1 with a partial buffer),
        // decode, and check the continued digests stay bit-identical.
        for kind in HashAlgoKind::ALL {
            let mut h = HashAlgo::new(kind, 0x5eed_f00d);
            for w in 0..37u32 {
                h.update(w.wrapping_mul(0x9e37_79b9));
            }
            let mut e = Enc::new();
            h.encode_into(&mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let mut back = HashAlgo::decode_from(&mut d).unwrap();
            d.finish().unwrap();
            assert_eq!(back, h, "{kind}");
            h.update(0xdead_beef);
            back.update(0xdead_beef);
            assert_eq!(back.digest(), h.digest(), "{kind} diverged after decode");
            assert!(
                HashAlgo::decode_from(&mut Dec::new(&bytes[..bytes.len() - 1])).is_err(),
                "{kind} accepted truncated bytes"
            );
        }
        // An out-of-range kind tag is rejected, not wrapped.
        assert!(HashAlgo::decode_from(&mut Dec::new(&[9u8, 0, 0, 0, 0])).is_err());
    }

    #[test]
    fn algorithms_disagree_with_each_other() {
        // Sanity: different algorithms produce different digests on V4.
        let digests: Vec<u32> = HashAlgoKind::ALL
            .iter()
            .map(|&k| hash_words(k, 0, V4))
            .collect();
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(digests[i], digests[j], "kinds {i} and {j} collide on V4");
            }
        }
    }
}

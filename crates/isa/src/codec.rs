//! Little-endian byte codec for checkpoint state.
//!
//! `ProcessorSnapshot::to_bytes` serializes complete processor
//! snapshots, which means every crate that owns a piece of run state —
//! memory, the datapath, the checker, the OS kernel, the pipeline —
//! needs one agreed way to turn that state into bytes and back. This module is that agreement: a tiny, explicit,
//! little-endian writer/reader pair with no reflection, no derive
//! magic, and no external dependency, so the on-disk layout of every
//! field is visible at its encode site.
//!
//! Integrity is layered *above* this codec: `ProcessorSnapshot`
//! carries its own architectural checksum. The decoder here only
//! guards against structural damage (truncation, impossible lengths,
//! out-of-range tags) and reports it as a typed [`CodecError`] instead
//! of panicking, so corrupt bytes fail cleanly instead of crashing the
//! caller.

use std::fmt;

/// Structural decode failure: the bytes do not describe a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// A tag or length field held a value no encoder produces.
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated: needed {needed} bytes, have {have}")
            }
            CodecError::Invalid { what } => write!(f, "invalid encoding of {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An empty encoder with `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Take ownership of the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a little-endian `u64` (portable across
    /// pointer widths).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append raw bytes with no length prefix (fixed-size fields).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u64` length prefix followed by the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }
}

/// Sequential little-endian reader over an encoded buffer.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the buffer is exhausted.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `bool` encoded as one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on exhaustion; [`CodecError::Invalid`]
    /// for any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { what: "bool" }),
        }
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `usize` encoded as a `u64`, rejecting values that do not
    /// fit this platform's pointer width.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on exhaustion; [`CodecError::Invalid`]
    /// if the value overflows `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid { what: "usize" })
    }

    /// Read exactly `n` raw bytes (fixed-size fields).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Read a `u64`-length-prefixed byte run. The length is bounded by
    /// the bytes actually remaining, so a corrupt length field fails
    /// here instead of provoking a huge allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the prefix or the run is cut short;
    /// [`CodecError::Invalid`] if the prefix overflows `usize`.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Assert every byte was consumed — decoders call this last so
    /// trailing garbage (mis-framed bytes) is detected rather than
    /// silently ignored.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] if bytes remain.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid {
                what: "trailing bytes",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Enc::new();
        e.u8(0xab);
        e.bool(true);
        e.bool(false);
        e.u32(0xdead_beef);
        e.u64(0x0123_4567_89ab_cdef);
        e.usize(42);
        e.raw(&[1, 2, 3]);
        e.bytes(b"hello");
        e.bytes(b"");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.raw(3).unwrap(), &[1, 2, 3]);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.bytes().unwrap(), b"");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed() {
        let mut e = Enc::new();
        e.u32(7);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..2]);
        assert_eq!(d.u32(), Err(CodecError::Truncated { needed: 4, have: 2 }));
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate() {
        // A length field claiming far more bytes than the buffer holds
        // must fail as Truncated, not attempt the allocation.
        let mut e = Enc::new();
        e.u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.bytes(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn invalid_bool_and_trailing_bytes_are_rejected() {
        let mut d = Dec::new(&[2]);
        assert_eq!(d.bool(), Err(CodecError::Invalid { what: "bool" }));
        let d = Dec::new(&[0]);
        assert_eq!(
            d.finish(),
            Err(CodecError::Invalid {
                what: "trailing bytes"
            })
        );
    }
}

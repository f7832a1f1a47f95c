//! A minimal binary snapshot codec.
//!
//! Checkpoint/resume demands *bit-identical* state round-trips: the resumed
//! run must replay the exact event order and RNG stream of the original, so
//! the wire format is fixed-width little-endian integers with floats carried
//! as their IEEE-754 bit patterns — no text formatting, no locale, no
//! precision loss. [`SnapWriter`] appends fields to a byte buffer and
//! [`SnapReader`] consumes them in the same order; every composite structure
//! in the simulator serializes itself field-by-field through this pair, and
//! any length or tag that fails to decode surfaces as a [`SnapError`] rather
//! than corrupt state.

use std::fmt;

/// Decoding failure: the byte stream ended early or held an invalid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ran out at `offset` while `needed` more bytes were
    /// required.
    Eof { offset: usize, needed: usize },
    /// A decoded field held a value outside its domain (bad bool tag, bad
    /// enum discriminant, non-UTF-8 string bytes, ...).
    Invalid { what: &'static str, value: u64 },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof { offset, needed } => {
                write!(
                    f,
                    "snapshot truncated at byte {offset} (needed {needed} more)"
                )
            }
            SnapError::Invalid { what, value } => {
                write!(f, "invalid snapshot field {what}: {value}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends fixed-width little-endian fields to a growable byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// An empty writer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an f64 as its exact IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Append a usize as a u64 (sizes are platform-independent on disk).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Consumes fields from a byte slice in the order they were written.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an f64 from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool (rejecting anything but 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapError::Invalid {
                what: "bool",
                value: v as u64,
            }),
        }
    }

    /// Read a usize (stored as u64; rejects values beyond the platform's
    /// usize). Read counts that size an allocation with
    /// [`SnapReader::count`] instead.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid {
            what: "usize",
            value: v,
        })
    }

    /// Read the count of a list whose items take at least `min_item_bytes`
    /// each, rejecting any count the unread bytes cannot hold. Use it for
    /// every count that sizes an allocation, so a corrupt count fails here
    /// instead of reserving gigabytes.
    pub fn count(&mut self, what: &'static str, min_item_bytes: usize) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() / min_item_bytes.max(1) {
            return Err(SnapError::Invalid {
                what,
                value: n as u64,
            });
        }
        Ok(n)
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.count("byte-slice length", 1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        let raw = self.bytes()?;
        std::str::from_utf8(raw).map_err(|e| SnapError::Invalid {
            what: "utf-8 string",
            value: e.valid_up_to() as u64,
        })
    }

    /// Assert that every byte has been consumed (trailing garbage means the
    /// reader and writer disagree about the format).
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Invalid {
                what: "trailing bytes",
                value: self.remaining() as u64,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(std::f64::consts::PI);
        w.f64(f64::NEG_INFINITY);
        w.bool(true);
        w.bool(false);
        w.usize(12345);
        w.bytes(b"raw");
        w.str("text \u{1F980}");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), std::f64::consts::PI.to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "text \u{1F980}");
        r.finish().unwrap();
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        w.f64(weird);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_buffer_is_eof() {
        let mut w = SnapWriter::new();
        w.u64(9);
        let bytes = &w.into_bytes()[..5];
        let mut r = SnapReader::new(bytes);
        assert!(matches!(r.u64(), Err(SnapError::Eof { .. })));
    }

    #[test]
    fn bad_bool_is_invalid() {
        let mut r = SnapReader::new(&[2]);
        assert_eq!(
            r.bool(),
            Err(SnapError::Invalid {
                what: "bool",
                value: 2
            })
        );
    }

    #[test]
    fn oversized_length_prefix_is_invalid() {
        let mut w = SnapWriter::new();
        w.usize(1_000_000); // claims a megabyte that is not there
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(SnapError::Invalid { .. })));

        // Two u64 items fit in the 16 bytes after the count; three do not.
        for (n, fits) in [(2, true), (3, false)] {
            let mut w = SnapWriter::new();
            w.usize(n);
            w.u64(0);
            w.u64(0);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            assert_eq!(r.count("items", 8).is_ok(), fits, "count {n}");
        }
    }

    #[test]
    fn trailing_bytes_rejected_by_finish() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn errors_display() {
        let e = SnapError::Eof {
            offset: 3,
            needed: 5,
        };
        assert!(e.to_string().contains("truncated"));
        let e = SnapError::Invalid {
            what: "bool",
            value: 9,
        };
        assert!(e.to_string().contains("bool"));
    }
}

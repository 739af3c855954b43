//! lint:scope(panic-reachability)
//! Checked little-endian field readers for decode paths.
//!
//! Decode code must never panic on malformed bytes — a corrupt file is an
//! [`StorageError::Corrupt`](crate::StorageError)-class error, not a crash
//! (the `panic-reachability` lint in `cargo xtask analyze` enforces this).
//! These helpers replace the `buf[o..o + 8].try_into().unwrap()` idiom:
//! they return `None` past the end of the buffer and cannot panic, so a
//! decode function is total by construction instead of by a length check
//! the next edit might invalidate.

use crate::error::{Result, StorageError};

/// Read a little-endian `u16` at `off`; `None` if out of bounds.
#[inline]
pub fn le_u16(buf: &[u8], off: usize) -> Option<u16> {
    let b = buf.get(off..off.checked_add(2)?)?;
    Some(u16::from_le_bytes(b.try_into().ok()?))
}

/// Read a little-endian `u32` at `off`; `None` if out of bounds.
#[inline]
pub fn le_u32(buf: &[u8], off: usize) -> Option<u32> {
    let b = buf.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes(b.try_into().ok()?))
}

/// Read a little-endian `u64` at `off`; `None` if out of bounds.
#[inline]
pub fn le_u64(buf: &[u8], off: usize) -> Option<u64> {
    let b = buf.get(off..off.checked_add(8)?)?;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

/// Read a little-endian `f64` at `off`; `None` if out of bounds.
#[inline]
pub fn le_f64(buf: &[u8], off: usize) -> Option<f64> {
    Some(f64::from_bits(le_u64(buf, off)?))
}

/// Checked sequential reader over a byte slice: the one cursor every
/// slice decoder shares (packed-list frame payloads, tuple-directory
/// frames). Each read consumes from the front; a read past the end is
/// [`StorageError::Corrupt`] naming what was being decoded, never a panic.
#[derive(Debug, Clone)]
pub struct SliceReader<'a> {
    rest: &'a [u8],
    what: &'static str,
}

impl<'a> SliceReader<'a> {
    /// A reader at the start of `buf`; `what` names the structure in
    /// error messages ("packed frame", "directory frame", ...).
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Self { rest: buf, what }
    }

    fn truncated(&self) -> StorageError {
        StorageError::Corrupt(format!("truncated {}", self.what))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        match (self.rest.get(..n), self.rest.get(n..)) {
            (Some(head), Some(tail)) => {
                self.rest = tail;
                Ok(head)
            }
            _ => Err(self.truncated()),
        }
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8> {
        let b = self.take(1)?;
        b.first().copied().ok_or_else(|| self.truncated())
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        le_u32(self.take(4)?, 0).ok_or_else(|| self.truncated())
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        le_u64(self.take(8)?, 0).ok_or_else(|| self.truncated())
    }

    /// Bytes not yet consumed: the bound on anything the rest of the
    /// structure can claim to hold.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// True once every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.rest.is_empty()
    }

    /// Declare the structure fully read: unconsumed bytes are corruption,
    /// not padding.
    pub fn finish(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(StorageError::Corrupt(format!(
                "trailing bytes in {}",
                self.what
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_bounds_reads_match_manual_decode() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        buf.extend_from_slice(&2.5f64.to_le_bytes());
        assert_eq!(le_u16(&buf, 0), Some(0xBEEF));
        assert_eq!(le_u32(&buf, 2), Some(0xDEAD_BEEF));
        assert_eq!(le_u64(&buf, 6), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(le_f64(&buf, 14), Some(2.5));
    }

    #[test]
    fn slice_reader_reads_in_order_and_rejects_short_reads() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        buf.extend_from_slice(b"xyz");
        let mut r = SliceReader::new(&buf, "test frame");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(!r.at_end());
        assert_eq!(r.remaining(), 3);
        // Trailing bytes: `finish` refuses, and says what it was reading.
        let err = r.finish().unwrap_err();
        assert!(matches!(&err, StorageError::Corrupt(m) if m.contains("test frame")));
        assert_eq!(r.take(0).unwrap(), b"");
        // Every short read is an error that consumes nothing...
        for short in [r.clone().u32().err(), r.clone().u64().err()] {
            assert!(matches!(short, Some(StorageError::Corrupt(_))));
        }
        assert!(r.take(4).is_err());
        // ...including a length no position can be added to.
        assert!(r.take(usize::MAX).is_err());
        assert_eq!(r.take(3).unwrap(), b"xyz");
        assert!(r.at_end());
        r.finish().unwrap();
        assert!(r.u8().is_err());
        assert!(SliceReader::new(&[], "empty").u8().is_err());
    }

    #[test]
    fn out_of_bounds_is_none_not_panic() {
        let buf = [0u8; 8];
        assert_eq!(le_u16(&buf, 7), None);
        assert_eq!(le_u32(&buf, 5), None);
        assert_eq!(le_u64(&buf, 1), None);
        assert_eq!(le_u64(&buf, usize::MAX), None); // offset overflow
        assert_eq!(le_u64(&[], 0), None);
    }
}

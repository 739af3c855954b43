//! lint:scope(panic-reachability)
//! Bit-packing primitives for the compressed list encodings.
//!
//! The compressed vector-list format (iva-core's `packed` module) stores
//! monotone tuple-id deltas and small numeric codes as fixed-width
//! bit-packed runs, the classic inverted-list compression of
//! compression-based index structures. This module provides the
//! primitives: a packer that appends `n` values at `width` bits each
//! (LSB-first within and across bytes), a checked one-value-at-a-time
//! [`BitUnpacker`], and a bulk [`unpack_bits`] that sizes its output once
//! and writes a whole section into it. Reading is word-at-a-time: a value
//! of up to 56 bits is one unaligned 8-byte little-endian load, a shift
//! and a mask; only the last few values of a buffer (whose 8-byte window would
//! run past its end) and widths above 56 take the checked byte loop.
//! Nothing ever indexes past the buffer — truncated input surfaces as
//! `None`, never a panic, because these bytes come straight off disk.

use crate::codec::le_u64;

/// Minimal number of bits needed to represent `v` (`0` for `v == 0`).
pub fn bit_width(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Exact byte length of `n` values packed at `width` bits each.
pub fn packed_len(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Append `values` to `out`, each truncated to `width` bits, packed
/// LSB-first. `width == 0` appends nothing: the caller's contract is that
/// every value is zero (the unpacker synthesizes zeros back).
pub fn pack_bits(values: &[u64], width: u32, out: &mut Vec<u8>) {
    if width == 0 {
        return;
    }
    let mask = low_bits(width);
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    for &v in values {
        acc |= u128::from(v & mask) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Widest value one 8-byte window always holds whole: up to 7 bits of
/// in-byte shift plus the value must fit 64.
const WINDOW_WIDTH: u32 = 56;

fn low_bits(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Bulk inverse of [`pack_bits`]: append the `n` values packed at `width`
/// bits in `buf` to `out`. `None` — with nothing appended — when the
/// width is not representable (`> 64`) or `buf` holds fewer than `n`
/// values. At width 0 the values are `n` zeros and `buf` is not
/// consulted, so the caller bounds `n`.
pub fn unpack_bits(buf: &[u8], width: u32, n: usize, out: &mut Vec<u64>) -> Option<()> {
    if width > 64 || n.checked_mul(width as usize)? > buf.len().checked_mul(8)? {
        return None;
    }
    let (start, w, mask) = (out.len(), width as usize, low_bits(width));
    out.resize(start + n, 0);
    if w == 0 {
        return Some(());
    }
    let slots = out.get_mut(start..).unwrap_or(&mut []);
    // Value `i` starts at bit `i·w`; its window is in bounds while that
    // bit's byte is at most `len − 8`, and holds it whole up to 56 bits.
    let windowed = match (width <= WINDOW_WIDTH, buf.len().checked_sub(8)) {
        (true, Some(last)) => ((last * 8 + 7) / w + 1).min(n),
        _ => 0,
    };
    let (fast, rest) = slots.split_at_mut(windowed);
    for (i, slot) in fast.iter_mut().enumerate() {
        let bit = i * w;
        *slot = (le_u64(buf, bit >> 3).unwrap_or(0) >> (bit & 7)) & mask;
    }
    let mut tail = BitUnpacker::new(buf, width)?;
    tail.bit_pos = windowed * w;
    for slot in rest {
        match tail.next() {
            Some(v) => *slot = v,
            None => {
                out.truncate(start);
                return None;
            }
        }
    }
    Some(())
}

/// [`unpack_bits`] for byte-sized fields (widths up to 8), into bytes:
/// eight values are exactly `width` bytes, so each group of eight is one
/// little-endian word and eight shifts. `None` — with nothing appended —
/// when the width exceeds 8 or `buf` holds fewer than `n` values.
pub fn unpack_bytes(buf: &[u8], width: u32, n: usize, out: &mut Vec<u8>) -> Option<()> {
    if width > 8 || n.checked_mul(width as usize)? > buf.len().checked_mul(8)? {
        return None;
    }
    let (start, w, mask) = (out.len(), width as usize, low_bits(width));
    if w == 0 {
        out.resize(start + n, 0);
        return Some(());
    }
    out.reserve(n.next_multiple_of(8));
    for group in buf.chunks(w).take(n.div_ceil(8)) {
        let word = group
            .iter()
            .rev()
            .fold(0, |acc, &b| (acc << 8) | u64::from(b));
        out.extend((0..8).map(|k| ((word >> (k * w)) & mask) as u8));
    }
    out.truncate(start + n);
    Some(())
}

/// Checked LSB-first reader over a bit-packed byte slice, one value at a
/// time (sections are inflated whole by [`unpack_bits`]).
///
/// Every accessor is bounds-checked against the borrowed buffer; a
/// truncated or short buffer ends the [`Iterator`] with `None` instead
/// of a slice panic.
#[derive(Debug)]
pub struct BitUnpacker<'a> {
    buf: &'a [u8],
    bit_pos: usize,
    width: u32,
}

impl<'a> BitUnpacker<'a> {
    /// Reader over `buf` at `width` bits per value. `None` if the width is
    /// not representable (`> 64`) — a corrupt on-disk tag, not a caller bug.
    pub fn new(buf: &'a [u8], width: u32) -> Option<Self> {
        if width > 64 {
            return None;
        }
        Some(Self {
            buf,
            bit_pos: 0,
            width,
        })
    }
}

impl Iterator for BitUnpacker<'_> {
    type Item = u64;

    /// Next value, or `None` once fewer than `width` bits remain. At width
    /// 0 this returns `Some(0)` forever; the caller bounds the count.
    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.width == 0 {
            return Some(0);
        }
        if self.width <= WINDOW_WIDTH {
            // An in-bounds window holds the whole value: it starts at most
            // 7 bits in and is at most 56 wide.
            if let Some(word) = le_u64(self.buf, self.bit_pos >> 3) {
                let v = (word >> (self.bit_pos & 7)) & low_bits(self.width);
                self.bit_pos += self.width as usize;
                return Some(v);
            }
        }
        let end = self.bit_pos.checked_add(self.width as usize)?;
        if end > self.buf.len().checked_mul(8)? {
            return None;
        }
        let first = self.bit_pos / 8;
        let shift = self.bit_pos % 8;
        let nbytes = (shift + self.width as usize).div_ceil(8);
        let mut acc: u128 = 0;
        for (i, &b) in self.buf.get(first..first + nbytes)?.iter().enumerate() {
            acc |= u128::from(b) << (8 * i);
        }
        acc >>= shift;
        self.bit_pos = end;
        Some((acc & u128::from(low_bits(self.width))) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(bit_width(0), 0);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u64::MAX), 64);
        assert_eq!(packed_len(0, 13), 0);
        assert_eq!(packed_len(8, 1), 1);
        assert_eq!(packed_len(9, 1), 2);
        assert_eq!(packed_len(3, 64), 24);
    }

    #[test]
    fn roundtrip_all_widths() {
        for width in 0..=64u32 {
            let max = low_bits(width);
            let values: Vec<u64> = (0..97u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & max)
                .collect();
            let mut buf = Vec::new();
            pack_bits(&values, width, &mut buf);
            assert_eq!(buf.len(), packed_len(values.len(), width), "w={width}");
            let mut u = BitUnpacker::new(&buf, width).unwrap();
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(u.next(), Some(v), "w={width} i={i}");
            }
            if width > 0 {
                // Fewer than `width` bits remain past the run.
                let mut tail = u;
                let spare_bits = buf.len() * 8 - values.len() * width as usize;
                if (spare_bits as u32) < width {
                    assert_eq!(tail.next(), None);
                }
            }
        }
    }

    /// Both sides of the 8-byte window edge: runs whose last values leave
    /// the windowed loop for the checked one (and, past 56 bits, runs that
    /// never enter it), each ending one byte before, at and after the
    /// edge. A buffer one byte short is `None` and leaves `out` as it was.
    #[test]
    fn bulk_unpack_meets_the_window_edge_at_every_width() {
        for width in 0..=64u32 {
            let w = width as usize;
            let edge = if w == 0 { 8 } else { 64usize.div_ceil(w) };
            for len in [edge.saturating_sub(1), edge, edge + 1, 2 * edge + 3] {
                let values: Vec<u64> = (0..len as u64)
                    .map(|i| (i.wrapping_mul(0x2545_F491_4F6C_DD1D) + 3) & low_bits(width))
                    .collect();
                let mut buf = Vec::new();
                pack_bits(&values, width, &mut buf);
                let mut out = vec![9u64, 9];
                unpack_bits(&buf, width, len, &mut out).unwrap();
                assert_eq!(
                    (&out[..2], &out[2..]),
                    (&[9, 9][..], &values[..]),
                    "w={width}"
                );
                if let Some(short) = buf.len().checked_sub(1) {
                    let mut out = vec![9u64];
                    assert_eq!(unpack_bits(&buf[..short], width, len, &mut out), None);
                    assert_eq!(out, [9], "w={width} n={len}");
                }
            }
        }
    }

    /// The bulk unpacker against the packer and the one-at-a-time reader:
    /// every width, every length from empty through two 64-value blocks,
    /// and the run laid down at every tail alignment — so the last
    /// windowed value, the checked tail and the end of the buffer meet in
    /// every combination. One spare byte must not change the values; one
    /// missing byte must be `None` with nothing appended. (Miri runs every
    /// width on the lengths around each boundary.)
    #[test]
    fn bulk_unpack_roundtrips_every_width_length_and_tail() {
        let lens: Vec<usize> = if cfg!(miri) {
            vec![0, 1, 7, 8, 9, 64, 65, 130]
        } else {
            (0..=130).collect()
        };
        for width in 0..=64u32 {
            let max = low_bits(width);
            for &len in &lens {
                let values: Vec<u64> = (0..len as u64)
                    .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) & max)
                    .collect();
                let mut buf = Vec::new();
                pack_bits(&values, width, &mut buf);
                for spare in (0..=8usize).step_by(if cfg!(miri) { 4 } else { 1 }) {
                    let mut padded = buf.clone();
                    padded.resize(buf.len() + spare, 0xFF);
                    let mut wide: Vec<u64> = vec![7];
                    unpack_bits(&padded, width, len, &mut wide).unwrap();
                    assert_eq!(wide[0], 7, "appends, never overwrites");
                    assert_eq!(&wide[1..], &values[..], "w={width} n={len} +{spare}");
                    let one_by_one: Vec<u64> = BitUnpacker::new(&padded, width)
                        .unwrap()
                        .take(len)
                        .collect();
                    assert_eq!(one_by_one, values, "w={width} n={len} +{spare}");
                }
                if !buf.is_empty() {
                    let mut out: Vec<u64> = vec![7];
                    let short = &buf[..buf.len() - 1];
                    assert_eq!(unpack_bits(short, width, len, &mut out), None);
                    assert_eq!(out, [7], "w={width} n={len}");
                }
            }
        }
        let mut out: Vec<u64> = Vec::new();
        assert_eq!(unpack_bits(&[0; 16], 65, 1, &mut out), None);
        assert_eq!(unpack_bits(&[], 3, usize::MAX, &mut out), None);
        assert!(out.is_empty());
    }

    /// The byte unpacker against the packer: every width it takes, every
    /// length through two 64-value blocks, spare and missing bytes.
    #[test]
    fn byte_unpack_roundtrips_every_width_and_length() {
        for width in 0..=8u32 {
            for len in (0..=130usize).step_by(if cfg!(miri) { 13 } else { 1 }) {
                let values: Vec<u8> = (0..len)
                    .map(|i| ((i * 37 + 11) as u64 & low_bits(width)) as u8)
                    .collect();
                let mut buf = Vec::new();
                pack_bits(
                    &values.iter().map(|&v| u64::from(v)).collect::<Vec<_>>(),
                    width,
                    &mut buf,
                );
                for spare in [0usize, 1, 8] {
                    let mut padded = buf.clone();
                    padded.resize(buf.len() + spare, 0xFF);
                    let mut out = vec![7u8];
                    unpack_bytes(&padded, width, len, &mut out).unwrap();
                    assert_eq!((out[0], &out[1..]), (7, &values[..]), "w={width} n={len}");
                }
                if !buf.is_empty() {
                    let mut out = vec![7u8];
                    assert_eq!(
                        unpack_bytes(&buf[..buf.len() - 1], width, len, &mut out),
                        None
                    );
                    assert_eq!(out, [7], "w={width} n={len}");
                }
            }
        }
        assert_eq!(unpack_bytes(&[0; 16], 9, 1, &mut Vec::new()), None);
    }

    #[test]
    fn truncated_buffer_is_none_not_panic() {
        let values = [1023u64; 10];
        let mut buf = Vec::new();
        pack_bits(&values, 10, &mut buf);
        buf.truncate(buf.len() - 1);
        let mut u = BitUnpacker::new(&buf, 10).unwrap();
        let decoded: Vec<u64> = std::iter::from_fn(|| u.next()).collect();
        assert!(decoded.len() < values.len());
        assert!(decoded.iter().all(|&v| v == 1023));
    }

    #[test]
    fn bad_width_rejected() {
        assert!(BitUnpacker::new(&[0u8; 8], 65).is_none());
        assert!(BitUnpacker::new(&[], 64).is_some());
        assert_eq!(BitUnpacker::new(&[], 64).unwrap().next(), None);
    }

    #[test]
    fn width_zero_synthesizes_zeros() {
        let mut buf = Vec::new();
        pack_bits(&[0, 0, 0], 0, &mut buf);
        assert!(buf.is_empty());
        let mut u = BitUnpacker::new(&buf, 0).unwrap();
        assert_eq!(u.next(), Some(0));
        assert_eq!(u.next(), Some(0));
    }
}

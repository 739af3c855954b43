//! lint:scope(no-panic-decode)
//! The packed vector-list codec: compressed on-disk encodings for the four
//! list organizations of Sec. III-D.
//!
//! A packed list opens with an 8-byte prologue — the *logical length*, the
//! byte size the list would have in the raw layout (the catalog entry
//! stays v2-sized this way; a raw list needs no such field because its
//! stored bytes are its logical bytes) — followed by a sequence of
//! self-describing *frames*, each holding a bounded run of whole elements:
//!
//! ```text
//! list  := [logical_len: u64] frame*
//! frame := [kind: u8][elems: u32][payload_len: u32][payload ...]
//! kind 0 (RAW)     payload is `elems` elements in the legacy raw layout
//! kind 1 (PACKED)  org-specific packed payload (below)
//! kind 2 (NDF_RUN) `elems` positional ndf elements, no payload
//! ```
//!
//! PACKED payloads group the per-element fields so each compresses with
//! the transform that fits it — the delta/bit-packing of compression-based
//! inverted indexes for the monotone tuple ids, fixed-width bit-packing
//! for the small relative-domain codes, and plain grouping for the
//! high-entropy signature `cH` bytes (which carry no exploitable
//! redundancy; the win there is eliding per-string framing):
//!
//! ```text
//! Text I   [first_tid u32][bw u8][Δtid × (elems−1)][lbw u8][cL × elems][cH ...]
//! Text II  [first_tid u32][bw u8][Δtid × (elems−1)][nbw u8][num × elems][lbw u8][cL ...][cH ...]
//! Text III [nbw u8][num × elems][lbw u8][cL ...][cH ...]
//! Num I    [first_tid u32][bw u8][Δtid × (elems−1)][cbw u8][code × elems]
//! Num IV   [cbw u8][stored × elems]   stored = 0 for ndf, code+1 otherwise
//! ```
//!
//! The `num` (string count) and `cL` (signature length byte) sections are
//! bit-packed at their own declared widths: both are byte-sized fields
//! whose values cluster near zero — a dense Type III list spends one
//! whole raw byte per position on a count that is almost always 0 or 1,
//! and interleaved ndf positions too short for an NDF_RUN frame shrink
//! from a byte to a couple of bits.
//!
//! The positional Types III/IV additionally collapse runs of ndf elements
//! into header-only NDF_RUN frames — the run-length framing that replaces
//! re-packing for the already-dense Type IV code pages. RAW frames carry
//! insert-appended tails, so one list can mix encodings and still decode
//! with a single cursor.
//!
//! Decoding is strictly block-wise: [`PackedReader`] inflates one frame at
//! a time into a reusable buffer (≤ [`FRAME_ELEMS`] elements) and serves
//! the raw element byte-stream from it, so the scan spines and the
//! [`PreparedMatcher`](iva_text::PreparedMatcher) estimation kernel
//! consume borrowed views of decoded blocks without the whole list ever
//! being materialized. Every field parsed here came off disk: short
//! frames, bad tags, and overflowing deltas surface as
//! [`IvaError::Corrupt`], never a panic.

use iva_storage::codec::{le_u32, SliceReader};
use iva_storage::compress::{bit_width, pack_bits, packed_len, BitUnpacker};
use iva_storage::ListReader;
use iva_text::SigCodec;

use crate::error::{IvaError, Result};
use crate::numeric::NumericCodec;
use crate::veclist::ListType;

/// Frame holding raw-layout element bytes (insert-appended tails).
pub(crate) const FRAME_RAW: u8 = 0;
/// Frame holding the org-specific packed payload.
pub(crate) const FRAME_PACKED: u8 = 1;
/// Header-only frame standing for a run of positional ndf elements.
pub(crate) const FRAME_NDF_RUN: u8 = 2;

/// `[kind u8][elems u32][payload_len u32]`.
pub(crate) const FRAME_HEADER_LEN: usize = 9;

/// Elements per packed frame: the decode "block". One frame's raw image
/// is the largest buffer the decoder ever materializes.
pub(crate) const FRAME_ELEMS: usize = 1024;

/// Ceiling on `elems` of a PACKED frame at decode time (a corrupt header
/// must not drive a giant allocation before payload validation).
const MAX_FRAME_ELEMS: usize = 1 << 20;

/// Minimal run of positional ndf elements worth a dedicated run frame (a
/// frame header costs 9 bytes; shorter runs ride inside packed frames).
const NDF_RUN_MIN: usize = 16;

/// Bytes of the logical-length prologue heading every packed list.
pub(crate) const PACKED_PROLOGUE_LEN: usize = 8;

fn corrupt(msg: &str) -> IvaError {
    IvaError::Corrupt(msg.into())
}

/// Read the logical-length prologue off the head of a packed list. The
/// index loader uses this to fill a Packed catalog entry's in-memory
/// `logical_len`; [`PackedReader`]'s constructors consume it the same way.
pub(crate) fn read_logical_len(reader: &mut ListReader) -> Result<u64> {
    let mut b = [0u8; PACKED_PROLOGUE_LEN];
    reader.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn push_frame_header(out: &mut Vec<u8>, kind: u8, elems: usize, payload_len: usize) {
    out.push(kind);
    out.extend_from_slice(&(elems as u32).to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Append one complete frame (header + payload) to `out`. The insert path
/// uses this to frame raw-layout tails and positional gap runs onto
/// packed lists.
pub(crate) fn append_frame(out: &mut Vec<u8>, kind: u8, elems: usize, payload: &[u8]) {
    push_frame_header(out, kind, elems, payload.len());
    out.extend_from_slice(payload);
}

/// `[first u32][bw u8][packed deltas × (n−1)]` for a non-decreasing run.
fn delta_encode_tids(tids: &[u32], out: &mut Vec<u8>) {
    let first = tids.first().copied().unwrap_or(0);
    out.extend_from_slice(&first.to_le_bytes());
    let deltas: Vec<u64> = tids
        .windows(2)
        .map(|w| {
            let a = w.first().copied().unwrap_or(0);
            let b = w.get(1).copied().unwrap_or(0);
            u64::from(b).saturating_sub(u64::from(a))
        })
        .collect();
    let bw = deltas.iter().map(|&d| bit_width(d)).max().unwrap_or(0);
    out.push(bw as u8);
    pack_bits(&deltas, bw, out);
}

/// `[bw u8][values bit-packed]` for a section of byte-sized fields
/// (string counts, signature `cL` bytes): tiny-range values the raw
/// layout spends a whole byte on.
fn pack_byte_section(vals: &[u8], out: &mut Vec<u8>) {
    let wide: Vec<u64> = vals.iter().map(|&v| u64::from(v)).collect();
    let bw = wide.iter().map(|&v| bit_width(v)).max().unwrap_or(0);
    out.push(bw as u8);
    pack_bits(&wide, bw, out);
}

/// Inverse of [`pack_byte_section`]: `n` byte-sized values.
fn unpack_byte_section(s: &mut SliceReader<'_>, n: usize) -> Result<Vec<u8>> {
    let bw = u32::from(s.u8()?);
    if bw > 8 {
        return Err(corrupt("bad packed byte-section width"));
    }
    let bytes = s.take(packed_len(n, bw))?;
    let mut up =
        BitUnpacker::new(bytes, bw).ok_or_else(|| corrupt("bad packed byte-section width"))?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let v = up
            .next()
            .ok_or_else(|| corrupt("truncated packed byte section"))?;
        out.push(v as u8);
    }
    Ok(out)
}

/// Rebuild the tuple-id run of a frame. Deltas accumulate in u64 with an
/// explicit tuple-id domain check: a corrupt frame must not wrap.
fn decode_tids(s: &mut SliceReader<'_>, n: usize) -> Result<Vec<u32>> {
    let first = s.u32()?;
    let bw = u32::from(s.u8()?);
    let dbytes = s.take(packed_len(n.saturating_sub(1), bw))?;
    let mut up = BitUnpacker::new(dbytes, bw).ok_or_else(|| corrupt("bad tuple-id delta width"))?;
    let mut tids = Vec::with_capacity(n);
    let mut cur = u64::from(first);
    tids.push(first);
    for _ in 1..n {
        let d = up
            .next()
            .ok_or_else(|| corrupt("truncated tuple-id delta run"))?;
        cur = cur
            .checked_add(d)
            .filter(|&t| t <= u64::from(u32::MAX))
            .ok_or_else(|| corrupt("overflowing tuple-id delta"))?;
        tids.push(cur as u32);
    }
    Ok(tids)
}

/// Largest code representable in `cb` bytes.
fn max_code(cb: usize) -> u64 {
    if cb >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * cb as u32)) - 1
    }
}

/// Encode a text attribute's vector list in the packed framing. Inputs
/// mirror [`crate::veclist::encode_text_list`]; the output decodes to the
/// byte-identical raw layout.
pub fn encode_packed_text_list(
    ty: ListType,
    items: &[(u32, Vec<Vec<u8>>)],
    all_tids: &[u32],
) -> Vec<u8> {
    let sig_bytes: u64 = items
        .iter()
        .flat_map(|(_, sigs)| sigs.iter())
        .map(|s| s.len() as u64)
        .sum();
    let logical: u64 = match ty {
        // Raw Type I: `[tid u32]` before every string's `[len][cH]`.
        ListType::I => {
            let strings: u64 = items.iter().map(|(_, s)| s.len() as u64).sum();
            strings * 4 + sig_bytes
        }
        // Raw Type II: `[tid u32][num u8]` per tuple, then its strings.
        ListType::II => items.len() as u64 * 5 + sig_bytes,
        // Raw Type III: `[num u8]` per position, then its strings.
        ListType::III => all_tids.len() as u64 + sig_bytes,
        ListType::IV => 0,
    };
    let mut out = Vec::new();
    out.extend_from_slice(&logical.to_le_bytes());
    match ty {
        ListType::I => {
            let strings: Vec<(u32, &[u8])> = items
                .iter()
                .flat_map(|(t, sigs)| sigs.iter().map(move |s| (*t, s.as_slice())))
                .collect();
            for chunk in strings.chunks(FRAME_ELEMS) {
                let tids: Vec<u32> = chunk.iter().map(|(t, _)| *t).collect();
                let mut payload = Vec::new();
                delta_encode_tids(&tids, &mut payload);
                let cls: Vec<u8> = chunk
                    .iter()
                    .map(|(_, sig)| sig.first().copied().unwrap_or(0))
                    .collect();
                pack_byte_section(&cls, &mut payload);
                for (_, sig) in chunk {
                    payload.extend_from_slice(sig.get(1..).unwrap_or(&[]));
                }
                push_frame_header(&mut out, FRAME_PACKED, chunk.len(), payload.len());
                out.extend_from_slice(&payload);
            }
        }
        ListType::II => {
            for chunk in items.chunks(FRAME_ELEMS) {
                let tids: Vec<u32> = chunk.iter().map(|(t, _)| *t).collect();
                let mut payload = Vec::new();
                delta_encode_tids(&tids, &mut payload);
                let nums: Vec<u8> = chunk.iter().map(|(_, sigs)| sigs.len() as u8).collect();
                pack_byte_section(&nums, &mut payload);
                let cls: Vec<u8> = chunk
                    .iter()
                    .flat_map(|(_, sigs)| sigs.iter())
                    .map(|sig| sig.first().copied().unwrap_or(0))
                    .collect();
                pack_byte_section(&cls, &mut payload);
                for (_, sigs) in chunk {
                    for sig in sigs {
                        payload.extend_from_slice(sig.get(1..).unwrap_or(&[]));
                    }
                }
                push_frame_header(&mut out, FRAME_PACKED, chunk.len(), payload.len());
                out.extend_from_slice(&payload);
            }
        }
        ListType::III => {
            let mut pos_sigs: Vec<&[Vec<u8>]> = Vec::with_capacity(all_tids.len());
            let mut it = items.iter().peekable();
            for &tid in all_tids {
                match it.peek() {
                    Some((t, sigs)) if *t == tid => {
                        pos_sigs.push(sigs.as_slice());
                        it.next();
                    }
                    _ => pos_sigs.push(&[]),
                }
            }
            debug_assert!(it.peek().is_none(), "items not aligned with tuple list");
            encode_positional(&pos_sigs, &mut out, |chunk, payload| {
                let nums: Vec<u8> = chunk.iter().map(|sigs| sigs.len() as u8).collect();
                pack_byte_section(&nums, payload);
                let cls: Vec<u8> = chunk
                    .iter()
                    .flat_map(|sigs| sigs.iter())
                    .map(|sig| sig.first().copied().unwrap_or(0))
                    .collect();
                pack_byte_section(&cls, payload);
                for sigs in chunk {
                    for sig in *sigs {
                        payload.extend_from_slice(sig.get(1..).unwrap_or(&[]));
                    }
                }
            });
        }
        ListType::IV => debug_assert!(false, "Type IV is numeric-only"),
    }
    out
}

/// Encode a numeric attribute's vector list in the packed framing. Inputs
/// mirror [`crate::veclist::encode_num_list`].
pub fn encode_packed_num_list(
    ty: ListType,
    items: &[(u32, u64)],
    all_tids: &[u32],
    codec: &NumericCodec,
) -> Vec<u8> {
    let logical: u64 = match ty {
        // Raw Type I: `[tid u32][code]` per defined value.
        ListType::I => items.len() as u64 * (4 + codec.code_bytes() as u64),
        // Raw Type IV: one code per tuple-list position.
        ListType::IV => all_tids.len() as u64 * codec.code_bytes() as u64,
        _ => 0,
    };
    let mut out = Vec::new();
    out.extend_from_slice(&logical.to_le_bytes());
    match ty {
        ListType::I => {
            for chunk in items.chunks(FRAME_ELEMS) {
                let tids: Vec<u32> = chunk.iter().map(|(t, _)| *t).collect();
                let codes: Vec<u64> = chunk.iter().map(|(_, c)| *c).collect();
                let mut payload = Vec::new();
                delta_encode_tids(&tids, &mut payload);
                let cbw = codes.iter().map(|&c| bit_width(c)).max().unwrap_or(0);
                payload.push(cbw as u8);
                pack_bits(&codes, cbw, &mut payload);
                push_frame_header(&mut out, FRAME_PACKED, chunk.len(), payload.len());
                out.extend_from_slice(&payload);
            }
        }
        ListType::IV => {
            let mut pos_codes: Vec<Option<u64>> = Vec::with_capacity(all_tids.len());
            let mut it = items.iter().peekable();
            for &tid in all_tids {
                match it.peek() {
                    Some((t, code)) if *t == tid => {
                        pos_codes.push(Some(*code));
                        it.next();
                    }
                    _ => pos_codes.push(None),
                }
            }
            debug_assert!(it.peek().is_none(), "items not aligned with tuple list");
            encode_positional(&pos_codes, &mut out, |chunk, payload| {
                // ndf ↦ 0, code ↦ code+1: short ndf runs inside a frame stay
                // one bit wide instead of forcing the full code width.
                let stored: Vec<u64> = chunk
                    .iter()
                    .map(|c| c.map_or(0, |v| v.saturating_add(1)))
                    .collect();
                let cbw = stored.iter().map(|&v| bit_width(v)).max().unwrap_or(0);
                payload.push(cbw as u8);
                pack_bits(&stored, cbw, payload);
            });
            let _ = codec; // raw layout width is implied by the codec at decode
        }
        _ => debug_assert!(false, "text-only list type for numeric attribute"),
    }
    out
}

/// Shared positional segmentation: runs of ndf elements at least
/// [`NDF_RUN_MIN`] long (or trailing) become NDF_RUN frames; everything
/// else goes through `emit` in blocks of at most [`FRAME_ELEMS`].
fn encode_positional<T: PositionalElem>(
    positions: &[T],
    out: &mut Vec<u8>,
    emit: impl Fn(&[T], &mut Vec<u8>),
) {
    let mut i = 0usize;
    while i < positions.len() {
        if positions.get(i).is_some_and(|p| p.is_ndf()) {
            let mut j = i;
            while j < positions.len() && positions.get(j).is_some_and(|p| p.is_ndf()) {
                j += 1;
            }
            if j - i >= NDF_RUN_MIN || j == positions.len() {
                push_frame_header(out, FRAME_NDF_RUN, j - i, 0);
                i = j;
                continue;
            }
        }
        let start = i;
        let mut end = i;
        while end < positions.len() && end - start < FRAME_ELEMS {
            if positions.get(end).is_some_and(|p| p.is_ndf()) {
                let mut j = end;
                while j < positions.len() && positions.get(j).is_some_and(|p| p.is_ndf()) {
                    j += 1;
                }
                if j - end >= NDF_RUN_MIN || j == positions.len() {
                    break;
                }
                end = j;
            } else {
                end += 1;
            }
        }
        let chunk = positions.get(start..end).unwrap_or(&[]);
        let mut payload = Vec::new();
        // lint:allow(panic-reachability, "dynamic edge: `emit` is one of the two in-module frame encoders below, both total over arbitrary position slices")
        emit(chunk, &mut payload);
        push_frame_header(out, FRAME_PACKED, chunk.len(), payload.len());
        out.extend_from_slice(&payload);
        i = end;
    }
}

/// An element of a positional (Type III/IV) list, for run segmentation.
trait PositionalElem {
    fn is_ndf(&self) -> bool;
}

impl PositionalElem for &[Vec<u8>] {
    fn is_ndf(&self) -> bool {
        self.is_empty()
    }
}

impl PositionalElem for Option<u64> {
    fn is_ndf(&self) -> bool {
        self.is_none()
    }
}

/// Which organization a packed list decodes as (with the codec state the
/// raw layout leaves implicit).
enum Org {
    TextI(SigCodec),
    TextII(SigCodec),
    TextIII(SigCodec),
    NumI(NumericCodec),
    NumIV(NumericCodec),
}

/// Block-wise decoder over a packed list: presents the byte-identical raw
/// element stream of the underlying list, inflating one frame at a time
/// into a reusable buffer. NDF_RUN frames are served arithmetically — a
/// run of a million ndf positions costs nine bytes on disk and no buffer
/// at all here.
pub struct PackedReader {
    inner: ListReader,
    org: Org,
    /// Raw image of the current frame.
    buf: Vec<u8>,
    buf_pos: usize,
    /// Ndf elements of the current NDF_RUN frame not yet served.
    ndf_left: u64,
    /// Raw bytes of one positional ndf element (empty for keyed orgs).
    ndf_elem: Vec<u8>,
    /// Frame payload scratch.
    scratch: Vec<u8>,
    /// Raw-layout bytes not yet delivered (from the list's prologue;
    /// drives `remaining`-capped seeks, not termination).
    remaining: u64,
}

impl PackedReader {
    /// Decoder over a packed text list. Consumes the list's
    /// logical-length prologue.
    pub fn new_text(mut reader: ListReader, ty: ListType, codec: &SigCodec) -> Result<Self> {
        let (org, ndf_elem) = match ty {
            ListType::I => (Org::TextI(codec.clone()), Vec::new()),
            ListType::II => (Org::TextII(codec.clone()), Vec::new()),
            ListType::III => (Org::TextIII(codec.clone()), vec![0u8]),
            ListType::IV => {
                return Err(IvaError::InvalidArgument(
                    "text decoder on numeric-only Type IV list".into(),
                ))
            }
        };
        let logical_len = read_logical_len(&mut reader)?;
        Ok(Self::new(reader, org, ndf_elem, logical_len))
    }

    /// Decoder over a packed numeric list. Consumes the list's
    /// logical-length prologue.
    pub fn new_num(mut reader: ListReader, ty: ListType, codec: &NumericCodec) -> Result<Self> {
        let (org, ndf_elem) = match ty {
            ListType::I => (Org::NumI(*codec), Vec::new()),
            ListType::IV => {
                let mut elem = Vec::with_capacity(codec.code_bytes());
                codec.write_code(codec.ndf_code(), &mut elem);
                (Org::NumIV(*codec), elem)
            }
            _ => {
                return Err(IvaError::InvalidArgument(
                    "numeric decoder on text-only list type".into(),
                ))
            }
        };
        let logical_len = read_logical_len(&mut reader)?;
        Ok(Self::new(reader, org, ndf_elem, logical_len))
    }

    fn new(inner: ListReader, org: Org, ndf_elem: Vec<u8>, logical_len: u64) -> Self {
        Self {
            inner,
            org,
            buf: Vec::new(),
            buf_pos: 0,
            ndf_left: 0,
            ndf_elem,
            scratch: Vec::new(),
            remaining: logical_len,
        }
    }

    /// Raw-layout bytes left to deliver.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// True once the compressed stream and all buffered elements drain.
    pub fn at_end(&self) -> bool {
        self.buf_pos >= self.buf.len() && self.ndf_left == 0 && self.inner.at_end()
    }

    fn note(&mut self, delivered: u64) {
        self.remaining = self.remaining.saturating_sub(delivered);
    }

    /// Ensure an element byte is buffered; false at clean end of stream.
    fn ensure(&mut self) -> Result<bool> {
        loop {
            if self.buf_pos < self.buf.len() || self.ndf_left > 0 {
                return Ok(true);
            }
            if self.inner.at_end() {
                return Ok(false);
            }
            self.read_frame()?;
        }
    }

    fn read_frame(&mut self) -> Result<()> {
        let kind = self.inner.read_u8()?;
        let elems = self.inner.read_u32()? as usize;
        let payload_len = self.inner.read_u32()? as usize;
        if payload_len as u64 > self.inner.remaining() {
            return Err(corrupt("truncated list frame"));
        }
        match kind {
            FRAME_RAW => {
                self.buf.clear();
                self.buf.resize(payload_len, 0);
                self.inner.read_exact(&mut self.buf)?;
                self.buf_pos = 0;
            }
            FRAME_PACKED => {
                if elems == 0 || elems > MAX_FRAME_ELEMS {
                    return Err(corrupt("bad packed frame element count"));
                }
                self.scratch.clear();
                self.scratch.resize(payload_len, 0);
                self.inner.read_exact(&mut self.scratch)?;
                self.buf.clear();
                decode_packed_payload(
                    &self.org,
                    &self.scratch,
                    elems,
                    self.remaining,
                    &mut self.buf,
                )?;
                self.buf_pos = 0;
            }
            FRAME_NDF_RUN => {
                if payload_len != 0 {
                    return Err(corrupt("ndf run frame with payload"));
                }
                if self.ndf_elem.is_empty() {
                    return Err(corrupt("ndf run frame in a keyed list"));
                }
                if elems == 0 {
                    return Err(corrupt("empty ndf run frame"));
                }
                // The prologue came off disk too: a run claiming more raw
                // bytes than the list has left is corruption, and checking
                // here keeps a lying header from driving giant expansions.
                let span = (elems as u64).saturating_mul(self.ndf_elem.len() as u64);
                if span > self.remaining {
                    return Err(corrupt("ndf run beyond logical length"));
                }
                self.ndf_left = elems as u64;
            }
            other => return Err(IvaError::Corrupt(format!("bad list frame kind {other}"))),
        }
        Ok(())
    }

    pub(crate) fn read_u8(&mut self) -> Result<u8> {
        if !self.ensure()? {
            return Err(corrupt("packed list read past end"));
        }
        if self.ndf_left > 0 {
            // A one-byte read inside an ndf run is the positional Type III
            // string count (always zero for ndf).
            if self.ndf_elem.len() != 1 {
                return Err(corrupt("misaligned read in ndf run"));
            }
            self.ndf_left -= 1;
            self.note(1);
            return Ok(self.ndf_elem.first().copied().unwrap_or(0));
        }
        let b = *self
            .buf
            .get(self.buf_pos)
            .ok_or_else(|| corrupt("packed frame underrun"))?;
        self.buf_pos += 1;
        self.note(1);
        Ok(b)
    }

    pub(crate) fn read_u32(&mut self) -> Result<u32> {
        // Only keyed tuple-id headers are read this wide; keyed lists have
        // no ndf runs and their elements never straddle frames.
        let v = le_u32(self.read_bytes(4)?, 0).ok_or_else(|| corrupt("packed frame underrun"))?;
        Ok(v)
    }

    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<&[u8]> {
        if n == 0 {
            return Ok(&[]);
        }
        if !self.ensure()? {
            return Err(corrupt("packed list read past end"));
        }
        if self.ndf_left > 0 {
            if n != self.ndf_elem.len() {
                return Err(corrupt("misaligned read in ndf run"));
            }
            self.ndf_left -= 1;
            self.note(n as u64);
            return Ok(&self.ndf_elem);
        }
        let start = self.buf_pos;
        let end = start
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("packed frame underrun"))?;
        self.buf_pos = end;
        self.note(n as u64);
        self.buf
            .get(start..end)
            .ok_or_else(|| corrupt("packed frame underrun"))
    }

    pub(crate) fn skip(&mut self, mut n: u64) -> Result<()> {
        while n > 0 {
            if !self.ensure()? {
                return Err(corrupt("packed list skip past end"));
            }
            if self.buf_pos < self.buf.len() {
                let avail = (self.buf.len() - self.buf_pos) as u64;
                let step = n.min(avail);
                self.buf_pos += step as usize;
                self.note(step);
                n -= step;
            } else {
                let tlen = self.ndf_elem.len() as u64;
                if tlen == 0 {
                    return Err(corrupt("misaligned skip in ndf run"));
                }
                let whole = (n / tlen).min(self.ndf_left);
                if whole == 0 {
                    return Err(corrupt("misaligned skip in ndf run"));
                }
                self.ndf_left -= whole;
                let step = whole * tlen;
                self.note(step);
                n -= step;
            }
        }
        Ok(())
    }

    /// Inflate the rest of the list into one raw-layout buffer — the whole
    /// image at once, for tools and tests that compare it with the raw
    /// encoder's output (scans, promotions and exports read frame by
    /// frame through the cursors). Strict: the decoded size must equal the
    /// declared logical length.
    pub fn decode_to_vec(mut self) -> Result<Vec<u8>> {
        let expected = self.remaining;
        // Pre-size from the prologue, but cap the up-front trust placed in
        // a disk-sourced field; a lying length still fails the strict
        // checks below, after only incremental growth.
        let mut out = Vec::with_capacity(expected.min(1 << 22) as usize);
        loop {
            if self.buf_pos < self.buf.len() {
                out.extend_from_slice(self.buf.get(self.buf_pos..).unwrap_or(&[]));
                let n = (self.buf.len() - self.buf_pos) as u64;
                self.buf_pos = self.buf.len();
                self.note(n);
            } else if self.ndf_left > 0 {
                let total = (self.ndf_left).saturating_mul(self.ndf_elem.len() as u64);
                if out.len() as u64 + total > expected {
                    return Err(corrupt("packed list longer than its logical length"));
                }
                for _ in 0..self.ndf_left {
                    out.extend_from_slice(&self.ndf_elem);
                }
                self.note(total);
                self.ndf_left = 0;
            } else if self.inner.at_end() {
                break;
            } else {
                self.read_frame()?;
            }
            if out.len() as u64 > expected {
                return Err(corrupt("packed list longer than its logical length"));
            }
        }
        if out.len() as u64 != expected {
            return Err(corrupt("packed list shorter than its logical length"));
        }
        Ok(out)
    }
}

fn decode_packed_payload(
    org: &Org,
    payload: &[u8],
    elems: usize,
    max_out: u64,
    out: &mut Vec<u8>,
) -> Result<()> {
    // Claimed string counts in a bit-packed section cost well under a
    // payload byte per string, so bound the expansion they can drive by
    // the raw bytes the list has left (each string is ≥ 1 raw byte).
    let check_strings = |total: usize| {
        if total as u64 > max_out {
            Err(corrupt("packed frame strings beyond logical length"))
        } else {
            Ok(())
        }
    };
    let mut s = SliceReader::new(payload, "packed frame");
    match org {
        Org::TextI(codec) => {
            let tids = decode_tids(&mut s, elems)?;
            let lens = unpack_byte_section(&mut s, elems)?;
            let ch_lens: Vec<usize> = lens.iter().map(|&l| codec.ch_bytes(l)).collect();
            let total: usize = ch_lens.iter().sum();
            let chs = s.take(total)?;
            s.finish()?;
            out.reserve(elems * 5 + total);
            let mut off = 0usize;
            for ((tid, len), cl) in tids.iter().zip(lens.iter()).zip(ch_lens.iter()) {
                out.extend_from_slice(&tid.to_le_bytes());
                out.push(*len);
                out.extend_from_slice(
                    chs.get(off..off + cl)
                        .ok_or_else(|| corrupt("truncated packed frame"))?,
                );
                off += cl;
            }
        }
        Org::TextII(codec) => {
            let tids = decode_tids(&mut s, elems)?;
            let nums = unpack_byte_section(&mut s, elems)?;
            let total_strings: usize = nums.iter().map(|&n| usize::from(n)).sum();
            check_strings(total_strings)?;
            let lens = unpack_byte_section(&mut s, total_strings)?;
            let ch_lens: Vec<usize> = lens.iter().map(|&l| codec.ch_bytes(l)).collect();
            let total_ch: usize = ch_lens.iter().sum();
            let chs = s.take(total_ch)?;
            s.finish()?;
            out.reserve(elems * 5 + total_strings + total_ch);
            let mut si = 0usize;
            let mut off = 0usize;
            for (tid, num) in tids.iter().zip(nums.iter()) {
                out.extend_from_slice(&tid.to_le_bytes());
                out.push(*num);
                for _ in 0..*num {
                    let len = *lens
                        .get(si)
                        .ok_or_else(|| corrupt("truncated packed frame"))?;
                    let cl = *ch_lens
                        .get(si)
                        .ok_or_else(|| corrupt("truncated packed frame"))?;
                    out.push(len);
                    out.extend_from_slice(
                        chs.get(off..off + cl)
                            .ok_or_else(|| corrupt("truncated packed frame"))?,
                    );
                    si += 1;
                    off += cl;
                }
            }
        }
        Org::TextIII(codec) => {
            let nums = unpack_byte_section(&mut s, elems)?;
            let total_strings: usize = nums.iter().map(|&n| usize::from(n)).sum();
            check_strings(total_strings)?;
            let lens = unpack_byte_section(&mut s, total_strings)?;
            let ch_lens: Vec<usize> = lens.iter().map(|&l| codec.ch_bytes(l)).collect();
            let total_ch: usize = ch_lens.iter().sum();
            let chs = s.take(total_ch)?;
            s.finish()?;
            out.reserve(elems + total_strings + total_ch);
            let mut si = 0usize;
            let mut off = 0usize;
            for num in &nums {
                out.push(*num);
                for _ in 0..*num {
                    let len = *lens
                        .get(si)
                        .ok_or_else(|| corrupt("truncated packed frame"))?;
                    let cl = *ch_lens
                        .get(si)
                        .ok_or_else(|| corrupt("truncated packed frame"))?;
                    out.push(len);
                    out.extend_from_slice(
                        chs.get(off..off + cl)
                            .ok_or_else(|| corrupt("truncated packed frame"))?,
                    );
                    si += 1;
                    off += cl;
                }
            }
        }
        Org::NumI(codec) => {
            let tids = decode_tids(&mut s, elems)?;
            let cbw = u32::from(s.u8()?);
            let cbytes = s.take(packed_len(elems, cbw))?;
            s.finish()?;
            let mut up = BitUnpacker::new(cbytes, cbw).ok_or_else(|| corrupt("bad code width"))?;
            let cb = codec.code_bytes();
            let cap = max_code(cb);
            out.reserve(elems * (4 + cb));
            for tid in &tids {
                let code = up
                    .next()
                    .ok_or_else(|| corrupt("truncated packed code run"))?;
                if code > cap {
                    return Err(corrupt("numeric code out of domain"));
                }
                out.extend_from_slice(&tid.to_le_bytes());
                codec.write_code(code, out);
            }
        }
        Org::NumIV(codec) => {
            let cbw = u32::from(s.u8()?);
            let sbytes = s.take(packed_len(elems, cbw))?;
            s.finish()?;
            let mut up = BitUnpacker::new(sbytes, cbw).ok_or_else(|| corrupt("bad code width"))?;
            let ndf = codec.ndf_code();
            out.reserve(elems * codec.code_bytes());
            for _ in 0..elems {
                let stored = up
                    .next()
                    .ok_or_else(|| corrupt("truncated packed code run"))?;
                if stored > ndf {
                    return Err(corrupt("numeric code out of domain"));
                }
                let code = if stored == 0 { ndf } else { stored - 1 };
                codec.write_code(code, out);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::veclist::{encode_num_list, encode_text_list};
    use iva_storage::{write_contiguous_list, IoStats, Pager, PagerOptions};
    use std::sync::Arc;

    fn pager() -> Arc<Pager> {
        Pager::create_mem(
            &PagerOptions {
                page_size: 128,
                cache_bytes: 8192,
            },
            IoStats::new(),
        )
    }

    fn reader_for(p: &Arc<Pager>, data: &[u8]) -> ListReader {
        let h = write_contiguous_list(p, data).unwrap();
        ListReader::open(Arc::clone(p), h).unwrap()
    }

    fn text_items(codec: &SigCodec, tids: &[u32]) -> Vec<(u32, Vec<Vec<u8>>)> {
        tids.iter()
            .map(|&t| {
                let n = (t as usize % 3) + 1;
                let sigs = (0..n)
                    .map(|i| codec.encode_to_vec(format!("value-{t}-{i}").as_bytes()))
                    .collect();
                (t, sigs)
            })
            .collect()
    }

    #[test]
    fn text_roundtrips_to_identical_raw_bytes() {
        let codec = SigCodec::new(0.3, 2);
        let p = pager();
        let defined: Vec<u32> = (0..400u32).filter(|t| t % 7 == 0 || *t < 10).collect();
        let all_tids: Vec<u32> = (0..400).collect();
        let items = text_items(&codec, &defined);
        for ty in [ListType::I, ListType::II, ListType::III] {
            let raw = encode_text_list(ty, &items, &all_tids).unwrap();
            let packed = encode_packed_text_list(ty, &items, &all_tids);
            assert_eq!(
                packed
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap())),
                Some(raw.len() as u64),
                "prologue must hold the raw length"
            );
            let r = reader_for(&p, &packed);
            let pr = PackedReader::new_text(r, ty, &codec).unwrap();
            assert_eq!(pr.decode_to_vec().unwrap(), raw, "type {ty}");
        }
    }

    #[test]
    fn num_roundtrips_to_identical_raw_bytes() {
        let codec = NumericCodec::new(0.0, 1000.0, 2);
        let p = pager();
        let defined: Vec<u32> = (0..500u32).filter(|t| t % 11 == 0).collect();
        let all_tids: Vec<u32> = (0..500).collect();
        let items: Vec<(u32, u64)> = defined
            .iter()
            .map(|&t| (t, codec.encode(f64::from(t))))
            .collect();
        for ty in [ListType::I, ListType::IV] {
            let raw = encode_num_list(ty, &items, &all_tids, &codec).unwrap();
            let packed = encode_packed_num_list(ty, &items, &all_tids, &codec);
            assert_eq!(
                packed
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap())),
                Some(raw.len() as u64),
                "prologue must hold the raw length"
            );
            let r = reader_for(&p, &packed);
            let pr = PackedReader::new_num(r, ty, &codec).unwrap();
            assert_eq!(pr.decode_to_vec().unwrap(), raw, "type {ty}");
        }
    }

    #[test]
    fn packing_shrinks_sorted_dense_lists() {
        // Sorted near-consecutive tids delta-pack to a couple of bits each;
        // small codes bit-pack far below their byte width; ndf runs vanish.
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let defined: Vec<u32> = (0..2000u32).filter(|t| t % 2 == 0).collect();
        let all_tids: Vec<u32> = (0..4000).collect();
        let items: Vec<(u32, u64)> = defined
            .iter()
            .map(|&t| (t, codec.encode(f64::from(t % 100))))
            .collect();
        let raw = encode_num_list(ListType::I, &items, &all_tids, &codec).unwrap();
        let packed = encode_packed_num_list(ListType::I, &items, &all_tids, &codec);
        assert!(
            packed.len() * 2 < raw.len(),
            "packed {} vs raw {}",
            packed.len(),
            raw.len()
        );
        // Positional list with a long ndf tail.
        let head: Vec<(u32, u64)> = (0..500u32).map(|t| (t, codec.encode(5.0))).collect();
        let raw4 = encode_num_list(ListType::IV, &head, &all_tids, &codec).unwrap();
        let packed4 = encode_packed_num_list(ListType::IV, &head, &all_tids, &codec);
        assert!(
            packed4.len() * 2 < raw4.len(),
            "packed {} vs raw {}",
            packed4.len(),
            raw4.len()
        );
    }

    #[test]
    fn mixed_raw_tail_frames_decode() {
        // A packed list followed by a RAW tail frame (the insert path's
        // appends) decodes to the concatenated raw layout.
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let p = pager();
        let items: Vec<(u32, u64)> = (0..50u32).map(|t| (t, codec.encode(1.0))).collect();
        let raw = encode_num_list(ListType::I, &items, &[], &codec).unwrap();
        let mut packed = encode_packed_num_list(ListType::I, &items, &[], &codec);
        let mut tail = Vec::new();
        tail.extend_from_slice(&777u32.to_le_bytes());
        codec.write_code(codec.encode(42.0), &mut tail);
        push_frame_header(&mut packed, FRAME_RAW, 1, tail.len());
        packed.extend_from_slice(&tail);
        let mut expect = raw.clone();
        expect.extend_from_slice(&tail);
        // The appended tail grows the logical length; rewrite the
        // prologue the way the insert path does.
        packed[..8].copy_from_slice(&(expect.len() as u64).to_le_bytes());
        let r = reader_for(&p, &packed);
        let pr = PackedReader::new_num(r, ListType::I, &codec).unwrap();
        assert_eq!(pr.decode_to_vec().unwrap(), expect);
    }

    #[test]
    fn corrupt_frames_error_not_panic() {
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let scodec = SigCodec::new(0.3, 2);
        let p = pager();
        let items: Vec<(u32, u64)> = (0..40u32).map(|t| (t, codec.encode(2.0))).collect();
        let good = encode_packed_num_list(ListType::I, &items, &[], &codec);

        // Bad frame kind (first byte past the prologue).
        let mut bad = good.clone();
        if let Some(b) = bad.get_mut(PACKED_PROLOGUE_LEN) {
            *b = 9;
        }
        let pr = PackedReader::new_num(reader_for(&p, &bad), ListType::I, &codec).unwrap();
        assert!(matches!(pr.decode_to_vec(), Err(IvaError::Corrupt(_))));

        // Truncated payload (shorten the list mid-frame).
        let cut = good.len() - 3;
        let pr = PackedReader::new_num(
            reader_for(&p, good.get(..cut).unwrap()),
            ListType::I,
            &codec,
        )
        .unwrap();
        assert!(matches!(pr.decode_to_vec(), Err(IvaError::Corrupt(_))));

        // Overflowing tuple-id delta: first tid near u32::MAX with wide deltas.
        let overflow_items: Vec<(u32, u64)> = vec![(u32::MAX - 1, 1), (u32::MAX, 1)];
        let mut of = encode_packed_num_list(ListType::I, &overflow_items, &[], &codec);
        // Bump the stored first tid so the accumulated run overflows.
        let at = PACKED_PROLOGUE_LEN + FRAME_HEADER_LEN;
        if let Some(window) = of.get_mut(at..at + 4) {
            window.copy_from_slice(&u32::MAX.to_le_bytes());
        }
        let pr = PackedReader::new_num(reader_for(&p, &of), ListType::I, &codec).unwrap();
        let err = pr.decode_to_vec();
        assert!(matches!(err, Err(IvaError::Corrupt(_))), "{err:?}");

        // NDF_RUN frame inside a keyed list.
        let mut keyed = 10u64.to_le_bytes().to_vec();
        push_frame_header(&mut keyed, FRAME_NDF_RUN, 5, 0);
        let pr = PackedReader::new_text(reader_for(&p, &keyed), ListType::I, &scodec).unwrap();
        assert!(matches!(pr.decode_to_vec(), Err(IvaError::Corrupt(_))));
    }

    #[test]
    fn logical_length_mismatch_is_corrupt() {
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let p = pager();
        let items: Vec<(u32, u64)> = (0..10u32).map(|t| (t, codec.encode(2.0))).collect();
        let raw_len = encode_num_list(ListType::I, &items, &[], &codec)
            .unwrap()
            .len() as u64;
        let packed = encode_packed_num_list(ListType::I, &items, &[], &codec);
        for wrong in [raw_len - 1, raw_len + 1] {
            let mut lying = packed.clone();
            lying[..8].copy_from_slice(&wrong.to_le_bytes());
            let pr = PackedReader::new_num(reader_for(&p, &lying), ListType::I, &codec).unwrap();
            assert!(matches!(pr.decode_to_vec(), Err(IvaError::Corrupt(_))));
        }
    }
}

//! lint:scope(panic-reachability)
//! Framed delta/bit-packed tuple directory.
//!
//! The tuple list is the one list *every* plan scans in full, once per
//! query: `<tid u32, ptr u64>` elements in tid order. Raw, that is 12
//! bytes per tuple — on wide sparse tables it dwarfs the vector-list
//! bytes a query touches. This module stores the directory as frames
//! reusing the vector-list frame header (`[kind u8][elems u32]
//! [payload_len u32]`, see the `packed` module):
//!
//! * `DIR_RAW` — `elems` raw 12-byte elements, byte-for-byte. Bulk
//!   encodes fall back to it when packing would not help; every
//!   incremental insert appends a one-element raw frame (rebuilds
//!   repack).
//! * `DIR_PACKED` — `[first_tid u32][tbw u8][Δtid−1 × (elems−1)]
//!   [first_ptr u64][pbw u8][zigzag Δptr × (elems−1)]
//!   [liveness bitmap ⌈elems/8⌉ bytes]`, delta sections bit-packed at
//!   their declared widths. Tids are strictly increasing (so Δ−1 packs
//!   dense appends at width 0); record pointers are near-sorted, so
//!   zigzag deltas stay narrow without assuming monotonicity.
//!
//! **Deletes stay in-place.** Sec. IV-B tombstones a tuple by rewriting
//! its `ptr` — impossible inside a delta chain without re-encoding the
//! frame. Instead each packed frame carries a raw liveness bitmap:
//! clearing one bit (a one-byte [`overwrite_in_list`] patch, the crash
//! granularity of a RAW frame's 8-byte `ptr` rewrite) marks the element
//! dead while its stored pointer keeps the delta chain intact. Decoders
//! surface dead elements as [`TOMBSTONE_PTR`], so scan plans and the
//! interchange exporter see the paper's semantics. Elements already dead
//! at encode time repeat the previous stored pointer (Δ = 0) and clear
//! their bit.

use std::sync::Arc;

use iva_storage::codec::SliceReader;
use iva_storage::compress::{bit_width, pack_bits, packed_len, unpack_bits};
use iva_storage::{ListHandle, ListReader, Pager};

use crate::error::{IvaError, Result};
use crate::layout::{TOMBSTONE_PTR, TUPLE_ENTRY_LEN};
use crate::packed::append_frame;

/// Raw 12-byte elements.
pub(crate) const DIR_RAW: u8 = 0;
/// Delta/bit-packed elements with a liveness bitmap.
pub(crate) const DIR_PACKED: u8 = 1;

/// Elements per packed frame in bulk encodes.
const DIR_FRAME_ELEMS: usize = 1024;

/// Decode-side cap on one frame's claimed element count.
const MAX_DIR_FRAME_ELEMS: usize = 1 << 20;

fn corrupt(msg: &str) -> IvaError {
    IvaError::Corrupt(msg.into())
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encode the full directory as frames. Chunks whose tids are not
/// strictly increasing, or that packing would not shrink, fall back to
/// raw frames element-for-element.
pub(crate) fn encode_dir(entries: &[(u32, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(entries.len() * 3 + 16);
    for chunk in entries.chunks(DIR_FRAME_ELEMS) {
        match pack_dir_chunk(chunk) {
            Some(p) if p.len() < chunk.len() * TUPLE_ENTRY_LEN => {
                append_frame(&mut out, DIR_PACKED, chunk.len(), &p);
            }
            _ => {
                let mut raw = Vec::with_capacity(chunk.len() * TUPLE_ENTRY_LEN);
                for &(t, p) in chunk {
                    raw.extend_from_slice(&t.to_le_bytes());
                    raw.extend_from_slice(&p.to_le_bytes());
                }
                append_frame(&mut out, DIR_RAW, chunk.len(), &raw);
            }
        }
    }
    out
}

/// One incremental insert: a single-element raw frame the tail of a
/// framed directory absorbs without re-encoding anything.
pub(crate) fn append_raw_entry(out: &mut Vec<u8>, tid: u32, ptr: u64) {
    let mut elem = Vec::with_capacity(TUPLE_ENTRY_LEN);
    elem.extend_from_slice(&tid.to_le_bytes());
    elem.extend_from_slice(&ptr.to_le_bytes());
    append_frame(out, DIR_RAW, 1, &elem);
}

/// Packed payload for one chunk; `None` if its tids don't strictly
/// increase (never the case for directories we wrote ourselves).
fn pack_dir_chunk(chunk: &[(u32, u64)]) -> Option<Vec<u8>> {
    let &(first_tid, _) = chunk.first()?;
    let mut tds = Vec::with_capacity(chunk.len().saturating_sub(1));
    for w in chunk.windows(2) {
        let a = w.first()?.0;
        let b = w.get(1)?.0;
        tds.push(u64::from(b).checked_sub(u64::from(a))?.checked_sub(1)?);
    }
    // Stored-pointer chain: dead elements repeat the previous value.
    let mut stored = Vec::with_capacity(chunk.len());
    let mut prev = 0u64;
    for &(_, p) in chunk {
        let s = if p == TOMBSTONE_PTR { prev } else { p };
        stored.push(s);
        prev = s;
    }
    let first_ptr = stored.first().copied()?;
    let zs: Vec<u64> = stored
        .windows(2)
        .map(|w| {
            let a = w.first().copied().unwrap_or(0);
            let b = w.get(1).copied().unwrap_or(0);
            zigzag(b.wrapping_sub(a) as i64)
        })
        .collect();
    let tbw = tds.iter().map(|&v| bit_width(v)).max().unwrap_or(0);
    let pbw = zs.iter().map(|&v| bit_width(v)).max().unwrap_or(0);
    let mut out = Vec::with_capacity(14 + packed_len(tds.len(), tbw) + packed_len(zs.len(), pbw));
    out.extend_from_slice(&first_tid.to_le_bytes());
    out.push(tbw as u8);
    pack_bits(&tds, tbw, &mut out);
    out.extend_from_slice(&first_ptr.to_le_bytes());
    out.push(pbw as u8);
    pack_bits(&zs, pbw, &mut out);
    let mut bitmap = vec![0u8; chunk.len().div_ceil(8)];
    for (j, &(_, p)) in chunk.iter().enumerate() {
        if p != TOMBSTONE_PTR {
            if let Some(b) = bitmap.get_mut(j / 8) {
                *b |= 1 << (j % 8);
            }
        }
    }
    out.extend_from_slice(&bitmap);
    Some(out)
}

/// Decode one raw frame's payload, appending to the column vectors.
fn decode_raw_dir_frame(
    payload: &[u8],
    elems: usize,
    tids: &mut Vec<u32>,
    ptrs: &mut Vec<u64>,
) -> Result<()> {
    if elems == 0 || elems > MAX_DIR_FRAME_ELEMS {
        return Err(corrupt("bad directory frame element count"));
    }
    if payload.len() != elems.saturating_mul(TUPLE_ENTRY_LEN) {
        return Err(corrupt("raw directory frame length mismatch"));
    }
    let mut c = SliceReader::new(payload, "directory frame");
    for _ in 0..elems {
        tids.push(c.u32()?);
        ptrs.push(c.u64()?);
    }
    Ok(())
}

/// Decode one packed frame's payload, appending to the column vectors.
/// The payload must be exactly its declared sections — trailing bytes
/// are corruption, not padding.
fn decode_packed_dir_frame(
    payload: &[u8],
    elems: usize,
    tids: &mut Vec<u32>,
    ptrs: &mut Vec<u64>,
    deltas: &mut Vec<u64>,
) -> Result<()> {
    if elems == 0 || elems > MAX_DIR_FRAME_ELEMS {
        return Err(corrupt("bad directory frame element count"));
    }
    let mut c = SliceReader::new(payload, "directory frame");
    let first_tid = c.u32()?;
    let tbw = u32::from(c.u8()?);
    let tbytes = c.take(packed_len(elems - 1, tbw))?;
    let first_ptr = c.u64()?;
    let pbw = u32::from(c.u8()?);
    let pbytes = c.take(packed_len(elems - 1, pbw))?;
    let bitmap = c.take(elems.div_ceil(8))?;
    c.finish()?;
    let at = tids.len();
    if tbw == 0 {
        // Consecutive tids (every bulk build's): `first_tid + j`, the last
        // one checked once.
        if u64::from(first_tid) + (elems as u64 - 1) > u64::from(u32::MAX) {
            return Err(corrupt("directory tid overflow"));
        }
        tids.extend((0..elems as u32).map(|j| first_tid + j));
    } else {
        deltas.clear();
        unpack_bits(tbytes, tbw, elems - 1, deltas)
            .ok_or_else(|| corrupt("bad directory tid delta run"))?;
        tids.resize(at + elems, first_tid);
        // Tids step by Δ+1. Steps above `u32::MAX` are corrupt, and below
        // it the u64 sum of at most 2^20 of them cannot wrap: the loop
        // checks nothing and the last tid is checked once.
        let (mut tid, mut wide) = (u64::from(first_tid), false);
        let rest = tids.get_mut(at + 1..).unwrap_or(&mut []);
        for (slot, &d) in rest.iter_mut().zip(deltas.iter()) {
            wide |= d > u64::from(u32::MAX);
            tid = tid.wrapping_add(d).wrapping_add(1);
            *slot = tid as u32;
        }
        if wide || tid > u64::from(u32::MAX) {
            return Err(corrupt("directory tid overflow"));
        }
    }
    // The pointer deltas unpack in place after `first_ptr`, and the
    // running sum turns them into stored pointers where they lie; eight
    // elements per bitmap byte, the dead ones read as `TOMBSTONE_PTR` (a
    // byte of live ones is passed over).
    let at = ptrs.len();
    ptrs.push(first_ptr);
    if unpack_bits(pbytes, pbw, elems - 1, ptrs).is_none() {
        ptrs.truncate(at);
        return Err(corrupt("bad directory ptr delta run"));
    }
    let out = ptrs.get_mut(at..).unwrap_or(&mut []);
    let mut sp = first_ptr;
    for slot in out.iter_mut().skip(1) {
        sp = sp.wrapping_add(unzigzag(*slot) as u64);
        *slot = sp;
    }
    for (run, &bits) in out.chunks_mut(8).zip(bitmap).filter(|(_, &b)| b != 0xFF) {
        for (bit, slot) in run.iter_mut().enumerate() {
            if (bits >> bit) & 1 == 0 {
                *slot = TOMBSTONE_PTR;
            }
        }
    }
    Ok(())
}

/// Streaming `(tid, ptr)` cursor over the durable directory: it buffers
/// one decoded frame at a time, so a walk's footprint stays one frame.
pub(crate) struct DirCursor {
    r: ListReader,
    tids: Vec<u32>,
    ptrs: Vec<u64>,
    pos: usize,
    scratch: Vec<u8>,
    /// A packed frame's delta sections, inflated.
    deltas: Vec<u64>,
}

impl DirCursor {
    /// Open at the first element.
    pub(crate) fn open(pager: &Arc<Pager>, handle: ListHandle) -> Result<Self> {
        Ok(Self {
            r: ListReader::open(Arc::clone(pager), handle)?,
            tids: Vec::new(),
            ptrs: Vec::new(),
            pos: 0,
            scratch: Vec::new(),
            deltas: Vec::new(),
        })
    }

    fn read_frame_header(&mut self) -> Result<(u8, usize, usize)> {
        let kind = self.r.read_u8()?;
        let elems = self.r.read_u32()? as usize;
        let plen = self.r.read_u32()? as usize;
        if plen as u64 > self.r.remaining() {
            return Err(corrupt("truncated directory frame"));
        }
        if elems == 0 {
            return Err(corrupt("bad directory frame element count"));
        }
        Ok((kind, elems, plen))
    }

    fn load_frame(&mut self, kind: u8, elems: usize, plen: usize) -> Result<()> {
        self.scratch.clear();
        self.scratch.resize(plen, 0);
        self.r.read_exact(&mut self.scratch)?;
        self.tids.clear();
        self.ptrs.clear();
        self.pos = 0;
        match kind {
            DIR_RAW => decode_raw_dir_frame(&self.scratch, elems, &mut self.tids, &mut self.ptrs),
            DIR_PACKED => decode_packed_dir_frame(
                &self.scratch,
                elems,
                &mut self.tids,
                &mut self.ptrs,
                &mut self.deltas,
            ),
            _ => Err(corrupt("bad directory frame kind")),
        }
    }

    /// Append the next elements to `tids`/`ptrs` (tombstones as
    /// [`TOMBSTONE_PTR`]): at least one and at most `max` (≥ 1) of them,
    /// never past the end of the current frame — a slice copy of a decoded
    /// frame.
    pub(crate) fn next_block(
        &mut self,
        max: usize,
        tids: &mut Vec<u32>,
        ptrs: &mut Vec<u64>,
    ) -> Result<()> {
        if self.pos >= self.tids.len() {
            if self.r.at_end() {
                return Err(corrupt("directory scan past end"));
            }
            let (kind, elems, plen) = self.read_frame_header()?;
            self.load_frame(kind, elems, plen)?;
        }
        let end = self.tids.len().min(self.pos.saturating_add(max));
        let past_end = || corrupt("directory scan past end");
        tids.extend_from_slice(self.tids.get(self.pos..end).ok_or_else(past_end)?);
        ptrs.extend_from_slice(self.ptrs.get(self.pos..end).ok_or_else(past_end)?);
        self.pos = end;
        Ok(())
    }

    /// Skip the next `n` elements (a leap, see [`crate::scan`]). Packed
    /// frames strictly before the target position skip by their header
    /// alone — no payload decode.
    pub(crate) fn skip_entries(&mut self, mut n: u64) -> Result<()> {
        let buffered = (self.tids.len().saturating_sub(self.pos)) as u64;
        if n <= buffered {
            self.pos += n as usize;
            return Ok(());
        }
        n -= buffered;
        self.pos = self.tids.len();
        while n > 0 {
            if self.r.at_end() {
                return Err(corrupt("directory skip past end"));
            }
            let (kind, elems, plen) = self.read_frame_header()?;
            if elems as u64 <= n {
                self.r.skip(plen as u64)?;
                n -= elems as u64;
            } else {
                self.load_frame(kind, elems, plen)?;
                self.pos = n as usize;
                n = 0;
            }
        }
        Ok(())
    }
}

/// The in-place patch that tombstones one directory element.
pub(crate) struct DirPatch {
    /// Byte offset into the directory list's content.
    pub offset: u64,
    /// Replacement bytes at that offset.
    pub bytes: Vec<u8>,
    /// Whether the element was live when located (false: already dead,
    /// nothing to write).
    pub live: bool,
}

/// Locate `tid` and describe the in-place write that tombstones it: the
/// 8-byte `ptr` rewrite inside a RAW frame's element, or the one-byte
/// liveness bit clear inside a packed frame. `None` if the tid is absent.
pub(crate) fn locate_tombstone(
    pager: &Arc<Pager>,
    handle: ListHandle,
    tid: u32,
) -> Result<Option<DirPatch>> {
    let mut cur = DirCursor::open(pager, handle)?;
    while !cur.r.at_end() {
        let (kind, elems, plen) = cur.read_frame_header()?;
        let payload_start = cur.r.tell();
        cur.load_frame(kind, elems, plen)?;
        let (tids, ptrs, scratch) = (&cur.tids, &cur.ptrs, &cur.scratch);
        if tids.first().is_some_and(|&f| f > tid) {
            return Ok(None); // frames are globally tid-sorted
        }
        if tids.last().is_some_and(|&l| l < tid) {
            continue;
        }
        let Some(j) = tids.iter().position(|&t| t == tid) else {
            return Ok(None);
        };
        let live = ptrs.get(j).copied().is_some_and(|p| p != TOMBSTONE_PTR);
        let patch = if kind == DIR_RAW {
            DirPatch {
                offset: payload_start + (j * TUPLE_ENTRY_LEN + 4) as u64,
                bytes: TOMBSTONE_PTR.to_le_bytes().to_vec(),
                live,
            }
        } else {
            // decode validated the exact section layout, so the bitmap
            // is the payload tail.
            let bm_off = plen
                .checked_sub(elems.div_ceil(8))
                .and_then(|b| b.checked_add(j / 8))
                .ok_or_else(|| corrupt("short directory frame"))?;
            let old = scratch
                .get(bm_off)
                .copied()
                .ok_or_else(|| corrupt("short directory frame"))?;
            DirPatch {
                offset: payload_start + bm_off as u64,
                bytes: vec![old & !(1u8 << (j % 8))],
                live,
            }
        };
        return Ok(Some(patch));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iva_storage::{overwrite_in_list, write_contiguous_list, IoStats, PagerOptions};

    fn pager() -> Arc<Pager> {
        Pager::create_mem(
            &PagerOptions {
                page_size: 128,
                cache_bytes: 8192,
            },
            IoStats::new(),
        )
    }

    fn sample(n: u32) -> Vec<(u32, u64)> {
        (0..n)
            .map(|t| {
                let ptr = if t % 97 == 3 {
                    TOMBSTONE_PTR
                } else {
                    u64::from(t) * 237 + (u64::from(t) % 5) * 11
                };
                (t * 2 + (t % 2), ptr)
            })
            .collect()
    }

    /// Every element of the directory stored in `data`, through the
    /// streaming cursor (the one decoder).
    fn read_dir(data: &[u8]) -> Result<Vec<(u32, u64)>> {
        let p = pager();
        let h = write_contiguous_list(&p, data).unwrap();
        read_dir_at(&p, h)
    }

    fn read_dir_at(p: &Arc<Pager>, h: ListHandle) -> Result<Vec<(u32, u64)>> {
        let mut cur = DirCursor::open(p, h)?;
        let (mut tids, mut ptrs) = (Vec::new(), Vec::new());
        while cur.pos < cur.tids.len() || !cur.r.at_end() {
            cur.next_block(1, &mut tids, &mut ptrs)?;
        }
        Ok(tids.into_iter().zip(ptrs).collect())
    }

    /// The cursor's next element, as a block of one.
    fn next(cur: &mut DirCursor) -> (u32, u64) {
        let (mut tids, mut ptrs) = (Vec::new(), Vec::new());
        cur.next_block(1, &mut tids, &mut ptrs).unwrap();
        (tids[0], ptrs[0])
    }

    /// Blocks never cross a frame.
    #[test]
    fn next_block_stops_at_frame_ends() {
        let p = pager();
        let entries = sample(2500);
        let h = write_contiguous_list(&p, &encode_dir(&entries)).unwrap();
        let mut cur = DirCursor::open(&p, h).unwrap();
        let (mut tids, mut ptrs) = (Vec::new(), Vec::new());
        let mut sizes = Vec::new();
        while tids.len() < entries.len() {
            let before = tids.len();
            cur.next_block(300, &mut tids, &mut ptrs).unwrap();
            sizes.push(tids.len() - before);
        }
        assert_eq!(sizes, [300, 300, 300, 124, 300, 300, 300, 124, 300, 152]);
        assert_eq!(tids.into_iter().zip(ptrs).collect::<Vec<_>>(), entries);
    }

    #[test]
    fn packed_roundtrip_with_tombstones() {
        let entries = sample(3000);
        let framed = encode_dir(&entries);
        assert!(
            framed.len() * 4 < entries.len() * TUPLE_ENTRY_LEN,
            "sequential directories must pack at least 4x ({} vs {})",
            framed.len(),
            entries.len() * TUPLE_ENTRY_LEN
        );
        assert_eq!(read_dir(&framed).unwrap(), entries);
    }

    #[test]
    fn non_monotonic_tids_fall_back_to_raw_frames() {
        let entries: Vec<(u32, u64)> = vec![(5, 10), (3, 20), (3, 30), (9, 40)];
        let framed = encode_dir(&entries);
        assert_eq!(read_dir(&framed).unwrap(), entries);
    }

    #[test]
    fn raw_tail_frames_append_after_packed_frames() {
        let mut entries = sample(1500);
        let mut framed = encode_dir(&entries);
        for t in 0..5u32 {
            let (tid, ptr) = (10_000 + t, 999_000 + u64::from(t) * 17);
            append_raw_entry(&mut framed, tid, ptr);
            entries.push((tid, ptr));
        }
        assert_eq!(read_dir(&framed).unwrap(), entries);
    }

    #[test]
    fn skip_entries_lands_anywhere() {
        let p = pager();
        let entries = sample(2500);
        let framed = encode_dir(&entries);
        let h = write_contiguous_list(&p, &framed).unwrap();
        for skip in [0usize, 1, 7, 1023, 1024, 1025, 2048, 2499] {
            let mut cur = DirCursor::open(&p, h).unwrap();
            cur.skip_entries(skip as u64).unwrap();
            assert_eq!(next(&mut cur), entries[skip], "skip {skip}");
        }
        // Skipping in two installments must land at the sum.
        let mut cur = DirCursor::open(&p, h).unwrap();
        cur.skip_entries(100).unwrap();
        cur.skip_entries(1500).unwrap();
        assert_eq!(next(&mut cur), entries[1600]);
    }

    #[test]
    fn locate_and_patch_tombstones_in_place() {
        let p = pager();
        let mut entries = sample(1400);
        let mut framed = encode_dir(&entries);
        append_raw_entry(&mut framed, 90_000, 123_456);
        entries.push((90_000, 123_456));
        let h = write_contiguous_list(&p, &framed).unwrap();
        // One victim inside a packed frame, one in the raw tail frame.
        for victim in [entries[700].0, 90_000] {
            let patch = locate_tombstone(&p, h, victim)
                .unwrap()
                .expect("tid present");
            assert!(patch.live);
            overwrite_in_list(&p, h, patch.offset, &patch.bytes).unwrap();
            // Now dead: locating again reports live = false.
            let again = locate_tombstone(&p, h, victim).unwrap().unwrap();
            assert!(!again.live);
        }
        let got = read_dir_at(&p, h).unwrap();
        assert_eq!(got.len(), entries.len());
        for (&(got_t, got_ptr), &(t, ptr)) in got.iter().zip(&entries) {
            assert_eq!(got_t, t);
            if t == entries[700].0 || t == 90_000 {
                assert_eq!(got_ptr, TOMBSTONE_PTR, "tid {t} must be tombstoned");
            } else {
                assert_eq!(got_ptr, ptr);
            }
        }
        // Absent tids: inside a frame's tid range and past the end.
        assert!(locate_tombstone(&p, h, 1).unwrap().is_none());
        assert!(locate_tombstone(&p, h, 95_000).unwrap().is_none());
    }

    #[test]
    fn corrupt_frames_error_not_panic() {
        let entries = sample(300);
        let framed = encode_dir(&entries);
        // Truncations at every prefix.
        for cut in 0..framed.len().min(64) {
            let _ = read_dir(&framed[..cut]);
        }
        // Bad kind byte.
        let mut bad = framed.clone();
        bad[0] = 7;
        assert!(read_dir(&bad).is_err());
        // Overclaimed element count.
        let mut bad = framed.clone();
        bad[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_dir(&bad).is_err());
        // Zero elements.
        let mut bad = framed;
        bad[1..5].copy_from_slice(&0u32.to_le_bytes());
        assert!(read_dir(&bad).is_err());
    }

    /// The packed frame decoder, directly: tombstones at a frame's first
    /// and last positions and on both sides of a bitmap byte boundary, and
    /// frames of one element, live and dead, each appended after what the
    /// columns held. A payload a byte short or long, and tids past
    /// `u32::MAX`, are corrupt.
    #[test]
    fn packed_frames_decode_tombstones_at_byte_edges() {
        let mut full = sample(1024);
        for j in [0, 7, 8, 1023] {
            full[j].1 = TOMBSTONE_PTR;
        }
        let frames: [&[(u32, u64)]; 3] = [&full, &[(5, 77)], &[(6, TOMBSTONE_PTR)]];
        let decode = |payload: &[u8], elems: usize| {
            let (mut tids, mut ptrs) = (vec![1], vec![2]);
            decode_packed_dir_frame(payload, elems, &mut tids, &mut ptrs, &mut Vec::new())?;
            assert_eq!((tids[0], ptrs[0]), (1, 2));
            let got = tids[1..].iter().copied().zip(ptrs[1..].iter().copied());
            Ok::<_, IvaError>(got.collect::<Vec<_>>())
        };
        for frame in frames {
            let payload = pack_dir_chunk(frame).unwrap();
            assert_eq!(decode(&payload, frame.len()).unwrap(), frame);
            assert!(decode(&payload[..payload.len() - 1], frame.len()).is_err());
            let long = [payload.as_slice(), &[0xFF]].concat();
            assert!(decode(&long, frame.len()).is_err());
        }
        assert_eq!(read_dir(&encode_dir(&full)).unwrap(), full);
        let mut high = pack_dir_chunk(&[(u32::MAX - 1, 1), (u32::MAX, 2)]).unwrap();
        high[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&high, 2).is_err_and(|e| e.is_corruption()));
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0u64, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            for prev in [0u64, 5, u64::MAX, 1 << 40] {
                let z = zigzag(v.wrapping_sub(prev) as i64);
                assert_eq!(prev.wrapping_add(unzigzag(z) as u64), v);
            }
        }
    }
}

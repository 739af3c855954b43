//! lint:scope(panic-reachability)
//! Chained page lists ("list files").
//!
//! The iVA-file is "a sequence of list elements" per list (tuple list,
//! attribute list, one vector list per attribute), each of which is scanned
//! sequentially and appended at the tail (Sec. III-D / IV-B of the paper).
//! This module provides that abstraction over a [`Pager`]: a list is a chain
//! of pages, contiguous when bulk-written at (re)build time and fragmenting
//! at the file tail as updates append — exactly the behaviour the paper's
//! periodic-rebuild scheme assumes.
//!
//! Page layout: `[next: u64][used: u16][data ...]`.

use std::sync::Arc;

use crate::cache::PageRef;
use crate::codec;
use crate::error::{Result, StorageError};
use crate::page::PageId;
use crate::pager::Pager;

/// Bytes of per-page metadata (next pointer + used length).
pub const LIST_PAGE_HEADER: usize = 10;

/// Location and length of one list inside a paged file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListHandle {
    /// First page of the chain (the paper's `ptr1`).
    pub head: PageId,
    /// Last page of the chain (the paper's `ptr2`).
    pub tail: PageId,
    /// Total data bytes stored in the list.
    pub len: u64,
}

impl ListHandle {
    /// Serialized size of a handle.
    pub const ENCODED_LEN: usize = 24;

    /// Encode into 24 little-endian bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.head.0.to_le_bytes());
        out.extend_from_slice(&self.tail.0.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
    }

    /// Decode from 24 bytes.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let u = |i| {
            codec::le_u64(buf, i).ok_or_else(|| StorageError::Corrupt("short list handle".into()))
        };
        Ok(Self {
            head: PageId(u(0)?),
            tail: PageId(u(8)?),
            len: u(16)?,
        })
    }
}

fn data_capacity(page_size: usize) -> usize {
    page_size - LIST_PAGE_HEADER
}

fn page_next(page: &[u8]) -> PageId {
    PageId(codec::le_u64(page, 0).unwrap_or(0))
}

fn page_used(page: &[u8]) -> usize {
    codec::le_u16(page, 8).unwrap_or(0) as usize
}

/// Read and validate the disk-sourced `used` field: a corrupt page may
/// claim more data bytes than a page can hold, which would overrun every
/// slice computed from it. Surface that as `Corrupt` instead of a panic.
fn checked_page_used(page: &[u8], page_size: usize) -> Result<usize> {
    let used = page_used(page);
    if used > data_capacity(page_size) {
        return Err(StorageError::Corrupt(format!(
            "list page claims {used} used bytes, capacity is {}",
            data_capacity(page_size)
        )));
    }
    Ok(used)
}

fn set_page_next(page: &mut [u8], next: PageId) {
    if let Some(d) = page.get_mut(0..8) {
        d.copy_from_slice(&next.0.to_le_bytes());
    }
}

fn set_page_used(page: &mut [u8], used: usize) {
    if let Some(d) = page.get_mut(8..10) {
        d.copy_from_slice(&(used as u16).to_le_bytes());
    }
}

/// Appends bytes to a list, buffering the tail page in memory. Call
/// [`ListWriter::finish`] to flush and obtain the updated handle.
pub struct ListWriter {
    pager: Arc<Pager>,
    head: PageId,
    tail: PageId,
    tail_buf: Vec<u8>,
    tail_used: usize,
    len: u64,
}

impl ListWriter {
    /// Start a brand-new list (allocates its first page).
    pub fn create(pager: Arc<Pager>) -> Result<Self> {
        let page_size = pager.page_size();
        let head = pager.allocate_page()?;
        let mut buf = vec![0u8; page_size];
        set_page_next(&mut buf, PageId::NULL);
        Ok(Self {
            pager,
            head,
            tail: head,
            tail_buf: buf,
            tail_used: 0,
            len: 0,
        })
    }

    /// Resume appending to an existing list.
    pub fn append_to(pager: Arc<Pager>, handle: ListHandle) -> Result<Self> {
        let page = pager.read_page(handle.tail)?;
        let tail_buf = page.as_ref().clone();
        let tail_used = checked_page_used(&tail_buf, pager.page_size())?;
        Ok(Self {
            pager,
            head: handle.head,
            tail: handle.tail,
            tail_buf,
            tail_used,
            len: handle.len,
        })
    }

    /// Append raw bytes, spilling across pages as needed.
    pub fn append(&mut self, mut data: &[u8]) -> Result<()> {
        let cap = data_capacity(self.pager.page_size());
        while !data.is_empty() {
            if self.tail_used == cap {
                self.spill_new_page()?;
            }
            let n = data.len().min(cap - self.tail_used);
            let start = LIST_PAGE_HEADER + self.tail_used;
            if let (Some(dst), Some(src)) = (self.tail_buf.get_mut(start..start + n), data.get(..n))
            {
                dst.copy_from_slice(src);
            }
            self.tail_used += n;
            self.len += n as u64;
            data = data.get(n..).unwrap_or(&[]);
        }
        Ok(())
    }

    /// Append a single byte.
    pub fn append_u8(&mut self, v: u8) -> Result<()> {
        self.append(&[v])
    }

    /// Append a little-endian u16.
    pub fn append_u16(&mut self, v: u16) -> Result<()> {
        self.append(&v.to_le_bytes())
    }

    /// Append a little-endian u32.
    pub fn append_u32(&mut self, v: u32) -> Result<()> {
        self.append(&v.to_le_bytes())
    }

    /// Append a little-endian u64.
    pub fn append_u64(&mut self, v: u64) -> Result<()> {
        self.append(&v.to_le_bytes())
    }

    fn spill_new_page(&mut self) -> Result<()> {
        // Flush the (full) tail, chain a fresh page after it.
        let new_id = self.pager.allocate_page()?;
        set_page_next(&mut self.tail_buf, new_id);
        set_page_used(&mut self.tail_buf, self.tail_used);
        self.pager.write_page(
            self.tail,
            std::mem::replace(&mut self.tail_buf, vec![0u8; self.pager.page_size()]),
        )?;
        set_page_next(&mut self.tail_buf, PageId::NULL);
        self.tail = new_id;
        self.tail_used = 0;
        Ok(())
    }

    /// Bytes appended so far (including any pre-existing content).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the list holds no data bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flush the tail page and return the list handle.
    pub fn finish(mut self) -> Result<ListHandle> {
        set_page_used(&mut self.tail_buf, self.tail_used);
        let tail_buf = std::mem::take(&mut self.tail_buf);
        self.pager.write_page(self.tail, tail_buf)?;
        Ok(ListHandle {
            head: self.head,
            tail: self.tail,
            len: self.len,
        })
    }
}

/// Sequential cursor over a list's data bytes.
///
/// Besides the pager-level counters, the reader feeds two list-granular
/// [`IoStats`](crate::IoStats) counters: *logical* list bytes (data bytes
/// delivered to the caller, padding-free) and *physical* list bytes (one
/// full page size per page the cursor enters, padding included). Each is
/// charged at exactly one site — logical where bytes are handed out,
/// physical in [`ListReader::open`] / `advance_page` — so a read that
/// crosses any number of page boundaries is never double-counted.
pub struct ListReader {
    pager: Arc<Pager>,
    page: PageRef,
    page_used: usize,
    offset_in_page: usize,
    /// Logical position within the list's data bytes.
    pos: u64,
    len: u64,
}

impl ListReader {
    /// Open a cursor at the start of the list.
    pub fn open(pager: Arc<Pager>, handle: ListHandle) -> Result<Self> {
        let page = pager.read_page(handle.head)?;
        let page_used = checked_page_used(&page, pager.page_size())?;
        pager.stats().record_list_physical(pager.page_size() as u64);
        Ok(Self {
            pager,
            page,
            page_used,
            offset_in_page: 0,
            pos: 0,
            len: handle.len,
        })
    }

    /// Logical read position (bytes from list start).
    pub fn tell(&self) -> u64 {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// True once all data bytes have been consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.len
    }

    fn advance_page(&mut self) -> Result<()> {
        let next = page_next(&self.page);
        if next.is_null() {
            return Err(StorageError::Corrupt(
                "list chain ended before declared length".into(),
            ));
        }
        self.page = self.pager.read_page(next)?;
        self.page_used = checked_page_used(&self.page, self.pager.page_size())?;
        self.offset_in_page = 0;
        self.pager
            .stats()
            .record_list_physical(self.pager.page_size() as u64);
        Ok(())
    }

    /// Read exactly `buf.len()` bytes.
    pub fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        if self.remaining() < buf.len() as u64 {
            return Err(StorageError::Corrupt(format!(
                "list read of {} bytes with only {} remaining",
                buf.len(),
                self.remaining()
            )));
        }
        let mut filled = 0;
        while filled < buf.len() {
            if self.offset_in_page == self.page_used {
                self.advance_page()?;
            }
            let avail = self.page_used - self.offset_in_page;
            let n = (buf.len() - filled).min(avail);
            let start = LIST_PAGE_HEADER + self.offset_in_page;
            if let (Some(dst), Some(src)) = (
                buf.get_mut(filled..filled + n),
                self.page.get(start..start + n),
            ) {
                dst.copy_from_slice(src);
            }
            filled += n;
            self.offset_in_page += n;
            self.pos += n as u64;
        }
        self.pager.stats().record_list_logical(buf.len() as u64);
        Ok(())
    }

    /// Skip `n` bytes.
    pub fn skip(&mut self, mut n: u64) -> Result<()> {
        if self.remaining() < n {
            return Err(StorageError::Corrupt("list skip past end".into()));
        }
        while n > 0 {
            if self.offset_in_page == self.page_used {
                self.advance_page()?;
            }
            let avail = (self.page_used - self.offset_in_page) as u64;
            let step = n.min(avail);
            self.offset_in_page += step as usize;
            self.pos += step;
            n -= step;
        }
        Ok(())
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(u8::from_le_bytes(b))
    }

    /// Read a little-endian u16.
    pub fn read_u16(&mut self) -> Result<u16> {
        let mut b = [0u8; 2];
        self.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Read a little-endian u32.
    pub fn read_u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian u64.
    pub fn read_u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian f64.
    pub fn read_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }
}

/// Overwrite `data.len()` bytes at logical offset `logical_off` of a list,
/// in place (walks the chain; used for the SII baseline's tuple-list
/// tombstones and attribute-list element updates, which rewrite
/// fixed-size fields without moving anything).
pub fn overwrite_in_list(
    pager: &Arc<Pager>,
    handle: ListHandle,
    logical_off: u64,
    data: &[u8],
) -> Result<()> {
    if logical_off + data.len() as u64 > handle.len {
        return Err(StorageError::InvalidArgument(format!(
            "list overwrite [{logical_off}, +{}) beyond length {}",
            data.len(),
            handle.len
        )));
    }
    let mut page_id = handle.head;
    let mut skip = logical_off;
    let mut written = 0usize;
    while written < data.len() {
        if page_id.is_null() {
            return Err(StorageError::Corrupt(
                "list chain ended during overwrite".into(),
            ));
        }
        let page = pager.read_page(page_id)?;
        let used = checked_page_used(&page, pager.page_size())? as u64;
        let next = page_next(&page);
        drop(page);
        if skip >= used {
            skip -= used;
            page_id = next;
            continue;
        }
        let start = skip as usize;
        let n = (data.len() - written).min(used as usize - start);
        pager.update_page(page_id, |p| {
            if let (Some(dst), Some(src)) = (
                p.get_mut(LIST_PAGE_HEADER + start..LIST_PAGE_HEADER + start + n),
                data.get(written..written + n),
            ) {
                dst.copy_from_slice(src);
            }
        })?;
        written += n;
        skip = 0;
        page_id = next;
    }
    Ok(())
}

/// Extract a whole list into one contiguous byte buffer — the column
/// extraction read used when promoting a vector list into an in-memory
/// tier. The walk is a plain sequential scan through the pager, so the
/// extraction's I/O cost lands in [`crate::IoStats`] like any other scan
/// of the same list.
pub fn read_list_to_vec(pager: &Arc<Pager>, handle: ListHandle) -> Result<Vec<u8>> {
    let mut out = vec![0u8; handle.len as usize];
    if handle.len > 0 {
        let mut r = ListReader::open(Arc::clone(pager), handle)?;
        r.read_exact(&mut out)?;
    }
    Ok(out)
}

/// Bulk-write a byte buffer as a new, physically contiguous list.
///
/// Used at (re)build time so that subsequent scans are purely sequential.
pub fn write_contiguous_list(pager: &Arc<Pager>, data: &[u8]) -> Result<ListHandle> {
    let page_size = pager.page_size();
    let cap = data_capacity(page_size);
    let mut head = PageId::NULL;
    let mut prev: Option<(PageId, Vec<u8>)> = None;
    let mut tail = PageId::NULL;
    let mut chunks: Vec<&[u8]> = data.chunks(cap).collect();
    if chunks.is_empty() {
        chunks.push(&[]);
    }
    for chunk in chunks {
        let id = pager.allocate_page()?;
        if head.is_null() {
            head = id;
        }
        if let Some((pid, mut pbuf)) = prev.take() {
            set_page_next(&mut pbuf, id);
            pager.write_page(pid, pbuf)?;
        }
        let mut buf = vec![0u8; page_size];
        set_page_next(&mut buf, PageId::NULL);
        set_page_used(&mut buf, chunk.len());
        if let Some(d) = buf.get_mut(LIST_PAGE_HEADER..LIST_PAGE_HEADER + chunk.len()) {
            d.copy_from_slice(chunk);
        }
        tail = id;
        prev = Some((id, buf));
    }
    if let Some((pid, pbuf)) = prev {
        pager.write_page(pid, pbuf)?;
    }
    Ok(ListHandle {
        head,
        tail,
        len: data.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PagerOptions;
    use crate::stats::IoStats;

    fn mem_pager() -> Arc<Pager> {
        let opts = PagerOptions {
            page_size: 64,
            cache_bytes: 64 * 16,
        };
        Pager::create_mem(&opts, IoStats::new())
    }

    #[test]
    fn handle_roundtrip() {
        let h = ListHandle {
            head: PageId(3),
            tail: PageId(9),
            len: 12345,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), ListHandle::ENCODED_LEN);
        assert_eq!(ListHandle::decode(&buf).unwrap(), h);
        assert!(ListHandle::decode(&buf[..10]).is_err());
    }

    #[test]
    fn write_read_small() {
        let p = mem_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        w.append(b"hello").unwrap();
        w.append_u32(0xDEADBEEF).unwrap();
        let h = w.finish().unwrap();
        assert_eq!(h.len, 9);

        let mut r = ListReader::open(p, h).unwrap();
        let mut s = [0u8; 5];
        r.read_exact(&mut s).unwrap();
        assert_eq!(&s, b"hello");
        assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
        assert!(r.at_end());
    }

    #[test]
    fn write_read_across_many_pages() {
        let p = mem_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Append in odd-sized chunks to exercise boundary handling.
        for chunk in data.chunks(7) {
            w.append(chunk).unwrap();
        }
        let h = w.finish().unwrap();
        assert_eq!(h.len, 1000);
        assert_ne!(h.head, h.tail);

        let mut r = ListReader::open(p, h).unwrap();
        let mut out = vec![0u8; 1000];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, data);
        assert!(r.at_end());
        assert!(r.read_u8().is_err());
    }

    #[test]
    fn resume_appending() {
        let p = mem_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        w.append(b"part1-").unwrap();
        let h1 = w.finish().unwrap();

        let mut w = ListWriter::append_to(Arc::clone(&p), h1).unwrap();
        w.append(b"part2").unwrap();
        let h2 = w.finish().unwrap();
        assert_eq!(h2.len, 11);
        assert_eq!(h2.head, h1.head);

        let mut r = ListReader::open(p, h2).unwrap();
        let mut out = vec![0u8; 11];
        r.read_exact(&mut out).unwrap();
        assert_eq!(&out, b"part1-part2");
    }

    #[test]
    fn resume_appending_across_page_boundary() {
        let p = mem_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        w.append(&[1u8; 50]).unwrap();
        let h1 = w.finish().unwrap();
        let mut w = ListWriter::append_to(Arc::clone(&p), h1).unwrap();
        w.append(&[2u8; 50]).unwrap();
        let h = w.finish().unwrap();
        assert_eq!(h.len, 100);
        let mut r = ListReader::open(p, h).unwrap();
        let mut out = vec![0u8; 100];
        r.read_exact(&mut out).unwrap();
        assert_eq!(&out[..50], &vec![1u8; 50][..]);
        assert_eq!(&out[50..], &vec![2u8; 50][..]);
    }

    #[test]
    fn skip_and_tell() {
        let p = mem_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        for i in 0..100u8 {
            w.append_u8(i).unwrap();
        }
        let h = w.finish().unwrap();
        let mut r = ListReader::open(p, h).unwrap();
        r.skip(73).unwrap();
        assert_eq!(r.tell(), 73);
        assert_eq!(r.read_u8().unwrap(), 73);
        assert_eq!(r.remaining(), 26);
        assert!(r.skip(27).is_err());
    }

    #[test]
    fn boundary_crossing_reads_charge_list_bytes_exactly_once() {
        // 64 B pages, 54 B data capacity: a 120 B read starting at offset
        // 10 spans three pages, i.e. crosses a page boundary twice in one
        // `read_exact` call, which must charge the logical bytes once and
        // leave `advance_page` the only site charging the spanned pages.
        let p = mem_pager();
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let h = write_contiguous_list(&p, &data).unwrap();

        let before = p.stats().snapshot();
        let mut r = ListReader::open(Arc::clone(&p), h).unwrap();
        r.skip(10).unwrap();
        let mut view = vec![0u8; 120];
        r.read_exact(&mut view).unwrap();
        assert_eq!(view, &data[10..130]);
        let d = p.stats().snapshot().since(&before);
        // Exactly the 120 delivered bytes, charged once.
        assert_eq!(d.logical_list_bytes, 120);
        // Exactly the three pages entered (open + two boundary crossings).
        assert_eq!(d.physical_list_bytes, 3 * 64);

        // The same bytes read element-wise (single bytes and copies)
        // charge identically: logical counts deliveries, not call shapes.
        let before = p.stats().snapshot();
        let mut r = ListReader::open(Arc::clone(&p), h).unwrap();
        let mut delivered = 0u64;
        while !r.at_end() {
            match delivered % 2 {
                0 => {
                    r.read_u8().unwrap();
                    delivered += 1;
                }
                _ => {
                    let mut buf = vec![0u8; 5.min(r.remaining() as usize)];
                    r.read_exact(&mut buf).unwrap();
                    delivered += buf.len() as u64;
                }
            }
        }
        assert_eq!(delivered, 200);
        let d = p.stats().snapshot().since(&before);
        assert_eq!(d.logical_list_bytes, 200);
        assert_eq!(d.physical_list_bytes, 4 * 64); // ceil(200 / 54) pages
    }

    #[test]
    fn contiguous_bulk_write_is_sequential() {
        let opts = PagerOptions {
            page_size: 64,
            cache_bytes: 0,
        }; // no cache
        let p = Pager::create_mem(&opts, IoStats::new());
        let data: Vec<u8> = (0..500u16).map(|i| (i % 256) as u8).collect();
        let h = write_contiguous_list(&p, &data).unwrap();
        assert_eq!(h.len, 500);

        let before = p.stats().snapshot();
        let mut r = ListReader::open(Arc::clone(&p), h).unwrap();
        let mut out = vec![0u8; 500];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, data);
        let d = p.stats().snapshot().since(&before);
        // Only the first page read may seek; the rest of the scan is sequential.
        assert!(
            d.random_seeks <= 1,
            "scan of contiguous list should not seek: {d:?}"
        );
    }

    #[test]
    fn contiguous_empty_list() {
        let p = mem_pager();
        let h = write_contiguous_list(&p, &[]).unwrap();
        assert_eq!(h.len, 0);
        let r = ListReader::open(p, h).unwrap();
        assert!(r.at_end());
    }

    #[test]
    fn read_list_to_vec_extracts_whole_lists() {
        let p = mem_pager(); // 64 B pages: multi-page lists exercised
        for n in [0usize, 1, 54, 55, 500] {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            let h = write_contiguous_list(&p, &data).unwrap();
            assert_eq!(read_list_to_vec(&p, h).unwrap(), data, "n={n}");
        }
        // Fragmented (writer-built) lists extract identically.
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        let data: Vec<u8> = (0..300).map(|i| (i % 97) as u8).collect();
        for chunk in data.chunks(11) {
            w.append(chunk).unwrap();
        }
        let h = w.finish().unwrap();
        assert_eq!(read_list_to_vec(&p, h).unwrap(), data);
    }

    #[test]
    fn overwrite_in_place() {
        let p = mem_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        let data: Vec<u8> = (0..200u8).collect();
        w.append(&data).unwrap();
        let h = w.finish().unwrap();

        // Overwrite a range crossing the first page boundary (cap = 54).
        overwrite_in_list(&p, h, 50, &[0xAA; 8]).unwrap();
        let mut r = ListReader::open(Arc::clone(&p), h).unwrap();
        let mut out = vec![0u8; 200];
        r.read_exact(&mut out).unwrap();
        for (i, &b) in out.iter().enumerate() {
            if (50..58).contains(&i) {
                assert_eq!(b, 0xAA, "at {i}");
            } else {
                assert_eq!(b, i as u8, "at {i}");
            }
        }
        // Beyond-length overwrite is rejected.
        assert!(overwrite_in_list(&p, h, 199, &[0, 0]).is_err());
        // Zero-length overwrite is a no-op.
        overwrite_in_list(&p, h, 0, &[]).unwrap();
    }

    #[test]
    fn corrupt_used_field_is_error_not_panic() {
        let p = mem_pager(); // 64 B pages, 54 B data capacity
        let data: Vec<u8> = (0..200u8).collect();
        let h = write_contiguous_list(&p, &data).unwrap();
        // Second page claims more used bytes than a page can hold — every
        // path that trusts it must error, not slice out of bounds.
        let second = PageId(h.head.0 + 1);
        p.update_page(second, |pg| set_page_used(pg, 60_000))
            .unwrap();
        let mut r = ListReader::open(Arc::clone(&p), h).unwrap();
        let mut out = vec![0u8; 200];
        assert!(matches!(
            r.read_exact(&mut out),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            overwrite_in_list(&p, h, 100, &[0xAA; 4]),
            Err(StorageError::Corrupt(_))
        ));
        // Head/tail corruption hits open and append_to.
        p.update_page(h.head, |pg| set_page_used(pg, u16::MAX as usize))
            .unwrap();
        assert!(matches!(
            ListReader::open(Arc::clone(&p), h),
            Err(StorageError::Corrupt(_))
        ));
        p.update_page(h.tail, |pg| set_page_used(pg, 55)).unwrap();
        assert!(matches!(
            ListWriter::append_to(Arc::clone(&p), h),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn u16_u64_f64_roundtrip() {
        let p = mem_pager();
        let mut w = ListWriter::create(Arc::clone(&p)).unwrap();
        w.append_u16(65535).unwrap();
        w.append_u64(u64::MAX - 1).unwrap();
        w.append(&std::f64::consts::PI.to_bits().to_le_bytes())
            .unwrap();
        let h = w.finish().unwrap();
        let mut r = ListReader::open(p, h).unwrap();
        assert_eq!(r.read_u16().unwrap(), 65535);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.read_f64().unwrap(), std::f64::consts::PI);
    }
}

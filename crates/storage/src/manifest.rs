//! lint:scope(panic-reachability)
//! LSM segment manifest: the single authoritative record naming the live
//! sealed segments of a segmented store.
//!
//! The manifest is persisted through the shadow-commit protocol of
//! [`commit`](crate::commit) — write-new → fsync → rename — so segment
//! membership changes atomically: a seal or a compaction becomes visible
//! exactly when the rename lands, and a crash at any earlier point leaves
//! the previous manifest (plus harmless orphan files named by ids the old
//! manifest does not reference). Recovery therefore never sees a
//! half-merged state.
//!
//! Besides the segment list the manifest carries what the store holds
//! across its tiers: the tid watermark and the encoded attribute catalog
//! (opaque bytes owned by the table layer; the manifest does not
//! interpret them). The layout keeps a count of 16-byte per-attribute
//! entries between the two that is written as 0: earlier stores wrote
//! numeric domain pins there, which decoding skips (each segment
//! quantises on its own values — DESIGN.md §14).
//!
//! Decoding is total: any truncated, oversized, or bit-flipped input
//! returns [`StorageError`], never panics, and count fields are
//! sanity-capped before any allocation.

use std::path::Path;

use crate::codec;
use crate::commit::{read_commit_record, write_commit_record};
use crate::error::{Result, StorageError};
use crate::stats::IoStats;
use crate::vfs::Vfs;

const MANIFEST_MAGIC: [u8; 4] = *b"IVLS";
const MANIFEST_VERSION: u32 = 1;
/// magic + version + next_segment_id + next_tid + three u32 counts.
const MANIFEST_HEADER: usize = 4 + 4 + 8 + 8 + 4 + 4 + 4;
/// Upper bound on the counts a decoder will accept; a bit-flipped length
/// field must not drive allocation.
const MAX_COUNT: u32 = 1 << 20;

/// One sealed segment: its file id and the inclusive tid range it covers.
///
/// Ranges of live segments are pairwise disjoint and sorted ascending;
/// routing a tid touches at most one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File-naming id (`seg-<id>`); ids are allocated by
    /// [`Manifest::next_segment_id`] and never reused.
    pub id: u64,
    /// Smallest tid stored in the segment.
    pub lo_tid: u64,
    /// Largest tid stored in the segment (inclusive).
    pub hi_tid: u64,
}

/// The decoded manifest payload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Next segment id to allocate; also the only id a crashed seal or
    /// compaction can have staged files under, which makes orphan
    /// collection a bounded probe.
    pub next_segment_id: u64,
    /// Tid watermark: the next memtable assigns tids starting here.
    pub next_tid: u64,
    /// Live sealed segments, oldest first (ascending tid ranges).
    pub segments: Vec<SegmentMeta>,
    /// Encoded attribute catalog (opaque to the storage layer).
    pub catalog: Vec<u8>,
}

/// Serialise a manifest payload (the commit-record envelope is added by
/// [`write_manifest`]).
pub fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MANIFEST_HEADER + m.segments.len() * 24 + m.catalog.len());
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    buf.extend_from_slice(&m.next_segment_id.to_le_bytes());
    buf.extend_from_slice(&m.next_tid.to_le_bytes());
    buf.extend_from_slice(&(m.segments.len() as u32).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes()); // no domain entries
    buf.extend_from_slice(&(m.catalog.len() as u32).to_le_bytes());
    for s in &m.segments {
        buf.extend_from_slice(&s.id.to_le_bytes());
        buf.extend_from_slice(&s.lo_tid.to_le_bytes());
        buf.extend_from_slice(&s.hi_tid.to_le_bytes());
    }
    buf.extend_from_slice(&m.catalog);
    buf
}

/// Decode a manifest payload. Total: every malformed input is an error.
pub fn decode_manifest(buf: &[u8]) -> Result<Manifest> {
    let expected = format!("segment manifest (magic \"IVLS\" v{MANIFEST_VERSION})");
    if buf.get(0..4) != Some(MANIFEST_MAGIC.as_slice()) {
        return Err(StorageError::Format {
            expected,
            found: format!("magic {:02x?}", buf.get(0..4).unwrap_or_default()),
        });
    }
    let corrupt = |m: String| StorageError::Corrupt(format!("segment manifest: {m}"));
    let short = || corrupt("truncated header".to_string());
    let version = codec::le_u32(buf, 4).ok_or_else(short)?;
    if version != MANIFEST_VERSION {
        return Err(StorageError::Format {
            expected,
            found: format!("manifest version {version}"),
        });
    }
    let next_segment_id = codec::le_u64(buf, 8).ok_or_else(short)?;
    let next_tid = codec::le_u64(buf, 16).ok_or_else(short)?;
    let n_segments = codec::le_u32(buf, 24).ok_or_else(short)?;
    let n_domains = codec::le_u32(buf, 28).ok_or_else(short)?;
    let catalog_len = codec::le_u32(buf, 32).ok_or_else(short)?;
    if n_segments > MAX_COUNT || n_domains > MAX_COUNT || catalog_len > MAX_COUNT {
        return Err(corrupt(format!(
            "implausible counts ({n_segments} segments, {n_domains} domains, \
             {catalog_len}-byte catalog)"
        )));
    }
    let need =
        MANIFEST_HEADER + n_segments as usize * 24 + n_domains as usize * 16 + catalog_len as usize;
    if buf.len() != need {
        return Err(corrupt(format!(
            "length mismatch: counts require {need} bytes, payload has {}",
            buf.len()
        )));
    }
    let mut off = MANIFEST_HEADER;
    let mut segments = Vec::with_capacity(n_segments as usize);
    let mut prev_hi: Option<u64> = None;
    for _ in 0..n_segments {
        let id = codec::le_u64(buf, off).ok_or_else(short)?;
        let lo_tid = codec::le_u64(buf, off + 8).ok_or_else(short)?;
        let hi_tid = codec::le_u64(buf, off + 16).ok_or_else(short)?;
        off += 24;
        if lo_tid > hi_tid {
            return Err(corrupt(format!(
                "segment {id} has inverted tid range [{lo_tid}, {hi_tid}]"
            )));
        }
        if id >= next_segment_id {
            return Err(corrupt(format!(
                "segment id {id} not below watermark {next_segment_id}"
            )));
        }
        if let Some(prev) = prev_hi {
            if lo_tid <= prev {
                return Err(corrupt(format!(
                    "segment {id} range [{lo_tid}, {hi_tid}] overlaps predecessor (hi {prev})"
                )));
            }
        }
        prev_hi = Some(hi_tid);
        segments.push(SegmentMeta { id, lo_tid, hi_tid });
    }
    off += n_domains as usize * 16; // an older store's domain pins
    let catalog = buf
        .get(off..off + catalog_len as usize)
        .map(<[u8]>::to_vec)
        .ok_or_else(|| corrupt("catalog out of bounds".to_string()))?;
    Ok(Manifest {
        next_segment_id,
        next_tid,
        segments,
        catalog,
    })
}

/// Atomically replace the manifest at `path`, charging the written bytes
/// to `io`.
pub fn write_manifest(vfs: &dyn Vfs, path: &Path, m: &Manifest, io: &IoStats) -> Result<()> {
    let payload = encode_manifest(m);
    io.record_disk_write(payload.len() as u64);
    write_commit_record(vfs, path, &payload)
}

/// Read and decode the manifest at `path`, charging the read bytes to
/// `io`. A missing manifest surfaces as [`StorageError::Format`]
/// mentioning "missing commit record".
pub fn read_manifest(vfs: &dyn Vfs, path: &Path, io: &IoStats) -> Result<Manifest> {
    let payload = read_commit_record(vfs, path)?;
    io.record_disk_read(payload.len() as u64, true);
    decode_manifest(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use std::sync::Arc;

    fn sample() -> Manifest {
        Manifest {
            next_segment_id: 7,
            next_tid: 420,
            segments: vec![
                SegmentMeta {
                    id: 2,
                    lo_tid: 0,
                    hi_tid: 99,
                },
                SegmentMeta {
                    id: 5,
                    lo_tid: 100,
                    hi_tid: 311,
                },
            ],
            catalog: b"opaque-catalog-bytes".to_vec(),
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let bytes = encode_manifest(&m);
        assert_eq!(decode_manifest(&bytes).unwrap(), m);
    }

    #[test]
    fn roundtrip_via_commit_record() {
        let vfs = Arc::new(MemVfs::new());
        let io = IoStats::new();
        let path = Path::new("dir/MANIFEST");
        let m = sample();
        write_manifest(vfs.as_ref(), path, &m, &io).unwrap();
        let back = read_manifest(vfs.as_ref(), path, &io).unwrap();
        assert_eq!(back, m);
        assert!(io.snapshot().bytes_written > 0);
        assert!(io.snapshot().bytes_read() > 0);
    }

    /// `bytes` with its domain count set to `n` and `entries` 16-byte
    /// domain entries spliced in before the catalog — the shape of a
    /// manifest that pinned numeric domains.
    fn with_domains(bytes: &[u8], n: u32, entries: usize) -> Vec<u8> {
        let at = MANIFEST_HEADER + sample().segments.len() * 24;
        let mut out = bytes[..at].to_vec();
        out[28..32].copy_from_slice(&n.to_le_bytes());
        for d in 0..entries {
            out.extend_from_slice(&(-3.5 * d as f64).to_le_bytes());
            out.extend_from_slice(&f64::NEG_INFINITY.to_le_bytes());
        }
        out.extend_from_slice(&bytes[at..]);
        out
    }

    #[test]
    fn domain_pins_of_an_older_store_are_skipped() {
        let m = sample();
        let bytes = encode_manifest(&m);
        assert_eq!(codec::le_u32(&bytes, 28), Some(0), "a domain was written");
        for n in [1, 2, 5] {
            let old = with_domains(&bytes, n, n as usize);
            assert_eq!(decode_manifest(&old).unwrap(), m, "{n} domains");
        }
        // Malformed counts stay errors: past the cap, or not backed by
        // exactly that many entries.
        assert!(decode_manifest(&with_domains(&bytes, MAX_COUNT + 1, 0)).is_err());
        assert!(decode_manifest(&with_domains(&bytes, 2, 1)).is_err());
        assert!(decode_manifest(&with_domains(&bytes, 2, 3)).is_err());
        assert!(decode_manifest(&with_domains(&bytes, 0, 1)).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        let bytes = encode_manifest(&sample());
        for len in 0..bytes.len() {
            assert!(
                decode_manifest(&bytes[..len]).is_err(),
                "{len}-byte prefix decoded"
            );
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let bytes = encode_manifest(&sample());
        let m = sample();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                // A flip must either decode to *some* valid manifest
                // (flips inside catalog bytes are data, not structure) or
                // error out — decoding itself never panics.
                if let Ok(got) = decode_manifest(&flipped) {
                    assert_ne!(got, m, "flip {byte}:{bit} was a no-op");
                }
            }
        }
    }

    #[test]
    fn rejects_overlapping_ranges() {
        let mut m = sample();
        m.segments[1].lo_tid = 50;
        let bytes = encode_manifest(&m);
        assert!(decode_manifest(&bytes).is_err());
    }

    #[test]
    fn rejects_id_above_watermark() {
        let mut m = sample();
        m.segments[1].id = 7;
        let bytes = encode_manifest(&m);
        assert!(decode_manifest(&bytes).is_err());
    }
}

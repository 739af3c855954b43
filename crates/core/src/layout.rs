//! lint:scope(panic-reachability)
//! On-disk layout of the iVA-file.
//!
//! One paged file holds everything (Fig. 5): page 0 is the header; the
//! attribute list, the tuple list and one vector list per attribute are
//! chained page lists located by [`ListHandle`]s. After a (re)build all
//! lists are physically contiguous; updates append pages at the file tail.
//!
//! The attribute-list element extends the paper's
//! `<ptr1, ptr2, df, str, α>` with the numeric domain `[min, max]` (needed
//! to decode relative-domain codes — the paper does not say where these
//! live), the chosen list type, an element count (drives lazy positional
//! padding on inserts), the text/numeric kind, and the list's logical
//! length (the byte size of its Type I–IV elements, which its frames
//! compress).

use iva_storage::codec::{le_u32, le_u64};
use iva_storage::ListHandle;

use crate::config::IvaConfig;
use crate::error::{IvaError, Result};
use crate::veclist::ListType;

/// Tombstone marker in a tuple-list `ptr` (Sec. IV-B: "rewrite the ptr in
/// the element with a special value to mark the deletion").
pub const TOMBSTONE_PTR: u64 = u64::MAX;

/// Size of one tuple-list element: `<tid: u32, ptr: u64>`.
pub const TUPLE_ENTRY_LEN: usize = 12;

/// One attribute-list element.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrEntry {
    /// The attribute's vector list (`ptr1` = head, `ptr2` = tail): its
    /// packed frames (see the `packed` module), and nothing else.
    pub vlist: ListHandle,
    /// Tuples with a defined value (`df`).
    pub df: u64,
    /// Total strings on the attribute (`str`; 0 for numeric).
    pub str_count: u64,
    /// Elements present in the vector list. For positional types this is
    /// the number of tuple-list positions covered; keyed types count
    /// elements.
    pub elem_count: u64,
    /// Chosen organization (Type I–IV).
    pub list_type: ListType,
    /// True for text attributes.
    pub is_text: bool,
    /// Relative vector length `α` used for this attribute's vectors.
    pub alpha: f64,
    /// Numeric relative domain minimum (`+inf` when empty; unused for text).
    pub min: f64,
    /// Numeric relative domain maximum (`-inf` when empty; unused for text).
    pub max: f64,
    /// The list's *logical length*: the bytes its elements take in the
    /// Type I–IV element layout of Sec. III-D, which its frames compress.
    /// The frames must decode to exactly this many bytes — a reader holds
    /// them to it — and `logical_len / vlist.len` is the list's
    /// compression ratio. It lives here, not in the list, so an insert
    /// that appends a tail frame rewrites the entry it rewrites anyway and
    /// no page of the list but its tail.
    pub logical_len: u64,
}

impl AttrEntry {
    /// Fixed encoded size of an entry.
    pub const ENCODED_LEN: usize = 24 + 8 * 3 + 1 + 1 + 8 * 3 + 8;

    /// A fresh entry for an attribute with no data yet: a list of no
    /// frames.
    pub fn empty(vlist: ListHandle, is_text: bool, alpha: f64) -> Self {
        Self {
            vlist,
            df: 0,
            str_count: 0,
            elem_count: 0,
            list_type: if is_text { ListType::II } else { ListType::I },
            is_text,
            alpha,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            logical_len: 0,
        }
    }

    /// Serialize into exactly [`AttrEntry::ENCODED_LEN`] bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        self.vlist.encode(out);
        out.extend_from_slice(&self.df.to_le_bytes());
        out.extend_from_slice(&self.str_count.to_le_bytes());
        out.extend_from_slice(&self.elem_count.to_le_bytes());
        out.push(self.list_type.code());
        out.push(u8::from(self.is_text));
        out.extend_from_slice(&self.alpha.to_bits().to_le_bytes());
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max.to_bits().to_le_bytes());
        out.extend_from_slice(&self.logical_len.to_le_bytes());
        debug_assert_eq!(out.len() - start, Self::ENCODED_LEN);
    }

    /// Deserialize from [`AttrEntry::ENCODED_LEN`] bytes.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let short = || IvaError::Corrupt("short attribute entry".into());
        let vlist = ListHandle::decode(buf.get(0..24).ok_or_else(short)?)?;
        let u = |o: usize| le_u64(buf, o).ok_or_else(short);
        let flags = *buf.get(49).ok_or_else(short)?;
        if flags > 1 {
            return Err(IvaError::Corrupt(format!("bad attr flags byte {flags}")));
        }
        Ok(Self {
            vlist,
            df: u(24)?,
            str_count: u(32)?,
            elem_count: u(40)?,
            list_type: ListType::from_code(*buf.get(48).ok_or_else(short)?)?,
            is_text: flags == 1,
            alpha: f64::from_bits(u(50)?),
            min: f64::from_bits(u(58)?),
            max: f64::from_bits(u(66)?),
            logical_len: u(74)?,
        })
    }
}

const MAGIC: u32 = 0x6956_4146; // "iVAF"
/// The format version this build writes and reads: every vector list and
/// the tuple directory are packed frames, and each list's logical length
/// is in its catalog entry. An index of any other version is stale: it
/// does not load, and [`crate::IndexedTable`] rebuilds it from the table.
pub const INDEX_VERSION: u32 = 8;

/// The index header stored in page 0.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexHeader {
    /// On-disk format version ([`INDEX_VERSION`]).
    pub version: u32,
    /// Index configuration.
    pub config: IvaConfig,
    /// Number of attributes (attribute-list elements).
    pub n_attrs: u32,
    /// Tuple-list element count (including tombstones).
    pub n_tuples: u64,
    /// Tombstoned tuple-list elements.
    pub n_deleted: u64,
    /// Location of the attribute list.
    pub attr_list: ListHandle,
    /// Location of the tuple list: framed delta/bit-packed elements with
    /// per-frame liveness bitmaps (see the `dirlist` module).
    pub tuple_list: ListHandle,
    /// Table-file logical length this index was last committed against.
    /// An index whose watermark disagrees with the table it is opened
    /// with was not committed after the table's last flush and must be
    /// rebuilt.
    pub table_watermark: u64,
    /// Set (and synced) before the first in-place mutation of an update
    /// epoch, cleared by a commit. A dirty flag found at open time means
    /// the index may hold partially applied updates.
    pub dirty: bool,
}

impl IndexHeader {
    /// Serialize into a page-0 prefix.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.config.alpha.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.config.n as u32).to_le_bytes());
        out.extend_from_slice(&self.config.ndf_penalty.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.config.numeric_width as u32).to_le_bytes());
        out.extend_from_slice(&self.n_attrs.to_le_bytes());
        out.extend_from_slice(&self.n_tuples.to_le_bytes());
        out.extend_from_slice(&self.n_deleted.to_le_bytes());
        self.attr_list.encode(&mut out);
        self.tuple_list.encode(&mut out);
        out.extend_from_slice(&self.table_watermark.to_le_bytes());
        out.push(u8::from(self.dirty));
        out
    }

    /// Deserialize from a page-0 prefix.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let short = || IvaError::Corrupt("short index header".into());
        let u64at = |o: usize| le_u64(buf, o).ok_or_else(short);
        let u32at = |o: usize| le_u32(buf, o).ok_or_else(short);
        if u32at(0)? != MAGIC {
            return Err(IvaError::Corrupt("bad index magic".into()));
        }
        let version = u32at(4)?;
        if version != INDEX_VERSION {
            return Err(IvaError::Corrupt(format!(
                "unsupported index version {version}"
            )));
        }
        let config = IvaConfig {
            alpha: f64::from_bits(u64at(8)?),
            n: u32at(16)? as usize,
            ndf_penalty: f64::from_bits(u64at(20)?),
            numeric_width: u32at(28)? as usize,
            // Inert fields, not part of the persistent format.
            search_threads: 0,
            compress_lists: true,
            hot_tier_bytes: 0,
        };
        Ok(Self {
            version,
            config,
            n_attrs: u32at(32)?,
            n_tuples: u64at(36)?,
            n_deleted: u64at(44)?,
            attr_list: ListHandle::decode(buf.get(52..76).ok_or_else(short)?)?,
            tuple_list: ListHandle::decode(buf.get(76..100).ok_or_else(short)?)?,
            table_watermark: u64at(100)?,
            dirty: *buf.get(108).ok_or_else(short)? != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iva_storage::PageId;

    fn handle(a: u64, b: u64, l: u64) -> ListHandle {
        ListHandle {
            head: PageId(a),
            tail: PageId(b),
            len: l,
        }
    }

    fn header() -> IndexHeader {
        IndexHeader {
            version: INDEX_VERSION,
            config: IvaConfig::default(),
            n_attrs: 0,
            n_tuples: 0,
            n_deleted: 0,
            attr_list: handle(1, 1, 0),
            tuple_list: handle(2, 2, 0),
            table_watermark: 0,
            dirty: false,
        }
    }

    #[test]
    fn attr_entry_roundtrip() {
        let e = AttrEntry {
            vlist: handle(3, 9, 640),
            df: 42,
            str_count: 77,
            elem_count: 42,
            list_type: ListType::III,
            is_text: true,
            alpha: 0.2,
            min: -1.5,
            max: 99.0,
            logical_len: 2500,
        };
        let mut buf = Vec::new();
        e.encode(&mut buf);
        assert_eq!(buf.len(), AttrEntry::ENCODED_LEN);
        assert_eq!(AttrEntry::decode(&buf).unwrap(), e);
        assert!(AttrEntry::decode(&buf[..10]).is_err());
        assert!(AttrEntry::decode(&buf[..AttrEntry::ENCODED_LEN - 1]).is_err());
        // Undefined flag bits are corruption, not silently ignored.
        let mut bad = buf.clone();
        bad[49] |= 2;
        assert!(AttrEntry::decode(&bad).is_err());
    }

    #[test]
    fn empty_entry_defaults() {
        let e = AttrEntry::empty(handle(1, 1, 0), false, 0.25);
        assert_eq!(e.list_type, ListType::I);
        assert_eq!(e.logical_len, 0);
        assert!(!e.is_text);
        assert!(e.min > e.max); // empty domain
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let back = AttrEntry::decode(&buf).unwrap();
        assert!(back.min.is_infinite() && back.min > 0.0);
    }

    #[test]
    fn header_roundtrip() {
        let h = IndexHeader {
            config: IvaConfig {
                alpha: 0.15,
                n: 3,
                ndf_penalty: 25.0,
                ..Default::default()
            },
            n_attrs: 1147,
            n_tuples: 779_019,
            n_deleted: 3,
            attr_list: handle(1, 2, 100),
            tuple_list: handle(3, 4, 200),
            table_watermark: 0xDEAD_BEEF_u64,
            dirty: true,
            ..header()
        };
        let buf = h.encode();
        assert_eq!(IndexHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn inert_fields_are_not_persisted() {
        let mut h = IndexHeader {
            config: IvaConfig {
                search_threads: 7,
                compress_lists: false,
                hot_tier_bytes: 1 << 20,
                ..Default::default()
            },
            ..header()
        };
        let back = IndexHeader::decode(&h.encode()).unwrap();
        assert_eq!(back.config.search_threads, 0);
        assert!(back.config.compress_lists);
        assert_eq!(back.config.hot_tier_bytes, 0);
        h.config.search_threads = 0;
        h.config.compress_lists = true;
        h.config.hot_tier_bytes = 0;
        assert_eq!(back, h);
    }

    /// Every version but [`INDEX_VERSION`] is refused — older layouts and
    /// unknown newer ones alike — which prompts a rebuild.
    #[test]
    fn header_rejects_bad_magic_and_other_versions() {
        let mut buf = header().encode();
        buf[0] ^= 0xFF;
        assert!(IndexHeader::decode(&buf).is_err());
        assert!(IndexHeader::decode(&buf[..20]).is_err());
        for version in [1u32, 2, 7, INDEX_VERSION + 1] {
            let mut old = header().encode();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(
                IndexHeader::decode(&old).is_err_and(|e| e.is_corruption()),
                "v{version}"
            );
        }
    }
}

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
//! padding on inserts), and the text/numeric kind.

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

/// Per-list encoding tag: how a vector list's data bytes are laid out.
///
/// Versioned per attribute (bit 1 of the v3 [`AttrEntry`] flags byte) so
/// an index can mix encodings: lists built uncompressed, lists built
/// packed, and packed lists that grew raw tail frames through later
/// inserts all open with the same reader dispatch. v2 indexes carry no
/// tag and decode as all-[`ListEncoding::Raw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListEncoding {
    /// The legacy element layout of Types I–IV, byte-for-byte.
    Raw,
    /// The framed compressed layout: delta/bit-packed tuple-id runs,
    /// dictionary-coded signatures, and ndf run-length frames (see the
    /// `packed` module).
    Packed,
}

impl ListEncoding {
    /// On-disk tag byte.
    pub fn code(self) -> u8 {
        match self {
            ListEncoding::Raw => 0,
            ListEncoding::Packed => 1,
        }
    }

    /// Decode a tag byte; unknown tags are corruption, not a panic.
    pub fn from_code(code: u8) -> Result<Self> {
        match code {
            0 => Ok(ListEncoding::Raw),
            1 => Ok(ListEncoding::Packed),
            other => Err(IvaError::Corrupt(format!("bad list encoding tag {other}"))),
        }
    }
}

/// One attribute-list element.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrEntry {
    /// The attribute's vector list (`ptr1` = head, `ptr2` = tail).
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
    /// Encoding of the vector list's data bytes (v3; v2 decodes as Raw).
    pub encoding: ListEncoding,
    /// Raw-layout byte size of the list content: what `vlist.len` would be
    /// had the list been stored uncompressed. Equals `vlist.len` for Raw
    /// lists; the compression ratio of a Packed list is
    /// `logical_len / vlist.len`. Drives the per-query logical-bytes
    /// accounting.
    ///
    /// In-memory only: a Raw entry's logical length *is* `vlist.len`, and
    /// a Packed list self-describes via its 8-byte prologue (see the
    /// `packed` module), so the catalog entry persists neither —
    /// [`AttrEntry::decode`] leaves a Packed entry's field 0 for the index
    /// loader to fill from the prologue. Keeping it off disk keeps the v3
    /// entry exactly v2-sized, so the tag costs no catalog pages.
    pub logical_len: u64,
}

impl AttrEntry {
    /// Fixed encoded size of a v2 entry (flags byte holds only `is_text`).
    pub const ENCODED_LEN_V2: usize = 24 + 8 * 3 + 1 + 1 + 8 * 3;

    /// Fixed encoded size of a v3 entry: identical to v2 — the encoding
    /// tag rides in bit 1 of the flags byte.
    pub const ENCODED_LEN_V3: usize = Self::ENCODED_LEN_V2;

    /// Encoded size of one entry in an index of the given format version.
    pub fn encoded_len(version: u32) -> usize {
        if version >= 3 {
            Self::ENCODED_LEN_V3
        } else {
            Self::ENCODED_LEN_V2
        }
    }

    /// A fresh entry for an attribute with no data yet.
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
            encoding: ListEncoding::Raw,
            logical_len: 0,
        }
    }

    /// Serialize into exactly [`AttrEntry::encoded_len`]`(version)` bytes.
    /// A v2 target cannot represent a packed list — by construction v2
    /// indexes only ever hold Raw entries.
    pub fn encode(&self, version: u32, out: &mut Vec<u8>) {
        let start = out.len();
        self.vlist.encode(out);
        out.extend_from_slice(&self.df.to_le_bytes());
        out.extend_from_slice(&self.str_count.to_le_bytes());
        out.extend_from_slice(&self.elem_count.to_le_bytes());
        out.push(self.list_type.code());
        if version >= 3 {
            out.push(u8::from(self.is_text) | (self.encoding.code() << 1));
        } else {
            debug_assert_eq!(self.encoding, ListEncoding::Raw);
            out.push(u8::from(self.is_text));
        }
        out.extend_from_slice(&self.alpha.to_bits().to_le_bytes());
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max.to_bits().to_le_bytes());
        debug_assert_eq!(out.len() - start, Self::encoded_len(version));
    }

    /// Deserialize from [`AttrEntry::encoded_len`]`(version)` bytes. A
    /// Packed entry comes back with `logical_len` 0; the loader fills it
    /// from the list prologue.
    pub fn decode(buf: &[u8], version: u32) -> Result<Self> {
        let short = || IvaError::Corrupt("short attribute entry".into());
        let vlist = ListHandle::decode(buf.get(0..24).ok_or_else(short)?)?;
        let u = |o: usize| le_u64(buf, o).ok_or_else(short);
        let flags = *buf.get(49).ok_or_else(short)?;
        let (is_text, encoding) = if version >= 3 {
            if flags > 3 {
                return Err(IvaError::Corrupt(format!("bad attr flags byte {flags}")));
            }
            (flags & 1 != 0, ListEncoding::from_code(flags >> 1)?)
        } else {
            // v2 flags hold only `is_text`; v2 lists are always raw.
            (flags != 0, ListEncoding::Raw)
        };
        let logical_len = match encoding {
            // A raw list's stored bytes *are* its logical bytes.
            ListEncoding::Raw => vlist.len,
            ListEncoding::Packed => 0,
        };
        Ok(Self {
            vlist,
            df: u(24)?,
            str_count: u(32)?,
            elem_count: u(40)?,
            list_type: ListType::from_code(*buf.get(48).ok_or_else(short)?)?,
            is_text,
            alpha: f64::from_bits(u(50)?),
            min: f64::from_bits(u(58)?),
            max: f64::from_bits(u(66)?),
            encoding,
            logical_len,
        })
    }
}

const MAGIC: u32 = 0x6956_4146; // "iVAF"
/// Oldest format version this build still opens (all-raw lists, 74-byte
/// attribute entries).
pub const INDEX_VERSION_V2: u32 = 2;
/// Per-list encoding tags in the attribute-entry flags byte; packed
/// vector lists carry a logical-length prologue. The tuple directory is
/// still the raw element stream.
pub const INDEX_VERSION_V3: u32 = 3;
/// v3 plus a header tag for the tuple directory's encoding — a packed
/// directory stores framed delta/bit-packed elements with per-frame
/// liveness bitmaps (see the `dirlist` module). v2/v3 indexes decode as a
/// Raw directory.
pub const INDEX_VERSION_V4: u32 = 4;
/// v4 with dictionary-coded packed text lists (see the `packed` module).
pub const INDEX_VERSION_V5: u32 = 5;
/// v5 whose dense packed text lists' dictionaries also hold their strings
/// and per-string value counts (see the `packed` module).
pub const INDEX_VERSION_V6: u32 = 6;
/// Current format version: v6 whose Type III lists coded by strings also
/// hold each string's positions (see the `packed` module). A v2–v6 index
/// holding a packed text list is stale: it does not load, and
/// [`crate::IndexedTable`] rebuilds it from the table.
pub const INDEX_VERSION: u32 = 7;

/// The index header stored in page 0.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexHeader {
    /// On-disk format version this index was written with. Opened v2
    /// indexes keep reporting (and re-writing) v2 — their attribute list
    /// was laid out with v2-sized entries and must stay self-consistent
    /// through in-place updates; new builds write [`INDEX_VERSION`].
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
    /// Location of the tuple list.
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
    /// Encoding of the tuple directory (v4; older versions decode as
    /// Raw). Raw is the legacy 12-byte element stream; Packed is the
    /// framed delta/bit-packed layout of the `dirlist` module.
    pub dir_encoding: ListEncoding,
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
        out.push(self.dir_encoding.code());
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
        if !(INDEX_VERSION_V2..=INDEX_VERSION).contains(&version) {
            return Err(IvaError::Corrupt(format!(
                "unsupported index version {version}"
            )));
        }
        let config = IvaConfig {
            alpha: f64::from_bits(u64at(8)?),
            n: u32at(16)? as usize,
            ndf_penalty: f64::from_bits(u64at(20)?),
            numeric_width: u32at(28)? as usize,
            // Runtime knobs, not part of the persistent format.
            search_threads: 0,
            compress_lists: true,
            hot_tier_bytes: 0,
        };
        let n_attrs = u32at(32)?;
        let n_tuples = u64at(36)?;
        let n_deleted = u64at(44)?;
        let attr_list = ListHandle::decode(buf.get(52..76).ok_or_else(short)?)?;
        let tuple_list = ListHandle::decode(buf.get(76..100).ok_or_else(short)?)?;
        let table_watermark = u64at(100)?;
        let dirty = *buf.get(108).ok_or_else(short)? != 0;
        // v2/v3 never packed the directory; their byte 109 is page
        // padding and must not be interpreted.
        let dir_encoding = if version >= 4 {
            ListEncoding::from_code(*buf.get(109).ok_or_else(short)?)?
        } else {
            ListEncoding::Raw
        };
        Ok(Self {
            version,
            config,
            n_attrs,
            n_tuples,
            n_deleted,
            attr_list,
            tuple_list,
            table_watermark,
            dirty,
            dir_encoding,
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

    #[test]
    fn attr_entry_roundtrip() {
        let e = AttrEntry {
            vlist: handle(3, 9, 1000),
            df: 42,
            str_count: 77,
            elem_count: 42,
            list_type: ListType::III,
            is_text: true,
            alpha: 0.2,
            min: -1.5,
            max: 99.0,
            encoding: ListEncoding::Raw,
            logical_len: 1000,
        };
        let mut buf = Vec::new();
        e.encode(INDEX_VERSION, &mut buf);
        assert_eq!(buf.len(), AttrEntry::ENCODED_LEN_V3);
        assert_eq!(AttrEntry::decode(&buf, INDEX_VERSION).unwrap(), e);
        assert!(AttrEntry::decode(&buf[..10], INDEX_VERSION).is_err());
    }

    #[test]
    fn packed_entry_roundtrip_defers_logical_len() {
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
            encoding: ListEncoding::Packed,
            logical_len: 2500,
        };
        let mut buf = Vec::new();
        e.encode(INDEX_VERSION, &mut buf);
        // The tag costs no bytes: v3 entries are exactly v2-sized.
        assert_eq!(buf.len(), AttrEntry::ENCODED_LEN_V2);
        let back = AttrEntry::decode(&buf, INDEX_VERSION).unwrap();
        assert_eq!(back.encoding, ListEncoding::Packed);
        assert!(back.is_text);
        // The logical length lives in the list prologue, not the catalog.
        assert_eq!(back.logical_len, 0);
        assert_eq!(
            AttrEntry {
                logical_len: 0,
                ..e
            },
            back
        );
        // Undefined flag bits are corruption, not silently ignored.
        let mut bad = buf.clone();
        bad[49] |= 4;
        assert!(AttrEntry::decode(&bad, INDEX_VERSION).is_err());
    }

    #[test]
    fn v2_entries_decode_as_raw() {
        let e = AttrEntry {
            vlist: handle(3, 9, 1000),
            df: 42,
            str_count: 77,
            elem_count: 42,
            list_type: ListType::II,
            is_text: true,
            alpha: 0.2,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            encoding: ListEncoding::Raw,
            logical_len: 1000,
        };
        let mut buf = Vec::new();
        e.encode(INDEX_VERSION_V2, &mut buf);
        assert_eq!(buf.len(), AttrEntry::ENCODED_LEN_V2);
        let back = AttrEntry::decode(&buf, INDEX_VERSION_V2).unwrap();
        assert_eq!(back.encoding, ListEncoding::Raw);
        // A raw v2 list's logical size is its stored size.
        assert_eq!(back.logical_len, back.vlist.len);
        assert_eq!(back, e);
    }

    #[test]
    fn encoding_tag_roundtrip_and_corruption() {
        for enc in [ListEncoding::Raw, ListEncoding::Packed] {
            assert_eq!(ListEncoding::from_code(enc.code()).unwrap(), enc);
        }
        assert!(matches!(
            ListEncoding::from_code(7),
            Err(IvaError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_entry_defaults() {
        let e = AttrEntry::empty(handle(1, 1, 0), false, 0.25);
        assert_eq!(e.list_type, ListType::I);
        assert_eq!(e.encoding, ListEncoding::Raw);
        assert!(!e.is_text);
        assert!(e.min > e.max); // empty domain
        let mut buf = Vec::new();
        e.encode(INDEX_VERSION, &mut buf);
        let back = AttrEntry::decode(&buf, INDEX_VERSION).unwrap();
        assert!(back.min.is_infinite() && back.min > 0.0);
    }

    #[test]
    fn header_roundtrip() {
        let h = IndexHeader {
            version: INDEX_VERSION,
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
            dir_encoding: ListEncoding::Packed,
        };
        let buf = h.encode();
        assert_eq!(IndexHeader::decode(&buf).unwrap(), h);
    }

    #[test]
    fn v3_headers_decode_raw_directory() {
        let h = IndexHeader {
            version: INDEX_VERSION_V3,
            config: IvaConfig::default(),
            n_attrs: 4,
            n_tuples: 100,
            n_deleted: 1,
            attr_list: handle(1, 2, 4 * AttrEntry::ENCODED_LEN_V3 as u64),
            tuple_list: handle(3, 4, 1200),
            table_watermark: 9,
            dirty: false,
            dir_encoding: ListEncoding::Raw,
        };
        let mut buf = h.encode();
        // Even if the trailing byte claims Packed, a v3 header must come
        // back Raw — the byte is page padding for that version.
        if let Some(b) = buf.get_mut(109) {
            *b = ListEncoding::Packed.code();
        }
        let back = IndexHeader::decode(&buf).unwrap();
        assert_eq!(back.version, INDEX_VERSION_V3);
        assert_eq!(back.dir_encoding, ListEncoding::Raw);
    }

    #[test]
    fn bad_dir_encoding_tag_is_corruption() {
        let h = IndexHeader {
            version: INDEX_VERSION,
            config: IvaConfig::default(),
            n_attrs: 0,
            n_tuples: 0,
            n_deleted: 0,
            attr_list: handle(1, 1, 0),
            tuple_list: handle(2, 2, 0),
            table_watermark: 0,
            dirty: false,
            dir_encoding: ListEncoding::Raw,
        };
        let mut buf = h.encode();
        buf[109] = 9;
        assert!(IndexHeader::decode(&buf).is_err());
    }

    #[test]
    fn search_threads_is_runtime_only() {
        let mut h = IndexHeader {
            version: INDEX_VERSION,
            config: IvaConfig {
                search_threads: 7,
                compress_lists: false,
                hot_tier_bytes: 1 << 20,
                ..Default::default()
            },
            n_attrs: 1,
            n_tuples: 10,
            n_deleted: 0,
            attr_list: handle(1, 2, 100),
            tuple_list: handle(3, 4, 200),
            table_watermark: 77,
            dirty: false,
            dir_encoding: ListEncoding::Raw,
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

    #[test]
    fn v2_headers_still_open() {
        let h = IndexHeader {
            version: INDEX_VERSION_V2,
            config: IvaConfig::default(),
            n_attrs: 4,
            n_tuples: 100,
            n_deleted: 1,
            attr_list: handle(1, 2, 4 * AttrEntry::ENCODED_LEN_V2 as u64),
            tuple_list: handle(3, 4, 1200),
            table_watermark: 9,
            dirty: false,
            dir_encoding: ListEncoding::Raw,
        };
        let back = IndexHeader::decode(&h.encode()).unwrap();
        assert_eq!(back.version, INDEX_VERSION_V2);
        assert_eq!(back, h);
    }

    #[test]
    fn header_rejects_bad_magic() {
        let h = IndexHeader {
            version: INDEX_VERSION,
            config: IvaConfig::default(),
            n_attrs: 0,
            n_tuples: 0,
            n_deleted: 0,
            attr_list: handle(1, 1, 0),
            tuple_list: handle(2, 2, 0),
            table_watermark: 0,
            dirty: false,
            dir_encoding: ListEncoding::Raw,
        };
        let mut buf = h.encode();
        buf[0] ^= 0xFF;
        assert!(IndexHeader::decode(&buf).is_err());
        assert!(IndexHeader::decode(&buf[..20]).is_err());
        // Old-format (v1) headers are rejected, prompting a rebuild.
        let mut v1 = h.encode();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(IndexHeader::decode(&v1).is_err());
    }
}

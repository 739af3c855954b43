//! lint:scope(panic-reachability)
//!
//! Logical import/export of an iVA-file — the index-side half of the
//! CIFF-style interchange (`iva-baselines::ciff` owns the byte format).
//!
//! [`export_index`] decodes an index back into its *logical* content:
//! the tuple list plus, per attribute, a postings list of
//! `(tid, payload)` pairs — nG-signature blobs for text, quantized codes
//! for numbers. It is the scan's own walk with a collecting visitor
//! ([`crate::veclist`]), so the physical organization (Type I–IV layout,
//! packed frames, lazy positional tails) is erased by the one
//! reader that knows it, and what is exported is exactly what a query can
//! see.
//!
//! [`import_index`] rebuilds a canonical index from that content alone —
//! no table scan, no re-encoding of values: it validates the foreign
//! postings and hands them to the builder's own writer
//! (`build::write_index`), which re-derives each list's frames exactly
//! as a fresh build would. Round-tripping therefore reproduces
//! bit-identical query answers: the postings carry the exact vectors the
//! original index filtered with.
//!
//! Like CIFF's postings, the content carries no liveness (the table keeps
//! the tombstones); an import refuses an element marked dead
//! ([`TOMBSTONE_PTR`]) rather than list it as live.
//!
//! Everything here handles data that crossed a trust boundary (a list
//! image off disk, postings from a foreign CIFF file), so malformed
//! input must surface [`IvaError::Corrupt`], never a panic.

use iva_storage::{IoStats, PagerOptions};
use iva_swt::AttrId;

use crate::build::{write_index, IndexTarget};
use crate::config::IvaConfig;
use crate::error::{IvaError, Result};
use crate::index::{IvaIndex, TupleColumn};
use crate::layout::TOMBSTONE_PTR;
use crate::numeric::NumericCodec;
use crate::veclist::ListType;

/// One attribute's logical content: a postings list in the CIFF sense,
/// except that each posting carries the attribute's approximation
/// payload instead of a term frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedAttr {
    /// True for text attributes.
    pub is_text: bool,
    /// The organization the source index used (imports keep it).
    pub list_type: ListType,
    /// Numeric relative domain minimum (`+inf` for text/empty).
    pub min: f64,
    /// Numeric relative domain maximum (`-inf` for text/empty).
    pub max: f64,
    /// Text postings: `(tid, nG-signatures)`, strictly increasing tids.
    /// Empty for numeric attributes.
    pub text_postings: Vec<(u32, Vec<Vec<u8>>)>,
    /// Numeric postings: `(tid, quantized code)`, strictly increasing
    /// tids. Empty for text attributes.
    pub num_postings: Vec<(u32, u64)>,
}

/// The full logical content of an iVA-file.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedIndex {
    /// Index configuration (its inert fields travel as defaults).
    pub config: IvaConfig,
    /// The tuple list: `(tid, record ptr)` per element, strictly
    /// increasing tids, none marked dead.
    pub tuple_entries: Vec<(u32, u64)>,
    /// Table-file watermark the source index was committed against.
    pub table_watermark: u64,
    /// Per-attribute postings, in attribute order.
    pub attrs: Vec<ExportedAttr>,
}

fn corrupt(what: &str) -> IvaError {
    IvaError::Corrupt(format!("interchange: {what}"))
}

/// Decode `index` into its logical interchange content.
pub fn export_index(index: &IvaIndex) -> Result<ExportedIndex> {
    // The tuple list, every element the index lists: positional lists
    // align against each of them. The read surfaces packed directories as
    // the same `(tid, ptr)` stream, checked tid-ascending.
    let TupleColumn {
        tids: all_tids,
        ptrs,
    } = index.read_tuple_column()?;
    let tuple_entries = all_tids.iter().copied().zip(ptrs).collect();

    // Each vector list through the scan's own cursor: what a query can
    // see of a list is its content (see the `veclist` module doc).
    let mut attrs = Vec::with_capacity(index.n_attrs());
    for a in 0..index.n_attrs() {
        let entry = index
            .attr_entry(AttrId(a as u32))
            .ok_or_else(|| corrupt("attribute entry vanished mid-export"))?;
        let (text_postings, num_postings) = if entry.is_text {
            let cur = index.open_text_cursor(entry)?;
            (cur.postings(index.sig_codec(), &all_tids)?, Vec::new())
        } else {
            let codec = index.numeric_codec(entry);
            let cur = index.open_num_cursor(entry)?;
            (Vec::new(), cur.postings(&codec, &all_tids)?)
        };
        attrs.push(ExportedAttr {
            is_text: entry.is_text,
            list_type: entry.list_type,
            min: entry.min,
            max: entry.max,
            text_postings,
            num_postings,
        });
    }

    Ok(ExportedIndex {
        config: *index.config(),
        tuple_entries,
        table_watermark: index.table_watermark(),
        attrs,
    })
}

/// Check that `posting_tids` is strictly increasing and a subsequence of
/// `all_tids` (both sorted): the alignment invariant the positional
/// encoders rely on.
fn check_alignment<'a>(
    mut postings: impl Iterator<Item = &'a u32>,
    all_tids: &[u32],
) -> Result<()> {
    let mut all = all_tids.iter();
    let mut prev: Option<u32> = None;
    for &tid in postings.by_ref() {
        if prev.is_some_and(|p| p >= tid) {
            return Err(corrupt("posting tids out of order"));
        }
        prev = Some(tid);
        if !all.by_ref().any(|&t| t == tid) {
            return Err(corrupt("posting tid not in the tuple list"));
        }
    }
    Ok(())
}

/// Rebuild a canonical index from interchange content. Lists are
/// re-encoded exactly as a fresh [`crate::build_index`] would encode
/// them, so the
/// imported index answers queries bit-identically to the exported one.
pub fn import_index(
    target: IndexTarget<'_>,
    opts: &PagerOptions,
    io: IoStats,
    parts: &ExportedIndex,
) -> Result<IvaIndex> {
    let config = parts.config;
    config.validate().map_err(IvaError::InvalidArgument)?;
    let sig_codec = config.sig_codec();

    if parts
        .tuple_entries
        .windows(2)
        .any(|w| w.first().map(|e| e.0) >= w.last().map(|e| e.0))
    {
        return Err(corrupt("tuple list tids out of order"));
    }
    if let Some((tid, _)) = parts.tuple_entries.iter().find(|e| e.1 == TOMBSTONE_PTR) {
        let msg = format!("interchange: tuple {tid} is marked deleted; its table keeps tombstones");
        return Err(IvaError::InvalidArgument(msg));
    }
    let all_tids: Vec<u32> = parts.tuple_entries.iter().map(|(t, _)| *t).collect();

    for attr in &parts.attrs {
        if attr.is_text {
            if !matches!(attr.list_type, ListType::I | ListType::II | ListType::III) {
                return Err(corrupt("text attribute with a numeric list type"));
            }
            check_alignment(attr.text_postings.iter().map(|(t, _)| t), &all_tids)?;
            for (_, sigs) in &attr.text_postings {
                if sigs.is_empty() || sigs.len() > 255 {
                    return Err(corrupt("text posting with 0 or > 255 strings"));
                }
                for sig in sigs {
                    let expect = sig.first().map(|&b| sig_codec.encoded_len(b));
                    if expect != Some(sig.len()) {
                        return Err(corrupt("signature length disagrees with the codec"));
                    }
                }
            }
        } else {
            if !matches!(attr.list_type, ListType::I | ListType::IV) {
                return Err(corrupt("numeric attribute with a text list type"));
            }
            check_alignment(attr.num_postings.iter().map(|(t, _)| t), &all_tids)?;
            let codec = NumericCodec::new(attr.min, attr.max, config.numeric_code_bytes());
            for (_, code) in &attr.num_postings {
                if *code >= codec.ndf_code() {
                    return Err(corrupt("numeric code outside the quantized domain"));
                }
            }
        }
    }
    write_index(target, opts, io, parts, &[])
}

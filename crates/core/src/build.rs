//! Building an iVA-file from a sparse wide table.
//!
//! A (re)build scans the table once, encodes every value's approximation
//! vector, picks each attribute's cheapest vector-list organization by the
//! Sec. III-D size formulas, and writes all lists physically contiguous so
//! subsequent partial scans are sequential. Numeric attributes are
//! re-quantized on their *current* relative domain (Sec. III-C's periodic
//! renewal) — on every build: the monolith's rebuild, and for one tier of
//! a segmented store a seal, a merge or a recovery rebuild.

use std::path::Path;
use std::sync::Arc;

use iva_storage::vfs::Vfs;
use iva_storage::{write_contiguous_list, IoStats, Pager, PagerOptions};
use iva_swt::{AttrId, RecordBuf, RecordPtr, SwtTable, Value, ValueRef};

use crate::config::IvaConfig;
use crate::error::{IvaError, Result};
use crate::index::IvaIndex;
use crate::interchange::{ExportedAttr, ExportedIndex};
use crate::layout::{AttrEntry, IndexHeader, INDEX_VERSION};
use crate::numeric::NumericCodec;
use crate::packed::{encode_packed_num, encode_packed_text, strings_may_pay, TextStrings};
use crate::veclist::{choose_num_type, choose_text_type, ListType};

/// Where to put the index file.
pub enum IndexTarget<'a> {
    /// On disk at the given path.
    Disk(&'a Path),
    /// In memory (tests, property checks).
    Mem,
    /// At the given path on an explicit [`Vfs`] (fault injection, crash
    /// replay).
    Vfs(Arc<dyn Vfs>, &'a Path),
}

/// Build an iVA-file over all live tuples of `table`, each numeric
/// attribute quantised on the relative domain of the values it indexes.
pub fn build_index(
    table: &SwtTable,
    target: IndexTarget<'_>,
    opts: &PagerOptions,
    io: IoStats,
    config: IvaConfig,
) -> Result<IvaIndex> {
    config.validate().map_err(IvaError::InvalidArgument)?;
    let sig_codec = config.sig_codec();
    let n_attrs = table.catalog().len();

    // Per-attribute accumulators.
    let mut text_items: Vec<Vec<(u32, Vec<Vec<u8>>)>> = vec![Vec::new(); n_attrs];
    let mut num_items: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_attrs];
    let mut tuple_entries: Vec<(u32, u64)> = Vec::new();

    for item in table.scan() {
        let (ptr, rec) = item?;
        if rec.deleted {
            continue;
        }
        if rec.tid >= u64::from(u32::MAX) {
            return Err(IvaError::TidOverflow(rec.tid));
        }
        let tid = rec.tid as u32;
        tuple_entries.push((tid, ptr.0));
        for (attr, value) in rec.tuple.iter() {
            if attr.index() >= n_attrs {
                return Err(IvaError::Corrupt(format!(
                    "tuple {tid} references attribute {attr} beyond catalog"
                )));
            }
            match value {
                Value::Text(strings) => {
                    let sigs = strings
                        .iter()
                        .map(|s| sig_codec.encode_to_vec(s.as_bytes()))
                        .collect();
                    if let Some(acc) = text_items.get_mut(attr.index()) {
                        acc.push((tid, sigs));
                    }
                }
                Value::Num(v) => {
                    if let Some(acc) = num_items.get_mut(attr.index()) {
                        acc.push((tid, *v));
                    }
                }
            }
        }
    }

    // Choose each attribute's organization (Sec. III-D) and quantize its
    // numbers on their current relative domain; what is left is the
    // index's logical content, which one writer turns into a file.
    let n_tuples = tuple_entries.len() as u64;
    let mut attrs: Vec<ExportedAttr> = Vec::with_capacity(n_attrs);
    for (attr, def) in table.catalog().iter() {
        let i = attr.index();
        attrs.push(if def.ty == iva_swt::AttrType::Text {
            let text_postings = text_items
                .get_mut(i)
                .map(std::mem::take)
                .unwrap_or_default();
            let df = text_postings.len() as u64;
            let str_count: u64 = text_postings.iter().map(|(_, s)| s.len() as u64).sum();
            ExportedAttr {
                is_text: true,
                list_type: choose_text_type(str_count, df, n_tuples),
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                text_postings,
                num_postings: Vec::new(),
            }
        } else {
            let values = num_items.get_mut(i).map(std::mem::take).unwrap_or_default();
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (_, v)| {
                    (lo.min(*v), hi.max(*v))
                });
            let codec = NumericCodec::new(min, max, config.numeric_code_bytes());
            ExportedAttr {
                is_text: false,
                list_type: choose_num_type(
                    config.numeric_code_bytes(),
                    values.len() as u64,
                    n_tuples,
                ),
                min,
                max,
                text_postings: Vec::new(),
                num_postings: values.iter().map(|(t, v)| (*t, codec.encode(*v))).collect(),
            }
        });
    }
    // The strings of the text lists whose dictionaries might hold them.
    let wanted: Vec<bool> = attrs
        .iter()
        .map(|a| strings_may_pay(&a.text_postings))
        .collect();
    let strings = read_strings(table, &tuple_entries, &wanted)?;
    let parts = ExportedIndex {
        config,
        tuple_entries,
        // A fresh build covers exactly the table contents just scanned.
        table_watermark: table.file().data_len(),
        attrs,
    };
    write_index(target, opts, io, &parts, &strings)
}

/// Each `wanted` text attribute's strings, interned — read in place from
/// the records of `entries`, in one pass.
fn read_strings(
    table: &SwtTable,
    entries: &[(u32, u64)],
    wanted: &[bool],
) -> Result<Vec<Option<TextStrings>>> {
    let mut out: Vec<Option<TextStrings>> = wanted
        .iter()
        .map(|&w| w.then(TextStrings::default))
        .collect();
    let ids: Vec<AttrId> = (0..wanted.len() as u32)
        .map(AttrId)
        .filter(|a| wanted.get(a.index()) == Some(&true))
        .collect();
    if ids.is_empty() {
        return Ok(out);
    }
    let (mut buf, mut locs) = (RecordBuf::default(), Vec::new());
    for &(_, ptr) in entries {
        let rec = table.read(RecordPtr(ptr), &mut buf)?;
        rec.view.locate(ids.iter().copied(), &mut locs)?;
        for (a, &loc) in ids.iter().zip(&locs) {
            if let (Some(ValueRef::Text(t)), Some(Some(texts))) =
                (rec.view.value_at(loc), out.get_mut(a.index()))
            {
                t.strings().for_each(|s| texts.push(s));
            }
        }
    }
    Ok(out)
}

/// The builder's writer: lay out an index file from its logical content —
/// tuple entries plus, per attribute, postings, the chosen organization
/// and the numeric domain. Every vector list is stored as packed frames,
/// its logical length in its catalog entry, all lists written physically
/// contiguous. [`build_index`] arrives here from a table scan,
/// [`crate::import_index`] from validated interchange content;
/// `parts` is trusted to hold strictly ascending tids, postings aligned to
/// the tuple list, and list types that suit their attribute's kind.
/// `strings[a]`, where given, holds attribute `a`'s text postings'
/// strings, for its packed list's dictionary (see [`crate::packed`]).
pub(crate) fn write_index(
    target: IndexTarget<'_>,
    opts: &PagerOptions,
    io: IoStats,
    parts: &ExportedIndex,
    strings: &[Option<TextStrings>],
) -> Result<IvaIndex> {
    let config = parts.config;
    let all_tids: Vec<u32> = parts.tuple_entries.iter().map(|(t, _)| *t).collect();
    let n_tuples = all_tids.len() as u64;

    // Create the index file: page 0 reserved for the header.
    let pager = match target {
        IndexTarget::Disk(path) => Pager::create(path, opts, io)?,
        IndexTarget::Mem => Pager::create_mem(opts, io),
        IndexTarget::Vfs(vfs, path) => Pager::create_with_vfs(vfs.as_ref(), path, opts, io)?,
    };
    let header_page = pager.allocate_page()?;
    if header_page.0 != 0 {
        return Err(IvaError::Corrupt(
            "fresh pager did not hand out page 0".into(),
        ));
    }

    let mut entries: Vec<AttrEntry> = Vec::with_capacity(parts.attrs.len());
    for (a, attr) in parts.attrs.iter().enumerate() {
        let ty = attr.list_type;
        let ((logical_len, frames), df, str_count) = if attr.is_text {
            let items = &attr.text_postings;
            let texts = strings.get(a).and_then(Option::as_ref);
            let str_count = items.iter().map(|(_, s)| s.len() as u64).sum();
            let list = encode_packed_text(ty, items, texts, &all_tids);
            (list, items.len() as u64, str_count)
        } else {
            let items = &attr.num_postings;
            let codec = NumericCodec::new(attr.min, attr.max, config.numeric_code_bytes());
            let list = encode_packed_num(ty, items, &all_tids, &codec);
            (list, items.len() as u64, 0)
        };
        // Only numbers have a relative domain; a text entry's is empty.
        let (min, max) = if attr.is_text {
            (f64::INFINITY, f64::NEG_INFINITY)
        } else {
            (attr.min, attr.max)
        };
        entries.push(AttrEntry {
            vlist: write_contiguous_list(&pager, &frames)?,
            df,
            str_count,
            // Positional lists cover every tuple; Type I stores an element
            // per string (per value when numeric), Type II one per value.
            elem_count: match ty {
                ListType::III | ListType::IV => n_tuples,
                ListType::I if attr.is_text => str_count,
                ListType::I | ListType::II => df,
            },
            list_type: ty,
            is_text: attr.is_text,
            alpha: config.alpha,
            min,
            max,
            logical_len,
        });
    }

    let mut attr_bytes = Vec::with_capacity(entries.len() * AttrEntry::ENCODED_LEN);
    for e in &entries {
        e.encode(&mut attr_bytes);
    }
    let attr_list = write_contiguous_list(&pager, &attr_bytes)?;
    let tuple_bytes = crate::dirlist::encode_dir(&parts.tuple_entries);
    let tuple_list = write_contiguous_list(&pager, &tuple_bytes)?;

    let header = IndexHeader {
        version: INDEX_VERSION,
        config,
        n_attrs: entries.len() as u32,
        n_tuples,
        attr_list,
        tuple_list,
        table_watermark: parts.table_watermark,
        dirty: false,
    };
    IvaIndex::assemble(pager, header, entries)
}

//! lint:scope(panic-reachability)
//!
//! CIFF-style interchange format for the iVA-file and the SII baseline.
//!
//! Modeled on the *Common Index File Format* (PAPERS.md): a header, a
//! doc-record section, and per-term postings lists with delta-encoded,
//! varint-compressed document ids. The mapping here is: one "term" per
//! *attribute*, one "doc" per tuple-list element, and — for the iVA
//! flavor — each posting carries the attribute's approximation payload
//! (nG-signature blobs for text, quantized codes for numbers) where
//! CIFF would carry a term frequency. That payload is exactly what the
//! index filters with, so export → import reproduces bit-identical
//! top-k answers without touching the table file.
//!
//! ## Layout (all integers LEB128 varints unless noted)
//!
//! ```text
//! container := magic "IVCIFF01" (8 bytes) · flavor u8 · body
//! flavor    := 0 (SII, postings only) | 1 (iVA, postings + payloads)
//!
//! body(SII) := ndf_penalty f64LE
//!              · ndoc · doc*            doc  := tid_gap · ptr
//!              · nattr · sii_list*      sii_list := df · tid_gap*
//!
//! body(iVA) := alpha f64LE · n · ndf_penalty f64LE · numeric_width
//!              · compress u8 · table_watermark
//!              · ndoc · doc*
//!              · nattr · iva_list*
//! iva_list  := flags u8 (bit0 = is_text) · list_type u8 (1..=4)
//!              · min f64LE · max f64LE
//!              · npost · posting*
//! posting   := tid_gap · payload
//! payload   := nsig · (sig_len · sig_bytes)*     (text)
//!            | code                              (numeric)
//! ```
//!
//! `tid_gap` is the distance to the previous tid in the same sequence
//! (the first posting stores the tid itself) — CIFF's d-gap scheme.
//! An SII's tombstoned tuples keep their doc record with `ptr =
//! u64::MAX`. An iVA-file keeps no liveness (its table holds the
//! tombstones), so its export has no such record and its import refuses
//! one.
//!
//! Every byte of a CIFF container crossed a trust boundary: malformed
//! input (truncation, bad magic, overflowing varints or gaps, payloads
//! that disagree with the codec) must surface [`IvaError::Corrupt`],
//! never a panic. Structural validation of the *content* (alignment,
//! code domains, signature geometry) happens in
//! [`iva_core::import_index`].

use iva_core::{
    import_index, ExportedAttr, ExportedIndex, IndexTarget, IvaConfig, IvaError, IvaIndex,
    ListType, Result,
};
use iva_storage::{IoStats, PagerOptions};

use crate::sii::SiiIndex;

const MAGIC: &[u8; 8] = b"IVCIFF01";
const FLAVOR_SII: u8 = 0;
const FLAVOR_IVA: u8 = 1;

/// Pre-allocation cap for length-prefixed collections: trust the count
/// only up to this many elements, then grow organically.
const PREALLOC_CAP: usize = 1 << 16;

fn corrupt(what: &str) -> IvaError {
    IvaError::Corrupt(format!("ciff: {what}"))
}

// ---------------------------------------------------------------- encode

fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_f64(v: f64, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Delta-encode a strictly increasing tid sequence (first tid verbatim,
/// then gaps).
struct GapWriter {
    prev: Option<u32>,
}

impl GapWriter {
    fn new() -> Self {
        Self { prev: None }
    }

    fn put(&mut self, tid: u32, out: &mut Vec<u8>) -> Result<()> {
        let gap = match self.prev {
            None => u64::from(tid),
            Some(p) if tid > p => u64::from(tid - p),
            Some(_) => return Err(corrupt("tid sequence not strictly increasing")),
        };
        self.prev = Some(tid);
        put_varint(gap, out);
        Ok(())
    }
}

fn put_docs(docs: &[(u32, u64)], out: &mut Vec<u8>) -> Result<()> {
    put_varint(docs.len() as u64, out);
    let mut gaps = GapWriter::new();
    for (tid, ptr) in docs {
        gaps.put(*tid, out)?;
        put_varint(*ptr, out);
    }
    Ok(())
}

// ---------------------------------------------------------------- decode

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(corrupt(what));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_u8(buf: &mut &[u8], what: &str) -> Result<u8> {
    take(buf, 1, what)?
        .first()
        .copied()
        .ok_or_else(|| corrupt(what))
}

fn take_varint(buf: &mut &[u8], what: &str) -> Result<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = take_u8(buf, what)?;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return Err(corrupt("varint overflows u64"));
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(corrupt("varint longer than 10 bytes"))
}

fn take_f64(buf: &mut &[u8], what: &str) -> Result<f64> {
    let b = take(buf, 8, what)?;
    let arr: [u8; 8] = b.try_into().map_err(|_| corrupt(what))?;
    Ok(f64::from_bits(u64::from_le_bytes(arr)))
}

fn take_len(buf: &mut &[u8], what: &str) -> Result<usize> {
    let v = take_varint(buf, what)?;
    usize::try_from(v).map_err(|_| corrupt("length overflows usize"))
}

/// Delta-decode the tid sequence written by [`GapWriter`].
struct GapReader {
    prev: Option<u32>,
}

impl GapReader {
    fn new() -> Self {
        Self { prev: None }
    }

    fn take(&mut self, buf: &mut &[u8], what: &str) -> Result<u32> {
        let gap = take_varint(buf, what)?;
        let tid = match self.prev {
            None => gap,
            Some(_) if gap == 0 => {
                return Err(corrupt("zero tid gap (sequence not strictly increasing)"));
            }
            Some(p) => u64::from(p).checked_add(gap).ok_or_else(|| corrupt(what))?,
        };
        let tid = u32::try_from(tid).map_err(|_| corrupt("tid gap overflows u32"))?;
        self.prev = Some(tid);
        Ok(tid)
    }
}

fn take_docs(buf: &mut &[u8]) -> Result<Vec<(u32, u64)>> {
    let ndoc = take_len(buf, "truncated doc count")?;
    let mut docs = Vec::with_capacity(ndoc.min(PREALLOC_CAP));
    let mut gaps = GapReader::new();
    for _ in 0..ndoc {
        let tid = gaps.take(buf, "truncated doc record")?;
        let ptr = take_varint(buf, "truncated doc pointer")?;
        docs.push((tid, ptr));
    }
    Ok(docs)
}

fn list_type_code(ty: ListType) -> u8 {
    match ty {
        ListType::I => 1,
        ListType::II => 2,
        ListType::III => 3,
        ListType::IV => 4,
    }
}

fn list_type_from_code(code: u8) -> Result<ListType> {
    match code {
        1 => Ok(ListType::I),
        2 => Ok(ListType::II),
        3 => Ok(ListType::III),
        4 => Ok(ListType::IV),
        other => Err(corrupt(&format!("bad list type code {other}"))),
    }
}

// ------------------------------------------------------------ iVA flavor

/// Serialize an iVA-file into a CIFF-style container.
pub fn export_iva(index: &IvaIndex) -> Result<Vec<u8>> {
    let parts = iva_core::export_index(index)?;
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(FLAVOR_IVA);
    put_f64(parts.config.alpha, &mut out);
    put_varint(parts.config.n as u64, &mut out);
    put_f64(parts.config.ndf_penalty, &mut out);
    put_varint(parts.config.numeric_width as u64, &mut out);
    out.push(u8::from(parts.config.compress_lists));
    put_varint(parts.table_watermark, &mut out);
    put_docs(&parts.tuple_entries, &mut out)?;
    put_varint(parts.attrs.len() as u64, &mut out);
    for attr in &parts.attrs {
        out.push(u8::from(attr.is_text));
        out.push(list_type_code(attr.list_type));
        put_f64(attr.min, &mut out);
        put_f64(attr.max, &mut out);
        if attr.is_text {
            put_varint(attr.text_postings.len() as u64, &mut out);
            let mut gaps = GapWriter::new();
            for (tid, sigs) in &attr.text_postings {
                gaps.put(*tid, &mut out)?;
                put_varint(sigs.len() as u64, &mut out);
                for sig in sigs {
                    put_varint(sig.len() as u64, &mut out);
                    out.extend_from_slice(sig);
                }
            }
        } else {
            put_varint(attr.num_postings.len() as u64, &mut out);
            let mut gaps = GapWriter::new();
            for (tid, code) in &attr.num_postings {
                gaps.put(*tid, &mut out)?;
                put_varint(*code, &mut out);
            }
        }
    }
    Ok(out)
}

/// Deserialize a CIFF-style container back into an iVA-file at
/// `target`. The imported index is a canonical rebuild — lists are
/// re-encoded (and re-packed when the exported config asked for
/// compression) — and answers queries bit-identically to the exported
/// one.
pub fn import_iva(
    bytes: &[u8],
    target: IndexTarget<'_>,
    opts: &PagerOptions,
    io: IoStats,
) -> Result<IvaIndex> {
    let mut buf = bytes;
    if take(&mut buf, MAGIC.len(), "truncated magic")? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if take_u8(&mut buf, "truncated flavor")? != FLAVOR_IVA {
        return Err(corrupt("container is not the iVA flavor"));
    }
    let alpha = take_f64(&mut buf, "truncated alpha")?;
    let n = take_len(&mut buf, "truncated gram length")?;
    let ndf_penalty = take_f64(&mut buf, "truncated ndf penalty")?;
    let numeric_width = take_len(&mut buf, "truncated numeric width")?;
    let compress_lists = match take_u8(&mut buf, "truncated compress flag")? {
        0 => false,
        1 => true,
        other => return Err(corrupt(&format!("bad compress flag {other}"))),
    };
    let table_watermark = take_varint(&mut buf, "truncated watermark")?;
    let config = IvaConfig {
        alpha,
        n,
        ndf_penalty,
        numeric_width,
        compress_lists,
        ..IvaConfig::default()
    };
    config.validate().map_err(|e| corrupt(&e))?;

    let tuple_entries = take_docs(&mut buf)?;
    let nattr = take_len(&mut buf, "truncated attribute count")?;
    let mut attrs = Vec::with_capacity(nattr.min(PREALLOC_CAP));
    for _ in 0..nattr {
        let is_text = match take_u8(&mut buf, "truncated attr flags")? {
            0 => false,
            1 => true,
            other => return Err(corrupt(&format!("bad attr flags {other}"))),
        };
        let list_type = list_type_from_code(take_u8(&mut buf, "truncated list type")?)?;
        let min = take_f64(&mut buf, "truncated domain min")?;
        let max = take_f64(&mut buf, "truncated domain max")?;
        let npost = take_len(&mut buf, "truncated posting count")?;
        let mut attr = ExportedAttr {
            is_text,
            list_type,
            min,
            max,
            text_postings: Vec::new(),
            num_postings: Vec::new(),
        };
        let mut gaps = GapReader::new();
        if is_text {
            attr.text_postings.reserve(npost.min(PREALLOC_CAP));
            for _ in 0..npost {
                let tid = gaps.take(&mut buf, "truncated posting tid")?;
                let nsig = take_len(&mut buf, "truncated signature count")?;
                let mut sigs = Vec::with_capacity(nsig.min(PREALLOC_CAP));
                for _ in 0..nsig {
                    let len = take_len(&mut buf, "truncated signature length")?;
                    sigs.push(take(&mut buf, len, "truncated signature bytes")?.to_vec());
                }
                attr.text_postings.push((tid, sigs));
            }
        } else {
            attr.num_postings.reserve(npost.min(PREALLOC_CAP));
            for _ in 0..npost {
                let tid = gaps.take(&mut buf, "truncated posting tid")?;
                let code = take_varint(&mut buf, "truncated numeric code")?;
                attr.num_postings.push((tid, code));
            }
        }
        attrs.push(attr);
    }
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after the last postings list"));
    }
    let parts = ExportedIndex {
        config,
        tuple_entries,
        table_watermark,
        attrs,
    };
    import_index(target, opts, io, &parts)
}

// ------------------------------------------------------------ SII flavor

/// Serialize an SII baseline index into a CIFF-style container. SII is
/// content-free, so its postings carry no payloads — this flavor is the
/// closest to CIFF proper.
pub fn export_sii(index: &SiiIndex) -> Result<Vec<u8>> {
    let (ndf_penalty, tuple_entries, lists) = index.export_parts()?;
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(FLAVOR_SII);
    put_f64(ndf_penalty, &mut out);
    put_docs(&tuple_entries, &mut out)?;
    put_varint(lists.len() as u64, &mut out);
    for tids in &lists {
        put_varint(tids.len() as u64, &mut out);
        let mut gaps = GapWriter::new();
        for tid in tids {
            gaps.put(*tid, &mut out)?;
        }
    }
    Ok(out)
}

/// Deserialize a CIFF-style container back into an SII index on a fresh
/// in-memory pager.
pub fn import_sii(bytes: &[u8], opts: &PagerOptions, io: IoStats) -> Result<SiiIndex> {
    let mut buf = bytes;
    if take(&mut buf, MAGIC.len(), "truncated magic")? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if take_u8(&mut buf, "truncated flavor")? != FLAVOR_SII {
        return Err(corrupt("container is not the SII flavor"));
    }
    let ndf_penalty = take_f64(&mut buf, "truncated ndf penalty")?;
    if !ndf_penalty.is_finite() || ndf_penalty < 0.0 {
        return Err(corrupt("ndf penalty must be finite and >= 0"));
    }
    let tuple_entries = take_docs(&mut buf)?;
    let nattr = take_len(&mut buf, "truncated attribute count")?;
    let mut lists = Vec::with_capacity(nattr.min(PREALLOC_CAP));
    for _ in 0..nattr {
        let df = take_len(&mut buf, "truncated df")?;
        let mut tids = Vec::with_capacity(df.min(PREALLOC_CAP));
        let mut gaps = GapReader::new();
        for _ in 0..df {
            tids.push(gaps.take(&mut buf, "truncated postings tid")?);
        }
        lists.push(tids);
    }
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after the last postings list"));
    }
    SiiIndex::from_parts(opts, io, ndf_penalty, &tuple_entries, &lists)
}

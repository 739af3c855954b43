//! The classic VA-file of Weber et al. \[23\], built full-dimensionally over
//! the sparse wide table — included to substantiate the paper's decision to
//! exclude it: "The VA-file is excluded from our evaluations as its size
//! far exceeds that of the table file" (Sec. V), because it stores one
//! approximation cell for **every** attribute of **every** tuple, defined
//! or not, and has no representation for unbounded strings at all.
//!
//! We encode numerical attributes with absolute-domain slices (the original
//! scheme) plus the ndf extension of Canahuate et al. \[24\]; text attributes
//! get only a defined/ndf bit (the best a VA-file can do for strings),
//! making it content-blind on text.

use std::sync::Arc;
use std::time::Instant;

use iva_core::{
    exact_distance, IvaError, Metric, NumericCodec, PoolEntry, Query, QueryStats, QueryValue,
    Result, ResultPool, WeightScheme,
};
use iva_storage::{write_contiguous_list, IoStats, ListHandle, ListReader, Pager, PagerOptions};
use iva_swt::{AttrType, RecordPtr, SwtTable, Value};

use crate::dst::table_weights;

/// One row's approximation: a cell per attribute.
///
/// Cell layout per attribute: numerical attributes use `code_bytes` bytes
/// (all-ones = ndf); text attributes use 1 byte (0 = ndf, 1 = defined).
pub struct VaFile {
    pager: Arc<Pager>,
    rows: ListHandle,
    /// `(is_text, codec)` per attribute; codec meaningful for numeric only.
    attrs: Vec<(bool, NumericCodec)>,
    tids_ptrs: Vec<(u64, u64)>,
    row_bytes: usize,
    ndf_penalty: f64,
}

impl VaFile {
    /// Build over all live tuples. `code_bytes` is the per-dimension
    /// approximation width (the classic VA-file's `b/8`).
    pub fn build(
        table: &SwtTable,
        opts: &PagerOptions,
        io: IoStats,
        code_bytes: usize,
        ndf_penalty: f64,
    ) -> Result<Self> {
        // Each numeric attribute's absolute domain, over every record the
        // table file holds (tombstoned ones included).
        let catalog = table.catalog();
        let mut domains = vec![(f64::INFINITY, f64::NEG_INFINITY); catalog.len()];
        for item in table.scan() {
            let (_, rec) = item?;
            for (attr, value) in rec.tuple.iter() {
                if let (Value::Num(v), Some((lo, hi))) = (value, domains.get_mut(attr.index())) {
                    (*lo, *hi) = (lo.min(*v), hi.max(*v));
                }
            }
        }
        let attrs: Vec<(bool, NumericCodec)> = catalog
            .iter()
            .zip(domains)
            .map(|((_, def), (lo, hi))| {
                (
                    def.ty == AttrType::Text,
                    NumericCodec::new(lo, hi, code_bytes),
                )
            })
            .collect();
        let row_bytes: usize = attrs
            .iter()
            .map(|(t, c)| if *t { 1 } else { c.code_bytes() })
            .sum();

        let mut bytes = Vec::new();
        let mut tids_ptrs = Vec::new();
        for item in table.scan() {
            let (ptr, rec) = item?;
            if rec.deleted {
                continue;
            }
            tids_ptrs.push((rec.tid, ptr.0));
            for (i, (is_text, codec)) in attrs.iter().enumerate() {
                let v = rec.tuple.get(iva_swt::AttrId(i as u32));
                if *is_text {
                    bytes.push(u8::from(v.is_some()));
                } else {
                    let code = match v {
                        Some(Value::Num(x)) => codec.encode(*x),
                        _ => codec.ndf_code(),
                    };
                    codec.write_code(code, &mut bytes);
                }
            }
        }
        let pager = Pager::create_mem(opts, io);
        let rows = write_contiguous_list(&pager, &bytes)?;
        Ok(Self {
            pager,
            rows,
            attrs,
            tids_ptrs,
            row_bytes,
            ndf_penalty,
        })
    }

    /// Physical size in bytes — the headline number for the exclusion
    /// argument.
    pub fn size_bytes(&self) -> u64 {
        self.pager.size_bytes()
    }

    /// Bytes per approximated row.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// Top-k query via the classic sequential VA-file plan: scan every
    /// row's full-width approximation, lower-bound, refine candidates.
    /// Text attributes contribute only the defined/ndf distinction.
    pub fn query<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        k: usize,
        metric: &M,
        weights: WeightScheme,
    ) -> Result<VaOutcome> {
        let lambda = table_weights(table, query, weights, self.tids_ptrs.len() as u64)?;
        // Precompute each queried attribute's byte offset within a row.
        let mut offsets = Vec::with_capacity(query.len());
        for (attr, _) in query.iter() {
            if attr.index() >= self.attrs.len() {
                return Err(IvaError::InvalidArgument(format!(
                    "attribute {attr} not indexed"
                )));
            }
            let off: usize = self.attrs[..attr.index()]
                .iter()
                .map(|(t, c)| if *t { 1 } else { c.code_bytes() })
                .sum();
            offsets.push(off);
        }

        let mut reader = ListReader::open(Arc::clone(&self.pager), self.rows)?;
        let mut row = vec![0u8; self.row_bytes];
        let mut pool = ResultPool::new(k);
        let mut stats = QueryStats::default();
        let mut diffs = vec![0.0f64; query.len()];
        let start = Instant::now();
        let mut refine_nanos = 0u64;
        for &(tid, ptr) in &self.tids_ptrs {
            reader.read_exact(&mut row)?;
            stats.tuples_scanned += 1;
            for (i, ((attr, qv), &off)) in query.iter().zip(&offsets).enumerate() {
                let (is_text, codec) = &self.attrs[attr.index()];
                let lb = if *is_text {
                    if row[off] == 0 {
                        self.ndf_penalty
                    } else {
                        0.0 // content-blind on text
                    }
                } else {
                    let code = codec.read_code(&row[off..off + codec.code_bytes()])?;
                    if code == codec.ndf_code() {
                        self.ndf_penalty
                    } else if let QueryValue::Num(q) = qv {
                        codec.lower_bound_dist(code, *q)
                    } else {
                        0.0
                    }
                };
                diffs[i] = lambda[i] * lb;
            }
            let est = metric.combine(&diffs);
            if pool.admits_at(est, tid) {
                let refine_start = Instant::now();
                let rec = table.get(RecordPtr(ptr))?;
                stats.table_accesses += 1;
                let actual = exact_distance(&rec.tuple, query, &lambda, metric, self.ndf_penalty);
                pool.insert_at(tid, actual, RecordPtr(ptr));
                refine_nanos += refine_start.elapsed().as_nanos() as u64;
            }
        }
        let totaln = start.elapsed().as_nanos() as u64;
        stats.refine_nanos = refine_nanos;
        stats.filter_nanos = totaln.saturating_sub(refine_nanos);
        Ok(VaOutcome {
            results: pool.into_sorted(),
            stats,
        })
    }
}

/// Result of one VA-file top-k query.
#[derive(Debug, Clone)]
pub struct VaOutcome {
    /// Top-k answers, ascending distance.
    pub results: Vec<PoolEntry>,
    /// Measurement counters.
    pub stats: QueryStats,
}

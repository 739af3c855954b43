//! SII: the sparse inverted index of Yu et al. \[7\] — the baseline the
//! paper compares against (Sec. V).
//!
//! "For each attribute, a list of identifiers of the tuples that have
//! definition on this attribute is maintained, and only several related
//! lists are scanned for a query. ... However, this technique captures no
//! information with regard to the values" (Sec. I-C). Concretely: the
//! per-attribute difference can only be lower-bounded by 0 when the
//! attribute is defined and by the ndf penalty when it is not, so far more
//! candidates survive filtering than with the iVA-file's
//! content-conscious vectors.
//!
//! The on-disk machinery (tuple list, per-attribute lists, a bounded
//! result pool) deliberately mirrors the iVA-file so the comparison
//! isolates exactly the content-consciousness difference; the query plan
//! is the union fetch of \[7\] ([`SiiIndex::query`]).

use std::sync::Arc;
use std::time::Instant;

use iva_core::{
    exact_distance, IvaError, Metric, PoolEntry, Query, QueryStats, Result, ResultPool,
    WeightScheme, TOMBSTONE_PTR, TUPLE_ENTRY_LEN,
};
use iva_storage::{
    overwrite_in_list, write_contiguous_list, IoStats, ListHandle, ListReader, ListWriter, Pager,
    PagerOptions,
};
use iva_swt::{AttrId, Catalog, RecordPtr, SwtTable, Tid, Tuple};

/// Per-attribute inverted list metadata.
#[derive(Debug, Clone)]
struct SiiEntry {
    list: ListHandle,
    df: u64,
}

/// Result of one SII top-k query.
#[derive(Debug, Clone)]
pub struct SiiOutcome {
    /// Top-k answers, ascending distance.
    pub results: Vec<PoolEntry>,
    /// Measurement counters.
    pub stats: QueryStats,
}

/// What [`SiiIndex::export_parts`] yields: the ndf penalty, the tuple
/// list, and one tid list per attribute.
pub(crate) type SiiExportParts = (f64, Vec<(u32, u64)>, Vec<Vec<u32>>);

/// The sparse inverted index.
pub struct SiiIndex {
    pager: Arc<Pager>,
    entries: Vec<SiiEntry>,
    tuple_list: ListHandle,
    n_tuples: u64,
    n_deleted: u64,
    ndf_penalty: f64,
}

/// Cursor over one inverted list with the freeze semantics.
struct TidCursor {
    reader: ListReader,
    peek: Option<u32>,
}

impl TidCursor {
    fn contains(&mut self, tid: u32) -> Result<bool> {
        loop {
            if self.peek.is_none() {
                if self.reader.at_end() {
                    return Ok(false);
                }
                self.peek = Some(self.reader.read_u32()?);
            }
            let t = self.peek.unwrap();
            if t < tid {
                self.peek = None;
            } else {
                return Ok(t == tid);
            }
        }
    }
}

impl SiiIndex {
    /// Build over all live tuples of `table` (in memory or on disk pager).
    pub fn build(
        table: &SwtTable,
        opts: &PagerOptions,
        io: IoStats,
        ndf_penalty: f64,
    ) -> Result<Self> {
        let n_attrs = table.catalog().len();
        let mut per_attr: Vec<Vec<u32>> = vec![Vec::new(); n_attrs];
        let mut tuple_bytes: Vec<u8> = Vec::new();
        let mut n_tuples = 0u64;
        for item in table.scan() {
            let (ptr, rec) = item?;
            if rec.deleted {
                continue;
            }
            if rec.tid >= u64::from(u32::MAX) {
                return Err(IvaError::TidOverflow(rec.tid));
            }
            let tid = rec.tid as u32;
            tuple_bytes.extend_from_slice(&tid.to_le_bytes());
            tuple_bytes.extend_from_slice(&ptr.0.to_le_bytes());
            n_tuples += 1;
            for (attr, _) in rec.tuple.iter() {
                per_attr[attr.index()].push(tid);
            }
        }
        let pager = Pager::create_mem(opts, io);
        let mut entries = Vec::with_capacity(n_attrs);
        for tids in &per_attr {
            let mut bytes = Vec::with_capacity(tids.len() * 4);
            for t in tids {
                bytes.extend_from_slice(&t.to_le_bytes());
            }
            let list = write_contiguous_list(&pager, &bytes)?;
            entries.push(SiiEntry {
                list,
                df: tids.len() as u64,
            });
        }
        let tuple_list = write_contiguous_list(&pager, &tuple_bytes)?;
        Ok(Self {
            pager,
            entries,
            tuple_list,
            n_tuples,
            n_deleted: 0,
            ndf_penalty,
        })
    }

    /// Number of tuple-list elements (live + tombstoned).
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// Physical index size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.pager.size_bytes()
    }

    /// I/O counters of the index file.
    pub fn io_stats(&self) -> &IoStats {
        self.pager.stats()
    }

    /// Drop cached pages.
    pub fn clear_cache(&self) {
        self.pager.clear_cache()
    }

    /// Resize the buffer pool (experiments keep cache-to-data ratios
    /// constant across scales).
    pub fn resize_cache(&self, cache_bytes: usize) {
        self.pager.resize_cache(cache_bytes)
    }

    /// Fraction of tombstoned elements.
    pub fn deleted_fraction(&self) -> f64 {
        if self.n_tuples == 0 {
            0.0
        } else {
            self.n_deleted as f64 / self.n_tuples as f64
        }
    }

    /// Resolve attribute weights exactly as the iVA-file does.
    pub fn resolve_weights(&self, query: &Query, scheme: WeightScheme) -> Vec<f64> {
        let total = self.n_tuples - self.n_deleted;
        query
            .iter()
            .map(|(attr, _)| {
                let df = self.entries.get(attr.index()).map_or(0, |e| e.df);
                scheme.weight(total, df)
            })
            .collect()
    }

    /// Top-k query with the inverted-index plan of \[7\]: scan the tuple
    /// list plus the related inverted lists; every live tuple appearing in
    /// **any** related list is a candidate and is fetched from the table
    /// file (the index "captures no information with regard to the values"
    /// — Sec. I-C — so candidates cannot be ranked or pruned without their
    /// content). Tuples in no list are known to be *ndf* on every query
    /// attribute; their constant distance is computed without a fetch.
    ///
    /// This matches the measured behaviour in the paper's Fig. 8, where
    /// SII's table accesses approach the full union of the related lists
    /// (~400k of 779k tuples at 9 values/query).
    pub fn query<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        k: usize,
        metric: &M,
        weights: WeightScheme,
    ) -> Result<SiiOutcome> {
        let lambda = self.resolve_weights(query, weights);
        let mut cursors = Vec::with_capacity(query.len());
        for (attr, _) in query.iter() {
            // Attributes added after the build have no inverted list: every
            // tuple reads as ndf on them (empty-list cursor).
            let cursor = match self.entries.get(attr.index()) {
                Some(entry) => Some(TidCursor {
                    reader: ListReader::open(Arc::clone(&self.pager), entry.list)?,
                    peek: None,
                }),
                None => None,
            };
            cursors.push(cursor);
        }
        let mut treader = ListReader::open(Arc::clone(&self.pager), self.tuple_list)?;
        let mut pool = ResultPool::new(k);
        let mut stats = QueryStats::default();

        // The distance of a tuple undefined on every query attribute.
        let all_ndf: Vec<f64> = lambda.iter().map(|l| l * self.ndf_penalty).collect();
        let all_ndf_dist = metric.combine(&all_ndf);

        let start = Instant::now();
        let mut refine_nanos = 0u64;
        for _ in 0..self.n_tuples {
            let tid = treader.read_u32()?;
            let ptr = treader.read_u64()?;
            stats.tuples_scanned += 1;
            if ptr == TOMBSTONE_PTR {
                for c in cursors.iter_mut().flatten() {
                    c.contains(tid)?; // keep list pointers synchronized
                }
                continue;
            }
            let mut defined_any = false;
            for c in cursors.iter_mut() {
                let defined = match c {
                    Some(c) => c.contains(tid)?,
                    None => false,
                };
                defined_any |= defined;
            }
            if defined_any {
                let refine_start = Instant::now();
                let rec = table.get(RecordPtr(ptr))?;
                stats.table_accesses += 1;
                let actual = exact_distance(&rec.tuple, query, &lambda, metric, self.ndf_penalty);
                pool.insert_at(rec.tid, actual, RecordPtr(ptr));
                refine_nanos += refine_start.elapsed().as_nanos() as u64;
            } else {
                pool.insert_at(u64::from(tid), all_ndf_dist, RecordPtr(ptr));
            }
        }
        let total = start.elapsed().as_nanos() as u64;
        stats.refine_nanos = refine_nanos;
        stats.filter_nanos = total.saturating_sub(refine_nanos);
        Ok(SiiOutcome {
            results: pool.into_sorted(),
            stats,
        })
    }

    /// Index a freshly inserted tuple: append its tid to the inverted
    /// lists of defined attributes and to the tuple list.
    pub fn insert(
        &mut self,
        tid: Tid,
        ptr: RecordPtr,
        tuple: &Tuple,
        catalog: &Catalog,
    ) -> Result<()> {
        if tid >= u64::from(u32::MAX) {
            return Err(IvaError::TidOverflow(tid));
        }
        let tid32 = tid as u32;
        while self.entries.len() < catalog.len() {
            let list = ListWriter::create(Arc::clone(&self.pager))?.finish()?;
            self.entries.push(SiiEntry { list, df: 0 });
        }
        for (attr, _) in tuple.iter() {
            let i = attr.index();
            if i >= self.entries.len() {
                return Err(IvaError::InvalidArgument(format!(
                    "attribute {attr} not in catalog"
                )));
            }
            let mut w = ListWriter::append_to(Arc::clone(&self.pager), self.entries[i].list)?;
            w.append_u32(tid32)?;
            self.entries[i].list = w.finish()?;
            self.entries[i].df += 1;
        }
        let mut tw = ListWriter::append_to(Arc::clone(&self.pager), self.tuple_list)?;
        tw.append_u32(tid32)?;
        tw.append_u64(ptr.0)?;
        self.tuple_list = tw.finish()?;
        self.n_tuples += 1;
        Ok(())
    }

    /// Tombstone a tuple in the tuple list (inverted lists untouched, as
    /// with the iVA-file).
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        if tid >= u64::from(u32::MAX) {
            return Err(IvaError::TidOverflow(tid));
        }
        let tid32 = tid as u32;
        let mut reader = ListReader::open(Arc::clone(&self.pager), self.tuple_list)?;
        for i in 0..self.n_tuples {
            let t = reader.read_u32()?;
            let ptr = reader.read_u64()?;
            if t == tid32 {
                if ptr == TOMBSTONE_PTR {
                    return Ok(false);
                }
                overwrite_in_list(
                    &self.pager,
                    self.tuple_list,
                    i * TUPLE_ENTRY_LEN as u64 + 4,
                    &TOMBSTONE_PTR.to_le_bytes(),
                )?;
                self.n_deleted += 1;
                return Ok(true);
            }
            if t > tid32 {
                break;
            }
        }
        Ok(false)
    }

    /// Record pointer of a live tuple, by tuple-list scan.
    pub fn lookup_ptr(&self, tid: Tid) -> Result<Option<RecordPtr>> {
        let tid32 = tid as u32;
        let mut reader = ListReader::open(Arc::clone(&self.pager), self.tuple_list)?;
        for _ in 0..self.n_tuples {
            let t = reader.read_u32()?;
            let ptr = reader.read_u64()?;
            if t == tid32 {
                return Ok((ptr != TOMBSTONE_PTR).then_some(RecordPtr(ptr)));
            }
            if t > tid32 {
                break;
            }
        }
        Ok(None)
    }

    /// True if the attribute has an inverted list.
    pub fn has_attr(&self, attr: AttrId) -> bool {
        attr.index() < self.entries.len()
    }

    /// Logical content for the CIFF-style interchange
    /// ([`crate::ciff`]): the ndf penalty, the tuple list (tombstones
    /// included), and one tid list per attribute.
    pub(crate) fn export_parts(&self) -> Result<SiiExportParts> {
        let mut treader = ListReader::open(Arc::clone(&self.pager), self.tuple_list)?;
        let mut tuple_entries = Vec::with_capacity(self.n_tuples as usize);
        for _ in 0..self.n_tuples {
            let tid = treader.read_u32()?;
            let ptr = treader.read_u64()?;
            tuple_entries.push((tid, ptr));
        }
        let mut lists = Vec::with_capacity(self.entries.len());
        for entry in &self.entries {
            let mut reader = ListReader::open(Arc::clone(&self.pager), entry.list)?;
            let mut tids = Vec::with_capacity(entry.df as usize);
            for _ in 0..entry.df {
                tids.push(reader.read_u32()?);
            }
            lists.push(tids);
        }
        Ok((self.ndf_penalty, tuple_entries, lists))
    }

    /// Rebuild an index from interchange content (the inverse of
    /// [`SiiIndex::export_parts`]), on a fresh in-memory pager.
    pub(crate) fn from_parts(
        opts: &PagerOptions,
        io: IoStats,
        ndf_penalty: f64,
        tuple_entries: &[(u32, u64)],
        lists: &[Vec<u32>],
    ) -> Result<Self> {
        let pager = Pager::create_mem(opts, io);
        let mut entries = Vec::with_capacity(lists.len());
        for tids in lists {
            let mut bytes = Vec::with_capacity(tids.len() * 4);
            for t in tids {
                bytes.extend_from_slice(&t.to_le_bytes());
            }
            let list = write_contiguous_list(&pager, &bytes)?;
            entries.push(SiiEntry {
                list,
                df: tids.len() as u64,
            });
        }
        let mut tuple_bytes = Vec::with_capacity(tuple_entries.len() * TUPLE_ENTRY_LEN);
        let mut n_deleted = 0u64;
        for (tid, ptr) in tuple_entries {
            tuple_bytes.extend_from_slice(&tid.to_le_bytes());
            tuple_bytes.extend_from_slice(&ptr.to_le_bytes());
            if *ptr == TOMBSTONE_PTR {
                n_deleted += 1;
            }
        }
        let tuple_list = write_contiguous_list(&pager, &tuple_bytes)?;
        Ok(Self {
            pager,
            entries,
            tuple_list,
            n_tuples: tuple_entries.len() as u64,
            n_deleted,
            ndf_penalty,
        })
    }
}

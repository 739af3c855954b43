//! lint:scope(panic-reachability)
//! The iVA-file index: query processing (Algorithm 1) and updates
//! (Sec. IV-B).

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

use iva_storage::vfs::Vfs;
use iva_storage::{
    overwrite_in_list, IoStats, ListReader, ListWriter, PageId, Pager, PagerOptions,
    LIST_PAGE_HEADER,
};
use iva_swt::{AttrId, AttrType, Catalog, RecordPtr, SwtTable, Tid, Tuple, Value};
use iva_text::{PreparedMatcher, PreparedPattern, SigCodec};

use crate::config::IvaConfig;
use crate::dirlist::{append_raw_entry, locate_tombstone, DirCursor};
use crate::error::{IvaError, Result};
use crate::layout::{AttrEntry, IndexHeader, TOMBSTONE_PTR, TUPLE_ENTRY_LEN};
use crate::metric::{Metric, WeightScheme};
use crate::numeric::NumericCodec;
use crate::packed::{self, Dict, PackedReader};
use crate::pool::{PoolEntry, ResultPool};
use crate::query::{Query, QueryStats, QueryValue};
use crate::scan::block_len;
use crate::timing::thread_cpu_time;
use crate::veclist::{push_num_elem, push_text_elem, ListType, NumListCursor, TextListCursor};

/// Result of one top-k query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The top-k answers in ascending distance order.
    pub results: Vec<PoolEntry>,
    /// Measurement counters.
    pub stats: QueryStats,
}

/// Carry-through state for a top-k scan spanning several index files.
///
/// A segmented store answers one query by scanning its tiers in tid order
/// — oldest sealed segment first, memtable last — threading one candidate
/// pool and one statistics block through every per-segment scan. Because
/// each per-segment scan replays the same admission test against the
/// *carried* pool, the concatenated scan admits exactly the candidates a
/// monolithic index holding all tuples would admit, and the final
/// [`QueryOutcome`] is bit-identical to the single-file engine's (see
/// DESIGN.md §14).
#[derive(Debug)]
pub struct ScanCarry {
    /// The candidate pool shared by every tier of the scan.
    pub pool: ResultPool,
    /// Counters accumulated across every tier of the scan.
    pub stats: QueryStats,
}

impl ScanCarry {
    /// Fresh carry state for a top-`k` query.
    pub fn new(k: usize) -> Self {
        Self {
            pool: ResultPool::new(k),
            stats: QueryStats::default(),
        }
    }

    /// Finish the scan: drain the pool into ascending-distance order.
    pub fn finish(self) -> QueryOutcome {
        QueryOutcome {
            results: self.pool.into_sorted(),
            stats: self.stats,
        }
    }
}

/// The inverted vector approximation file.
pub struct IvaIndex {
    pager: Arc<Pager>,
    header: IndexHeader,
    entries: Vec<AttrEntry>,
    sig_codec: SigCodec,
}

/// A [`PreparedMatcher`] per text value of one query, built once under one
/// signature codec and lent to every index of the same α and n (an LSM
/// store's tiers); an index under another codec builds its own.
pub struct QueryMatchers {
    /// The codec's `(α bits, n)`.
    codec: (u64, usize),
    /// One slot per query value, in query order; `None` for a number.
    kernels: Vec<Option<PreparedMatcher>>,
    nanos: u64,
}

impl QueryMatchers {
    /// Per-thread CPU nanos the build took: filter work, which whoever
    /// built the kernels charges to the query, once.
    pub fn build_nanos(&self) -> u64 {
        self.nanos
    }

    /// Query value `i`'s kernel, if it was built under `codec`'s α and n.
    fn kernel(&self, i: usize, codec: &SigCodec) -> Option<&PreparedMatcher> {
        let same = self.codec == (codec.alpha().to_bits(), codec.n());
        self.kernels.get(i)?.as_ref().filter(|_| same)
    }
}

/// Immutable per-query attribute state, built once per query and borrowed
/// by its lane: a text attribute's estimation kernel and list dictionary,
/// a numeric one's quantization codec. Only list positions and tables
/// ([`crate::scan::AttrScan`]) are the lane's own.
pub(crate) enum SharedAttr<'a> {
    Text {
        matcher: Cow<'a, PreparedMatcher>,
        entry: &'a AttrEntry,
        dict: Arc<Dict>,
    },
    Num {
        q: f64,
        codec: NumericCodec,
        entry: &'a AttrEntry,
    },
    /// The attribute was added to the catalog after the last (re)build and
    /// no tuple defines it in the index: every tuple reads as *ndf*.
    AlwaysNdf,
}

impl SharedAttr<'_> {
    /// A text attribute's exact-distance pattern.
    pub(crate) fn pattern(&self) -> Option<&PreparedPattern> {
        match self {
            SharedAttr::Text { matcher, .. } => Some(matcher.pattern()),
            _ => None,
        }
    }
}

impl IvaIndex {
    /// Internal constructor used by the builder: persists header + entries.
    pub(crate) fn assemble(
        pager: Arc<Pager>,
        header: IndexHeader,
        entries: Vec<AttrEntry>,
    ) -> Result<Self> {
        let sig_codec = header.config.sig_codec();
        let mut idx = Self {
            pager,
            header,
            entries,
            sig_codec,
        };
        idx.write_header()?;
        Ok(idx)
    }

    /// Open an existing index file.
    pub fn open(path: &Path, opts: &PagerOptions, io: IoStats) -> Result<Self> {
        let pager = Pager::open(path, opts, io)?;
        Self::load(pager)
    }

    /// Open an existing index file on an explicit [`Vfs`].
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        opts: &PagerOptions,
        io: IoStats,
    ) -> Result<Self> {
        let pager = Pager::open_with_vfs(vfs.as_ref(), path, opts, io)?;
        Self::load(pager)
    }

    fn load(pager: Arc<Pager>) -> Result<Self> {
        let page0 = pager.read_page(PageId(0))?;
        let header = IndexHeader::decode(&page0)?;
        drop(page0);
        // The header's counts size allocations and loops from here on, and
        // a page checksum is no authentication: hold the counts to what
        // the lists they count can hold, and the lists to the file.
        let (attr_list, tuple_list) = (header.attr_list.len, header.tuple_list.len);
        let entry_len = AttrEntry::ENCODED_LEN as u64;
        // A directory frame spends at least a liveness bit per element.
        if u64::from(header.n_attrs) * entry_len > attr_list
            || header.n_tuples / 8 > tuple_list
            || header.n_deleted > header.n_tuples
            || attr_list.max(tuple_list) > pager.size_bytes()
        {
            return Err(IvaError::Corrupt(format!(
                "index header counts {} attributes, {} tuples and {} tombstones over lists of {attr_list} and {tuple_list} bytes",
                header.n_attrs, header.n_tuples, header.n_deleted
            )));
        }
        let mut reader = ListReader::open(Arc::clone(&pager), header.attr_list)?;
        let mut entries = Vec::with_capacity(header.n_attrs as usize);
        let mut buf = [0u8; AttrEntry::ENCODED_LEN];
        for _ in 0..header.n_attrs {
            reader.read_exact(&mut buf)?;
            entries.push(AttrEntry::decode(&buf)?);
        }
        let sig_codec = header.config.sig_codec();
        Ok(Self {
            pager,
            header,
            entries,
            sig_codec,
        })
    }

    /// Index configuration.
    pub fn config(&self) -> &IvaConfig {
        &self.header.config
    }

    /// Number of tuple-list elements (live + tombstoned).
    pub fn n_tuples(&self) -> u64 {
        self.header.n_tuples
    }

    /// Tombstoned tuple-list elements.
    pub fn n_deleted(&self) -> u64 {
        self.header.n_deleted
    }

    /// Fraction of tuple-list elements that are tombstones (the cleanup
    /// trigger input, Sec. V-C's β).
    pub fn deleted_fraction(&self) -> f64 {
        if self.header.n_tuples == 0 {
            0.0
        } else {
            self.header.n_deleted as f64 / self.header.n_tuples as f64
        }
    }

    /// Number of attribute-list entries.
    pub fn n_attrs(&self) -> usize {
        self.entries.len()
    }

    /// Attribute-list entry (None if the attribute postdates the index).
    pub fn attr_entry(&self, attr: AttrId) -> Option<&AttrEntry> {
        self.entries.get(attr.index())
    }

    /// Physical index size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.pager.size_bytes()
    }

    /// Stored bytes of the tuple list — the per-query directory scan that
    /// every plan pays once.
    pub fn tuple_list_bytes(&self) -> u64 {
        self.header.tuple_list.len
    }

    /// I/O counters of the index file.
    pub fn io_stats(&self) -> &IoStats {
        self.pager.stats()
    }

    /// Drop cached pages (cold-start experiments).
    pub fn clear_cache(&self) {
        self.pager.clear_cache()
    }

    /// Resize the buffer pool (experiments keep cache-to-data ratios
    /// constant across scales).
    pub fn resize_cache(&self, cache_bytes: usize) {
        self.pager.resize_cache(cache_bytes)
    }

    /// Toggle per-page checksum verification on reads (benchmarking hook;
    /// on by default).
    pub fn set_verify_checksums(&self, verify: bool) {
        self.pager.set_verify_checksums(verify)
    }

    fn write_header(&mut self) -> Result<()> {
        let bytes = self.header.encode();
        self.pager.update_page(PageId(0), |p| {
            if let Some(d) = p.get_mut(..bytes.len()) {
                d.copy_from_slice(&bytes);
            }
        })?;
        Ok(())
    }

    /// Table-file length this index was last committed against.
    pub fn table_watermark(&self) -> u64 {
        self.header.table_watermark
    }

    /// True if an update epoch is open (mutations since the last commit).
    pub fn is_dirty(&self) -> bool {
        self.header.dirty
    }

    /// Mark the start of an update epoch *durably* before the first
    /// in-place mutation: a crash mid-update then leaves a dirty flag on
    /// disk, and open-time recovery knows the index may hold partially
    /// applied updates and must be rebuilt from the table. One sync per
    /// epoch — subsequent mutations see the flag already set, which it is
    /// only once it is on disk.
    pub(crate) fn ensure_dirty(&mut self) -> Result<()> {
        if self.header.dirty {
            return Ok(());
        }
        self.header.dirty = true;
        let marked = self.flush();
        self.header.dirty = marked.is_ok();
        marked
    }

    /// Close the update epoch: record the table length this index now
    /// matches, clear the dirty flag and sync. Call only after the table's
    /// own flush succeeded — the watermark asserts "index covers exactly
    /// the first `table_watermark` table bytes".
    pub fn commit(&mut self, table_watermark: u64) -> Result<()> {
        self.header.table_watermark = table_watermark;
        self.header.dirty = false;
        self.flush()
    }

    fn write_entry(&mut self, idx: usize) -> Result<()> {
        let mut buf = Vec::with_capacity(AttrEntry::ENCODED_LEN);
        self.entries
            .get(idx)
            .ok_or_else(|| IvaError::Corrupt("attribute entry missing".into()))?
            .encode(&mut buf);
        overwrite_in_list(
            &self.pager,
            self.header.attr_list,
            (idx * AttrEntry::ENCODED_LEN) as u64,
            &buf,
        )?;
        Ok(())
    }

    pub(crate) fn numeric_codec(&self, entry: &AttrEntry) -> NumericCodec {
        let code_bytes =
            ((entry.alpha * self.header.config.numeric_width as f64).ceil() as usize).clamp(1, 8);
        NumericCodec::new(entry.min, entry.max, code_bytes)
    }

    /// Resolve the weight `λ` of each query attribute under `scheme`.
    pub fn resolve_weights(&self, query: &Query, scheme: WeightScheme) -> Vec<f64> {
        let total = self.header.n_tuples - self.header.n_deleted;
        query
            .iter()
            .map(|(attr, _)| {
                let df = self.attr_entry(attr).map_or(0, |e| e.df);
                scheme.weight(total, df)
            })
            .collect()
    }

    /// The signature codec every text vector list of this index uses.
    pub(crate) fn sig_codec(&self) -> &SigCodec {
        &self.sig_codec
    }

    /// The kernel of every text value of `query`, under this index's
    /// signature codec.
    pub fn query_matchers(&self, query: &Query) -> QueryMatchers {
        let (start, codec) = (thread_cpu_time(), &self.sig_codec);
        let kernels = query.iter().map(|(_, qv)| match qv {
            QueryValue::Text(s) => Some(PreparedMatcher::new(codec, s.as_bytes())),
            QueryValue::Num(_) => None,
        });
        QueryMatchers {
            kernels: kernels.collect(),
            codec: (codec.alpha().to_bits(), codec.n()),
            nanos: thread_cpu_time().saturating_sub(start),
        }
    }

    /// A cursor at the head of the durable tuple list.
    pub(crate) fn open_dir_cursor(&self) -> Result<DirCursor> {
        DirCursor::open(&self.pager, self.header.tuple_list)
    }

    /// A reader at the head of an attribute's durable vector list, held to
    /// the logical length its catalog entry declares.
    pub(crate) fn list_reader(&self, entry: &AttrEntry) -> Result<PackedReader> {
        let reader = ListReader::open(Arc::clone(&self.pager), entry.vlist)?;
        let (ty, len) = (entry.list_type, entry.logical_len);
        match entry.is_text {
            true => PackedReader::text_frames(reader, ty, &self.sig_codec, len),
            false => PackedReader::num_frames(reader, ty, &self.numeric_codec(entry), len),
        }
    }

    /// A cursor at the head of a text attribute's list — how the scan and
    /// an export both read it.
    pub(crate) fn open_text_cursor(&self, entry: &AttrEntry) -> Result<TextListCursor> {
        Ok(TextListCursor::new(
            self.list_reader(entry)?,
            entry.list_type,
        ))
    }

    /// [`IvaIndex::open_text_cursor`] for a numeric attribute.
    pub(crate) fn open_num_cursor(&self, entry: &AttrEntry) -> Result<NumListCursor> {
        Ok(NumListCursor::new(
            self.list_reader(entry)?,
            entry.list_type,
        ))
    }

    /// Build the shared immutable per-query state: the packed-mask
    /// estimation kernel for each text attribute — `matchers`' own where
    /// it was built under this index's codec, else prepared here (hashing
    /// the query's grams once per distinct signature geometry) and its
    /// list's dictionary, the query's one read of its DICT frame — and the
    /// quantization codec for each numeric one. The query's lane then
    /// opens its [`crate::scan::AttrScan`]s over it, borrowing this.
    pub(crate) fn prepare_query<'a>(
        &'a self,
        query: &Query,
        matchers: &'a QueryMatchers,
    ) -> Result<Vec<SharedAttr<'a>>> {
        let mut shared = Vec::with_capacity(query.len());
        for (i, (attr, qv)) in query.iter().enumerate() {
            // Checked before the catalog lookup so every tier of a
            // segmented store gives the same verdict: NaN or ±∞ would turn
            // every distance into NaN.
            if let QueryValue::Num(v) = qv {
                if !v.is_finite() {
                    return Err(IvaError::InvalidArgument(format!(
                        "query gives the non-finite number {v} on attribute {attr}"
                    )));
                }
            }
            let Some(entry) = self.attr_entry(attr) else {
                shared.push(SharedAttr::AlwaysNdf);
                continue;
            };
            match qv {
                QueryValue::Text(s) => {
                    if !entry.is_text {
                        return Err(IvaError::InvalidArgument(format!(
                            "query gives a string on numerical attribute {attr}"
                        )));
                    }
                    let matcher = match matchers.kernel(i, &self.sig_codec) {
                        Some(m) => Cow::Borrowed(m),
                        None => Cow::Owned(PreparedMatcher::new(&self.sig_codec, s.as_bytes())),
                    };
                    let dict = self.list_reader(entry)?.load_dict()?;
                    shared.push(SharedAttr::Text {
                        matcher,
                        entry,
                        dict,
                    });
                }
                QueryValue::Num(v) => {
                    if entry.is_text {
                        return Err(IvaError::InvalidArgument(format!(
                            "query gives a number on text attribute {attr}"
                        )));
                    }
                    shared.push(SharedAttr::Num {
                        q: *v,
                        codec: self.numeric_codec(entry),
                        entry,
                    });
                }
            }
        }
        Ok(shared)
    }

    /// The durable tuple list as a column: the directory's first
    /// `n_tuples` elements, exactly what a scan walks (and checked as it
    /// checks them).
    pub(crate) fn read_tuple_column(&self) -> Result<TupleColumn> {
        let mut src = self.open_tuple_source()?;
        let n = self.tuple_capacity();
        let (mut tids, mut ptrs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        while (tids.len() as u64) < self.header.n_tuples {
            let left = self.header.n_tuples - tids.len() as u64;
            src.next_block(
                usize::try_from(left).unwrap_or(usize::MAX),
                &mut tids,
                &mut ptrs,
            )?;
        }
        Ok(TupleColumn { tids, ptrs })
    }

    /// How many tuple-list elements to reserve room for up front: the
    /// header's count, but never more than the stored list could hold at a
    /// liveness bit each — a reservation bounded by the file's size
    /// whatever the header claims.
    pub(crate) fn tuple_capacity(&self) -> usize {
        let stored = self.header.tuple_list.len.saturating_mul(8);
        usize::try_from(self.header.n_tuples.min(stored)).unwrap_or(0)
    }

    /// Open a tuple-list scan source at the head of the durable directory.
    pub(crate) fn open_tuple_source(&self) -> Result<TupleSource> {
        Ok(TupleSource {
            cur: self.open_dir_cursor()?,
            last: None,
        })
    }

    /// Fold the bytes of the lists behind a prepared query into `stats`,
    /// once per query and index.
    pub(crate) fn list_bytes_into(&self, shared: &[SharedAttr<'_>], stats: &mut QueryStats) {
        for sa in shared {
            let entry = match sa {
                SharedAttr::Text { entry, .. } | SharedAttr::Num { entry, .. } => entry,
                SharedAttr::AlwaysNdf => continue,
            };
            // Off disk, and held to the frames only as a walk reads them.
            stats.list_bytes_logical = stats.list_bytes_logical.saturating_add(entry.logical_len);
            stats.list_bytes_physical += self.padded_list_bytes(entry.vlist.len);
        }
        // The directory's logical size is the raw element stream; its
        // frames store (and therefore sweep) fewer bytes.
        stats.list_bytes_logical += self.header.n_tuples * TUPLE_ENTRY_LEN as u64;
        stats.list_bytes_physical += self.padded_list_bytes(self.header.tuple_list.len);
    }

    /// Physical page-padded footprint of `stored` list-data bytes: lists
    /// occupy whole pager pages, each with [`LIST_PAGE_HEADER`] bytes of
    /// chaining overhead.
    fn padded_list_bytes(&self, stored: u64) -> u64 {
        let page = self.pager.page_size() as u64;
        let cap = page.saturating_sub(LIST_PAGE_HEADER as u64).max(1);
        stored.div_ceil(cap) * page
    }

    /// Algorithm 1: top-k query with the parallel filter-and-refine plan,
    /// on the calling thread.
    ///
    /// The tuple list and the vector lists of the query's attributes are
    /// scanned in a synchronized pass; each tuple's estimated distance is a
    /// lower bound (by the monotonous property of `metric`), and only
    /// candidates the pool admits are fetched from the table file. This
    /// is the serial shape of the one scan spine (DESIGN.md §15).
    pub fn query<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        k: usize,
        metric: &M,
        weights: WeightScheme,
    ) -> Result<QueryOutcome> {
        let lambda = self.resolve_weights(query, weights);
        let matchers = self.query_matchers(query);
        let mut carry = ScanCarry::new(k);
        carry.stats.filter_nanos += matchers.build_nanos();
        self.query_carry(table, query, &matchers, metric, &lambda, &mut carry)?;
        Ok(carry.finish())
    }

    /// Index a freshly inserted tuple (Sec. IV-B): append to the tuple list
    /// and to the vector lists of its defined attributes. Attributes newly
    /// added to the catalog since the last (re)build get fresh empty lists.
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
        self.ensure_dirty()?;
        self.sync_catalog(catalog)?;

        let tuple_index = self.header.n_tuples;

        // Vector lists of defined attributes.
        for (attr, value) in tuple.iter() {
            let i = attr.index();
            if i >= self.entries.len() {
                return Err(IvaError::InvalidArgument(format!(
                    "attribute {attr} not in catalog"
                )));
            }
            let entry = self
                .entries
                .get(i)
                .ok_or_else(|| IvaError::Corrupt("attribute entry missing".into()))?
                .clone();
            let mut w = ListWriter::append_to(Arc::clone(&self.pager), entry.vlist)?;
            let mut new_entry = entry;
            let ty = new_entry.list_type;
            // The raw-layout bytes of the new elements. A positional list
            // owes `gap` ndf elements (each `gap_pad` raw) for the tuples
            // inserted since its last element — lazy positional padding.
            // Both counts come off disk.
            let gap = if ty.is_positional() {
                tuple_index.checked_sub(new_entry.elem_count).ok_or_else(|| {
                    IvaError::Corrupt(format!(
                        "attribute {attr} claims {} positional elements over a {tuple_index}-element tuple list",
                        new_entry.elem_count
                    ))
                })?
            } else {
                0
            };
            let mut elem_buf: Vec<u8> = Vec::new();
            let mut gap_pad: Vec<u8> = Vec::new();
            let n_elems = match value {
                Value::Text(strings) => {
                    let sigs: Vec<Vec<u8>> = strings
                        .iter()
                        .map(|s| self.sig_codec.encode_to_vec(s.as_bytes()))
                        .collect();
                    new_entry.str_count += sigs.len() as u64;
                    if gap > 0 {
                        push_text_elem(ty, tid32, &[], &mut gap_pad)?;
                    }
                    push_text_elem(ty, tid32, &sigs, &mut elem_buf)?
                }
                Value::Num(v) => {
                    // First value on a fresh attribute fixes a degenerate
                    // domain; rebuilds re-quantize on the real domain.
                    if new_entry.min > new_entry.max {
                        new_entry.min = *v;
                        new_entry.max = *v;
                    }
                    let codec = self.numeric_codec(&new_entry);
                    if gap > 0 {
                        push_num_elem(ty, tid32, codec.ndf_code(), &codec, &mut gap_pad)?;
                    }
                    push_num_elem(ty, tid32, codec.encode(*v), &codec, &mut elem_buf)?;
                    1
                }
            };
            new_entry.elem_count = if ty.is_positional() {
                tuple_index + 1
            } else {
                new_entry.elem_count + n_elems
            };
            // The tail as frames: the positional gap one 9-byte NDF_RUN
            // frame (however long the run), the new elements one RAW frame.
            let mut framed = Vec::with_capacity(elem_buf.len() + 2 * packed::FRAME_HEADER_LEN);
            if gap > 0 {
                packed::append_frame(&mut framed, packed::FRAME_NDF_RUN, gap as usize, &[]);
            }
            if n_elems > 0 {
                let kind = packed::FRAME_RAW;
                packed::append_frame(&mut framed, kind, n_elems as usize, &elem_buf);
            }
            w.append(&framed)?;
            // The logical length grows by the tail's raw layout, in the
            // entry rewritten below: the list's own pages but its tail are
            // not touched.
            let grown = gap.saturating_mul(gap_pad.len() as u64) + elem_buf.len() as u64;
            new_entry.logical_len = new_entry.logical_len.saturating_add(grown);
            new_entry.df += 1;
            new_entry.vlist = w.finish()?;
            *self
                .entries
                .get_mut(i)
                .ok_or_else(|| IvaError::Corrupt("attribute entry missing".into()))? = new_entry;
            self.write_entry(i)?;
        }

        // Tuple list: the element as a one-element raw tail frame
        // (rebuilds repack).
        let mut tw = ListWriter::append_to(Arc::clone(&self.pager), self.header.tuple_list)?;
        let mut frame = Vec::with_capacity(TUPLE_ENTRY_LEN + packed::FRAME_HEADER_LEN);
        append_raw_entry(&mut frame, tid32, ptr.0);
        tw.append(&frame)?;
        self.header.tuple_list = tw.finish()?;
        self.header.n_tuples += 1;
        self.write_header()
    }

    /// Extend the attribute list for attributes defined in the catalog
    /// after the last (re)build.
    fn sync_catalog(&mut self, catalog: &Catalog) -> Result<()> {
        if catalog.len() <= self.entries.len() {
            return Ok(());
        }
        let mut appended = Vec::new();
        for i in self.entries.len()..catalog.len() {
            let def = catalog
                .def(AttrId(i as u32))
                .ok_or_else(|| IvaError::Corrupt("catalog entry missing during sync".into()))?;
            let vlist = ListWriter::create(Arc::clone(&self.pager))?.finish()?;
            let entry = AttrEntry::empty(vlist, def.ty == AttrType::Text, self.header.config.alpha);
            entry.encode(&mut appended);
            self.entries.push(entry);
        }
        let mut w = ListWriter::append_to(Arc::clone(&self.pager), self.header.attr_list)?;
        w.append(&appended)?;
        self.header.attr_list = w.finish()?;
        self.header.n_attrs = self.entries.len() as u32;
        self.write_header()
    }

    /// Tombstone a tuple (Sec. IV-B): scan the tuple list for its element
    /// and rewrite the `ptr` with the special value. Vector lists and the
    /// table file are not modified. Returns false if the tid is absent or
    /// already deleted.
    pub fn delete(&mut self, tid: Tid) -> Result<bool> {
        if tid >= u64::from(u32::MAX) {
            return Err(IvaError::TidOverflow(tid));
        }
        let tid32 = tid as u32;
        // Locate the element and the in-place write that tombstones it:
        // the 8-byte `ptr` rewrite of a RAW frame's element, or the
        // one-byte liveness-bit clear of a packed frame (the stored pointer
        // stays behind to keep the frame's delta chain intact).
        let Some(patch) = locate_tombstone(&self.pager, self.header.tuple_list, tid32)? else {
            return Ok(false);
        };
        if !patch.live {
            return Ok(false);
        }
        self.ensure_dirty()?;
        overwrite_in_list(
            &self.pager,
            self.header.tuple_list,
            patch.offset,
            &patch.bytes,
        )?;
        self.header.n_deleted += 1;
        self.write_header()?;
        Ok(true)
    }

    /// Look up the record pointer of a live tuple by scanning the tuple
    /// list (used by callers that track tuples by tid only).
    pub fn lookup_ptr(&self, tid: Tid) -> Result<Option<RecordPtr>> {
        if tid >= u64::from(u32::MAX) {
            return Err(IvaError::TidOverflow(tid));
        }
        let (mut src, mut left) = (self.open_tuple_source()?, self.header.n_tuples);
        let (mut tids, mut ptrs) = (Vec::new(), Vec::new());
        while left > 0 {
            tids.clear();
            ptrs.clear();
            src.next_block(block_len(left), &mut tids, &mut ptrs)?;
            left = left.saturating_sub(tids.len() as u64);
            // Tids ascend: the first one not below `tid` settles it.
            if let Some(at) = tids.iter().position(|&t| u64::from(t) >= tid) {
                let hit = tids.get(at).is_some_and(|&t| u64::from(t) == tid);
                let ptr = ptrs.get(at).copied().filter(|&p| hit && p != TOMBSTONE_PTR);
                return Ok(ptr.map(RecordPtr));
            }
        }
        Ok(None)
    }

    /// Flush the index file.
    pub fn flush(&mut self) -> Result<()> {
        self.write_header()?;
        self.pager.sync()?;
        Ok(())
    }

    /// Describe how a query would execute: per attribute, the vector-list
    /// organization, its size, the definedness (`df/|T|`), and the
    /// resolved weight — the information an operator needs to understand
    /// a slow query.
    pub fn explain(&self, query: &Query, weights: WeightScheme) -> QueryExplain {
        let lambda = self.resolve_weights(query, weights);
        let live = self.header.n_tuples - self.header.n_deleted;
        let attrs = query
            .iter()
            .zip(&lambda)
            .map(|((attr, qv), &weight)| {
                let entry = self.attr_entry(attr);
                ExplainAttr {
                    attr,
                    is_text: matches!(qv, QueryValue::Text(_)),
                    list_type: entry.map(|e| e.list_type),
                    list_bytes: entry.map_or(0, |e| e.vlist.len),
                    df: entry.map_or(0, |e| e.df),
                    definedness: if live == 0 {
                        0.0
                    } else {
                        entry.map_or(0, |e| e.df) as f64 / live as f64
                    },
                    weight,
                }
            })
            .collect();
        QueryExplain {
            attrs,
            tuples_to_scan: self.header.n_tuples,
            tombstones: self.header.n_deleted,
            tuple_list_bytes: self.header.tuple_list.len,
        }
    }
}

/// The durable tuple list as parallel arrays: `(tids[i], ptrs[i])` is
/// tuple-list element `i` (tombstones keep their `TOMBSTONE_PTR`) — what
/// [`crate::export_index`] reads.
pub(crate) struct TupleColumn {
    /// Tuple ids in list order.
    pub tids: Vec<u32>,
    /// Record pointers (or `TOMBSTONE_PTR`) in list order.
    pub ptrs: Vec<u64>,
}

/// One scan pass over the tuple list, a block at a time, checked
/// tid-ascending as it goes.
pub(crate) struct TupleSource {
    cur: DirCursor,
    /// The last tid handed out.
    last: Option<u32>,
}

impl TupleSource {
    /// Append the next elements to `tids`/`ptrs`: at least one and at most
    /// `max` (≥ 1), never more than one directory frame holds. The pool's
    /// tie rule (lowest tid wins) is Algorithm 1's "first arrival wins"
    /// only because the tuple list is tid-ascending, and the keyed lists'
    /// frozen pointer relies on it too: tids that do not strictly ascend,
    /// within the block or from the block before, are
    /// [`IvaError::Corrupt`].
    pub(crate) fn next_block(
        &mut self,
        max: usize,
        tids: &mut Vec<u32>,
        ptrs: &mut Vec<u64>,
    ) -> Result<()> {
        let start = tids.len();
        self.cur.next_block(max, tids, ptrs)?;
        // Each tid against the one before it, the block's first against the
        // last block's last; no early exit, so the loop has no branch.
        let (mut ascending, mut last) = (true, self.last);
        for &tid in tids.get(start..).unwrap_or(&[]) {
            ascending &= last < Some(tid);
            last = Some(tid);
        }
        self.last = last;
        match ascending {
            true => Ok(()),
            false => Err(IvaError::Corrupt("tuple list not tid-ascending".into())),
        }
    }

    /// Skip the next `n` elements unread — whole directory frames by their
    /// headers: a leap (see [`crate::scan`]). The next block is checked
    /// against the last one handed out.
    pub(crate) fn leap(&mut self, n: u64) -> Result<()> {
        self.cur.skip_entries(n)
    }
}

/// Per-attribute execution detail from [`IvaIndex::explain`].
#[derive(Debug, Clone)]
pub struct ExplainAttr {
    /// The attribute.
    pub attr: AttrId,
    /// Whether the query value is a string.
    pub is_text: bool,
    /// Vector-list organization (None if the attribute postdates the
    /// index — it reads as ndf everywhere).
    pub list_type: Option<ListType>,
    /// Bytes of vector list this query attribute will scan.
    pub list_bytes: u64,
    /// Tuples defining the attribute.
    pub df: u64,
    /// `df / live tuples`.
    pub definedness: f64,
    /// Resolved weight λ.
    pub weight: f64,
}

/// Execution plan description from [`IvaIndex::explain`].
#[derive(Debug, Clone)]
pub struct QueryExplain {
    /// Per-attribute details, in query order.
    pub attrs: Vec<ExplainAttr>,
    /// Tuple-list elements the scan will visit.
    pub tuples_to_scan: u64,
    /// Of which tombstones (skipped without estimation).
    pub tombstones: u64,
    /// Tuple-list bytes scanned.
    pub tuple_list_bytes: u64,
}

impl QueryExplain {
    /// Total index bytes one execution of the query reads.
    pub fn index_bytes(&self) -> u64 {
        self.tuple_list_bytes + self.attrs.iter().map(|a| a.list_bytes).sum::<u64>()
    }
}

impl std::fmt::Display for QueryExplain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "scan {} tuples ({} tombstones), {} index bytes",
            self.tuples_to_scan,
            self.tombstones,
            self.index_bytes()
        )?;
        for a in &self.attrs {
            writeln!(
                f,
                "  {}: {} list {:?} ({} B), df {} ({:.1}%), weight {:.3}",
                a.attr,
                if a.is_text { "text" } else { "num" },
                a.list_type
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
                a.list_bytes,
                a.df,
                a.definedness * 100.0,
                a.weight
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, IndexTarget};
    use crate::metric::MetricKind;
    use iva_storage::MemVfs;
    use iva_swt::Value;
    use std::path::Path;

    /// A catalog entry whose logical length is too short or too long for
    /// its list's frames — one byte either way, none at all, the most a
    /// u64 holds — opens (open reads no list), and is `Corrupt` to the
    /// first query that walks the list and to `decode_to_vec`; nothing
    /// panics, and nothing is sized by the length.
    #[test]
    fn a_lying_logical_length_is_corrupt_to_the_walk_and_the_image() {
        let opts = PagerOptions {
            page_size: 256,
            cache_bytes: 1 << 20,
        };
        let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        let name = table.define_text("name").unwrap();
        let price = table.define_numeric("price").unwrap();
        for i in 0..600u32 {
            let mut t = Tuple::new().with(name, Value::text(format!("item {}", i % 90)));
            if i % 3 != 1 {
                t.set(price, Value::num(f64::from(i % 50)));
            }
            table.insert(&t).unwrap();
        }
        let (vfs, path) = (Arc::new(MemVfs::new()), Path::new("index.iva"));
        let target = IndexTarget::Vfs(vfs.clone(), path);
        let config = IvaConfig::default();
        let built = build_index(&table, target, &opts, IoStats::new(), config).unwrap();
        let honest: Vec<u64> = built.entries.iter().map(|e| e.logical_len).collect();
        drop(built);
        let both = Query::new().text(name, "item 7").num(price, 7.0);
        let queries = [both.clone(), Query::new().num(price, 7.0), both];
        for (a, query) in [name, price].into_iter().zip(&queries) {
            let real = honest[a.index()];
            for lie in [real - 1, real + 1, 0, u64::MAX] {
                let open = || IvaIndex::open_with_vfs(vfs.clone(), path, &opts, IoStats::new());
                let mut index = open().unwrap();
                index.entries[a.index()].logical_len = lie;
                index.write_entry(a.index()).unwrap();
                index.flush().unwrap();
                let index = open().unwrap();
                let ctx = format!("attribute {a}, logical length {lie} for {real}");
                let out = index.query(&table, query, 10, &MetricKind::L2, WeightScheme::Equal);
                assert!(out.is_err_and(|e| e.is_corruption()), "{ctx}: query");
                let entry = index.attr_entry(a).unwrap();
                let image = index
                    .list_reader(entry)
                    .and_then(PackedReader::decode_to_vec);
                assert!(image.is_err_and(|e| e.is_corruption()), "{ctx}: image");
            }
            let mut index = open_honest(&vfs, path, &opts);
            index.entries[a.index()].logical_len = real;
            index.write_entry(a.index()).unwrap();
            index.flush().unwrap();
        }
        // Put right, every list answers again.
        let index = open_honest(&vfs, path, &opts);
        index
            .query(
                &table,
                &queries[0],
                10,
                &MetricKind::L2,
                WeightScheme::Equal,
            )
            .unwrap();
    }

    /// A leaping query loads no list frame past the dictionary, so where
    /// the postings cover every position the probe holds the catalog's
    /// logical length to the bytes of their frames: a length one byte
    /// either way, none at all, or the most a u64 holds is `Corrupt` to
    /// it.
    #[test]
    fn a_lying_logical_length_is_corrupt_to_a_leaping_query() {
        let opts = PagerOptions {
            page_size: 256,
            cache_bytes: 1 << 20,
        };
        let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        let name = table.define_text("name").unwrap();
        for i in 0..2000u32 {
            let s = match i % 500 {
                7 => "needle".to_string(),
                _ => format!("hay {}", i % 20),
            };
            table
                .insert(&Tuple::new().with(name, Value::text(s)))
                .unwrap();
        }
        let (vfs, path) = (Arc::new(MemVfs::new()), Path::new("index.iva"));
        let target = IndexTarget::Vfs(vfs.clone(), path);
        let built = build_index(&table, target, &opts, IoStats::new(), IvaConfig::default());
        let real = built.unwrap().entries[name.index()].logical_len;
        let q = Query::new().text(name, "needle");
        let query =
            |index: &IvaIndex| index.query(&table, &q, 3, &MetricKind::L2, WeightScheme::Equal);
        let stats = query(&open_honest(&vfs, path, &opts)).unwrap().stats;
        assert!(stats.tuples_scanned < 2000, "the query leaps: {stats:?}");
        for lie in [real - 1, real + 1, 0, u64::MAX] {
            let mut index = open_honest(&vfs, path, &opts);
            index.entries[name.index()].logical_len = lie;
            index.write_entry(name.index()).unwrap();
            index.flush().unwrap();
            let out = query(&open_honest(&vfs, path, &opts));
            assert!(
                out.is_err_and(|e| e.is_corruption()),
                "length {lie} for {real}"
            );
        }
    }

    fn open_honest(vfs: &Arc<MemVfs>, path: &Path, opts: &PagerOptions) -> IvaIndex {
        IvaIndex::open_with_vfs(vfs.clone(), path, opts, IoStats::new()).unwrap()
    }
}

//! lint:scope(panic-reachability)
//!
//! The in-RAM **hot tier**: columnar mirrors of the durable iVA-file's
//! lists, rebuilt lazily from the pager and admitted by access frequency
//! under a global memory budget ([`crate::IvaConfig::hot_tier_bytes`]).
//!
//! A hot text attribute's signatures are re-packed into one contiguous
//! stride-padded column so the whole filter phase collapses into
//! [`iva_text::PreparedMatcher::estimate_block`] sweeps of it, folded
//! into one lower bound per tuple position as they come
//! ([`TextColumn::position_bounds`] — the one vector a hot query
//! allocates); a hot numeric
//! attribute becomes a dense `u64` code array (positionalized, with the
//! codec's *ndf* sentinel filling gaps); the tuple list becomes parallel
//! `tids`/`ptrs` arrays. Columns are **positional**: entry `i` describes
//! tuple-list position `i` at build time, which is exactly the order every
//! query plan scans in, so a hot scan visits the same values in the same
//! order as the pager cursors and produces bit-identical lower bounds.
//!
//! The tier is strictly a read-path cache. Admission, eviction, and budget
//! never change answers — only which medium pays for the filter scan
//! ([`crate::QueryStats::hot_tier_attrs`] vs
//! [`crate::QueryStats::cold_tier_attrs`]). Two mechanisms keep a column
//! from ever serving stale data:
//!
//! 1. **Epoch tags.** Every invalidation bumps a tier epoch; a column
//!    built against an older epoch is refused at insert time, so a build
//!    that raced a writer can never be published.
//! 2. **Handle validation.** Each column records the [`ListHandle`] it was
//!    built from. Appends change the handle (its length grows), so a
//!    lookup whose current handle disagrees with the recorded one drops
//!    the entry instead of hitting it.
//!
//! [`crate::IvaIndex::insert`] invalidates the tuple column and the
//! columns of every attribute the new tuple defines;
//! [`crate::IvaIndex::delete`] rewrites only the tuple list and so
//! invalidates only the tuple column. Undefined-attribute columns stay
//! valid across inserts because positional tails past the column length
//! read as *ndf* — the same lazy-padding contract the on-disk positional
//! lists use.
//!
//! Admission is driven by a **tick-based EWMA** (no wall clock — the
//! deterministic stack must stay replayable): every tier consult advances
//! a global tick and folds `score ← score·d^Δt + 1` for the touched key.
//! A key whose score crosses [`ADMIT_SCORE`] and whose column fits the
//! budget — after evicting strictly colder columns — is promoted.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use iva_storage::ListHandle;
use iva_text::{PreparedMatcher, SigCodec};

use crate::error::{IvaError, Result};
use crate::layout::TUPLE_ENTRY_LEN;
use crate::numeric::NumericCodec;
use crate::veclist::{
    text_lower_bound, ListType, NumListCursor, SigView, SigVisitor, TextListCursor,
};

/// Tier key of the tuple column (attribute columns use the attribute
/// index, which can never reach this value — tids are capped at `u32`).
pub(crate) const TUPLE_KEY: usize = usize::MAX;

/// EWMA score at which a key becomes promotable: one touch scores 1.0, so
/// a column is only built for attributes seen repeatedly, never for a
/// one-off scan.
pub(crate) const ADMIT_SCORE: f64 = 2.0;

/// Per-tick EWMA decay factor.
const DECAY: f64 = 0.9;

/// Exponent cap for lazy decay — `0.9^4096` underflows to zero anyway.
const MAX_DECAY_TICKS: u64 = 4096;

fn decayed(score: f64, dt: u64) -> f64 {
    if dt == 0 {
        score
    } else {
        score * DECAY.powi(dt.min(MAX_DECAY_TICKS) as i32)
    }
}

/// Cells per [`TextColumn::position_bounds`] estimate block: 2 KiB of
/// estimates on the stack.
const EST_BLOCK: usize = 256;

/// A hot text attribute: every signature of the vector list, re-packed
/// into fixed-stride cells (`[len_byte][ch…][zero pad]`) in tuple-position
/// order, plus prefix offsets mapping positions to cell ranges.
pub(crate) struct TextColumn {
    /// Stride-packed signature cells, one per string.
    pub sigs: Vec<u8>,
    /// Cell stride: `SigCodec::max_encoded_len()`. `estimate_block`
    /// ignores the zero padding beyond each cell's declared bytes.
    pub stride: usize,
    /// Prefix offsets: position `i` owns cells `starts[i]..starts[i+1]`.
    /// Length is `positions + 1`; an empty range means *ndf*.
    pub starts: Vec<u32>,
    /// Source organization, for [`text_lower_bound`].
    ty: ListType,
}

impl TextColumn {
    /// Total number of signature cells.
    pub fn n_strings(&self) -> usize {
        self.starts.last().map_or(0, |&c| c as usize)
    }

    /// Resident bytes (cells + offsets), the budget accounting unit.
    pub fn bytes(&self) -> usize {
        self.sigs.len() + 4 * self.starts.len()
    }

    /// The hot filter phase: one lower bound per tuple position (`NaN` =
    /// *ndf* — estimates themselves are never `NaN`), so that every
    /// scan-loop consult is a single array read, shared by all workers of
    /// a query. Cells are estimated a block at a time into a stack buffer
    /// ([`iva_text::PreparedMatcher::estimate_block`]) and min-folded into
    /// their position as they come, through the pager cursors' own gate
    /// ([`text_lower_bound`]): the bounds are the only vector a hot query
    /// allocates. Positions past the column end — the lazy positional
    /// tail — are not in it and read as *ndf*.
    pub fn position_bounds(&self, matcher: &PreparedMatcher) -> Result<Vec<f64>> {
        let mut out = vec![f64::NAN; self.starts.len().saturating_sub(1)];
        let n_cells = self.n_strings();
        let mut ests = [0.0f64; EST_BLOCK];
        // Cells `lo..hi` are the ones `ests` holds.
        let (mut lo, mut hi) = (0usize, 0usize);
        for (slot, cells) in out.iter_mut().zip(self.starts.windows(2)) {
            let (Some(&first), Some(&end)) = (cells.first(), cells.get(1)) else {
                continue;
            };
            let (first, end) = (first as usize, (end as usize).min(n_cells));
            let mut best = f64::INFINITY;
            let mut cell = first;
            while cell < end {
                if cell >= hi {
                    (lo, hi) = (cell, n_cells.min(cell + EST_BLOCK));
                    let block = self.sigs.get(lo * self.stride..).unwrap_or(&[]);
                    let into = ests.get_mut(..hi - lo).unwrap_or(&mut []);
                    matcher.estimate_block(block, self.stride, into)?;
                }
                let upto = end.min(hi);
                for &est in ests.get(cell - lo..upto - lo).unwrap_or(&[]) {
                    best = best.min(est);
                }
                cell = upto;
            }
            if let Some(lb) = text_lower_bound(self.ty, end.saturating_sub(first), best) {
                *slot = lb;
            }
        }
        Ok(out)
    }
}

/// A hot numeric attribute: one code per tuple position, with the codec's
/// *ndf* code filling undefined positions.
pub(crate) struct NumColumn {
    /// Positionalized codes.
    pub codes: Vec<u64>,
    /// The codec's reserved *ndf* code (never produced by `encode`).
    ndf: u64,
}

impl NumColumn {
    /// Resident bytes.
    pub fn bytes(&self) -> usize {
        self.codes.len() * 8
    }

    /// The code at `pos`, or `None` for *ndf* (including the lazy tail
    /// past the column end).
    pub fn code_at(&self, pos: usize) -> Option<u64> {
        self.codes.get(pos).copied().filter(|&c| c != self.ndf)
    }
}

/// The tuple list as parallel arrays: `(tids[i], ptrs[i])` is tuple-list
/// element `i` (tombstones keep their `TOMBSTONE_PTR`).
pub(crate) struct TupleColumn {
    /// Tuple ids in list order.
    pub tids: Vec<u32>,
    /// Record pointers (or `TOMBSTONE_PTR`) in list order.
    pub ptrs: Vec<u64>,
}

impl TupleColumn {
    /// Resident bytes, charged at the on-disk element width.
    pub fn bytes(&self) -> usize {
        self.tids.len() * TUPLE_ENTRY_LEN
    }
}

/// The column build's visitor: each signature as a stride-padded cell.
struct CellSink {
    sigs: Vec<u8>,
    stride: usize,
}

impl SigVisitor for CellSink {
    fn sig(&mut self, sig: SigView<'_>) -> Result<()> {
        let cell_start = self.sigs.len();
        self.sigs.push(sig.len_byte);
        self.sigs.extend_from_slice(sig.ch);
        self.sigs.resize(cell_start + self.stride, 0);
        Ok(())
    }
}

fn cell_count(sigs_len: usize, stride: usize) -> Result<u32> {
    if stride == 0 {
        return Err(IvaError::Corrupt("zero signature stride".into()));
    }
    u32::try_from(sigs_len / stride)
        .map_err(|_| IvaError::Corrupt("hot-tier column exceeds u32 cells".into()))
}

/// Positionalize a text vector list against the tuple-list tids by
/// walking a fresh cursor over it exactly as a scan would — one move per
/// tuple-list element, tombstoned or not — so the column holds what the
/// scan sees by construction, for every organization and encoding.
pub(crate) fn build_text_column(
    mut cur: TextListCursor,
    codec: &SigCodec,
    tids: &[u32],
) -> Result<TextColumn> {
    let ty = cur.list_type();
    let mut cells = CellSink {
        sigs: Vec::new(),
        stride: codec.max_encoded_len(),
    };
    let mut starts: Vec<u32> = Vec::with_capacity(tids.len() + 1);
    starts.push(0);
    for &tid in tids {
        cur.walk(tid, codec, Some(&mut cells))?;
        starts.push(cell_count(cells.sigs.len(), cells.stride)?);
    }
    cur.finish(codec)?;
    Ok(TextColumn {
        sigs: cells.sigs,
        stride: cells.stride,
        starts,
        ty,
    })
}

/// Positionalize a numeric vector list against the tuple-list tids (see
/// [`build_text_column`]), the *ndf* code standing for every tuple the
/// cursor reports undefined.
pub(crate) fn build_num_column(
    mut cur: NumListCursor,
    codec: &NumericCodec,
    tids: &[u32],
) -> Result<NumColumn> {
    let ndf = codec.ndf_code();
    let mut codes: Vec<u64> = Vec::with_capacity(tids.len());
    for &tid in tids {
        codes.push(cur.advance(tid, codec)?.unwrap_or(ndf));
    }
    cur.finish(codec)?;
    Ok(NumColumn { codes, ndf })
}

/// A resident column of any kind, shared by reference with the query
/// plans (columns are immutable once built — eviction only drops Arcs).
#[derive(Clone)]
pub(crate) enum ColumnData {
    /// Text signatures.
    Text(Arc<TextColumn>),
    /// Numeric codes.
    Num(Arc<NumColumn>),
    /// The tuple list.
    Tuple(Arc<TupleColumn>),
}

impl ColumnData {
    fn bytes(&self) -> usize {
        match self {
            ColumnData::Text(c) => c.bytes(),
            ColumnData::Num(c) => c.bytes(),
            ColumnData::Tuple(c) => c.bytes(),
        }
    }
}

/// Outcome of a scoring consult ([`HotTier::lookup`]).
pub(crate) enum TierLookup {
    /// A valid column is resident — serve the scan from RAM.
    Hit(ColumnData),
    /// Hot enough and it fits: the caller should walk the list, build
    /// the column, and offer it back via [`HotTier::insert`] with this
    /// epoch.
    Promote {
        /// Tier epoch the promotion decision was made under.
        epoch: u64,
    },
    /// Serve from the pager.
    Cold,
}

struct Slot {
    data: ColumnData,
    built_from: ListHandle,
    bytes: usize,
}

struct Heat {
    score: f64,
    last_tick: u64,
}

#[derive(Default)]
struct TierInner {
    budget: usize,
    tick: u64,
    epoch: u64,
    used: usize,
    slots: BTreeMap<usize, Slot>,
    heat: BTreeMap<usize, Heat>,
}

impl Default for Heat {
    fn default() -> Self {
        Self {
            score: 0.0,
            last_tick: 0,
        }
    }
}

impl TierInner {
    fn score_of(&self, key: usize) -> f64 {
        self.heat
            .get(&key)
            .map_or(0.0, |h| decayed(h.score, self.tick - h.last_tick))
    }

    fn remove_slot(&mut self, key: usize) {
        if let Some(s) = self.slots.remove(&key) {
            self.used = self.used.saturating_sub(s.bytes);
        }
    }

    /// Evict strictly-colder-than-`ceiling` slots (never `keep`), coldest
    /// first with the lower key breaking ties, until `need` more bytes fit
    /// the budget. Returns false if they cannot be made to fit.
    fn evict_until(&mut self, need: usize, keep: Option<usize>, ceiling: f64) -> bool {
        loop {
            if self.used + need <= self.budget {
                return true;
            }
            let mut victim: Option<(f64, usize)> = None;
            for &k in self.slots.keys() {
                if Some(k) == keep {
                    continue;
                }
                let s = self.score_of(k);
                if s >= ceiling {
                    continue;
                }
                let better = match victim {
                    None => true,
                    Some((vs, vk)) => s < vs || (s == vs && k < vk),
                };
                if better {
                    victim = Some((s, k));
                }
            }
            match victim {
                Some((_, k)) => self.remove_slot(k),
                None => return false,
            }
        }
    }
}

/// The shared hot tier of one [`crate::IvaIndex`]. Interior mutability
/// (one short-held mutex around the metadata maps) because promotion and
/// scoring happen on the `&self` query path; column payloads live outside
/// the lock as immutable `Arc`s.
pub(crate) struct HotTier {
    inner: Mutex<TierInner>,
}

impl HotTier {
    /// A tier with the given byte budget (0 disables it).
    pub fn new(budget: usize) -> Self {
        Self {
            inner: Mutex::new(TierInner {
                budget,
                ..TierInner::default()
            }),
        }
    }

    /// The tier is a cache of immutable columns validated by epoch and
    /// handle at use, so a poisoned lock (a panicking peer mid-update)
    /// can at worst leave accounting conservative — recover the guard.
    fn lock(&self) -> MutexGuard<'_, TierInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Replace the budget (the `hot_tier_bytes` runtime knob), shedding
    /// coldest-first down to the new limit.
    pub fn set_budget(&self, bytes: usize) {
        let mut g = self.lock();
        g.budget = bytes;
        if bytes == 0 {
            g.slots.clear();
            g.used = 0;
            return;
        }
        g.evict_until(0, None, f64::INFINITY);
    }

    /// Score a consult of `key` and decide how its scan should be served.
    /// `est_bytes` is the caller's pre-build size estimate used for the
    /// fit check (the build re-checks with exact bytes).
    pub fn lookup(&self, key: usize, handle: ListHandle, est_bytes: usize) -> TierLookup {
        let mut g = self.lock();
        if g.budget == 0 {
            return TierLookup::Cold;
        }
        g.tick += 1;
        let tick = g.tick;
        let heat = g.heat.entry(key).or_default();
        heat.score = decayed(heat.score, tick - heat.last_tick) + 1.0;
        heat.last_tick = tick;
        let score = heat.score;

        if let Some(slot) = g.slots.get(&key) {
            if slot.built_from == handle {
                return TierLookup::Hit(slot.data.clone());
            }
            // The list changed since the build (append moved the handle):
            // the column is stale regardless of epoch bookkeeping.
            g.remove_slot(key);
        }
        if score < ADMIT_SCORE || est_bytes > g.budget {
            return TierLookup::Cold;
        }
        let mut freeable = 0usize;
        for (&k, s) in g.slots.iter() {
            if k != key && g.score_of(k) < score {
                freeable += s.bytes;
            }
        }
        if g.used.saturating_sub(freeable) + est_bytes <= g.budget {
            TierLookup::Promote { epoch: g.epoch }
        } else {
            TierLookup::Cold
        }
    }

    /// Publish a freshly built column. Refused (silently — the tier is a
    /// cache) if an invalidation happened since the [`TierLookup::Promote`]
    /// decision, or if the exact bytes no longer fit after evicting
    /// strictly colder columns.
    pub fn insert(&self, key: usize, handle: ListHandle, data: ColumnData, epoch: u64) {
        let mut g = self.lock();
        if g.epoch != epoch || g.budget == 0 {
            return;
        }
        let bytes = data.bytes();
        if bytes > g.budget {
            return;
        }
        let score = g.score_of(key);
        g.remove_slot(key);
        if !g.evict_until(bytes, Some(key), score) {
            return;
        }
        g.used += bytes;
        g.slots.insert(
            key,
            Slot {
                data,
                built_from: handle,
                bytes,
            },
        );
    }

    /// Non-scoring probe: the resident column for `key` if its recorded
    /// handle still matches. Used by scan workers so a parallel plan's
    /// per-worker source opening neither inflates the EWMA nor races a
    /// promotion.
    pub fn peek(&self, key: usize, handle: ListHandle) -> Option<ColumnData> {
        let g = self.lock();
        g.slots
            .get(&key)
            .filter(|s| s.built_from == handle)
            .map(|s| s.data.clone())
    }

    /// Drop `key`'s column and bump the epoch so in-flight builds cannot
    /// publish stale data. Heat survives — mutation does not make an
    /// attribute cold, and the next consults will re-promote it.
    pub fn invalidate(&self, key: usize) {
        let mut g = self.lock();
        g.epoch += 1;
        g.remove_slot(key);
    }

    /// Current resident bytes (tests and introspection).
    #[cfg(test)]
    pub fn used_bytes(&self) -> usize {
        self.lock().used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::veclist::{encode_num_list, encode_text_list};
    use iva_storage::{write_contiguous_list, IoStats, ListReader, PageId, Pager, PagerOptions};

    /// A reader over `data` stored as a list in a fresh in-memory pager.
    fn reader_for(data: &[u8]) -> ListReader {
        let opts = PagerOptions {
            page_size: 128,
            cache_bytes: 4096,
        };
        let p = Pager::create_mem(&opts, IoStats::new());
        let h = write_contiguous_list(&p, data).unwrap();
        ListReader::open(p, h).unwrap()
    }

    fn text_column(raw: &[u8], ty: ListType, codec: &SigCodec, tids: &[u32]) -> Result<TextColumn> {
        build_text_column(TextListCursor::new(reader_for(raw), ty), codec, tids)
    }

    fn num_column(
        raw: &[u8],
        ty: ListType,
        codec: &NumericCodec,
        tids: &[u32],
    ) -> Result<NumColumn> {
        build_num_column(NumListCursor::new(reader_for(raw), ty), codec, tids)
    }

    fn handle(len: u64) -> ListHandle {
        ListHandle {
            head: PageId(1),
            tail: PageId(1),
            len,
        }
    }

    #[test]
    fn tuple_column_bytes() {
        let col = TupleColumn {
            tids: (0..5).collect(),
            ptrs: (0..5).map(|i| i * 10).collect(),
        };
        assert_eq!(col.bytes(), 5 * TUPLE_ENTRY_LEN);
    }

    /// Column min-estimates must equal the cursor fold for every text
    /// organization, including multi-string values, gaps, and lazy tails.
    #[test]
    fn text_column_matches_cursor_semantics() {
        let codec = SigCodec::new(0.3, 2);
        let items: Vec<(u32, Vec<Vec<u8>>)> = vec![
            (
                1,
                vec![
                    codec.encode_to_vec(b"alkaline battery"),
                    codec.encode_to_vec(b"white"),
                ],
            ),
            (4, vec![codec.encode_to_vec(b"red")]),
        ];
        let tids: Vec<u32> = (0..6).collect();
        let matcher = PreparedMatcher::new(&codec, b"white");
        // Expected per-position lower bound: the cursor's min-fold over
        // the position's signatures via `estimate_parts`.
        let expect_at = |pos: u32| -> Option<f64> {
            let sigs = &items.iter().find(|&&(t, _)| t == pos)?.1;
            let mut best = f64::INFINITY;
            for sig in sigs {
                let (len_byte, ch) = sig.split_first().unwrap();
                best = best.min(matcher.estimate_parts(*len_byte, ch).unwrap());
            }
            Some(best)
        };
        for ty in [ListType::I, ListType::II, ListType::III] {
            let raw = encode_text_list(ty, &items, &tids).unwrap();
            let col = text_column(&raw, ty, &codec, &tids).unwrap();
            assert_eq!(col.starts.len(), tids.len() + 1);
            assert_eq!(col.n_strings(), 3);
            let bounds = col.position_bounds(&matcher).unwrap();
            for pos in 0..6u32 {
                let got = bounds[pos as usize];
                let expect = expect_at(pos);
                assert_eq!(
                    (!got.is_nan()).then(|| got.to_bits()),
                    expect.map(f64::to_bits),
                    "type {ty:?} pos {pos}"
                );
            }
            // Past the column: lazy-tail ndf, not a panic.
            assert_eq!(bounds.len(), 6);
        }
    }

    /// Positions whose cells straddle an estimate block, and one with more
    /// cells than a block holds, fold to the same bounds as one sweep over
    /// the whole column.
    #[test]
    fn position_bounds_fold_across_estimate_blocks() {
        let codec = SigCodec::new(0.2, 2);
        let matcher = PreparedMatcher::new(&codec, b"string 41 of tuple 3");
        let strings_of = |t: u32| match t {
            2 => 0,
            3 => 2 * EST_BLOCK + 5,
            _ => 1 + (t as usize * 37) % 200,
        };
        let items: Vec<(u32, Vec<Vec<u8>>)> = (0..9u32)
            .filter(|&t| strings_of(t) > 0)
            .map(|t| {
                let strings = (0..strings_of(t)).map(|j| format!("string {j} of tuple {t}"));
                (
                    t,
                    strings.map(|s| codec.encode_to_vec(s.as_bytes())).collect(),
                )
            })
            .collect();
        let tids: Vec<u32> = (0..9).collect();
        let raw = encode_text_list(ListType::I, &items, &tids).unwrap();
        let col = text_column(&raw, ListType::I, &codec, &tids).unwrap();
        let mut ests = vec![0.0f64; col.n_strings()];
        matcher
            .estimate_block(&col.sigs, col.stride, &mut ests)
            .unwrap();
        let bounds = col.position_bounds(&matcher).unwrap();
        for (pos, cells) in col.starts.windows(2).enumerate() {
            let own = &ests[cells[0] as usize..cells[1] as usize];
            let want = own.iter().copied().fold(f64::INFINITY, f64::min);
            match own.is_empty() {
                true => assert!(bounds[pos].is_nan(), "pos {pos}"),
                false => assert_eq!(bounds[pos].to_bits(), want.to_bits(), "pos {pos}"),
            }
        }
        assert_eq!(bounds[3], 0.0, "tuple 3 holds the query string itself");
    }

    /// One verdict per malformed list, whoever walks it (the `veclist`
    /// module doc): keyed elements whose tid the tuple list does not name
    /// are invisible — between two tuples or past the last one — to the
    /// scan, the column build and the export's postings alike.
    #[test]
    fn unmatched_keyed_elements_are_invisible_to_every_walker() {
        let codec = SigCodec::new(0.3, 2);
        let sig = |s: &str| vec![codec.encode_to_vec(s.as_bytes())];
        let items = vec![(5, sig("kept")), (7, sig("between")), (11, sig("past"))];
        let tids = vec![5u32, 9];
        let matcher = PreparedMatcher::new(&codec, b"kept");
        for ty in [ListType::I, ListType::II] {
            let raw = encode_text_list(ty, &items, &[]).unwrap();
            let col = text_column(&raw, ty, &codec, &tids).unwrap();
            assert_eq!(col.n_strings(), 1, "type {ty:?}");
            let mut scan = TextListCursor::new(reader_for(&raw), ty);
            assert_eq!(scan.advance(5, &codec, &matcher).unwrap(), Some(0.0));
            assert_eq!(scan.advance(9, &codec, &matcher).unwrap(), None);
            let export = TextListCursor::new(reader_for(&raw), ty);
            assert_eq!(export.postings(&codec, &tids).unwrap(), items[..1]);
        }
        let ncodec = NumericCodec::new(0.0, 100.0, 2);
        let nitems: Vec<(u32, u64)> = vec![(5, 1), (7, 2), (11, 3)];
        let raw = encode_num_list(ListType::I, &nitems, &[], &ncodec).unwrap();
        let col = num_column(&raw, ListType::I, &ncodec, &tids).unwrap();
        assert_eq!((col.code_at(0), col.code_at(1)), (Some(1), None));
        let export = NumListCursor::new(reader_for(&raw), ListType::I);
        assert_eq!(export.postings(&ncodec, &tids).unwrap(), nitems[..1]);
    }

    /// The other verdict: a positional list with more elements than the
    /// tuple list is `Corrupt` to the column build and the export alike
    /// (the scan, which stops with the tuple list, never reaches them);
    /// a shorter one is the legal lazy tail.
    #[test]
    fn positional_list_longer_than_tuple_list_is_corrupt_to_every_walker() {
        let corrupt = |e: IvaError| matches!(e, IvaError::Corrupt(_));
        let codec = SigCodec::new(0.3, 2);
        let items = vec![(0, vec![codec.encode_to_vec(b"a")])];
        let raw = encode_text_list(ListType::III, &items, &[0, 1, 2]).unwrap();
        let ncodec = NumericCodec::new(0.0, 100.0, 2);
        let nitems: Vec<(u32, u64)> = vec![(0, 4)];
        let nraw = encode_num_list(ListType::IV, &nitems, &[0, 1, 2], &ncodec).unwrap();
        for (tids, ok) in [
            (&[0u32, 1][..], false),
            (&[0, 1, 2], true),
            (&[0, 1, 2, 3], true),
        ] {
            let text = || TextListCursor::new(reader_for(&raw), ListType::III);
            let built = build_text_column(text(), &codec, tids);
            let exported = text().postings(&codec, tids);
            assert_eq!((built.is_ok(), exported.is_ok()), (ok, ok), "{tids:?}");
            let num = || NumListCursor::new(reader_for(&nraw), ListType::IV);
            let nbuilt = build_num_column(num(), &ncodec, tids);
            let nexported = num().postings(&ncodec, tids);
            assert_eq!((nbuilt.is_ok(), nexported.is_ok()), (ok, ok), "{tids:?}");
            if !ok {
                assert!(built.err().is_some_and(corrupt) && exported.err().is_some_and(corrupt));
                assert!(nbuilt.err().is_some_and(corrupt) && nexported.err().is_some_and(corrupt));
            }
        }
    }

    #[test]
    fn num_column_matches_cursor_semantics() {
        let codec = NumericCodec::new(0.0, 100.0, 2);
        let items: Vec<(u32, u64)> = vec![(1, codec.encode(10.0)), (4, codec.encode(90.0))];
        let tids: Vec<u32> = (0..6).collect();
        for ty in [ListType::I, ListType::IV] {
            let raw = encode_num_list(ty, &items, &tids, &codec).unwrap();
            let col = num_column(&raw, ty, &codec, &tids).unwrap();
            assert_eq!(col.codes.len(), 6);
            for pos in 0..6 {
                let expect = items
                    .iter()
                    .find(|&&(t, _)| t as usize == pos)
                    .map(|&(_, c)| c);
                assert_eq!(col.code_at(pos), expect, "type {ty:?} pos {pos}");
            }
            assert_eq!(col.code_at(6), None);
        }
    }

    #[test]
    fn num_type_iv_lazy_tail_reads_ndf() {
        let codec = NumericCodec::new(0.0, 10.0, 1);
        let items: Vec<(u32, u64)> = vec![(0, codec.encode(1.0))];
        let raw = encode_num_list(ListType::IV, &items, &[0u32], &codec).unwrap();
        let tids: Vec<u32> = (0..4).collect();
        let col = num_column(&raw, ListType::IV, &codec, &tids).unwrap();
        assert!(col.code_at(0).is_some());
        for pos in 1..4 {
            assert_eq!(col.code_at(pos), None, "pos {pos}");
        }
    }

    fn tuple_data(n: usize) -> ColumnData {
        ColumnData::Tuple(Arc::new(TupleColumn {
            tids: vec![0; n],
            ptrs: vec![0; n],
        }))
    }

    #[test]
    fn admission_needs_repeated_touches() {
        let tier = HotTier::new(1 << 20);
        let h = handle(100);
        // First touch: score 1.0 < 2.0 — cold.
        assert!(matches!(tier.lookup(3, h, 100), TierLookup::Cold));
        // Repeated touches cross the threshold.
        let mut promoted = false;
        for _ in 0..5 {
            if let TierLookup::Promote { epoch } = tier.lookup(3, h, 100) {
                tier.insert(3, h, tuple_data(10), epoch);
                promoted = true;
                break;
            }
        }
        assert!(promoted);
        assert!(matches!(tier.lookup(3, h, 100), TierLookup::Hit(_)));
        assert_eq!(tier.used_bytes(), 10 * TUPLE_ENTRY_LEN);
    }

    #[test]
    fn disabled_tier_stays_cold() {
        let tier = HotTier::new(0);
        for _ in 0..10 {
            assert!(matches!(tier.lookup(1, handle(10), 10), TierLookup::Cold));
        }
    }

    #[test]
    fn handle_mismatch_invalidates_hit() {
        let tier = HotTier::new(1 << 20);
        let h1 = handle(100);
        let epoch = loop {
            if let TierLookup::Promote { epoch } = tier.lookup(1, h1, 100) {
                break epoch;
            }
        };
        tier.insert(1, h1, tuple_data(8), epoch);
        assert!(tier.peek(1, h1).is_some());
        // The list grew: same key, different handle — no hit, no stale peek.
        let h2 = handle(200);
        assert!(tier.peek(1, h2).is_none());
        assert!(!matches!(tier.lookup(1, h2, 200), TierLookup::Hit(_)));
    }

    #[test]
    fn stale_epoch_insert_is_refused() {
        let tier = HotTier::new(1 << 20);
        let h = handle(100);
        let epoch = loop {
            if let TierLookup::Promote { epoch } = tier.lookup(1, h, 100) {
                break epoch;
            }
        };
        tier.invalidate(1);
        tier.insert(1, h, tuple_data(8), epoch);
        assert!(tier.peek(1, h).is_none());
        assert_eq!(tier.used_bytes(), 0);
    }

    #[test]
    fn budget_evicts_colder_columns() {
        let bytes_per = 10 * TUPLE_ENTRY_LEN; // 120
        let tier = HotTier::new(2 * bytes_per + 10);
        let promote = |key: usize| loop {
            if let TierLookup::Promote { epoch } = tier.lookup(key, handle(key as u64), bytes_per) {
                tier.insert(key, handle(key as u64), tuple_data(10), epoch);
                break;
            }
        };
        promote(1);
        promote(2);
        assert_eq!(tier.used_bytes(), 2 * bytes_per);
        // Key 3 heats up far beyond the others; admitting it must evict
        // the coldest, not blow the budget.
        for _ in 0..20 {
            match tier.lookup(3, handle(3), bytes_per) {
                TierLookup::Promote { epoch } => {
                    tier.insert(3, handle(3), tuple_data(10), epoch);
                }
                TierLookup::Hit(_) => break,
                TierLookup::Cold => {}
            }
        }
        assert!(tier.peek(3, handle(3)).is_some());
        assert!(tier.used_bytes() <= 2 * bytes_per + 10);
    }

    #[test]
    fn oversized_column_never_admitted() {
        let tier = HotTier::new(100);
        for _ in 0..10 {
            assert!(matches!(tier.lookup(1, handle(7), 101), TierLookup::Cold));
        }
    }

    #[test]
    fn set_budget_zero_clears() {
        let tier = HotTier::new(1 << 20);
        let h = handle(9);
        let epoch = loop {
            if let TierLookup::Promote { epoch } = tier.lookup(4, h, 50) {
                break epoch;
            }
        };
        tier.insert(4, h, tuple_data(4), epoch);
        assert!(tier.peek(4, h).is_some());
        tier.set_budget(0);
        assert!(tier.peek(4, h).is_none());
        assert_eq!(tier.used_bytes(), 0);
    }
}

//! lint:scope(panic-reachability)
//! The scan spine: the one walk of Algorithm 1 (Sec. IV-A) and the one
//! refine step every execution shape runs.
//!
//! [`IvaIndex::scan`] walks the tuple list once, a block of at most
//! [`BLOCK`] elements at a time, in step with the vector lists
//! of every [`Lane`] riding it. A lane is one query: its per-attribute
//! [`AttrScan`] positions and the block of lower bounds they fill
//! ([`Bounds`]), its top-k pool and counters (a [`ScanCarry`]), and
//! `pending` — every candidate `(est, tid, ptr)` the live pool admitted
//! during the walk. Per block, each attribute fills its column of bounds
//! once; admission then runs per candidate, in scan order, so a drain
//! inside a block tightens the pool for the rest of it. The walk fetches
//! nothing: a tuple *ndf* on every query attribute goes straight into the
//! pool, and so does an admitted one whose distance the dictionaries
//! decide ("Exact from the dictionary" below); any other admitted one
//! goes into `pending`. When the walk ends (or a lane holds a window of
//! `drain_at` candidates) the lane **drains**,
//! fetching by need, not scan position:
//!
//! 1. **probe** — the k candidates with the smallest `(est, tid)` are
//!    refined first, in table order. They are the likeliest answers, so
//!    after them the pool's threshold is at or near its final value;
//! 2. **sweep** — the rest of `pending`, in scan order, each tested
//!    against the now-tight pool *before* it is fetched.
//!
//! Both passes run the same routine, Algorithm 1's refine step: a
//! candidate the pool still admits costs one [`SwtTable::read`] of its
//! pointer, and its distance is computed from the record's bytes in the
//! page that read holds ([`bounded_distance`], see "Refine on bytes"
//! below). Table order inside a pass keeps the cold path's reads
//! ascending — strict best-first order would seek backwards for every
//! record.
//!
//! **Leaping.** Where *ndf* cannot pass a 1-value query's limit (below)
//! and the list's postings say that few positions hold a string that can,
//! the seed carries those positions ([`Leap`]). While every lane of a walk
//! has such candidates, the next block starts at the lowest next candidate
//! among them: the directory skips whole frames by header, and a leaping
//! fill writes its candidates' bounds and mask from the seed, loading no
//! list frame. Past the postings' cover — the RAW tail inserts append —
//! the list's cursor is placed by frame headers and the seeded walk goes
//! on as before. A leap passes over only positions that every lane's
//! candidate mask would clear.
//!
//! **Exact from the dictionary.** A query parses each text list's
//! dictionary once, when it is prepared; its probe and its lane share
//! that copy, and the lane holds one table per text attribute ([`Exact`]): per code, its
//! estimate, unseen, or — where the dictionary holds strings — the query
//! string's edit distance to the code's string, or a lower bound on it.
//! Every fill bounds a value by the min over its codes' bounds, recording
//! its codes where there are strings. A position the pool admits whose
//! every bound is such a value's takes per attribute the min over its
//! codes' distances, each computed at first need and capped where, every
//! other attribute at 0, the pool's threshold is past ([`edits_beyond`]),
//! and goes into the pool at `combine(λ·d)`, as [`bounded_distance`] would
//! compute it from its record. A RAW tail value, a numeric or
//! signature-only one, and a Type I value the element walk serves are not
//! recorded: the position goes to `pending`. A 1-value query probes the
//! dictionary before its walk ([`Seed`]): exact distances in ascending
//! estimate order give a bound `B` with at least k + the index's tombstones
//! counted values at or below it, so at least k live tuples lie at or below
//! `limit = combine(λ·B)`. The walk skips every tuple whose estimate or
//! decided distance is past `limit`; its lane starts from the probe's
//! table, whose rule drops from the block's candidates ([`Bounds`]) every
//! position whose codes, or *ndf*, cannot pass. An unseeded lane's rule
//! lets everything through.
//!
//! **Order-independence lemma.** The pool keeps the k smallest
//! `(dist, tid)` of what was inserted, whatever the order (see
//! [`crate::pool`]). A candidate is skipped — at walk time or before its
//! fetch — only when `(est, tid)` is at or above the pool's worst entry,
//! or when its estimate or decided distance is past `limit` (a leap skips
//! only such positions), where at least k live tuples lie at or below
//! `limit`; `est ≤ dist`, and the worst entry only falls, so a skipped
//! candidate is not among the k smallest `(dist, tid)` of the tuples
//! visited. Every entry inserted is at its exact distance, but for one
//! whose least string is past a cap — above a threshold that only falls,
//! so the pool rejects it. Hence *any* visiting order, window size or
//! partition into lanes leaves the pool holding exactly those k, and
//! because every tuple list is tid-ascending that is Algorithm 1's
//! "strictly smaller distance, first arrival wins" answer. What the order
//! changes is only how many records are fetched
//! ([`crate::QueryStats::table_accesses`]); every fetch is of a candidate
//! the pool admitted at that moment.
//!
//! **Refine on bytes.** The refine step hands [`bounded_distance`] the
//! pool's [`refine_cap`](crate::ResultPool::refine_cap) for the candidate's tid
//! and gets back the exact distance if that is below the cap and otherwise
//! *some* value at or above it. The cap is the pool's threshold, stepped
//! up one ulp when the tid would win a tie against the worst entry — so
//! the distance is exact up to *and including* the threshold exactly when
//! a tie can be admitted, and every value `insert_at` admits is exact.
//! Whatever it rejects it would have rejected at its exact value too.
//!
//! A query runs on the thread that issued it. The two execution shapes
//! are arguments of the one function:
//!
//! * **serial** — one lane on the caller's carried pool
//!   ([`IvaIndex::query_carry`]); a pool carried across LSM tiers is
//!   simply already tight when the next tier's walk starts;
//! * **batch** — N lanes sharing the tuple-list read
//!   ([`IvaIndex::query_batch`]); each lane drains on its own count, so
//!   its numbers are those of its solo run.

use iva_swt::{FieldLoc, RecordBuf, RecordPtr, SwtTable};
use iva_text::{PreparedMatcher, PreparedPattern, SigCodec};

use crate::error::{IvaError, Result};
use crate::index::{IvaIndex, QueryMatchers, ScanCarry, SharedAttr};
use crate::layout::TOMBSTONE_PTR;
use crate::metric::Metric;
use crate::numeric::NumericCodec;
use crate::packed::{Cands, Exact, Leap, Seed};
use crate::pool::{PoolEntry, ResultPool};
use crate::query::{bounded_distance, edits_beyond, Query};
use crate::timing::{monotonic_nanos, thread_cpu_time};
use crate::veclist::{NumListCursor, TextListCursor};

/// One lane's scan position over one query attribute: borrows the
/// immutable per-query state ([`SharedAttr`]) and owns the position.
pub(crate) enum AttrScan<'a> {
    Text {
        cur: TextListCursor,
        codec: &'a SigCodec,
        matcher: &'a PreparedMatcher,
        /// The seed's candidates and the next one to serve, until the
        /// scan reaches the positions they do not cover.
        leap: Option<(&'a Leap, usize)>,
        /// This lane's table: a copy of the seed's, if it has one.
        exact: Exact,
    },
    Num {
        cur: NumListCursor,
        codec: &'a NumericCodec,
        q: f64,
    },
    /// No tuple in the index defines the attribute.
    AlwaysNdf,
}

impl<'a> AttrScan<'a> {
    /// Open at the head of the attribute's list.
    fn open(index: &'a IvaIndex, sa: &'a SharedAttr<'a>, seed: Option<&'a Seed>) -> Result<Self> {
        Ok(match sa {
            SharedAttr::Text {
                matcher,
                entry,
                dict,
            } => AttrScan::Text {
                cur: TextListCursor::new(
                    index.list_reader(entry)?.with_dict(dict),
                    entry.list_type,
                ),
                codec: index.sig_codec(),
                matcher,
                leap: seed.and_then(|s| s.leap.as_ref()).map(|l| (l, 0)),
                exact: seed.map_or_else(|| Exact::new(dict, matcher), |s| Ok(s.exact.clone()))?,
            },
            SharedAttr::Num { q, codec, entry } => AttrScan::Num {
                cur: index.open_num_cursor(entry)?,
                codec,
                q: *q,
            },
            SharedAttr::AlwaysNdf => AttrScan::AlwaysNdf,
        })
    }

    /// Place a leaping text scan whose cursor has not moved at the end of
    /// its candidates' cover: the frames they cover are skipped by header,
    /// and the walk goes on from there.
    fn land(&mut self) -> Result<()> {
        if let AttrScan::Text { cur, leap, .. } = self {
            if let Some((l, _)) = leap.take() {
                cur.skip_covered(l)?;
            }
        }
        Ok(())
    }

    /// Where a leaping scan at position `at` has its next candidate — the
    /// end of its candidates' cover once they run out; `None` where it
    /// does not leap.
    fn next_candidate(&self, at: u64) -> Option<u64> {
        let AttrScan::Text {
            leap: Some((l, next)),
            ..
        } = self
        else {
            return None;
        };
        let next = l.get(*next).map_or(l.covered, |(p, _)| p);
        (at < l.covered).then_some(next)
    }

    /// The fill contract: move over `tids`, the block of tuple-list
    /// elements from position `at` on, writing each one's lower bound on
    /// its difference to the query value into `out` — `NaN` for *ndf*;
    /// bounds are never `NaN`, and never below zero. A text fill bounds by
    /// the lane's [`Exact`] table, writes only the elements it serves from
    /// frames that the table's rule lets through, clears the others' bits
    /// in `cands`, and records the codes of a dictionary of strings. A
    /// leaping one writes its candidates' bounds and clears every other
    /// bit, where they cover the block. Tombstoned elements are filled
    /// like any other (the spine never admits them).
    fn fill(&mut self, at: u64, tids: &[u32], out: &mut [f64], mut cands: Cands<'_>) -> Result<()> {
        if let AttrScan::Text {
            leap: Some((l, next)),
            exact,
            ..
        } = self
        {
            let n = usize::try_from(l.covered.saturating_sub(at))
                .map_or(tids.len(), |n| n.min(tids.len()));
            let mut from = 0;
            while let Some((p, code)) = l.get(*next).filter(|&(p, _)| p < at + n as u64) {
                let j = usize::try_from(p.saturating_sub(at)).unwrap_or(0);
                if let Some(slot) = out.get_mut(j).filter(|_| p >= at) {
                    let lb = exact
                        .lb
                        .get(code as usize)
                        .copied()
                        .unwrap_or(f64::INFINITY);
                    if j < from {
                        // Another code of the candidate just written.
                        *slot = slot.min(lb);
                    } else {
                        cands.reject(from..j);
                        (*slot, from) = (lb, j + 1);
                    }
                    exact.one(cands.at + j, &[code]);
                }
                *next += 1;
            }
            cands.reject(from..n);
            if n == tids.len() {
                return Ok(());
            }
            // The rest of the block lies past the candidates.
            self.land()?;
            let (tids, out) = (
                tids.get(n..).unwrap_or(&[]),
                out.get_mut(n..).unwrap_or(&mut []),
            );
            cands.at += n;
            return self.fill(at + n as u64, tids, out, cands);
        }
        match self {
            AttrScan::Text {
                cur,
                codec,
                matcher,
                exact,
                ..
            } => cur.fill(tids, codec, matcher, exact, out, cands),
            AttrScan::Num { cur, codec, q } => cur.fill_block(tids, codec, *q, out),
            AttrScan::AlwaysNdf => {
                out.fill(f64::NAN);
                Ok(())
            }
        }
    }
}

/// The positions `mask` holds, ascending.
fn positions(mask: [u64; BLOCK / 64]) -> impl Iterator<Item = usize> {
    mask.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            let i = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (i < 64).then_some(w * 64 + i)
        })
    })
}

/// The least of `next`, if it holds at least one and each is `Some`.
fn least(mut next: impl Iterator<Item = Option<u64>>) -> Option<u64> {
    let first = next.next()??;
    next.try_fold(first, |m, c| Some(m.min(c?)))
}

/// Tuple-list elements per step of the walk: one `fill` per attribute, then
/// one admission loop. A block never spans two directory frames (1,024
/// elements). Blocks of 128 to 1,024 measured alike and 64 slower
/// (EXPERIMENTS.md); 256 keeps the bounds at 2 KiB per attribute.
pub(crate) const BLOCK: usize = 256;

/// How many elements the next block of a walk with `left` to go takes.
pub(crate) fn block_len(left: u64) -> usize {
    usize::try_from(left).map_or(BLOCK, |l| l.min(BLOCK))
}

/// One walk's per-attribute scan positions, the block of lower bounds
/// they fill — a column of [`BLOCK`] slots per query attribute — and the
/// block's candidate mask: bit `i % 64` of word `i / 64` is set while
/// block position `i` may pass the lane's limit.
pub(crate) struct Bounds<'a> {
    attrs: Vec<AttrScan<'a>>,
    lbs: Vec<f64>,
    cands: [u64; BLOCK / 64],
}

impl<'a> Bounds<'a> {
    /// One scan per query attribute, each at the head of its list, under
    /// the 1-value query's [`Seed`] if it has one.
    pub(crate) fn open(
        index: &'a IvaIndex,
        shared: &'a [SharedAttr<'a>],
        seed: Option<&'a Seed>,
    ) -> Result<Self> {
        let attrs = shared.iter().map(|sa| AttrScan::open(index, sa, seed));
        let attrs = attrs.collect::<Result<Vec<_>>>()?;
        let lbs = vec![f64::NAN; attrs.len() * BLOCK];
        let cands = [u64::MAX; BLOCK / 64];
        Ok(Self { attrs, lbs, cands })
    }

    /// Fill every attribute's column for the next block (≤ [`BLOCK`], from
    /// position `at` on), a column at a time. Every position starts as a
    /// candidate; a fill clears those its rule does not let through.
    pub(crate) fn fill(&mut self, at: u64, tids: &[u32]) -> Result<()> {
        let too_long = || IvaError::InvalidArgument("block too long".into());
        self.cands = [u64::MAX; BLOCK / 64];
        for (a, col) in self.attrs.iter_mut().zip(self.lbs.chunks_exact_mut(BLOCK)) {
            let col = col.get_mut(..tids.len()).ok_or_else(too_long)?;
            if let AttrScan::Text { exact, .. } = a {
                exact.clear();
            }
            let cands = Cands {
                bits: &mut self.cands,
                at: 0,
            };
            a.fill(at, tids, col, cands)?;
        }
        Ok(())
    }

    /// Where the walk at position `at` may start its next block for this
    /// query: its next candidate, if it leaps (see [`Leap`]).
    fn next_candidate(&self, at: u64) -> Option<u64> {
        least(self.attrs.iter().map(|a| a.next_candidate(at)))
    }

    /// `diffs[a] = λₐ · (block position i's bound on attribute a, or the
    /// ndf penalty)`; whether every entry is the ndf penalty, so that
    /// `combine(diffs)` is the distance.
    #[inline]
    pub(crate) fn weigh(&self, i: usize, lambda: &[f64], ndf: f64, diffs: &mut [f64]) -> bool {
        let mut exact = true;
        let cols = self.lbs.chunks_exact(BLOCK);
        for ((d, &lam), col) in diffs.iter_mut().zip(lambda).zip(cols) {
            let lb = col.get(i).copied().unwrap_or(f64::NAN);
            exact &= lb.is_nan();
            *d = lam * if lb.is_nan() { ndf } else { lb };
        }
        exact
    }
}

/// Pending candidates at which a lane drains mid-walk (1.5 MiB of
/// them). A window's probe can only be as good as the window is
/// wide, so this is sized to hold a whole scan's candidates in practice;
/// [`IvaIndex::scan`] takes it as an argument only so tests can shrink it.
pub(crate) const DRAIN_AT: usize = 65_536;

/// One query riding a scan.
pub(crate) struct Lane<'a> {
    query: &'a Query,
    lambda: &'a [f64],
    /// One slot per query value: its prepared pattern, for a text one.
    patterns: Vec<Option<&'a PreparedPattern>>,
    bounds: Bounds<'a>,
    carry: &'a mut ScanCarry,
    /// One slot per query value: the filter's weighted lower bounds
    /// during the walk, the refine step's weighted differences in a drain.
    diffs: Vec<f64>,
    /// [`edits_beyond`]'s scratch, one slot per query value.
    spare: Vec<f64>,
    /// Where a fetched record keeps the query's attributes (refine only).
    locs: Vec<FieldLoc>,
    /// Admitted by the live pool during the walk and not refined yet, in
    /// scan order — entries whose `dist` is the *estimate*. Grown on
    /// demand and reused across drains.
    pending: Vec<PoolEntry>,
    /// A tuple with `est > limit` is skipped: the [`Seed`]'s, `+∞` without
    /// one.
    limit: f64,
}

impl<'a> Lane<'a> {
    /// A lane for `query` under the resolved weights `lambda`, filling
    /// `carry` — under `seed`, the query's on this index if it has one.
    /// This is the spine's entry for every shape, so the weight vector is
    /// checked here, once.
    pub(crate) fn open(
        index: &'a IvaIndex,
        query: &'a Query,
        lambda: &'a [f64],
        shared: &'a [SharedAttr<'a>],
        seed: Option<&'a Seed>,
        carry: &'a mut ScanCarry,
    ) -> Result<Self> {
        if lambda.len() != query.len() {
            return Err(IvaError::InvalidArgument(format!(
                "weight vector has {} entries for a {}-attribute query",
                lambda.len(),
                query.len()
            )));
        }
        // A negative weight turns the filter's lower bound into an upper
        // one; a non-finite one poisons every distance.
        if let Some(bad) = lambda.iter().find(|l| !(l.is_finite() && **l >= 0.0)) {
            return Err(IvaError::InvalidArgument(format!(
                "attribute weight {bad} is not a finite number ≥ 0"
            )));
        }
        Ok(Self {
            query,
            lambda,
            patterns: shared.iter().map(SharedAttr::pattern).collect(),
            bounds: Bounds::open(index, shared, seed)?,
            carry,
            diffs: vec![0.0; query.len()],
            spare: vec![0.0; query.len()],
            locs: Vec::with_capacity(query.len()),
            pending: Vec::new(),
            limit: seed.map_or(f64::INFINITY, |s| s.limit),
        })
    }

    /// Block position `i`'s distance where the walk can decide it without
    /// a fetch, `diffs` holding what [`Bounds::weigh`] left there: each
    /// attribute whose entry is a bound takes `λ ·` its difference from
    /// the lane's exact table ([`Exact::decide`]), each code capped where,
    /// every other attribute at 0, the pool's threshold is past
    /// ([`edits_beyond`]); `+∞` where a value's every code is past a cap.
    /// `None` where a bound's codes were not recorded: the tuple is fetched.
    fn decide<M: Metric>(&mut self, i: usize, metric: &M) -> Result<Option<f64>> {
        let Bounds { attrs, lbs, .. } = &mut self.bounds;
        let bound_at = |col: &[f64]| col.get(i).is_some_and(|lb| !lb.is_nan());
        let recorded = |a: &AttrScan| matches!(a, AttrScan::Text { exact, .. } if exact.holds(i));
        let mut open = attrs.iter().zip(lbs.chunks_exact(BLOCK));
        if !open.all(|(a, col)| !bound_at(col) || recorded(a)) {
            return Ok(None);
        }
        let (threshold, spare) = (self.carry.pool.threshold(), &mut self.spare);
        let values = attrs.iter_mut().zip(lbs.chunks_exact(BLOCK));
        for (slot, ((a, col), q)) in values.zip(&self.patterns).enumerate() {
            if !bound_at(col) {
                continue;
            }
            let AttrScan::Text { exact, .. } = a else {
                return Ok(None);
            };
            let (Some(q), Some(d), Some(&lam)) =
                (q, self.diffs.get_mut(slot), self.lambda.get(slot))
            else {
                return Ok(None);
            };
            let cap = |edits| edits_beyond(spare, slot, lam, edits, metric, threshold);
            let distances = &mut self.carry.stats.dict_distances;
            match exact.decide(i, q, cap, distances)? {
                Some(e) => *d = lam * e as f64,
                None => return Ok(Some(f64::INFINITY)),
            }
        }
        Ok(Some(metric.combine(&self.diffs)))
    }
}

/// Per-thread CPU time one [`IvaIndex::scan`] call spent in each phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseNanos {
    pub(crate) filter: u64,
    pub(crate) refine: u64,
}

impl IvaIndex {
    /// [`IvaIndex::prepare_query`], and a 1-value text query's [`Seed`]
    /// for `carry`'s k where its list's dictionary holds strings
    /// (see the module doc), with the CPU nanos both took. The probe needs
    /// k + this index's tombstones counted values: a counted value may
    /// since have been deleted, and RAW tail inserts only add values.
    /// Preparation is filter work — any matcher `matchers` could not lend,
    /// and the probe — so
    /// every execution shape's entry charges it to `filter_nanos` (and
    /// whoever built `matchers` charges their build once).
    pub(crate) fn prepare_query_timed<'a, M: Metric>(
        &'a self,
        query: &Query,
        matchers: &'a QueryMatchers,
        (lambda, metric): (&[f64], &M),
        carry: &mut ScanCarry,
    ) -> Result<(Vec<SharedAttr<'a>>, Option<Seed>, u64)> {
        let (start, k) = (thread_cpu_time(), carry.pool.capacity());
        let shared = self.prepare_query(query, matchers)?;
        let seed = match (shared.as_slice(), lambda) {
            (
                [SharedAttr::Text {
                    matcher,
                    entry,
                    dict,
                }],
                &[lam],
            ) if k > 0 => {
                let (n, logical) = (self.n_tuples(), entry.logical_len);
                let counts = (k as u64, self.n_deleted(), entry.df, n, logical);
                dict.probe(matcher, counts, (lam, self.config().ndf_penalty, metric))?
            }
            _ => None,
        };
        carry.stats.dict_distances += seed.as_ref().map_or(0, |s| s.distances);
        Ok((shared, seed, thread_cpu_time().saturating_sub(start)))
    }

    /// Walk the tuple list once for every lane, draining each lane at
    /// `drain_at` pending candidates and at the end of the list (see the
    /// module doc). Lanes must be freshly opened.
    pub(crate) fn scan<M: Metric>(
        &self,
        table: &SwtTable,
        lanes: &mut [Lane<'_>],
        drain_at: usize,
        metric: &M,
    ) -> Result<PhaseNanos> {
        let (ndf, n) = (self.config().ndf_penalty, self.n_tuples());
        let mut tsrc = self.open_tuple_source()?;
        let mut refiner = Refiner {
            table,
            metric,
            ndf,
            buf: RecordBuf::default(),
        };
        // The thread-CPU clock is a real syscall (~0.2 µs), so it is read
        // twice per scan; the scan's CPU time is split between the phases
        // by the share of the (vDSO, ~25 ns) monotonic clock the drains
        // took.
        let mut refine_wall = 0u64;
        let (cpu_start, wall_start) = (thread_cpu_time(), monotonic_nanos());
        let (mut tids, mut ptrs) = (Vec::with_capacity(BLOCK), Vec::with_capacity(BLOCK));
        let mut at = 0;
        while at < n {
            // Where every lane leaps, the next block starts at the lowest
            // next candidate among them.
            let to = least(lanes.iter().map(|l| l.bounds.next_candidate(at)));
            if let Some(to) = to.map(|to| to.min(n)).filter(|&to| to > at) {
                tsrc.leap(to - at)?;
                at = to;
                continue;
            }
            tids.clear();
            ptrs.clear();
            tsrc.next_block(block_len(n - at), &mut tids, &mut ptrs)?;
            for lane in lanes.iter_mut() {
                lane.carry.stats.tuples_scanned += tids.len() as u64;
                lane.bounds.fill(at, &tids)?;
                let coded = (lane.bounds.attrs.iter())
                    .any(|a| matches!(a, AttrScan::Text { exact, .. } if !exact.codes.is_empty()));
                // Admission stays per candidate, in scan order: a drain
                // inside the block tightens the pool for the rest of it.
                for i in positions(lane.bounds.cands) {
                    let (Some(&tid), Some(&ptr)) = (tids.get(i), ptrs.get(i)) else {
                        break;
                    };
                    lane.carry.stats.positions_weighed += 1;
                    if ptr == TOMBSTONE_PTR {
                        continue;
                    }
                    let exact = lane.bounds.weigh(i, lane.lambda, ndf, &mut lane.diffs);
                    let est = metric.combine(&lane.diffs);
                    if est > lane.limit {
                        continue;
                    }
                    let (tid, dist, ptr) = (u64::from(tid), est, RecordPtr(ptr));
                    let exact = match exact {
                        true => Some(dist),
                        false if !lane.carry.pool.admits_at(est, tid) => continue,
                        false if coded => lane.decide(i, metric)?,
                        false => None,
                    };
                    // A decided distance past the limit is skipped, as an
                    // estimate is.
                    if exact.is_some_and(|d| d > lane.limit) {
                        continue;
                    }
                    let ScanCarry { pool, stats } = &mut *lane.carry;
                    if let Some(exact) = exact {
                        stats.walk_admits += u64::from(pool.insert_at(tid, exact, ptr));
                    } else {
                        lane.pending.push(PoolEntry { tid, dist, ptr });
                        if lane.pending.len() >= drain_at {
                            refine_wall += refiner.drain(lane)?;
                        }
                    }
                }
            }
            at += tids.len() as u64;
        }
        for lane in lanes.iter_mut() {
            refine_wall += refiner.drain(lane)?;
        }
        let cpu = thread_cpu_time().saturating_sub(cpu_start);
        let wall = monotonic_nanos().saturating_sub(wall_start).max(1);
        let refine = (u128::from(cpu) * u128::from(refine_wall) / u128::from(wall)) as u64;
        let refine = refine.min(cpu);
        Ok(PhaseNanos {
            filter: cpu - refine,
            refine,
        })
    }

    /// One query's walk on the carried pool: the serial shape, and a
    /// segmented store's call per tier, in tid order — a pool carried
    /// across tiers is already tight when the next tier's walk starts, so
    /// the concatenated walk is bit-identical to one over a single index
    /// holding every tuple. `lambda` is the resolved per-query-attribute
    /// weight vector; a segmented store resolves it once, globally, so
    /// every tier admits under the one λ its distances are computed with —
    /// and builds the query's `matchers` once too, and charges their build.
    pub fn query_carry<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        matchers: &QueryMatchers,
        metric: &M,
        lambda: &[f64],
        carry: &mut ScanCarry,
    ) -> Result<()> {
        self.query_carry_windowed(table, query, matchers, metric, lambda, DRAIN_AT, carry)
    }

    /// [`IvaIndex::query_carry`] with the spine's drain window as an
    /// argument. Test hook: the window is not an option — every engine
    /// runs the one crate-private constant — but the suites shrink it to
    /// put window boundaries inside small tables.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn query_carry_windowed<M: Metric>(
        &self,
        table: &SwtTable,
        query: &Query,
        matchers: &QueryMatchers,
        metric: &M,
        lambda: &[f64],
        drain_at: usize,
        carry: &mut ScanCarry,
    ) -> Result<()> {
        let (shared, seed, prepare_nanos) =
            self.prepare_query_timed(query, matchers, (lambda, metric), carry)?;
        let lane = Lane::open(self, query, lambda, &shared, seed.as_ref(), carry)?;
        let nanos = self.scan(table, &mut [lane], drain_at, metric)?;
        carry.stats.filter_nanos += prepare_nanos + nanos.filter;
        carry.stats.refine_nanos += nanos.refine;
        self.list_bytes_into(&shared, &mut carry.stats);
        Ok(())
    }
}

/// The refine step of one [`IvaIndex::scan`] call: what every drain
/// needs besides the lane, and the record buffer reused across fetches.
struct Refiner<'a, M> {
    table: &'a SwtTable,
    metric: &'a M,
    ndf: f64,
    buf: RecordBuf,
}

impl<M: Metric> Refiner<'_, M> {
    /// Drain `lane.pending`: probe the k smallest `(est, tid)`, then sweep
    /// the rest, both in scan order (see the module doc). Returns the
    /// monotonic-clock nanos it took.
    fn drain(&mut self, lane: &mut Lane<'_>) -> Result<u64> {
        if lane.pending.is_empty() {
            return Ok(0);
        }
        let start = monotonic_nanos();
        let pending = std::mem::take(&mut lane.pending);
        // Bounded-heap selection: a pool keyed by estimate keeps exactly
        // the probe set, and its worst entry is the cut between probe and
        // sweep. With k or fewer candidates the probe is everything.
        let mut best = ResultPool::new(lane.carry.pool.capacity());
        for c in &pending {
            best.insert_at(c.tid, c.dist, c.ptr);
        }
        let cut = best.worst().copied();
        let mut probe = best.into_sorted();
        probe.sort_unstable_by_key(|c| c.tid); // back into table order
        self.pass(lane, probe.into_iter(), None)?;
        if cut.is_some() {
            self.pass(lane, pending.iter().copied(), cut)?;
        }
        lane.pending = pending;
        lane.pending.clear();
        Ok(monotonic_nanos().saturating_sub(start))
    }

    /// Algorithm 1's refine step over `cands` (`dist` holds the estimate):
    /// every candidate the lane's pool still admits — and that lies above
    /// `cut`, if the probe already took everything at or below it — is
    /// fetched, read in place and offered to the pool at its distance.
    fn pass(
        &mut self,
        lane: &mut Lane<'_>,
        cands: impl Iterator<Item = PoolEntry>,
        cut: Option<PoolEntry>,
    ) -> Result<()> {
        let ScanCarry { pool, stats } = &mut *lane.carry;
        for c in cands {
            if !pool.admits_at(c.dist, c.tid) || cut.is_some_and(|cut| c <= cut) {
                continue;
            }
            let rec = self.table.read(c.ptr, &mut self.buf)?;
            stats.table_accesses += 1;
            let actual = bounded_distance(
                &rec.view,
                lane.query,
                &lane.patterns,
                lane.lambda,
                self.metric,
                self.ndf,
                pool.refine_cap(c.tid),
                &mut lane.diffs,
                &mut lane.locs,
            )?;
            pool.insert_at(c.tid, actual, c.ptr);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, IndexTarget};
    use crate::config::IvaConfig;
    use crate::index::IvaIndex;
    use crate::metric::{MetricKind, WeightScheme};
    use crate::multi::BatchItem;
    use crate::packed::Known;
    use iva_storage::{IoStats, PagerOptions};
    use iva_swt::{AttrId, Tuple, Value};

    /// The scan reads the CPU clock twice and apportions it by the
    /// drains' monotonic share: both phases are charged, and together they
    /// are the scan's CPU time.
    #[test]
    fn phase_nanos_split_one_cpu_reading() {
        let opts = PagerOptions {
            page_size: 512,
            cache_bytes: 64 * 1024,
        };
        let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        let name = table.define_text("name").unwrap();
        for i in 0..2_000u32 {
            let tup = Tuple::new().with(name, Value::text(format!("item number {i}")));
            table.insert(&tup).unwrap();
        }
        let cfg = IvaConfig::default();
        let index = build_index(&table, IndexTarget::Mem, &opts, IoStats::new(), cfg).unwrap();
        let q = Query::new().text(AttrId(0), "item number 77");
        let matchers = index.query_matchers(&q);
        let shared = index.prepare_query(&q, &matchers).unwrap();
        let mut carry = ScanCarry::new(10);
        let mut lanes = [Lane::open(&index, &q, &[1.0], &shared, None, &mut carry).unwrap()];
        let before = crate::timing::thread_cpu_time();
        let nanos = index
            .scan(&table, &mut lanes, DRAIN_AT, &MetricKind::L2)
            .unwrap();
        let spent = crate::timing::thread_cpu_time() - before;
        assert!(nanos.filter > 0 && nanos.refine > 0, "{nanos:?}");
        assert!(nanos.filter + nanos.refine <= spent, "{nanos:?} > {spent}");
    }

    /// A one-attribute table over `rows` (`None`: undefined), its packed
    /// index, then `tail` inserted into both (RAW tail frames) and the
    /// first `deleted` tuples that hold "canon" tombstoned.
    fn one_attr(rows: &[Option<Vec<String>>], tail: usize, deleted: usize) -> (SwtTable, IvaIndex) {
        let opts = PagerOptions {
            page_size: 512,
            cache_bytes: 1 << 20,
        };
        let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        let a = table.define_text("a").unwrap();
        let tuple = |v: &Option<Vec<String>>| {
            let mut t = Tuple::new();
            if let Some(v) = v {
                t.set(a, Value::texts(v.clone()));
            }
            t
        };
        for v in rows {
            table.insert(&tuple(v)).unwrap();
        }
        let cfg = IvaConfig::default();
        let mut index = build_index(&table, IndexTarget::Mem, &opts, IoStats::new(), cfg).unwrap();
        for v in rows.iter().take(tail) {
            let t = tuple(v);
            let (tid, ptr) = table.insert(&t).unwrap();
            index.insert(tid, ptr, &t, table.catalog()).unwrap();
        }
        let canon = |v: &&Option<Vec<String>>| v.iter().flatten().any(|s| s == "canon");
        let holders = rows.iter().enumerate().filter(|(_, v)| canon(v));
        for (tid, _) in holders.take(deleted) {
            let ptr = index.lookup_ptr(tid as u64).unwrap().unwrap();
            table.delete(ptr).unwrap();
            assert!(index.delete(tid as u64).unwrap());
        }
        (table, index)
    }

    /// Row `i` of the leap tests: 70 of every 100 rows defined (the rest
    /// NDF_RUN frames), every ninth undefined inside PACKED frames, and one
    /// value that holds "canon" only as its second string.
    fn row(i: usize) -> Option<Vec<String>> {
        let vocab: [&[&str]; 6] = [
            &["canon"],
            &["nikon"],
            &["zzzzzzzz", "canon"],
            &["sony", "pentax"],
            &["canon eos"],
            &["leica"],
        ];
        let v = vocab[(i * 7 + i / 13) % 6].iter().map(|s| s.to_string());
        (i % 100 < 70 && i % 9 != 4).then(|| v.collect())
    }

    /// With and without a RAW tail and tombstones, a fill that leaps
    /// writes exactly what the seeded fill over the frames writes — the
    /// candidate mask, and the bits of every bound it holds (the only
    /// slots the walk reads) — block by block: a value admitted only by
    /// its second string is a candidate, and the blocks that reach past
    /// the postings' cover walk the tail.
    #[test]
    fn a_leaping_fill_is_the_seeded_fill_over_the_frames() {
        let rows: Vec<_> = (0..2500).map(row).collect();
        let q = Query::new().text(AttrId(0), "canon");
        for (tail, deleted) in [(0, 0), (40, 0), (40, 9), (0, 900)] {
            let (_, index) = one_attr(&rows, tail, deleted);
            let n = index.n_tuples();
            let matchers = index.query_matchers(&q);
            let metric = (&[1.0][..], &MetricKind::L2);
            let open = || {
                let mut carry = ScanCarry::new(10);
                let (shared, seed, _) = index
                    .prepare_query_timed(&q, &matchers, metric, &mut carry)
                    .unwrap();
                (shared, seed.expect("seeded"))
            };
            let ((shared, seed), (_, mut walked)) = (open(), open());
            walked.leap = None;
            // 900 tombstones raise the bound until most positions pass.
            assert_eq!(seed.leap.is_some(), deleted < 900, "{tail} {deleted}");
            let mut both =
                [&seed, &walked].map(|s| Bounds::open(&index, &shared, Some(s)).unwrap());
            let mut tsrc = index.open_tuple_source().unwrap();
            let (mut at, mut tids, mut ptrs) = (0, Vec::new(), Vec::new());
            while at < n {
                tids.clear();
                ptrs.clear();
                tsrc.next_block(block_len(n - at), &mut tids, &mut ptrs)
                    .unwrap();
                for b in &mut both {
                    b.lbs.fill(f64::from_bits(0x7FF8_0000_DEAD_BEEF));
                    b.fill(at, &tids).unwrap();
                }
                let [leapt, walked] = &both;
                let ctx = format!("tail {tail}, deleted {deleted}, block at {at}");
                assert_eq!(leapt.cands, walked.cands, "{ctx}");
                let bits = |b: &Bounds| {
                    let at = |i: usize| b.lbs.get(i).map(|v| v.to_bits());
                    positions(b.cands).map(at).collect::<Vec<_>>()
                };
                assert_eq!(bits(leapt), bits(walked), "{ctx}");
                at += tids.len() as u64;
            }
        }
    }

    /// A leaping query over a list with no RAW tail reads no vector-list
    /// frame past the dictionary its probe loads, and of the directory
    /// only the frames that hold a candidate, whole, and every other
    /// frame's header: the index's list-byte counter is exactly that.
    #[test]
    fn a_leaping_query_reads_only_the_frames_its_candidates_need() {
        let rows: Vec<_> = (0..5000)
            .map(|i: usize| {
                let needle = (1100..1110).contains(&i) || i == 3100;
                Some(vec![if needle {
                    "needle".into()
                } else {
                    format!("hay {}", i % 50)
                }])
            })
            .collect();
        let (table, index) = one_attr(&rows, 0, 0);
        let entry = index.attr_entry(AttrId(0)).unwrap();
        assert_eq!(entry.list_type, crate::ListType::III);
        let q = Query::new().text(AttrId(0), "needle");
        let io = index.io_stats();
        // The probe: the list's DICT frame.
        let before = io.snapshot();
        let matchers = index.query_matchers(&q);
        let (metric, mut carry) = ((&[1.0][..], &MetricKind::L2), ScanCarry::new(5));
        let (_, seed, _) = index
            .prepare_query_timed(&q, &matchers, metric, &mut carry)
            .unwrap();
        let probe = io.snapshot().since(&before).logical_list_bytes;
        assert!(seed.is_some_and(|s| s.leap.is_some()));
        // The directory as the build laid it out: `[kind][elems][len]`
        // and the payload, frame by frame.
        let column = index.read_tuple_column().unwrap();
        let entries: Vec<(u32, u64)> = column
            .tids
            .iter()
            .copied()
            .zip(column.ptrs.iter().copied())
            .collect();
        let dir = crate::dirlist::encode_dir(&entries);
        let (mut at, mut first, mut expected) = (0usize, 0usize, probe);
        while at < dir.len() {
            let elems = u32::from_le_bytes(dir[at + 1..at + 5].try_into().unwrap()) as usize;
            let len = u32::from_le_bytes(dir[at + 5..at + 9].try_into().unwrap()) as u64;
            let holds = rows[first..first + elems]
                .iter()
                .flatten()
                .any(|v| v[0] == "needle");
            expected += 9 + if holds { len } else { 0 };
            (at, first) = (at + 9 + len as usize, first + elems);
        }
        let before = io.snapshot();
        let out = index
            .query(&table, &q, 5, &MetricKind::L2, WeightScheme::Equal)
            .unwrap();
        assert_eq!(io.snapshot().since(&before).logical_list_bytes, expected);
        assert_eq!(out.stats.positions_weighed, 11);
        assert!(
            out.stats.tuples_scanned < 3 * BLOCK as u64,
            "{:?}",
            out.stats
        );
    }

    /// A query reads each list's DICT frame once, whatever its shape: two
    /// indexes whose dictionaries differ only in the length of one string,
    /// which no query here admits, read list bytes that differ by exactly
    /// what one parse of the dictionary per query reads more — for a
    /// seeded query that tombstones keep from leaping, a leaping one over
    /// a RAW tail, and each member of a batch of two unseeded two-value
    /// queries.
    #[test]
    fn a_query_reads_each_dictionary_once() {
        let one = Query::new().text(AttrId(0), "canon");
        let two = one.clone().text(AttrId(1), "canon");
        for (tail, deleted, q, members) in [(0, 900, &one, 1), (40, 0, &one, 1), (0, 0, &two, 2)] {
            let read = |rare: &str| {
                let mut rows: Vec<_> = (0..2500).map(row).collect();
                rows[2000] = Some(vec![rare.to_string()]);
                let (table, index) = one_attr(&rows, tail, deleted);
                let (io, entry) = (index.io_stats(), index.attr_entry(AttrId(0)).unwrap());
                let before = io.snapshot();
                index.list_reader(entry).unwrap().load_dict().unwrap();
                let parse = io.snapshot().since(&before).logical_list_bytes;
                let item = BatchItem {
                    query: q,
                    k: 10,
                    weights: WeightScheme::Equal,
                };
                let before = io.snapshot();
                let outs = index
                    .query_batch(&table, &vec![item; members], &MetricKind::L2)
                    .unwrap();
                let read = io.snapshot().since(&before).logical_list_bytes;
                (parse, read, outs, index.n_tuples())
            };
            let ((parse, read, outs, n), (longer, more, other, _)) =
                (read("xylophone"), read(&"xylophone".repeat(4)));
            for (out, other) in outs.iter().zip(&other) {
                let ctx = format!(
                    "tail {tail}, deleted {deleted}, batch of {members}: {:?}",
                    out.stats
                );
                // Only the seeded query over a RAW tail leaps.
                assert_eq!(out.stats.tuples_scanned < n, tail > 0, "{ctx}");
                assert!(out.stats.dict_distances > 0, "{ctx}");
                assert_eq!(out.results, other.results, "{ctx}");
            }
            assert!(longer > parse);
            assert_eq!(more - read, members as u64 * (longer - parse), "{members}");
        }
    }

    /// The row of [`multi`] tuple `i`: three text attributes whose lists are
    /// coded by strings — Type III of one to three strings, Type II of one
    /// or two, Type I mostly of one, each with values that hold their
    /// string nearest the query second — a numeric one on every fifth row
    /// and a text one of distinct strings, which stays signature-only.
    fn multi_row(i: usize) -> Vec<Option<Value>> {
        let words = ["canon", "nikon", "sony", "pentax", "leica", "zzzzzzzz"];
        let pick = |n: usize, at: usize| (0..n).map(move |j| words[(at + 5 * j) % 6].to_string());
        let first: Vec<String> = match i % 7 {
            3 => vec!["zzzzzzzz".into(), "canon".into()],
            r => pick(1 + r % 3, i / 3).collect(),
        };
        vec![
            Some(Value::texts(first)),
            i.is_multiple_of(8)
                .then(|| Value::texts(pick(1 + i / 8 % 2, i / 5))),
            i.is_multiple_of(6)
                .then(|| Value::texts(pick(1 + usize::from(i.is_multiple_of(30)), i / 7))),
            i.is_multiple_of(5).then(|| Value::num((i % 40) as f64)),
            i.is_multiple_of(4)
                .then(|| Value::text(format!("item number {i}"))),
        ]
    }

    /// A table of `n` [`multi_row`]s, its bulk-built index, then `tail`
    /// more through `IvaIndex::insert` (RAW tail frames) and every
    /// `every`-th tuple tombstoned; the tuples, `None` where deleted.
    fn multi(n: usize, tail: usize, every: usize) -> (SwtTable, IvaIndex, Vec<Option<Tuple>>) {
        let opts = PagerOptions {
            page_size: 512,
            cache_bytes: 1 << 20,
        };
        let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        for a in 0..5 {
            match a {
                3 => drop(table.define_numeric("n").unwrap()),
                _ => drop(table.define_text(&format!("t{a}")).unwrap()),
            }
        }
        let tuple = |i: usize| {
            let mut t = Tuple::new();
            for (a, v) in multi_row(i).into_iter().enumerate() {
                if let Some(v) = v {
                    t.set(AttrId(a as u32), v);
                }
            }
            t
        };
        let mut tuples: Vec<Option<Tuple>> = (0..n).map(|i| Some(tuple(i))).collect();
        for t in tuples.iter().flatten() {
            table.insert(t).unwrap();
        }
        let cfg = IvaConfig::default();
        let mut index = build_index(&table, IndexTarget::Mem, &opts, IoStats::new(), cfg).unwrap();
        for i in n..n + tail {
            let t = tuple(i);
            let (tid, ptr) = table.insert(&t).unwrap();
            index.insert(tid, ptr, &t, table.catalog()).unwrap();
            tuples.push(Some(t));
        }
        let doomed = (0..tuples.len())
            .step_by(every.max(1))
            .take_while(|_| every > 0);
        for tid in doomed.collect::<Vec<_>>() {
            let ptr = index.lookup_ptr(tid as u64).unwrap().unwrap();
            table.delete(ptr).unwrap();
            assert!(index.delete(tid as u64).unwrap());
            tuples[tid] = None;
        }
        (table, index, tuples)
    }

    /// A multi-value query whose every attribute is coded by strings is
    /// answered with no fetch. A RAW tail, a numeric or signature-only
    /// attribute and tombstones leave the walk undecided exactly on the
    /// live tuples that define such an attribute, or a queried one in the
    /// tail — and on the last value of the Type I list's one PACKED frame,
    /// which the walk serves: where the pool has room for every tuple,
    /// those and only those are fetched. Every answer is brute force's,
    /// bit for bit.
    #[test]
    fn a_multi_value_query_fetches_only_what_the_dictionaries_cannot_decide() {
        let coded = Query::new()
            .text(AttrId(0), "canon")
            .text(AttrId(1), "sony")
            .text(AttrId(2), "nikom");
        let with = |a: u32, q: &Query| match a {
            3 => q.clone().num(AttrId(3), 7.0),
            _ => q.clone().text(AttrId(a), "item number 12"),
        };
        let brute = |tuples: &[Option<Tuple>], q: &Query, k: usize, metric: &MetricKind| {
            let ndf = IvaConfig::default().ndf_penalty;
            let lambda = vec![1.0; q.len()];
            let mut all: Vec<(f64, u64)> = (tuples.iter().enumerate())
                .filter_map(|(tid, t)| Some((t.as_ref()?, tid as u64)))
                .map(|(t, tid)| (crate::exact_distance(t, q, &lambda, metric, ndf), tid))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            all.truncate(k);
            all.into_iter()
                .map(|(d, tid)| (tid, d.to_bits()))
                .collect::<Vec<_>>()
        };
        for (tail, every) in [(0, 0), (60, 0), (60, 9)] {
            let (table, index, tuples) = multi(1500, tail, every);
            let types = (0..3).map(|a| index.attr_entry(AttrId(a)).unwrap().list_type);
            let types: Vec<_> = types.collect();
            assert_eq!(
                types,
                [
                    crate::ListType::III,
                    crate::ListType::II,
                    crate::ListType::I
                ]
            );
            let live = tuples.iter().flatten().count();
            for q in [coded.clone(), with(3, &coded), with(4, &coded)] {
                // Undecided: a value in the tail, or on a list not coded by
                // strings.
                let walked = |a: AttrId, tid: usize| a.0 == 2 && tid == 1494;
                let undecided = |(tid, t): (usize, &Option<Tuple>)| {
                    let Some(t) = t else { return false };
                    let defines = |a: AttrId| t.get(a).is_some();
                    let open = |a: AttrId| a.0 >= 3 || tid >= 1500 || walked(a, tid);
                    q.iter().any(|(a, _)| defines(a) && open(a))
                };
                let expect = tuples.iter().enumerate().filter(|&e| undecided(e)).count();
                for (k, metric) in [
                    (1, MetricKind::L1),
                    (10, MetricKind::L2),
                    (live + 1, MetricKind::L2),
                ] {
                    let out = index
                        .query(&table, &q, k, &metric, WeightScheme::Equal)
                        .unwrap();
                    let got: Vec<_> = out
                        .results
                        .iter()
                        .map(|e| (e.tid, e.dist.to_bits()))
                        .collect();
                    let ctx = format!("tail {tail}, every {every}, {q:?}, k {k}");
                    assert_eq!(got, brute(&tuples, &q, k, &metric), "{ctx}");
                    let fetched = out.stats.table_accesses as usize;
                    if q.len() == 3 && tail == 0 && k < live {
                        assert_eq!(fetched, 0, "{ctx}");
                        assert!(
                            out.stats.walk_admits > 0 && out.stats.dict_distances > 0,
                            "{ctx}"
                        );
                    }
                    if k > live {
                        assert_eq!(fetched, expect, "{ctx}");
                    }
                }
            }
        }
    }

    /// The one exact table's contract, in a lane with no seed and in
    /// seeded lanes that leap and that walk the frames: for every position
    /// whose codes a fill recorded, at any cap, the decision is the
    /// value's true difference — the min over all of its strings —
    /// wherever that is below the cap and within the seed's limit, and
    /// otherwise none, or a difference past the cap or the limit too. A
    /// code once past its cap stays past when the cap is lifted, and an
    /// exact one stays; no lane measures a string twice.
    #[test]
    fn the_exact_table_is_exact_within_its_caps() {
        let rows: Vec<_> = (0..2500).map(row).collect();
        let (_, index) = one_attr(&rows, 0, 0);
        let q = Query::new().text(AttrId(0), "canon");
        let matchers = index.query_matchers(&q);
        let metric = (&[1.0][..], &MetricKind::L1);
        let seeded = || {
            let mut carry = ScanCarry::new(10);
            let (shared, seed, _) = index
                .prepare_query_timed(&q, &matchers, metric, &mut carry)
                .unwrap();
            (shared, seed.expect("seeded"))
        };
        let ((shared, leaping), (_, mut walking)) = (seeded(), seeded());
        assert!(leaping.leap.is_some());
        walking.leap = None;
        for (what, seed) in [
            ("none", None),
            ("leap", Some(&leaping)),
            ("walk", Some(&walking)),
        ] {
            let limit = seed.map_or(f64::INFINITY, |s| s.limit);
            for cap in [0, 1, 2, 4, 5, usize::MAX] {
                let mut bounds = Bounds::open(&index, &shared, seed).unwrap();
                let mut tsrc = index.open_tuple_source().unwrap();
                let (n, mut at, mut seen) = (index.n_tuples(), 0, 0);
                let (mut tids, mut ptrs, mut distances) = (Vec::new(), Vec::new(), 0);
                while at < n {
                    tids.clear();
                    ptrs.clear();
                    tsrc.next_block(block_len(n - at), &mut tids, &mut ptrs)
                        .unwrap();
                    bounds.fill(at, &tids).unwrap();
                    let Some(AttrScan::Text { exact, matcher, .. }) = bounds.attrs.first_mut()
                    else {
                        panic!("a text scan");
                    };
                    for (i, &tid) in tids.iter().enumerate() {
                        let Some(strings) = rows[tid as usize].as_ref().filter(|_| exact.holds(i))
                        else {
                            continue;
                        };
                        let truth = (strings.iter())
                            .map(|s| iva_text::edit_distance("canon", s))
                            .min()
                            .unwrap();
                        let mut decide = |cap: usize| {
                            let q = matcher.pattern();
                            exact.decide(i, q, |_| cap, &mut distances).unwrap()
                        };
                        let got = decide(cap);
                        let ctx = format!("{what}: tid {tid}, cap {cap}, truth {truth}: {got:?}");
                        match truth < cap && truth as f64 <= limit {
                            true => assert_eq!(got, Some(truth), "{ctx}"),
                            false => assert!(
                                got.is_none_or(|d| d >= truth && (d >= cap || d as f64 > limit)),
                                "{ctx}"
                            ),
                        }
                        assert_eq!(decide(usize::MAX), got, "{ctx}");
                        seen += 1;
                    }
                    at += tids.len() as u64;
                }
                let want = if seed.is_some_and(|s| s.leap.is_some()) {
                    500
                } else {
                    1500
                };
                assert!(seen > want, "{what}: {seen} values recorded");
                assert!(
                    distances <= 7,
                    "{what}: {distances} distances for 7 strings"
                );
            }
        }
    }

    /// A distance the table decides past the seed's limit is skipped like
    /// an estimate: the 200 values that walk decides past it, while the
    /// pool still has room, are neither inserted nor fetched. Tombstones on
    /// "canon" raise `B` to "cannon"'s 1 edit past the codes the probe
    /// visits, so "nonac" and "oncan" — estimated at 1 edit, 4 away — stay
    /// unseen, pass the limit and are decided. The walk inserts only the 4
    /// "cannon" before them, the 5 live "canon" and the first "cannon"
    /// after them.
    #[test]
    fn a_seeded_lane_skips_a_decided_distance_past_its_limit() {
        let words = |i: usize| match i {
            0..4 | 304.. => "cannon",
            4..104 => "canon",
            _ => ["nonac", "oncan"][i % 2],
        };
        let rows: Vec<_> = (0..350).map(|i| Some(vec![words(i).to_string()])).collect();
        let (table, index) = one_attr(&rows, 0, 95);
        let q = Query::new().text(AttrId(0), "canon");
        let matchers = index.query_matchers(&q);
        let (metric, mut carry) = ((&[1.0][..], &MetricKind::L1), ScanCarry::new(10));
        let (shared, seed, _) = index
            .prepare_query_timed(&q, &matchers, metric, &mut carry)
            .unwrap();
        let seed = seed.expect("seeded");
        assert_eq!(
            (seed.limit, &seed.exact.known[2..]),
            (1.0, &[Known::Unseen; 2][..])
        );
        let lane = Lane::open(&index, &q, &[1.0], &shared, Some(&seed), &mut carry);
        let mut lanes = [lane.unwrap()];
        index
            .scan(&table, &mut lanes, DRAIN_AT, &MetricKind::L1)
            .unwrap();
        drop(lanes);
        let stats = carry.stats;
        let got: Vec<_> = carry.pool.into_sorted().iter().map(|e| e.tid).collect();
        let want: Vec<u64> = (99..104).chain([0, 1, 2, 3, 304]).collect();
        let counts = (stats.walk_admits, stats.table_accesses);
        assert!(got == want && counts == (10, 0), "{got:?} {stats:?}");
    }

    /// A seeded lane's table never rises across its cut: a string it
    /// measures past the cut is kept as past it, at the cut, and one whose
    /// bound is past the cut is never measured. Over 850 values — four
    /// blocks — that hold "nonac" or "oncan" (estimated 1 edit from
    /// "canon", the cut; 4 away) beside a string estimated past the cut,
    /// walked while the pool still has room, the lane weighs every
    /// position, as its probe's table lets through, measures the two near
    /// strings once each and nothing else, and inserts and fetches none of
    /// them.
    #[test]
    fn a_seeded_lane_measures_no_string_past_its_cut() {
        let words = |i: usize| match i {
            0..4 | 954.. => vec!["cannon"],
            4..104 => vec!["canon"],
            _ => vec![["nonac", "oncan"][i % 2], "qqqqqqqqqq"],
        };
        let rows: Vec<_> = (0..1000)
            .map(|i| Some(words(i).into_iter().map(String::from).collect()))
            .collect();
        let (table, index) = one_attr(&rows, 0, 95);
        let q = Query::new().text(AttrId(0), "canon");
        let matchers = index.query_matchers(&q);
        let (metric, mut carry) = ((&[1.0][..], &MetricKind::L1), ScanCarry::new(10));
        let (shared, seed, _) = index
            .prepare_query_timed(&q, &matchers, metric, &mut carry)
            .unwrap();
        let seed = seed.expect("seeded");
        assert_eq!((seed.exact.cut, seed.distances), (1.0, 2));
        let lane = Lane::open(&index, &q, &[1.0], &shared, Some(&seed), &mut carry);
        let mut lanes = [lane.unwrap()];
        index
            .scan(&table, &mut lanes, DRAIN_AT, &MetricKind::L1)
            .unwrap();
        drop(lanes);
        let stats = &carry.stats;
        let counts = (
            stats.positions_weighed,
            stats.dict_distances,
            stats.walk_admits,
            stats.table_accesses,
        );
        assert_eq!(counts, (1000, 4, 10, 0), "{stats:?}");
    }

    /// A weight vector shorter than the query is rejected by every shape:
    /// serial, and each lane of a batch of two.
    #[test]
    fn short_weight_vector_is_rejected_by_every_shape() {
        let opts = PagerOptions {
            page_size: 512,
            cache_bytes: 64 * 1024,
        };
        let mut table = SwtTable::create_mem(&opts, IoStats::new()).unwrap();
        let name = table.define_text("name").unwrap();
        let price = table.define_numeric("price").unwrap();
        for i in 0..200u32 {
            let tup = Tuple::new()
                .with(name, Value::text(format!("item {i}")))
                .with(price, Value::num(f64::from(i)));
            table.insert(&tup).unwrap();
        }
        let cfg = IvaConfig::default();
        let index = build_index(&table, IndexTarget::Mem, &opts, IoStats::new(), cfg).unwrap();
        let q = Query::new().text(AttrId(0), "item 7").num(AttrId(1), 7.0);
        let (good, short) = ([1.0, 1.0], [1.0]);
        let matchers = index.query_matchers(&q);
        let rejected = |r: Result<()>| matches!(r, Err(IvaError::InvalidArgument(_)));

        // Serial.
        let (mut carry, m) = (ScanCarry::new(3), &matchers);
        let r = index.query_carry(&table, &q, m, &MetricKind::L2, &short, &mut carry);
        assert!(rejected(r));
        index
            .query_carry(&table, &q, m, &MetricKind::L2, &good, &mut carry)
            .unwrap();
        // Batch of two: one well-formed lane does not excuse the other.
        let shared = index.prepare_query(&q, &matchers).unwrap();
        let (mut a, mut b) = (ScanCarry::new(3), ScanCarry::new(3));
        assert!(Lane::open(&index, &q, &good, &shared, None, &mut a).is_ok());
        let second = Lane::open(&index, &q, &short, &shared, None, &mut b);
        assert!(rejected(second.map(|_| ())));
        // A weight that is not a number poisons every distance, and a
        // negative one voids the lower bound: rejected at the same door.
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let weights = [1.0, bad];
            let third = Lane::open(&index, &q, &weights, &shared, None, &mut b);
            assert!(rejected(third.map(|_| ())), "{bad}");
        }
    }
}
